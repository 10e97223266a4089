#!/usr/bin/env bash
# Check `trace_tool attach` against the file path. Records a workload,
# serves the same workload over a shm ring twice — once into
# `attach --mrc`, once into `attach --machine=xeon,atom` — and requires
# each attach table to match `trace_tool mrc` / `trace_tool replay` on
# the recorded file line for line. Then checks that malformed numeric
# flag values make trace_tool and scenario_tool exit non-zero.
#
# Usage: tools/check_attach_parity.sh BUILD_DIR [WORKLOAD] [SCALE]

set -euo pipefail

build=${1:?usage: check_attach_parity.sh BUILD_DIR [WORKLOAD] [SCALE]}
workload=${2:-H-WordCount}
scale=${3:-0.02}
tool="$build/bench/trace_tool"
scenario="$build/bench/scenario_tool"
scn="$(cd "$(dirname "$0")/.." && pwd)/scenarios/replay_machines.scn"
ring="wcrt.parity.$$"
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

"$tool" record "$workload" "$dir/t.wtrace" --scale="$scale"
"$tool" mrc "$dir/t.wtrace" > "$dir/mrc.txt"
"$tool" replay "$dir/t.wtrace" --machine=xeon,atom > "$dir/replay.txt"

# attach_output OUT ATTACH_ARGS... — serve the workload once and
# capture what attach prints for it.
attach_output() {
    local out=$1
    shift
    "$tool" serve "$workload" --ring="$ring" --scale="$scale" \
        > "$dir/serve.txt" &
    local serve_pid=$!
    "$tool" attach --ring="$ring" "$@" > "$out"
    wait "$serve_pid"
    cat "$out"
}

# attach prints a "=== shm:NAME ===" banner and a size line, then the
# very table the file command prints.
attach_output "$dir/attach_mrc.txt" --mrc
diff <(tail -n +3 "$dir/attach_mrc.txt") "$dir/mrc.txt"
# replay's own first two lines are its "replaying ..." banner.
attach_output "$dir/attach_replay.txt" --machine=xeon,atom
diff <(tail -n +3 "$dir/attach_replay.txt") <(tail -n +3 "$dir/replay.txt")
echo "attach matches mrc and replay on $workload"

expect_failure() {
    if "$@" > /dev/null 2>&1; then
        echo "accepted a malformed flag: $*" >&2
        exit 1
    fi
}
expect_failure "$tool" replay "$dir/t.wtrace" --jobs=-1
expect_failure "$tool" mrc "$dir/t.wtrace" --sizes=16k,32
expect_failure "$tool" mrc "$dir/t.wtrace" --assoc=eight
expect_failure "$tool" mrc "$dir/t.wtrace" --line=-64
expect_failure "$tool" mrc "$dir/t.wtrace" --jobs=2x
expect_failure "$tool" dump "$dir/t.wtrace" --limit=abc
expect_failure "$tool" attach --ring="$ring" --jobs=-1
expect_failure "$scenario" run "$scn" --cell=abc
expect_failure "$scenario" run "$scn" --jobs=-1
echo "malformed numeric flags exit non-zero"
