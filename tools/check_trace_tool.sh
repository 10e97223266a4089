#!/usr/bin/env bash
# Check trace_tool's command line end to end. Records a workload and
# requires `trace_tool mrc --json` at --jobs=3 and --jobs=4, which
# profile the trace as that many chunk ranges and merge them, to print
# the --jobs=1 curve and counts (everything but wall_s) for every
# stream kind. Then checks that malformed numeric flag values, a
# malformed WCRT_SCALE and unknown commands make trace_tool,
# scenario_tool and a figure bench exit non-zero; that an unknown
# workload name exits 1 (a user error, not an abort) from `trace_tool
# record`; that `record` takes a baseline-suite name as the scenarios
# do; and that `scenario_tool validate` rejects a retired traffic
# scenario, a [phases] section, lax numbers (a sign, a space, an
# exponent or a value past 32 bits) and a sweep geometry its ladder
# cannot build.
#
# Usage: tools/check_trace_tool.sh BUILD_DIR [WORKLOAD] [SCALE]

set -euo pipefail

build=${1:?usage: check_trace_tool.sh BUILD_DIR [WORKLOAD] [SCALE]}
workload=${2:-H-WordCount}
scale=${3:-0.02}
tool="$build/bench/trace_tool"
scenario="$build/bench/scenario_tool"
table4="$build/bench/table4_branch_prediction"
scn="$(cd "$(dirname "$0")/.." && pwd)/scenarios/replay_machines.scn"
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

"$tool" record "$workload" "$dir/t.wtrace" --scale="$scale"

# mrc_json KIND JOBS — the JSON result without its wall time.
mrc_json() {
    "$tool" mrc "$dir/t.wtrace" --json --kind="$1" --jobs="$2" |
        grep -v '"wall_s"'
}
for kind in instr data unified; do
    mrc_json "$kind" 1 > "$dir/mrc1.json"
    for jobs in 3 4; do
        diff "$dir/mrc1.json" <(mrc_json "$kind" "$jobs")
    done
done
echo "mrc chunk ranges match the one-range pass on $workload"

expect_failure() {
    if "$@" > /dev/null 2>&1; then
        echo "accepted a malformed command: $*" >&2
        exit 1
    fi
}
expect_failure "$tool" replay "$dir/t.wtrace" --jobs=-1
expect_failure "$tool" mrc "$dir/t.wtrace" --sizes=16k,32
expect_failure "$tool" mrc "$dir/t.wtrace" --assoc=eight
expect_failure "$tool" mrc "$dir/t.wtrace" --line=-64
expect_failure "$tool" mrc "$dir/t.wtrace" --jobs=2x
expect_failure "$tool" dump "$dir/t.wtrace" --limit=abc
expect_failure "$tool" record H-Grep "$dir/x.wtrace" --scale=0.05x
expect_failure "$scenario" run "$scn" --cell=abc
expect_failure "$scenario" run "$scn" --jobs=-1
expect_failure "$scenario" run "$scn" --scale=abc
expect_failure "$table4" --jobs=abc
expect_failure "$table4" --jobs=-1
expect_failure env WCRT_SCALE=abc "$table4"
echo "malformed numeric flags exit non-zero"

# expect_exit1 CMD... — CMD must fail with status 1, not by a signal.
expect_exit1() {
    local rc=0
    "$@" > /dev/null 2>&1 || rc=$?
    if [ "$rc" -ne 1 ]; then
        echo "expected exit status 1, got $rc: $*" >&2
        exit 1
    fi
}
expect_exit1 "$tool" record nope "$dir/x.wtrace"
"$tool" record PARSEC-like "$dir/parsec.wtrace" --scale="$scale" > /dev/null
echo "an unknown workload name exits 1; record takes PARSEC-like"

# reject_scn NAME BODY — write BODY to NAME.scn; validate must fail it.
reject_scn() {
    printf '%b' "$2" > "$dir/$1.scn"
    expect_failure "$scenario" validate "$dir/$1.scn"
}
sweep='[scenario]\nname = s\nkind = sweep\n'
group='[workloads]\ngroup G = H-Grep\n'
reject_scn traffic '[scenario]\nname = t\nkind = traffic\ntarget = kv-get\n'
reject_scn phases "$sweep$group[phases]\nphase p = closed, ops=8\n"
reject_scn assoc "${sweep}assoc = 4294967304\n$group"
reject_scn line "${sweep}line-bytes = 4294967360\n$group"
reject_scn sizes "${sweep}sizes-kb = 16, +32\n$group"
reject_scn factor "${sweep}scale-factor = 1e3\n$group"
reject_scn scale "$sweep$group[matrix]\nscale = 1e-300\n"
reject_scn machine '[scenario]\nname = r\nkind = replay\nmachines = sim+32\n'"$group"
reject_scn line48 "${sweep}line-bytes = 48\n$group"
reject_scn oracle "${sweep}mrc-mode = oracle\nassoc = 32\nsizes-kb = 1, 16\n$group"
echo "scenario_tool validate rejects traffic files, lax numbers and bad geometry"
# Cross-process analysis is `record` to a path, then `replay` or `mrc`.
expect_failure "$tool" serve H-WordCount --ring=x
expect_failure "$tool" attach --ring=x
echo "retired serve and attach commands exit non-zero"
