#!/usr/bin/env bash
# Diff the SimCpu-driven figure and table outputs against their
# committed goldens. Runs reduction_77_to_17, fig3_ipc,
# fig4_cache_mpki, fig5_tlb_mpki and table4_branch_prediction at
# WCRT_SCALE=0.05 with a fresh trace directory and requires each stdout
# to match tests/golden/<bench>.txt exactly. The only line dropped is
# reduction_77_to_17's "Profiling the roster" progress line, which
# prints '.' per capture and '+' per trace-cache hit.
#
# Usage: tools/check_golden.sh BUILD_DIR

set -euo pipefail

build=${1:?usage: check_golden.sh BUILD_DIR}
golden="$(cd "$(dirname "$0")/.." && pwd)/tests/golden"
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

status=0
for bench in reduction_77_to_17 fig3_ipc fig4_cache_mpki fig5_tlb_mpki \
             table4_branch_prediction; do
    WCRT_SCALE=0.05 WCRT_TRACE_DIR="$dir/traces" "$build/bench/$bench" |
        grep -v '^Profiling the roster' > "$dir/$bench.txt"
    if diff -u "$golden/$bench.txt" "$dir/$bench.txt"; then
        echo "$bench matches its golden"
    else
        status=1
    fi
done
exit "$status"
