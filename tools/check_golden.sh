#!/usr/bin/env bash
# Diff the figure and table outputs against their committed goldens.
# Runs reduction_77_to_17, fig1_instruction_mix, fig2_integer_breakdown,
# fig3_ipc, fig4_cache_mpki, fig5_tlb_mpki, table4_branch_prediction
# and, with --mrc-mode=verify, fig6-fig9 at WCRT_SCALE=0.05 with a
# fresh trace directory, and requires each stdout to match
# tests/golden/<bench>.txt exactly. The only lines dropped are
# reduction_77_to_17's "Profiling the roster" progress line, which
# prints '.' per capture and '+' per trace-cache hit, and fig6's five
# wall-clock timing lines (serial re-execution, live one-pass ladder,
# trace capture, replayed 10-rung ladder, speedup).
#
# Usage: tools/check_golden.sh BUILD_DIR

set -euo pipefail

build=${1:?usage: check_golden.sh BUILD_DIR}
golden="$(cd "$(dirname "$0")/.." && pwd)/tests/golden"
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

drop='^(Profiling the roster|serial re-execution|live one-pass ladder'
drop+='|trace capture|replayed 10-rung ladder|speedup vs serial re-execution)'

status=0
check() {
    local bench=$1
    shift
    WCRT_SCALE=0.05 WCRT_TRACE_DIR="$dir/traces" "$build/bench/$bench" "$@" |
        grep -Ev "$drop" > "$dir/$bench.txt"
    if diff -u "$golden/$bench.txt" "$dir/$bench.txt"; then
        echo "$bench matches its golden"
    else
        status=1
    fi
}

for bench in reduction_77_to_17 fig1_instruction_mix fig2_integer_breakdown \
             fig3_ipc fig4_cache_mpki fig5_tlb_mpki table4_branch_prediction; do
    check "$bench"
done
for bench in fig6_icache_footprint fig7_dcache_footprint \
             fig8_unified_footprint fig9_mpi_footprint; do
    check "$bench" --mrc-mode=verify
done
exit "$status"
