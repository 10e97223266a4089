#!/usr/bin/env bash
# Diff the figure, table and scenario outputs against their committed
# goldens. Runs reduction_77_to_17, fig1_instruction_mix,
# fig2_integer_breakdown, fig3_ipc, fig4_cache_mpki, fig5_tlb_mpki,
# table1_datasets, table2_workloads, table4_branch_prediction,
# stack_impact, cluster_scaleout, ablation_llc_sharing,
# ablation_core_models, fig6-fig9 with --mrc-mode=verify, and
# `scenario_tool run` on scenarios/replay_machines.scn and
# scenarios/sweep_matrix_smoke.scn, all at WCRT_SCALE=0.05 with a
# fresh trace directory, and requires each stdout to match
# tests/golden/<name>.txt exactly: a bench's golden is named after the
# bench, a scenario's is scenario_<file stem>. The only line dropped
# is reduction_77_to_17's "Profiling the roster" progress line, which
# prints '.' per capture and '+' per trace-cache hit.
#
# Usage: tools/check_golden.sh BUILD_DIR

set -euo pipefail

build=${1:?usage: check_golden.sh BUILD_DIR}
root="$(cd "$(dirname "$0")/.." && pwd)"
golden="$root/tests/golden"
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

drop='^Profiling the roster'

status=0
# check NAME BINARY [ARGS...] — diff BINARY's stdout against NAME's golden.
check() {
    local name=$1 binary=$2
    shift 2
    WCRT_SCALE=0.05 WCRT_TRACE_DIR="$dir/traces" "$build/bench/$binary" "$@" |
        grep -Ev "$drop" > "$dir/$name.txt"
    if diff -u "$golden/$name.txt" "$dir/$name.txt"; then
        echo "$name matches its golden"
    else
        status=1
    fi
}

for bench in reduction_77_to_17 fig1_instruction_mix fig2_integer_breakdown \
             fig3_ipc fig4_cache_mpki fig5_tlb_mpki table1_datasets \
             table2_workloads table4_branch_prediction stack_impact \
             cluster_scaleout ablation_llc_sharing ablation_core_models; do
    check "$bench" "$bench"
done
for bench in fig6_icache_footprint fig7_dcache_footprint \
             fig8_unified_footprint fig9_mpi_footprint; do
    check "$bench" "$bench" --mrc-mode=verify
done
for scn in replay_machines sweep_matrix_smoke; do
    check "scenario_$scn" scenario_tool run "$root/scenarios/$scn.scn"
done
exit "$status"
