#!/usr/bin/env python3
"""Time the whole paper: wall time, CPU time and max RSS per binary.

Runs the 17 table, figure, ablation and extension binaries under
BUILD_DIR/bench (every bench binary except trace_tool, scenario_tool
and micro_sim_throughput) one after another with their stdout
discarded, and prints a Markdown table: one row per binary, then the
totals. CPU time (user + system) and max RSS are each child's own,
read with os.wait4.

--scale sets WCRT_SCALE; without it every binary runs at its default
scale. Without --trace-dir the binaries share a fresh temporary trace
directory, removed afterwards, so the run is cold; point --trace-dir
at a directory an earlier run filled to time a warm one.

Exits 1 if any binary fails (after printing the tail of its stderr),
2 if a binary is missing.

Usage:
    run_paper.py BUILD_DIR [--scale S] [--trace-dir DIR]
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time

# Trace-recording order: the reduction captures the whole roster first.
BINARIES = (
    "reduction_77_to_17", "fig1_instruction_mix", "fig2_integer_breakdown",
    "fig3_ipc", "fig4_cache_mpki", "fig5_tlb_mpki", "table1_datasets",
    "table2_workloads", "table4_branch_prediction", "stack_impact",
    "cluster_scaleout", "ablation_llc_sharing", "ablation_core_models",
    "fig6_icache_footprint", "fig7_dcache_footprint",
    "fig8_unified_footprint", "fig9_mpi_footprint",
)


def run(path, env, err):
    """Run one binary; returns (exit code, wall s, CPU s, max RSS MB)."""
    start = time.monotonic()
    proc = subprocess.Popen([path], stdout=subprocess.DEVNULL, stderr=err,
                            env=env)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("build_dir")
    ap.add_argument("--scale", help="WCRT_SCALE for every binary")
    ap.add_argument("--trace-dir", help="trace cache to use and keep")
    args = ap.parse_args()

    paths = [os.path.join(args.build_dir, "bench", b) for b in BINARIES]
    missing = [p for p in paths if not os.access(p, os.X_OK)]
    if missing:
        print("run_paper: missing binaries: " + ", ".join(missing),
              file=sys.stderr)
        return 2

    env = dict(os.environ)
    if args.scale is not None:
        env["WCRT_SCALE"] = args.scale
    trace_dir = args.trace_dir or tempfile.mkdtemp(prefix="wcrt-paper-")
    env["WCRT_TRACE_DIR"] = trace_dir
    scale = env.get("WCRT_SCALE", "default")
    cache = "trace dir " + trace_dir if args.trace_dir else "cold traces"

    print("Whole paper: scale %s, %s, %d CPUs\n" % (scale, cache,
                                                   os.cpu_count() or 1))
    print("| binary | wall s | CPU s | max RSS MB |")
    print("|---|---:|---:|---:|")
    failed = 0
    wall_sum = cpu_sum = rss_max = 0.0
    try:
        for name, path in zip(BINARIES, paths):
            with tempfile.TemporaryFile() as err:
                code, wall, cpu, rss = run(path, env, err)
                if code != 0:
                    failed += 1
                    err.seek(0)
                    tail = err.read().decode(errors="replace")
                    sys.stderr.write("%s exited %d; stderr tail:\n%s\n" % (
                        name, code, "\n".join(tail.splitlines()[-20:])))
            wall_sum += wall
            cpu_sum += cpu
            rss_max = max(rss_max, rss)
            status = "" if code == 0 else " (exit %d)" % code
            print("| %s%s | %.2f | %.2f | %.1f |" % (name, status, wall,
                                                    cpu, rss))
            sys.stdout.flush()
    finally:
        if not args.trace_dir:
            shutil.rmtree(trace_dir, ignore_errors=True)
    print("| **total** | %.2f | %.2f | %.1f (max) |" % (wall_sum, cpu_sum,
                                                       rss_max))
    if failed:
        print("\n%d of %d binaries failed" % (failed, len(BINARIES)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
