#!/usr/bin/env python3
"""End-to-end benchmark of the WCRT pipeline (see perfbench/DESIGN.md).

Run from the repository root:

    python3 perfbench/run.py --workload characterize-77 --seed 1 \
        --seconds 12 --trace 0

Builds perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR, or
.bench_build when unset, then runs one workload in one process. Traces
go to a fresh scratch directory under the build directory, removed on
exit. The last stdout line is the result JSON; a per-run report with the
manifest, every pass and every span is written under <build>/reports/.
Exits non-zero, printing no result, when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    """Configure once, then build incrementally; logs go to stderr."""
    if not any(os.path.exists(os.path.join(build_dir, f))
               for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "wcrt_perfbench", "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "wcrt_perfbench")


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def check_result(line, trace):
    """The result line must carry exactly BENCHMARK.json's metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    result = json.loads(line)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        raise ValueError("result metrics %s differ from BENCHMARK.json %s"
                         % (sorted(got.items()), sorted(want.items())))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT,
                                                           ".bench_build"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1

    reports = os.path.join(build_dir, "reports")
    scratch_root = os.path.join(build_dir, "scratch")
    os.makedirs(reports, exist_ok=True)
    os.makedirs(scratch_root, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=scratch_root)
    report = os.path.join(reports, "%s-seed%d-trace%d.json"
                          % (args.workload, args.seed, args.trace))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch, "--report", report,
           "--git-rev", git_rev()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        print("perfbench: benchmark exited with %d" % proc.returncode,
              file=sys.stderr)
        return 1
    try:
        check_result(proc.stdout.rstrip("\n").split("\n")[-1], args.trace)
    except (OSError, ValueError, KeyError, TypeError) as e:
        sys.stderr.write(proc.stdout)
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
