#!/usr/bin/env python3
"""Builds and runs one workload of the provml benchmark.

    python3 perfbench/run.py --workload serve_ingest --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a provml checkout. The first call configures and
builds the benchmark (the provml libraries from src/ plus perfbench/src)
into .bench_build/ (or $CARGO_TARGET_DIR); later calls rebuild only what
changed. Build output goes to stderr. The benchmark's output, ending with
its one-line JSON result, goes to stdout, and its exit code is returned.
Scratch data lives under the build directory and is removed afterwards;
span files of traced runs are kept in <build>/perfbench-out/.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("serve_explore", "serve_ingest", "train_log")


def build(build_root, targets):
    build_dir = os.path.join(build_root, "perfbench")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
                       + generator, stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target"] + targets,
                   stdout=sys.stderr, check=True)
    return build_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true", help="run the benchmark's own tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        build_dir = build(build_root, ["provbench_selftest"] if args.selftest else ["provbench"])
    except (subprocess.CalledProcessError, OSError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 2
    if args.selftest:
        return subprocess.run([os.path.join(build_dir, "provbench_selftest")]).returncode

    work_dir = os.path.join(build_root, "perfbench-work", "%s-%d-%d" % (args.workload, args.seed,
                                                                       os.getpid()))
    out_dir = os.path.join(build_root, "perfbench-out")
    # Start from a disk with nothing left to write back or discard (the
    # build, an earlier run's deleted files), and leave it that way: the
    # workloads fsync, and pending writeback or discards would stall them.
    os.sync()
    try:
        return subprocess.run([os.path.join(build_dir, "provbench"),
                               "--workload", args.workload, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace),
                               "--work-dir", work_dir, "--out-dir", out_dir],
                              timeout=170).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        os.sync()


if __name__ == "__main__":
    sys.exit(main())
