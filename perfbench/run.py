#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload sketch-plain --seed 1 --seconds 20 \
        --trace 0

Builds the opaq library and the `opaq_perfbench` binary (Release) into
`.bench_build/perfbench`, then runs the workload in `.bench_build/work`.
Build output goes to stderr; stdout carries the binary's report, whose last
line is the JSON result. The exit code is the binary's: non-zero when the
build fails or any correctness gate fails.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("sketch-plain", "sketch-packed", "serve-live")
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(root, "src", "core", "opaq.h")):
        sys.stderr.write("perfbench: no opaq sources next to %s\n" % bench_dir)
        return 2

    build_dir = os.path.join(root, ".bench_build", "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", bench_dir, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs,
         "--target", "opaq_perfbench"],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n" % step)
            return 2

    # Fresh inputs every run: the binary writes its data files here.
    work_dir = os.path.join(root, ".bench_build", "work", args.workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    command = [
        os.path.join(build_dir, "opaq_perfbench"),
        "--workload=" + args.workload,
        "--seed=%d" % args.seed,
        "--seconds=%g" % args.seconds,
        "--trace=" + args.trace,
        "--work-dir=" + work_dir,
    ]
    sys.stdout.flush()
    # A SIGTERM to this script must not orphan the benchmark binary.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    proc = subprocess.Popen(command)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        code = 3
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    # Keep the trace; drop the data files, which the next run regenerates.
    for name in os.listdir(work_dir):
        path = os.path.join(work_dir, name)
        if not name.startswith("trace-"):
            if os.path.isdir(path):
                shutil.rmtree(path, ignore_errors=True)
            else:
                os.remove(path)
    return code


if __name__ == "__main__":
    sys.exit(main())
