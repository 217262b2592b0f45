#!/usr/bin/env python3
"""Builds and runs the lsmlab benchmark.

    python3 lsmbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the engine and the lsmbench binary (Release,
lock-rank validator compiled out) under $CARGO_TARGET_DIR (default
.bench_build), runs one workload in a fresh DB directory there, removes the
directory, and passes the binary's output and exit code through. The last
line of standard output is the result JSON. Extra flags: --smoke (seconds-
scale sizes) and --break-oracle (negative test: one wrong expectation).
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("readmostly_hot", "readmostly_cold", "ingest")
RUN_TIMEOUT_S = 170


def fail(message):
    print("lsmbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(out):
    """Configures (once) and builds the binary; build logs go to stderr."""
    binary = os.path.join(out, "lsmbench")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(configure, stdout=sys.stderr, stderr=sys.stderr) != 0:
            shutil.rmtree(out, ignore_errors=True)
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "--target", "lsmbench", "-j", jobs]
    if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
        fail("build failed")
    return binary


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--break-oracle", action="store_true")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        fail("engine sources not found at " + ROOT)
    out = build_dir()
    binary = build(out)
    work = os.path.join(out, "run-%d" % os.getpid())
    traces = os.path.join(out, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", work, "--git-sha", git_sha(),
           "--spans-out", os.path.join(traces, args.workload + ".tsv")]
    if args.smoke:
        cmd.append("--smoke")
    if args.break_oracle:
        cmd.append("--break-oracle")
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        code = 3
        print("lsmbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
