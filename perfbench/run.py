#!/usr/bin/env python3
"""Runs one perfbench workload against the checkout this file sits in.

    python3 perfbench/run.py --workload integrate --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Builds the library, the `bdi` CLI and the benchmark runner from source
(CMake, Release) under $CARGO_TARGET_DIR (default .bench_build), then runs
the runner. The runner's last line of standard output is the result JSON.
Exits non-zero, without a result line, when the sources are missing or the
build fails.
"""
import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("integrate", "serve_read", "serve_update")
RUN_TIMEOUT_S = 175


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def source_stamp():
    """The git commit when there is one, else a hash of the sources built."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            return subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], check=True,
                capture_output=True, text=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no library sources next to perfbench/ (expected src/CMakeLists.txt)")
        return None
    out = os.path.join(build_root(), "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target"] + targets)
    for step in steps:
        # Build output goes to stderr: stdout carries only the runner's lines.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(step))
            return None
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.selftest:
        out = build(["perfbench_selftest"])
        if out is None:
            return 1
        scratch = os.path.join(build_root(), "perfbench-work", "selftest")
        return subprocess.run(
            [os.path.join(out, "perfbench_selftest"), scratch]).returncode

    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    out = build(["bdi", "perfbench_runner"])
    if out is None:
        return 1
    work = os.path.join(build_root(), "perfbench-work",
                        "%s-trace%d" % (args.workload, args.trace))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    command = [os.path.join(out, "perfbench_runner"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--bdi", os.path.join(out, "bdi_tools", "bdi"),
               "--work-dir", work, "--git-sha", source_stamp()]
    # Own process group, so a timeout also stops the servers it started.
    runner = subprocess.Popen(command, start_new_session=True)
    try:
        return runner.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("runner exceeded %d s" % RUN_TIMEOUT_S)
        os.killpg(runner.pid, signal.SIGKILL)
        runner.wait()
        return 1


if __name__ == "__main__":
    sys.exit(main())
