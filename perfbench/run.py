#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --test        # build and run the benchmark's own tests

Run from the repository root. The build (perfbench/CMakeLists.txt, which
compiles ../src) goes to .bench_build/perfbench and is incremental, so only
the first run in a checkout pays for it. Build output goes to stderr; the
last line of stdout is the benchmark's JSON result. Exit code 0 means the run
completed (its JSON says whether the checks passed); anything else means it
did not, and nothing is printed on stdout.
"""
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 175  # the watchdog inside fires first; this is the backstop
BUILD_JOBS = str(min(4, os.cpu_count() or 1))


def build(target):
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs share one build
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(BUILD, ignore_errors=True)
                return False
        cmd = ["cmake", "--build", BUILD, "--target", target, "-j", BUILD_JOBS]
        return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main(argv):
    if argv == ["--test"]:
        if not build("perfbench_tests"):
            return 1
        return subprocess.run([os.path.join(BUILD, "perfbench_tests")],
                              timeout=600).returncode
    if not build("perfbench"):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    spans = os.path.join(BUILD, "spans")
    os.makedirs(spans, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench")] + argv + ["--spans-dir", spans]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s; killed" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 4
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        return proc.returncode
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
