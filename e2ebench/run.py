#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (e2ebench).

Run from the repository root:

    python3 e2ebench/run.py --workload bushy_tree --seed 1 --seconds 20 --trace 0

Configures and builds e2ebench/ with CMake into $CARGO_TARGET_DIR (default
.bench_build) — the first run compiles the library, later runs only check
it is up to date — then runs the benchmark binary with the given
arguments. Build output goes to standard error, so the last line of
standard output is the benchmark's JSON result. Spill files go to a
private directory under the build directory that is removed afterwards,
also when the run fails.
"""
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175


def build(build_dir):
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "e2ebench", "-j", "4"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("e2ebench: build step failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    # A SIGTERM unwinds like an error: subprocess.run kills and reaps the
    # benchmark, and the finally clause removes the spill directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(build_root, "e2ebench")
    if not build(build_dir):
        return 1
    spill_dir = tempfile.mkdtemp(prefix="e2ebench-spill-", dir=build_root)
    try:
        cmd = [os.path.join(build_dir, "e2ebench")] + sys.argv[1:] + ["--spill-dir", spill_dir]
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("e2ebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(spill_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
