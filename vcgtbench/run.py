#!/usr/bin/env python3
"""Builds and runs the vcgt end-to-end benchmark (see README.md).

    python3 vcgtbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The driver binary is configured and built
from source on first use into $CARGO_TARGET_DIR (default .bench_build) and
rebuilt incrementally afterwards. The last line of stdout is the driver's
JSON result; the exit code is non-zero when the build fails, a correctness
check fails or the run errors.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_JOBS = "3"


def build(build_dir):
    """Configures (once) and builds the driver; returns its path or None."""
    log = sys.stderr
    configured = any(os.path.exists(os.path.join(build_dir, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cfg = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen
        if subprocess.call(cfg, stdout=log, stderr=log) != 0:
            return None
    cmd = ["cmake", "--build", build_dir, "--target", "vcgt_bench", "-j", BUILD_JOBS]
    if subprocess.call(cmd, stdout=log, stderr=log) != 0:
        return None
    exe = os.path.join(build_dir, "vcgt_bench")
    return exe if os.path.exists(exe) else None


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        exe = build(build_dir)
    except OSError as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    if exe is None:
        print("run.py: build failed", file=sys.stderr)
        return 1
    # The driver prints the result line itself; wait for it to exit.
    return subprocess.call([exe] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
