#!/usr/bin/env python3
"""Builds the benchmark (Release, incremental) and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload scale-cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-check

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).
The last line of standard output is the result JSON printed by the binary.
"""
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(build_dir):
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    configured = any(os.path.exists(os.path.join(build_dir, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        subprocess.run(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                        "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
                       + generator, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 2
    binary = os.path.join(build_dir, "perfbench")
    args = sys.argv[1:] + ["--out-dir", os.path.join(build_dir, "out")]
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
