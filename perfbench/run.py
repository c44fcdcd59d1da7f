#!/usr/bin/env python3
"""Build the BEER benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload recover --seed 1 --seconds 10 --trace 0

Every argument is passed to the beerbench binary (see README.md). The
build goes to $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench,
relative to the repository root; build output goes to stderr so the
binary's JSON result stays the last line of stdout.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    """Configure once, then build incrementally; return the binary path."""
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, base, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j",
                    str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)
    return build_dir


def main():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("perfbench: no library sources at %s/src" % ROOT,
              file=sys.stderr)
        return 2
    try:
        build_dir = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 2
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    return subprocess.run([os.path.join(build_dir, "beerbench"),
                           *sys.argv[1:], "--work-dir", work_dir]).returncode


if __name__ == "__main__":
    sys.exit(main())
