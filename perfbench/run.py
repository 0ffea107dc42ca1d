#!/usr/bin/env python3
"""Build the simulator from source and run one benchmark workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload field-2k --seed 1 --seconds 20 --trace 0

The first call configures and builds `perfbench` (the simulator libraries
plus the benchmark program in this directory) under .bench_build/perfbench in the
RelWithDebInfo build type; later calls only rebuild what changed. The
program's standard output is passed through unchanged, so its last line is
the JSON result. Build output goes to standard error. See README.md.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources next to perfbench/ (expected src/)")
    # Keep the compiler's temporary files inside the build tree too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True, env=env)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True, env=env)


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def source_digest():
    """SHA-256 over the simulator sources, for checkouts without git."""
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        fail("build failed: %s" % err)

    out_dir = os.path.join(BUILD, "out")
    os.makedirs(out_dir, exist_ok=True)
    command = [os.path.join(BUILD, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--out", out_dir, "--git-sha", git_sha(),
               "--src-digest", source_digest()]
    sys.stdout.flush()
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
