#!/usr/bin/env python3
"""The benchmark of record: one run of one workload against xsql_server.

    python3 perfbench/run.py --workload point_lookup --seed 1 \
        --seconds 10 --trace 0

Run from the root of an xsql checkout. Builds the repository's library,
its xsql_server binary and the load driver from source into
.bench_build/ (incrementally after the first run), runs the unit checks
of the benchmark's own arithmetic, then hands over to perfbench_load,
whose report ends with one JSON line. See perfbench/README.md.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
TARGETS = ["xsql_server", "perfbench_load", "perfbench_selftest"]
WORKLOADS = ["point_lookup", "path_analytics", "mixed_rw"]
# The load driver's own limit; a run normally takes well under a minute.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, log_path):
    with open(log_path, "ab") as log:
        log.write(("$ " + " ".join(cmd) + "\n").encode())
        log.flush()
        return subprocess.run(cmd, cwd=ROOT, stdout=log,
                              stderr=subprocess.STDOUT).returncode


def build():
    """Configures once, then builds the three targets incrementally."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no xsql sources next to perfbench/ (run from a checkout)")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        if run_logged(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                       "-DCMAKE_BUILD_TYPE=Release"], log_path) != 0:
            fail("cmake configure failed; see " + log_path)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if run_logged(["cmake", "--build", CMAKE_DIR, "-j", jobs, "--target"] +
                  TARGETS, log_path) != 0:
        fail("build failed; see " + log_path)
    selftest = subprocess.run([os.path.join(CMAKE_DIR, "perfbench_selftest")],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if selftest.returncode != 0:
        sys.stderr.write(selftest.stderr.decode())
        fail("the benchmark's unit checks failed")


def source_digest():
    """SHA-256 over the sources the benchmark builds and runs."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "examples", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def git_commit():
    """The checkout's commit, when it is a git work tree of its own."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        if top.returncode != 0 or \
                os.path.realpath(top.stdout.decode().strip()) != \
                os.path.realpath(ROOT):
            return "unknown"
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL)
        return head.stdout.decode().strip() or "unknown"
    except OSError:
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build()
    cmd = [os.path.join(CMAKE_DIR, "perfbench_load"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--server", os.path.join(CMAKE_DIR, "xsql", "examples",
                                    "xsql_server"),
           "--work-dir", os.path.join(BUILD, "work"),
           "--commit", git_commit(),
           "--source-digest", source_digest()]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("the run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
