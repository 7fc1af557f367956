#!/usr/bin/env python3
"""Build psibench from this checkout's sources and run one workload.

Run from the repository root:

    python3 psibench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds psibench/ (the psi library sources under
src/ plus the benchmark) into .bench_build/psibench; later runs rebuild only
what changed. Every run first runs the benchmark's self-tests. The last line
of standard output is the result JSON; build output goes to standard error.
"""

import argparse
import hashlib
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SOURCE_DIR = BENCH_DIR.parent / "src"
BUILD_DIR = Path(".bench_build") / "psibench"
RESULTS_DIR = Path(".bench_build") / "psibench-results"
WORKLOADS = ("warm_selinv", "cold_plan", "des_replay", "nsym_selinv")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"psibench: {message}", file=sys.stderr)
    sys.exit(2)


def run_logged(command, timeout=None):
    """Runs a build step with its output on stderr; exits on failure."""
    result = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                            timeout=timeout, check=False)
    if result.returncode != 0:
        fail(f"{' '.join(str(c) for c in command)} exited {result.returncode}")


def build():
    cache = BUILD_DIR / "CMakeCache.txt"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}" not in cache.read_text():
        shutil.rmtree(BUILD_DIR)  # configured for another checkout
    if not cache.exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_logged(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator])
    run_logged(["cmake", "--build", str(BUILD_DIR), "-j", "4"])


def source_digest():
    """SHA-256 over the library and benchmark sources (path and bytes)."""
    digest = hashlib.sha256()
    for root in (SOURCE_DIR, BENCH_DIR):
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            if "__pycache__" in path.parts:
                continue
            digest.update(str(path.relative_to(BENCH_DIR.parent)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha():
    if not (BENCH_DIR.parent / ".git").exists():
        return "none"
    result = subprocess.run(["git", "-C", str(BENCH_DIR.parent), "rev-parse", "HEAD"],
                            capture_output=True, text=True, check=False)
    return result.stdout.strip() or "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    if not (SOURCE_DIR / "serve" / "service.hpp").is_file():
        fail(f"no psi sources at {SOURCE_DIR}; run from a full checkout")

    build()
    selftest = subprocess.run([str(BUILD_DIR / "psibench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr, check=False)
    if selftest.returncode != 0:
        fail("self-tests failed")

    command = [str(BUILD_DIR / "psibench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--out-dir", str(RESULTS_DIR),
               "--git-sha", git_sha(), "--source-digest", source_digest()]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                                text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
