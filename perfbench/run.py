#!/usr/bin/env python3
"""Builds and runs the wall-clock benchmark (see README.md).

    python3 perfbench/run.py --workload kv_zipf --seed 1 --seconds 10 --trace 0

Run from the root of a source tree. The first run configures and builds
perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later runs only check that the build is current. Build
output goes to stderr, so the last line of stdout is the benchmark's JSON
result. A traced run writes its spans to <build dir>/spans-<workload>.csv.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 780  # configure + build; a first run must end within 900 s
RUN_TIMEOUT_S = 170


def run_quiet(cmd, deadline, env):
    """Runs a build step with its output on stderr; True on success."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()), check=False)
    except subprocess.TimeoutExpired:
        print(f"perfbench: timed out: {' '.join(cmd)}", file=sys.stderr)
        return False
    return proc.returncode == 0


def build(build_dir, env):
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("perfbench: no library sources next to perfbench/", file=sys.stderr)
        return None
    if shutil.which("cmake") is None:
        print("perfbench: cmake not found", file=sys.stderr)
        return None
    if not (build_dir / "CMakeCache.txt").is_file() or not any(
            (build_dir / f).is_file() for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja") is not None:
            cmd += ["-G", "Ninja"]
        if not run_quiet(cmd, deadline, env):
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if not run_quiet(["cmake", "--build", str(build_dir), "--target", "kflex_perfbench",
                      "-j", jobs], deadline, env):
        return None
    binary = build_dir / "kflex_perfbench"
    return binary if binary.is_file() else None


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=["kv_zipf", "netfn_sharded", "load_catalog"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    # Keep the compiler's temporary files inside the build tree too.
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    binary = build(build_dir, env)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", str(build_dir / f"spans-{args.workload}.csv")]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
