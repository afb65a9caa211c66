#!/usr/bin/env python3
"""Build the naming-fabric benchmark from source and run one workload.

    python3 perfbench/run.py --workload remote-miss --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds
perfbench/ (which compiles the library from src/) into .bench_build/perfbench,
or into $CARGO_TARGET_DIR/perfbench when that is set; later calls rebuild
only what changed. Build output goes to stderr, so the last line of stdout
is the benchmark's result line. The exit status is the benchmark's: 0 only
when every answer was correct.
"""
import argparse
import os
import pathlib
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170


def build_dir() -> pathlib.Path:
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(target: str) -> bool:
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        configure = subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    compiled = subprocess.run(
        ["cmake", "--build", str(out), "-j", jobs, "--target", target],
        stdout=sys.stderr, stderr=sys.stderr)
    return compiled.returncode == 0


def run(cmd) -> int:
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    target = "perfbench_selftest" if args.selftest else "namecoh_perfbench"
    if not args.selftest and (args.workload is None or args.seed is None):
        parser.error("--workload and --seed are required")
    if not build(target):
        print("run.py: build failed", file=sys.stderr)
        return 2
    if args.selftest:
        return run([str(build_dir() / target)])

    cmd = [str(build_dir() / target), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace,
           "--trace-dir", str(build_dir() / "traces")]
    return run(cmd)


if __name__ == "__main__":
    sys.exit(main())
