#!/usr/bin/env python3
"""Run each workload under several seeds and report how steady it is.

    python3 perfbench/steadiness.py --runs 10 --out perfbench/STEADINESS.md
    python3 perfbench/steadiness.py --runs 10 --compare perfbench/STEADINESS.json

For every end-to-end metric in BENCHMARK.json this prints the median and
quartiles (statistics.quantiles(values, n=4)) of the per-run values and the
spread, (q3 - q1) / median, next to the metric's bound: "steady" below a
third of the bound, "within bound" up to the bound, "TOO NOISY" above it.
setup_s gets the same verdict, and in addition a set-up under 0.1 s in any
run fails as too short to time. With --compare, the medians are checked
against an earlier set's raw results: each may be worse by at most its
bound, and the simulated metrics of equal seeds must agree exactly. Runs go
through run.py, so the first one builds. Exit status 1 when any check fails.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
HOST_METRICS = {"calib_res_per_s", "setup_s", "peak_rss_mb"}


def run_once(workload: str, seed: int, seconds: float) -> dict:
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    result["seed"] = seed
    result["wall_s"] = time.monotonic() - started
    return result


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def worse_by(new, old, better):
    """Relative amount by which `new` is worse than `old` (<= 0: not worse)."""
    if old == 0:
        return 0.0 if new == old else float("inf")
    change = (new - old) / old
    return change if better == "lower" else -change


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", help="comma-separated; default all")
    parser.add_argument("--out", help="write the markdown report here, and "
                        "the raw results next to it as .json")
    parser.add_argument("--compare", help="raw .json of an earlier set")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    earlier = json.loads(pathlib.Path(args.compare).read_text()) \
        if args.compare else {}

    report = [f"# Steadiness: {args.runs} runs per workload, "
              f"{spec['run_seconds']} s each, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}", ""]
    ok = True
    raw = {}
    for workload in workloads:
        runs = [run_once(workload, args.first_seed + i, spec["run_seconds"])
                for i in range(args.runs)]
        raw[workload] = runs
        before = earlier.get(workload)
        section = [f"## {workload}", "",
                   f"Longest run: {max(r['wall_s'] for r in runs):.1f} s "
                   f"wall (the first run of a cold checkout includes the "
                   f"build).", "",
                   "| metric | median | q1 | q3 | spread | bound | verdict |"
                   + (" earlier median | worse by |" if before else ""),
                   "|---|---|---|---|---|---|---|"
                   + ("---|---|" if before else "")]
        for name, m in metrics.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3, s = quartiles(values)
            bound = m["bound"]
            if s <= bound / 3:
                verdict = "steady"
            elif s <= bound:
                verdict = "within bound"
            else:
                verdict = "TOO NOISY"
                ok = False
            if name == "setup_s" and min(values) < 0.1:
                verdict += ", TOO SHORT"
                ok = False
            row = (f"| {name} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                   f"{s:.4f} | {bound} | {verdict} |")
            if before:
                old = statistics.median(
                    r["metrics"][name]["value"] for r in before)
                w = worse_by(med, old, m["better"])
                ok = ok and w <= bound
                row += f" {old:.6g} | {w:+.4f} |"
            section.append(row)
        if before:
            old_by_seed = {r["seed"]: r for r in before}
            mismatched = [
                f"{name}@seed{r['seed']}" for r in runs
                if r["seed"] in old_by_seed
                for name in metrics if name not in HOST_METRICS
                and r["metrics"][name]["value"]
                != old_by_seed[r["seed"]]["metrics"][name]["value"]]
            ok = ok and not mismatched
            section += ["", "Simulated metrics, same seed, both sets: " +
                        ("identical." if not mismatched else
                         "DIFFER: " + ", ".join(mismatched))]
        section.append("")
        report += section
        print("\n".join(section), flush=True)

    if args.out:
        out = pathlib.Path(args.out)
        out.write_text("\n".join(report) + "\n")
        out.with_suffix(".json").write_text(json.dumps(raw, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
