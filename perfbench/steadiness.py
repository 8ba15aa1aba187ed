#!/usr/bin/env python3
"""Steadiness report: back-to-back perfbench runs, one seed each.

    python3 perfbench/steadiness.py [--runs 10] [--seconds 10] [--trace 0]
                                    [--workloads pairs_1t,...] [--seed-base 1]
                                    [--out perfbench/STEADINESS.md]

Run from the root of a checkout. For every workload it runs perfbench/run.py
--runs times with seeds seed-base, seed-base+1, ... and reports, per metric,
the median, the quartiles (statistics.quantiles(n=4)), min, max and the
spread (q3 - q1) / median. With --trace 0 the spread is compared with the
metric's bound in BENCHMARK.json: "ok" below a third of the bound, "WIDE"
below the bound, "OVER" above it (setup_s is exempt from the spread check;
only its median is compared between two sets of runs). Every run's steal time
is listed so host drift can be told from a regression. A failed run aborts
the report.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or len(lines) < 2:
        sys.stderr.write(r.stderr)
        sys.exit(f"run failed: {' '.join(cmd[1:])} (exit {r.returncode})")
    record = json.loads(lines[-2])["run_record"]
    result = json.loads(lines[-1])
    return record, result


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    center = statistics.median(values)
    return {"median": center, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values), "spread": (q3 - q1) / abs(center) if center else None}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workloads", default=None,
                    help="comma-separated; default: every workload in BENCHMARK.json")
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--out", default=None, help="also write the report here")
    args = ap.parse_args()
    if args.runs < 4:
        sys.exit("--runs must be at least 4 (quartiles)")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    out = [f"# perfbench steadiness: {args.runs} runs per workload, "
           f"{seconds} s each, trace {args.trace}, seeds "
           f"{args.seed_base}..{args.seed_base + args.runs - 1}", ""]
    raw = {}
    for w in workloads:
        values, steal = {}, []
        for i in range(args.runs):
            record, result = run_once(w, args.seed_base + i, seconds, args.trace)
            if not result["correct"] or result["failed"] != 0:
                sys.exit(f"{w} seed {args.seed_base + i}: correctness check failed")
            steal.append(record["steal_frac"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} seed {args.seed_base + i}: steal {record['steal_frac']:.4f}",
                  file=sys.stderr)
        raw[w] = values
        out += [f"## {w}", "",
                f"host: {record['cpu_model']}, nproc {record['nproc']}, kernel "
                f"{record['kernel']}, pinned CPUs {record['pinned_cpus']}, "
                f"source {record['source_sha256'][:12]}",
                "steal per run: " + ", ".join(f"{s:.4f}" for s in steal), "",
                "| metric | median | q1 | q3 | min | max | spread | bound | verdict |",
                "|---|---|---|---|---|---|---|---|---|"]
        for name in sorted(values):
            s = summarize(values[name])
            bound = bounds.get(name) if args.trace == 0 else None
            if bound is None:
                verdict = ""
            elif name == "setup_s":
                verdict = "median only"
            elif s["spread"] is None or s["spread"] > bound:
                verdict = "OVER"
            else:
                verdict = "ok" if s["spread"] < bound / 3 else "WIDE"
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            out.append(f"| {name} | {s['median']:.6g} | {s['q1']:.6g} | {s['q3']:.6g} "
                       f"| {s['min']:.6g} | {s['max']:.6g} | {spread} "
                       f"| {'' if bound is None else bound} | {verdict} |")
        out.append("")
    out += ["## raw values", "", "```json", json.dumps(raw, indent=1), "```", ""]
    text = "\n".join(out)
    print(text)
    if args.out:
        Path(args.out).write_text(text)


if __name__ == "__main__":
    main()
