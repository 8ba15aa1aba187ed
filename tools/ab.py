#!/usr/bin/env python3
"""Paired A/B of the repo benchmark: a parent ref against the working tree.

    python3 tools/ab.py [--base HEAD] [--pairs 5] [--seconds N]
                        [--workloads pairs_1t,...] [--workdir DIR]

Run from the root of a checkout. The parent side is `git archive <base>`
unpacked under --workdir (a plain copy: no worktree is registered in the
repository); the change side is the working tree as it stands. Each side
builds perfbench into its own CARGO_TARGET_DIR under --workdir, so the two
binaries never share a build tree.

For every workload the tool runs --pairs pairs of untraced
`perfbench/run.py` runs. Both runs of pair i use seed i+1, and the side
that runs first alternates from pair to pair, so host drift lands on both
sides alike. For every end-to-end metric in BENCHMARK.json it prints:

  * the parent and change medians;
  * change-wins/pairs: pairs in which the change is better, in the
    metric's own direction;
  * the parent's relative IQR, (q3 - q1) / median;
  * a bootstrap 95% CI of median(change) / median(parent), resampling
    whole pairs;
  * a verdict. `unresolved` when the parent IQR exceeds the metric's
    bound (the method is noisier than the bound it would judge),
    `WORSE` when the median ratio is worse than the bound allows, `ok`
    otherwise.

Exit status: 0 when no metric is WORSE, 1 when one is, 2 on a failed
build, run or correctness check.
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BOOTSTRAP_RESAMPLES = 10000


def die(msg):
    print(f"ab: {msg}", file=sys.stderr)
    sys.exit(2)


def export_base(ref, dest):
    """Unpack `git archive ref` into dest; returns the resolved sha."""
    r = subprocess.run(["git", "rev-parse", "--verify", f"{ref}^{{commit}}"],
                       cwd=ROOT, capture_output=True, text=True)
    if r.returncode != 0:
        die(f"cannot resolve {ref!r}: {r.stderr.strip()}")
    sha = r.stdout.strip()
    if dest.exists():
        shutil.rmtree(dest)
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT,
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        die(f"git archive {sha} failed")
    return sha


def run_once(tree, target_dir, workload, seed, seconds):
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    r = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or len(lines) < 2:
        sys.stderr.write(r.stderr[-4000:])
        die(f"{workload} seed {seed} in {tree} exited {r.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        die(f"{workload} seed {seed} in {tree}: correctness check failed")
    return result["metrics"]


def relative_iqr(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def median_ratio(parent, change):
    den = statistics.median(parent)
    return statistics.median(change) / den if den else float("nan")


def bootstrap_ci(parent, change, rng):
    n = len(parent)
    ratios = []
    for _ in range(BOOTSTRAP_RESAMPLES):
        idx = [rng.randrange(n) for _ in range(n)]
        ratios.append(median_ratio([parent[i] for i in idx],
                                   [change[i] for i in idx]))
    ratios.sort()
    return (ratios[int(0.025 * (len(ratios) - 1))],
            ratios[int(0.975 * (len(ratios) - 1))])


def compare(parent, change, better, bound, rng):
    ratio = median_ratio(parent, change)
    wins = sum((c > p) if better == "higher" else (c < p)
               for p, c in zip(parent, change))
    spread = relative_iqr(parent)
    lo, hi = bootstrap_ci(parent, change, rng)
    worse_by = (1.0 - ratio) if better == "higher" else (ratio - 1.0)
    if spread > bound:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "WORSE"
    else:
        verdict = "ok"
    return (f"| {statistics.median(parent):.6g} | {statistics.median(change):.6g} "
            f"| {wins}/{len(parent)} | {spread:.4f} | {bound} "
            f"| {ratio:.4f} [{lo:.4f}, {hi:.4f}] | {verdict} |"), verdict


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", default="HEAD", help="parent ref (default HEAD)")
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--workloads", default=None,
                    help="comma-separated; default: every BENCHMARK.json workload")
    ap.add_argument("--workdir", default=None,
                    help="parent copy and build trees (default: a temp dir)")
    args = ap.parse_args()
    if args.pairs < 4:
        die("--pairs must be at least 4 (quartiles)")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    metrics = spec["end_to_end"]
    workdir = Path(args.workdir or tempfile.mkdtemp(prefix="wcq-ab-")).resolve()
    workdir.mkdir(parents=True, exist_ok=True)
    base_tree = workdir / "parent"
    sha = export_base(args.base, base_tree)
    sides = {"parent": (base_tree, workdir / "parent-build"),
             "change": (ROOT, workdir / "change-build")}
    print(f"ab: parent {sha[:12]} vs working tree {ROOT}, {args.pairs} pairs x "
          f"{seconds} s per workload, workdir {workdir}", file=sys.stderr)

    rng = random.Random(0x5eed)
    worse = False
    out = [f"# paired A/B: parent {sha[:12]} vs working tree, {args.pairs} "
           f"alternating pairs x {seconds} s", "",
           "| workload | metric | parent | change | change wins | parent IQR "
           "| bound | ratio [95% CI] | verdict |",
           "|---|---|---|---|---|---|---|---|---|"]
    for w in workloads:
        values = {"parent": {}, "change": {}}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                tree, target = sides[side]
                for name, m in run_once(tree, target, w, i + 1, seconds).items():
                    values[side].setdefault(name, []).append(m["value"])
            print(f"ab: {w} pair {i + 1}/{args.pairs} done", file=sys.stderr)
        for m in metrics:
            p = values["parent"].get(m["name"])
            c = values["change"].get(m["name"])
            if not p or not c or len(p) != len(c):
                out.append(f"| {w} | {m['name']} | missing | | | | | | |")
                continue
            row, verdict = compare(p, c, m["better"], m["bound"], rng)
            out.append(f"| {w} | {m['name']} {row}")
            worse |= verdict == "WORSE"
    print("\n".join(out))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
