#!/usr/bin/env python3
"""Build and run one perfbench workload; print its run record and result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
benchmark program (perfbench/CMakeLists.txt, which compiles the repository's
own sources) under $CARGO_TARGET_DIR (default .bench_build). Standard output
ends with two JSON lines: the run record (host, build, pinning, steal time,
correctness checks and sample counts) and the result object with exactly the
keys correct, attempted, failed and metrics. A failed correctness check
makes the run exit 1; a missing source tree or a failed build exits 2
without a result.
"""

import argparse
import hashlib
import json
import os
import platform
import shlex
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build(out):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no source tree to build at {ROOT} (need CMakeLists.txt and src/)")
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", "2"])
    for cmd in steps:
        try:
            # Build chatter goes to stderr: stdout carries only results.
            rc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if rc != 0:
            fail(f"build step {' '.join(cmd)} exited {rc}")


def proc_stat():
    """Per-CPU jiffies from /proc/stat: {'cpu': [...], 'cpu0': [...], ...}."""
    try:
        with open("/proc/stat") as f:
            return {p[0]: [int(x) for x in p[1:]] for p in
                    (line.split() for line in f) if p and p[0].startswith("cpu")}
    except OSError:
        return {}


def steal_frac(before, after, key):
    """Share of the elapsed CPU time the hypervisor stole (field 8, 'steal')."""
    if key not in before or key not in after:
        return None
    d = [b - a for a, b in zip(before[key], after[key])]
    total = sum(d[:8])  # guest time is already counted in user/nice
    return d[7] / total if total > 0 and len(d) > 7 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def compile_command(out):
    try:
        with open(out / "compile_commands.json") as f:
            for entry in json.load(f):
                if entry["file"].endswith("perfbench.cpp"):
                    return entry.get("command") or " ".join(entry["arguments"])
    except (OSError, ValueError, KeyError):
        pass
    return None


def compiler_version(command):
    if not command:
        return None
    try:
        r = subprocess.run([shlex.split(command)[0], "--version"],
                           capture_output=True, text=True, timeout=30)
        return r.stdout.splitlines()[0] if r.stdout else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=30)
        return r.stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        return None


def source_digest():
    """sha256 over the measured sources: identifies the code without git."""
    h = hashlib.sha256()
    for base in ("src", "perfbench", "CMakeLists.txt"):
        p = ROOT / base
        files = sorted(p.rglob("*")) if p.is_dir() else [p]
        for f in files:
            if f.is_file() and "__pycache__" not in f.parts:
                h.update(str(f.relative_to(ROOT)).encode())
                h.update(f.read_bytes())
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)  # validated by perfbench
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if not 0 < args.seconds <= 120:
        fail("--seconds must be in (0, 120]")

    out = build_dir()
    build(out)
    exe = out / "perfbench"
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    stat0 = proc_stat()
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    stat1 = proc_stat()
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail(f"perfbench exited {r.returncode} without a result", 1)
    res = json.loads(lines[-1])

    command = compile_command(out)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "kernel": platform.release(),
        "compiler": compiler_version(command),
        "compile_command": command,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "pinned": res["pinned"],
        "pinned_cpus": res["pinned_cpus"],
        "steal_frac": steal_frac(stat0, stat1, "cpu"),
        "steal_frac_pinned": {f"cpu{c}": steal_frac(stat0, stat1, f"cpu{c}")
                              for c in res["pinned_cpus"]},
        "failed_frac": res["failed_frac"],
        "latency_samples": res["latency_samples"],
        "checks": res["checks"],
        "metrics": res["metrics"],
    }
    print(json.dumps({"run_record": record}))
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    sys.stdout.flush()
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
