#!/usr/bin/env python3
"""Alternating benchmark pairs of two checkouts, written as one BENCH file.

Runs `perfbench/run.py --workload all` in a parent checkout and in a
changed checkout, N times each, alternating which side goes first so
that slow spells of a shared host fall on both sides alike. Then runs
traced pairs of every workload in BENCHMARK.json the same way, and
writes every run plus a per-metric summary as JSON (the layout of the
repo's BENCH_<n>.json files), with each side's line count of `src/`.

Example:
    python scripts/bench_pairs.py ../parent . --out BENCH_10.json \\
        --change-note "one-call samples parse" --pairs 10 --traced-pairs 3

`--smoke` passes `--smoke` to every run (tiny inputs, a single round),
for testing the script itself.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ORDER = "pair i runs the parent first when i is even, the change first when i is odd"
SEED = 0
# Untraced runs take run.py's default length, BENCHMARK.json's run_seconds.
TRACED_SECONDS = 15


def run_bench(checkout: Path, workload: str, trace: bool, smoke: bool) -> dict:
    """One perfbench run in `checkout`; its final JSON line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED)]
    if trace:
        cmd += ["--seconds", str(TRACED_SECONDS), "--trace", "1"]
    if smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} in {checkout} exited {done.returncode}:\n{done.stderr}")
    return json.loads(lines[-1])


def alternate(sides: dict[str, Path], pairs: int, **bench) -> list[dict]:
    """`pairs` alternating pairs of runs; the parent goes first in even pairs."""
    runs = []
    for pair in range(pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
            print(f"pair {pair} {side} trace={int(bench['trace'])} ...", file=sys.stderr, flush=True)
            result = run_bench(sides[side], **bench)
            run = {"pair": pair, "side": side, "started": started, "trace": int(bench["trace"])}
            if bench["trace"]:
                run["workload"] = bench["workload"]
            runs.append({**run, "result": result})
    return runs


def by_pair(runs: list[dict], side: str, metric: str) -> list[float]:
    """`metric` of `side`, in pair order."""
    picked = sorted((r for r in runs if r["side"] == side), key=lambda r: r["pair"])
    return [r["result"]["metrics"][metric]["value"] for r in picked]


def summarize(runs: list[dict], spec: dict) -> dict:
    """Per end-to-end metric: medians, the parent's spread and the per-pair tally."""
    kinds = {m["name"]: m for m in spec["end_to_end"]}
    summary = {}
    for metric, record in runs[0]["result"]["metrics"].items():
        kind = kinds[metric.split("/")[-1]]
        parent, change = by_pair(runs, "parent", metric), by_pair(runs, "change", metric)
        sign = 1.0 if kind["better"] == "lower" else -1.0
        p_med, c_med = statistics.median(parent), statistics.median(change)
        worse_by = round(sign * (c_med - p_med) / p_med, 4)
        p_iqr, c_iqr = (float(np.subtract(*np.percentile(v, [75, 25]))) for v in (parent, change))
        summary[metric] = {
            "unit": record["unit"],
            "better": kind["better"],
            "bound": kind["bound"],
            "parent_median": p_med,
            "change_median": c_med,
            "parent_iqr": p_iqr,
            "change_iqr": c_iqr,
            "parent_relative_iqr": round(p_iqr / p_med, 4),
            "change_relative_iqr": round(c_iqr / c_med, 4),
            "change_worse_by": worse_by,
            "within_bound": worse_by <= kind["bound"],
            "pairs_change_better": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
            "pairs_change_worse": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
        }
    return summary


def traced_medians(runs: list[dict]) -> dict:
    """Per workload, each per-layer metric's median on either side."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        out[workload] = {
            metric: {side + "_median": statistics.median(by_pair(mine, side, metric))
                     for side in ("parent", "change")}
            for metric in sorted(mine[0]["result"]["metrics"])
        }
    return out


def commit_of(checkout: Path) -> str | None:
    done = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"], capture_output=True,
                          text=True, check=False)
    return done.stdout.strip() if done.returncode == 0 else None


def src_lines(checkout: Path) -> int:
    """Lines of the Python files under `src/`, as `wc -l` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (checkout / "src").rglob("*.py"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--out", type=Path, required=True, help="BENCH JSON to write")
    parser.add_argument("--change-note", dest="change_note", default="",
                        help="one line on what the change does")
    parser.add_argument("--claim", default="none: no end-to-end metric may worsen beyond its "
                        "BENCHMARK.json bound", help="the gain the change claims, if any")
    parser.add_argument("--parent-commit", default=None,
                        help="recorded parent commit (default: git rev-parse in the parent)")
    parser.add_argument("--pairs", type=int, default=10, help="alternating pairs of --workload all")
    parser.add_argument("--traced-pairs", type=int, default=3,
                        help="alternating pairs of traced runs, per workload")
    parser.add_argument("--host", default=f"{os.cpu_count()}-CPU {platform.system()} host, "
                        f"Python {platform.python_version()}, NumPy {np.__version__}")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for testing")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.traced_pairs < 0:
        parser.error("need --pairs >= 1 and --traced-pairs >= 0")

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    runs = alternate(sides, args.pairs, workload="all", trace=False, smoke=args.smoke)
    workloads = [w["name"] for w in spec["workloads"]]
    traced = [run for workload in workloads
              for run in alternate(sides, args.traced_pairs, workload=workload, trace=True,
                                   smoke=args.smoke)]
    every = runs + traced
    doc = {
        "change": args.change_note,
        "parent_commit": args.parent_commit or commit_of(sides["parent"]),
        "claim": args.claim,
        "command": f"python3 perfbench/run.py --workload all --seed {SEED}",
        "traced_command": f"python3 perfbench/run.py --workload <workload> --seed {SEED} "
                          f"--seconds {TRACED_SECONDS} --trace 1",
        "seed": SEED,
        "run_seconds": spec["run_seconds"],
        "traced_run_seconds": TRACED_SECONDS,
        "order": ORDER,
        "host": args.host,
        "src_lines": {side: src_lines(path) for side, path in sides.items()},
        "all_correct": all(r["result"]["correct"] for r in every),
        "failed_frames": sum(r["result"]["failed"] for r in every),
        "summary": summarize(runs, spec),
        "traced_medians": traced_medians(traced),
        "runs": every,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for metric, s in doc["summary"].items():
        print(f"{metric}: parent {s['parent_median']:.6g} change {s['change_median']:.6g} "
              f"{s['unit']} (worse by {s['change_worse_by']:+.2%}, better in "
              f"{s['pairs_change_better']}/{args.pairs} pairs)")
    print(f"wrote {args.out}")
    return 0 if doc["all_correct"] and not doc["failed_frames"] else 1


if __name__ == "__main__":
    sys.exit(main())
