#!/usr/bin/env python3
"""Summarize benchmark records from several runs, typically several seeds.

    python3 perfbench/summarize.py [RECORD.json | DIR ...]   (default: .bench_out)

Prints, per workload:

- each end-to-end metric's median and spread (interquartile range over the
  median, as ``statistics.quantiles(values, n=4)`` gives the quartiles)
- whether runs at the same seed produced identical fingerprints
- for ``policies``, F@10 and tail recall per policy as mean ± standard
  deviation over seeds, and the paired catm−never and catm−freq-weighted
  differences with percentile-bootstrap 95% intervals over seeds (Agarwal
  et al. 2021, "Deep RL at the Edge of the Statistical Precipice")
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np

BOOTSTRAP_RESAMPLES = 10_000
CONTRASTS = (("catm", "never"), ("catm", "freq-weighted"))


def load(paths) -> list[dict]:
    files = []
    for p in map(Path, paths):
        files.extend(sorted(p.glob("*-trace*.json")) if p.is_dir() else [p])
    return [json.loads(f.read_text(encoding="utf-8")) for f in files]


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def bootstrap_ci(diffs, resamples=BOOTSTRAP_RESAMPLES, seed=0) -> tuple[float, float]:
    """Percentile-bootstrap 95% interval of the mean of paired differences."""
    diffs = np.asarray(diffs, dtype=np.float64)
    rng = np.random.default_rng(seed)
    means = diffs[rng.integers(0, len(diffs), size=(resamples, len(diffs)))].mean(axis=1)
    lo, hi = np.percentile(means, [2.5, 97.5])
    return float(lo), float(hi)


def metric_report(records) -> list[str]:
    lines = []
    for name in sorted(set.intersection(*(set(r["metrics"]) for r in records))):
        values = [r["metrics"][name] for r in records]
        line = f"  {name:>28}: median {statistics.median(values):.6g}"
        if len(values) >= 2 and statistics.median(values) != 0:
            line += f"  spread {spread(values):.4f}"
        lines.append(line)
    return lines


def fingerprint_report(records) -> list[str]:
    by_seed = defaultdict(list)
    for r in records:
        by_seed[r["seed"]].append(r["fingerprints"])
    lines = []
    for seed, fps in sorted(by_seed.items()):
        if len(fps) > 1:
            same = all(fp == fps[0] for fp in fps[1:])
            lines.append(f"  seed {seed}: {len(fps)} runs, fingerprints "
                         + ("identical" if same else "DIFFER"))
    return lines


def quality_report(records) -> list[str]:
    by_seed = {}
    for r in records:
        by_seed.setdefault(r["seed"], {q["policy"]: q for q in r["quality"]})
    seeds = sorted(by_seed)
    lines = [f"  {len(seeds)} seeds: {seeds}"]
    policies = list(next(iter(by_seed.values())))
    for policy in policies:
        f = [by_seed[s][policy]["F@10"] for s in seeds]
        tail = [by_seed[s][policy]["tail"] for s in seeds]
        lines.append(f"  {policy:>14}: F@10 {np.mean(f):6.2f} ± {np.std(f, ddof=1) if len(f) > 1 else 0.0:5.2f}"
                     f"   tail {np.mean(tail):6.2f} ± {np.std(tail, ddof=1) if len(tail) > 1 else 0.0:5.2f}")
    for a, b in CONTRASTS:
        if a not in policies or b not in policies:
            continue
        for key in ("F@10", "tail"):
            diffs = [by_seed[s][a][key] - by_seed[s][b][key] for s in seeds]
            lo, hi = bootstrap_ci(diffs)
            lines.append(f"  {a} - {b} {key:>5}: mean {np.mean(diffs):+6.2f}, "
                         f"95% CI [{lo:+.2f}, {hi:+.2f}]")
    return lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    records = load(args or [".bench_out"])
    if not records:
        print("no benchmark records found", file=sys.stderr)
        return 1
    by_workload = defaultdict(list)
    for r in records:
        by_workload[r["workload"]].append(r)
    for workload, recs in sorted(by_workload.items()):
        for trace in (0, 1):
            group = [r for r in recs if r["trace"] == trace]
            if group:
                print(f"{workload} (trace {trace}): {len(group)} runs")
                for line in metric_report(group):
                    print(line)
        print(f"  failed operations: {sum(r['failed'] for r in recs)} of "
              f"{sum(r['attempted'] for r in recs)}")
        for line in fingerprint_report(recs):
            print(line)
        if workload == "policies":
            for line in quality_report(recs):
                print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
