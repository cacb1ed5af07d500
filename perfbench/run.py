#!/usr/bin/env python3
"""Benchmark of the strel pipeline: one workload, one seed, one run.

    python3 perfbench/run.py --workload policies --seed 4 --seconds 36 --trace 0

Run from the repository root.  ``--seed`` is the self-train seed; 4, the
default, reproduces ``RunConfig``.  With ``--trace 0`` the run repeats whole
passes of the workload while another fits in ``--seconds``, then repeats
its set-up, pretraining and evaluation stages until ``--seconds`` have
passed (at least three set-ups).  Every timing is adjusted to the host's
speed, which a probe measures ten times a second (``hostspeed.py``), and
reported as the median of its samples.  With ``--trace 1`` it runs the pass
once untraced and once with every layer-boundary function wrapped, and
reports the per-layer numbers, unadjusted, and the tracing overhead.

Human-readable lines go first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A full
record (per-policy quality, fingerprints, stage samples, failures) is
written to ``.bench_out/``.  Exit code 1 means the run could not complete.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MIN_REPEATS = 3
MIN_EVAL_S = 0.5


def declared_metrics(root: Path) -> dict:
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {
        0: {m["name"]: m for m in spec["end_to_end"]},
        1: {m["name"]: m for m in spec["per_layer"]},
    }


def one_pass(w, clock) -> None:
    """Run every stage of the workload once."""
    with clock.whole_pass():
        with clock.stage("setup"):
            w.setup()
        with clock.stage("pretrain"):
            w.pretrain()
        w.selftrain()


def end_to_end(w, clock, peak_rss_mb) -> dict:
    catm = next(q for q in w.quality if q["policy"] == "catm")
    out = {
        "setup_s": statistics.median(clock.samples("setup")),
        "pretrain_s": statistics.median(clock.samples("pretrain")),
        "selftrain_ms_per_iter": 1000.0 * clock.typical("selftrain") / w.iterations,
        "eval_s": clock.typical("eval"),
        "wall_s": statistics.median(clock.pass_times()),
        "peak_rss_mb": peak_rss_mb,
        "f_at_10": catm["F@10"],
        "mr_at_10": catm["mR@10"],
        "tail_recall_at_10": catm["tail"],
        "pseudo_precision": catm["precision"],
    }
    never = next((q for q in w.quality if q["policy"] == "never"), None)
    if never is not None:
        out["tail_gain_vs_never"] = catm["tail"] - never["tail"]
    return out


def timed_runs(w, clock, start, seconds, another_pass) -> None:
    """Whole passes while another one (at the mean cost of a pass and its
    checks so far) fits, then the cheap stages alone; evaluation, the
    shortest stage, repeats for at least ``MIN_EVAL_S`` a round."""
    while (time.perf_counter() - start) * (len(clock.passes) + 1) / len(clock.passes) <= seconds:
        another_pass()
    setups = len(clock.passes)
    while setups < MIN_REPEATS or time.perf_counter() - start < seconds:
        clock.next_round()
        with clock.stage("setup"):
            w.setup()
        setups += 1
        with clock.stage("pretrain"):
            w.pretrain()
        t0 = time.perf_counter()
        w.evaluate()
        while time.perf_counter() - t0 < MIN_EVAL_S:
            clock.next_round()
            w.evaluate()


def run_workload(workload, seed, seconds, trace, *, rc=None, out_dir=None):
    """Run one workload and return its record; ``rc`` overrides the config."""
    from checks import Ledger, fingerprints_equal, traced_counts_agree
    from hostspeed import Speedometer, Stopwatch
    from tracing import Tracer
    from workloads import Clock, build, make_config

    rc = rc if rc is not None else make_config(seed)
    out_dir = Path(out_dir) if out_dir is not None else ROOT / ".bench_out"
    workdir = out_dir / f"{workload}-work"
    out_dir.mkdir(parents=True, exist_ok=True)
    ledger = Ledger()
    # traced runs time raw: the probes would land inside the spans
    meter = Stopwatch() if trace else Speedometer()
    clock = Clock(meter)
    w = build(workload, rc, clock, ledger, workdir)
    record = {"workload": workload, "seed": seed, "trace": trace, "seconds": seconds}

    def another_pass(tracer=None):
        clock.next_round()
        with tracer.installed() if tracer else nullcontext():
            one_pass(w, clock)
        with clock.paused():  # the checks' own reads stay out of the trace
            w.verify()
            ledger.check("fingerprints repeat", fingerprints_equal,
                         record["fingerprints"], w.fingerprints)

    with meter:
        start = time.perf_counter()
        one_pass(w, clock)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        with clock.paused():
            w.verify()
        record.update(quality=w.quality, fingerprints=w.fingerprints)
        if trace:
            tracer = clock.tracer = Tracer()
            another_pass(tracer)
        else:
            timed_runs(w, clock, start, seconds, another_pass)

    if trace:
        ledger.check("traced counts agree", traced_counts_agree,
                     tracer.partitions_per_run(), tracer.run_iterations, rc.max_iterations)
        values = tracer.layer_metrics()
        walls = clock.pass_times()
        values["trace.wall_s"] = walls[1]
        values["trace.overhead_ratio"] = walls[1] / walls[0] - 1.0
        tracer.write(out_dir / f"{workload}-seed{seed}.spans.npz")
    else:
        values = end_to_end(w, clock, peak_rss_mb)
        stages = ("setup", "pretrain", "selftrain", "eval")
        record["stage_samples"] = {name: clock.samples(name) for name in stages}
        record["raw_stage_samples"] = {name: clock.samples(name, raw=True) for name in stages}
        record["walls"] = clock.pass_times()
        record["raw_walls"] = clock.pass_times(raw=True)
        record["probes"] = meter.probes
    shutil.rmtree(workdir, ignore_errors=True)

    values["error_rate"] = ledger.failed / max(ledger.attempted, 1)
    record.update(
        metrics=values, attempted=ledger.attempted, failed=ledger.failed,
        failures=ledger.failures,
    )
    with open(out_dir / f"{workload}-seed{seed}-trace{int(trace)}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return record


def result_line(record, declared) -> dict:
    """The contract's last line: every declared metric of this mode."""
    metrics = {}
    for name, spec in declared.items():
        if name not in record["metrics"]:
            raise KeyError(f"metric {name!r} declared in BENCHMARK.json was not measured")
        metrics[name] = {"value": record["metrics"][name], "unit": spec["unit"]}
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def report(record, declared) -> None:
    print(f"workload={record['workload']} seed={record['seed']} trace={record['trace']}")
    rows = record["quality"]
    never = next((q for q in rows if q["policy"] == "never"), None)
    print(f"{'policy':>14} {'R@10':>6} {'mR@10':>6} {'F@10':>6} {'tail':>6} {'prec':>6} "
          f"{'n':>7} {'head2':>6} {'tail5':>6}" + ("   dF    dTail" if never else ""))
    for q in rows:
        line = (f"{q['policy']:>14} {q['R@10']:6.2f} {q['mR@10']:6.2f} {q['F@10']:6.2f} "
                f"{q['tail']:6.2f} {q['precision']:6.3f} {q['n_assigned']:7d} "
                f"{q['head2']:6d} {q['tail5']:6d}")
        if never:
            line += f" {q['F@10'] - never['F@10']:+6.2f} {q['tail'] - never['tail']:+6.2f}"
        print(line)
    for policy, fp in record["fingerprints"].items():
        print(f"fingerprint {policy:>14}: " + " ".join(f"{k}={v[:16]}" for k, v in fp.items()))
    for name, samples in record.get("stage_samples", {}).items():
        raw = record["raw_stage_samples"][name]
        print(f"stage {name}: " + " ".join(f"{s:.3f} ({r:.3f} raw)" for s, r in zip(samples, raw)))
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    for name, spec in declared.items():
        print(f"{name} = {record['metrics'][name]!r} {spec['unit']} ({spec['better']} is better)")
    print(f"error_rate = {record['metrics']['error_rate']!r} "
          f"({record['failed']}/{record['attempted']}, lower is better)")


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=4)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    declared = declared_metrics(ROOT)[args.trace]
    record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    report(record, declared)
    print(json.dumps(result_line(record, declared)))
    return 0


if __name__ == "__main__":
    # one BLAS thread, set before numpy loads, so runs do not contend
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "strel" / "__init__.py").is_file():
        print(f"error: no strel package under {src}", file=sys.stderr)
        raise SystemExit(1)
    sys.path.insert(0, str(src))
    raise SystemExit(main())
