"""The benchmark's workloads over the default synthetic benchmark.

Each workload is a closed loop with one client: a stage starts when the one
before it has returned.  Every workload has the same four stages, which the
runner times through ``Clock``:

- ``setup``: gen, mask and split (``cli``: ``strel gen`` with its writes)
- ``pretrain``: ``classifier.pretrain`` (``cli``: ``strel pretrain``)
- ``selftrain``: one self-train run per policy, each followed by its test
  evaluation and pseudo-label audit (timed as ``eval``) and its output checks
- ``evaluate``: the test evaluation and audit again, so that ``eval`` can be
  repeated for a median without repeating self-training

``policies`` and ``gsl`` call the library in process; ``cli`` drives
``strel.cli.main`` in a scratch directory, so it alone parses and writes
scene JSONL, CSV tables and tensor checkpoints.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib.util
import io
import os
import shutil
import statistics
import time
from contextlib import contextmanager, nullcontext, redirect_stdout
from pathlib import Path

import numpy as np

from strel import classifier, cli, metrics, selftrain, synthgen, tables
from strel.cli import RunConfig, generator_config, selftrain_config, train_config
from strel.metrics import AssignmentRecord

import checks

ROOT = Path(__file__).resolve().parents[1]
K = 10  # the K of every reported quality metric

_spec = importlib.util.spec_from_file_location(
    "run_benchmark", ROOT / "scripts" / "run_benchmark.py"
)
run_benchmark = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run_benchmark)


def make_config(seed: int, **overrides) -> RunConfig:
    """The default benchmark with ``seed`` as its self-train seed.

    Generation (20240817), masking (5), splitting (11) and pretraining (3)
    keep their ``RunConfig`` seeds, so seed 4 reproduces ``RunConfig()``.
    """
    return dataclasses.replace(RunConfig(), selftrain_seed=seed, **overrides)


class Clock:
    """Stage times per round and per unit, at the reference host speed.

    Round 0 is the first full pass; later rounds are repeated passes or
    repeats of the cheap stages.  A unit is one piece of identical work
    inside a stage (one policy's self-train run or evaluation).  Paused time
    is harness work, left out of every time.  Intervals are kept raw and
    turned into times by ``meter`` (a ``hostspeed.Speedometer`` or
    ``Stopwatch``) once the run is over.
    """

    def __init__(self, meter) -> None:
        self.meter = meter
        self.rounds: list[dict] = [{}]
        self.passes: list[tuple[float, float]] = []
        self.pauses: list[tuple[float, float]] = []
        self.tracer = None

    def next_round(self) -> None:
        self.rounds.append({})

    def seconds(self, t0: float, t1: float, raw: bool = False) -> float:
        """The interval without harness work or probes, at the reference
        host speed unless ``raw``."""
        meter = self.meter
        busy = t1 - t0 - meter.probe_seconds(t0, t1)
        for a, b in self.pauses:
            if t0 <= a and b <= t1:
                busy -= b - a - meter.probe_seconds(a, b)
        return busy if raw else busy / meter.slowdown(t0, t1)

    def unit_samples(self, name: str) -> dict[str, list[float]]:
        """Each unit's time in every round that ran it."""
        out: dict[str, list[float]] = {}
        for r in self.rounds:
            for (n, unit), spans in r.items():
                if n == name:
                    out.setdefault(unit, []).append(
                        sum(self.seconds(a, b) for a, b in spans)
                    )
        return out

    def samples(self, name: str, raw: bool = False) -> list[float]:
        """The stage's total time in every round that ran it."""
        totals = []
        for r in self.rounds:
            spans = [s for (n, _), ss in r.items() if n == name for s in ss]
            if spans:
                totals.append(sum(self.seconds(a, b, raw) for a, b in spans))
        return totals

    def typical(self, name: str) -> float:
        """Sum over the stage's units of each unit's median time."""
        return sum(statistics.median(s) for s in self.unit_samples(name).values())

    def pass_times(self, raw: bool = False) -> list[float]:
        return [self.seconds(a, b, raw) for a, b in self.passes]

    @contextmanager
    def whole_pass(self):
        t0 = time.perf_counter()
        yield
        self.passes.append((t0, time.perf_counter()))

    @contextmanager
    def stage(self, name: str, unit: str = ""):
        span = self.tracer.span(f"bench.{name}") if self.tracer else nullcontext()
        t0 = time.perf_counter()
        with span:
            yield
        self.rounds[-1].setdefault((name, unit), []).append((t0, time.perf_counter()))

    @contextmanager
    def paused(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.pauses.append((t0, time.perf_counter()))


def sha256(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def assignment_arrays(records) -> tuple[np.ndarray, np.ndarray]:
    ints = np.array(
        [(a.iteration, a.scene_id, a.triplet_index, a.assigned_class) for a in records],
        dtype=np.int64,
    ).reshape(-1, 4)
    conf = np.array([a.confidence for a in records], dtype=np.float64)
    return ints, conf


def assignment_records(ints: np.ndarray, conf: np.ndarray) -> list[AssignmentRecord]:
    return [
        AssignmentRecord(*row, confidence=c) for row, c in zip(ints.tolist(), conf.tolist())
    ]


def fingerprint(ints, conf, params, tau, edge_learner=None) -> dict[str, str]:
    """SHA-256 of the assignments, the final parameter bytes and the tau
    trajectory: equal runs of equal code give equal fingerprints."""
    layers = [a for w_b in params.layers for a in w_b]
    if edge_learner is not None:
        layers += [a for w_b in edge_learner.net.layers for a in w_b]
    return {
        "assignments": sha256(ints, conf),
        "params": sha256(*layers),
        "tau": sha256(tau),
    }


def quality_row(policy, recall, mean_recall, f, tail, precision, n_assigned, final_counts):
    head2, tail5 = run_benchmark.head_tail_counts(final_counts)
    return {
        "policy": policy, f"R@{K}": float(recall), f"mR@{K}": float(mean_recall),
        f"F@{K}": float(f), "tail": float(tail), "precision": float(precision),
        "n_assigned": int(n_assigned),
        "head2": head2, "tail5": tail5,
    }


def _check_outputs(ledger, policy, ints, cumulative, tau, train, cap, headline, optional):
    n_fg = train.catalog.n_foreground
    ledger.check(f"{policy}: never accepts none", checks.never_accepts_none, policy, ints)
    ledger.check(f"{policy}: assignments valid", checks.assignments_valid, ints, train, n_fg, cap)
    ledger.check(f"{policy}: counts match", checks.counts_match, ints, cumulative)
    ledger.check(f"{policy}: tau in [0, 1]", checks.tau_in_unit_interval, tau)
    ledger.check(f"{policy}: metrics in [0, 100]", checks.metrics_in_range, headline, optional)


@dataclasses.dataclass
class PolicyOutput:
    params: object
    edge_learner: object
    ints: np.ndarray
    conf: np.ndarray


class InProcess:
    """``policies`` (every policy, no edge learner) and ``gsl`` (catm with
    the edge learner) through the library API."""

    def __init__(self, rc: RunConfig, policies, use_gsl: bool, clock: Clock, ledger) -> None:
        self.rc, self.policies, self.use_gsl = rc, tuple(policies), use_gsl
        self.clock, self.ledger = clock, ledger

    def setup(self) -> None:
        rc = self.rc
        full = synthgen.generate(generator_config(rc))
        masked = synthgen.mask_annotations(full, rc.annotated_fraction, rc.mask_seed)
        fractions = (rc.train_fraction, rc.val_fraction, rc.test_fraction)
        self.train, self.val, self.test = synthgen.split(masked, fractions, rc.split_seed)
        self.ledger.attempted += 1

    def pretrain(self) -> None:
        self.params, _ = classifier.pretrain(
            self.train, train_config(self.rc), self.val, metric_k=self.rc.metric_ks[-1]
        )
        self.ledger.attempted += 1

    def _eval(self, params, edge_learner, records):
        report = metrics.evaluate(params, self.test, self.rc.metric_ks, edge_learner)
        audit = self.ledger.check("audit", metrics.audit_pseudo_labels, records, self.train)
        return report, audit

    def selftrain(self) -> None:
        self.iterations = 0
        self.quality: list[dict] = []
        self.fingerprints: dict[str, dict] = {}
        self.outputs: dict[str, PolicyOutput] = {}
        for policy in self.policies:
            cfg = dataclasses.replace(
                selftrain_config(self.rc), policy=policy, use_gsl=self.use_gsl
            )
            self.ledger.attempted += 1
            try:
                with self.clock.stage("selftrain", policy):
                    result = selftrain.run(
                        self.params, self.train, self.val, cfg, metric_ks=self.rc.metric_ks
                    )
                with self.clock.stage("eval", policy):
                    report, audit = self._eval(result.params, result.edge_learner, result.assignments)
            except Exception as exc:  # the other policies still run
                self.ledger.fail(f"{policy}: {type(exc).__name__}: {exc}")
                continue
            with self.clock.paused():
                self._record(policy, cfg, result, report, audit)

    def _record(self, policy, cfg, result, report, audit) -> None:
        ints, conf = assignment_arrays(result.assignments)
        log = result.log.iterations
        n_fg = self.train.catalog.n_foreground
        tau = np.array([r.tau for r in log], dtype=np.float64).reshape(-1, n_fg)
        cumulative = np.array([r.cumulative_counts for r in log], dtype=np.int64).reshape(-1, n_fg)
        self.iterations += len(log)
        headline = [x for row in report.rows for x in (row.recall, row.mean_recall, row.f_score)]
        optional = [x for row in report.rows for x in (*row.per_class, *row.group_recall.values())]
        _check_outputs(self.ledger, policy, ints, cumulative, tau, self.train,
                       cfg.per_class_per_scene_cap, headline, optional)
        self.fingerprints[policy] = fingerprint(ints, conf, result.params, tau, result.edge_learner)
        row = report.row_for(K)
        final = cumulative[-1] if len(cumulative) else np.zeros(n_fg, dtype=np.int64)
        precision = audit.overall_precision if audit is not None else float("nan")
        self.quality.append(quality_row(
            policy, row.recall, row.mean_recall, row.f_score, row.group_recall["tail"],
            precision, len(ints), final,
        ))
        self.outputs[policy] = PolicyOutput(result.params, result.edge_learner, ints, conf)

    def evaluate(self) -> None:
        for policy, out in self.outputs.items():
            with self.clock.paused():
                records = assignment_records(out.ints, out.conf)
            with self.clock.stage("eval", policy):
                self._eval(out.params, out.edge_learner, records)

    def verify(self) -> None:
        """In-process results are checked as each policy finishes."""


class CliPipeline:
    """``cli``: gen, pretrain, selftrain (catm), eval and audit on disk."""

    def __init__(self, rc: RunConfig, workdir: Path, clock: Clock, ledger) -> None:
        workdir = Path(workdir)
        shutil.rmtree(workdir, ignore_errors=True)
        self.rc = dataclasses.replace(
            rc,
            policy="catm",
            data_dir=str(workdir / "data"),
            checkpoint_dir=str(workdir / "checkpoints"),
            log_dir=str(workdir / "logs"),
        )
        self.clock, self.ledger = clock, ledger
        default = RunConfig()
        self.flags = []
        for f in dataclasses.fields(RunConfig):
            value = getattr(self.rc, f.name)
            if value != getattr(default, f.name):
                text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
                self.flags += ["--" + f.name.replace("_", "-"), text]

    def _main(self, command: str) -> None:
        self.ledger.attempted += 1
        with redirect_stdout(io.StringIO()):
            code = cli.main([command, *self.flags])
        if code != 0:
            self.ledger.fail(f"strel {command} exited with {code}")

    def setup(self) -> None:
        self._main("gen")

    def pretrain(self) -> None:
        self._main("pretrain")

    def selftrain(self) -> None:
        with self.clock.stage("selftrain"):
            self._main("selftrain")
        self.evaluate()

    def evaluate(self) -> None:
        with self.clock.stage("eval"):
            self._main("eval")
            self._main("audit")

    def _table(self, name: str):
        return tables.read_table(os.path.join(self.rc.log_dir, name))[1]

    def _numbers(self, name: str) -> np.ndarray:
        return np.array(self._table(name), dtype=np.float64)

    def verify(self) -> None:
        """Parse the pipeline's files back and check them."""
        rc = self.rc
        self.quality: list[dict] = []
        self.fingerprints: dict[str, dict] = {}
        train = cli.load_split(rc, "train")
        n_fg = train.catalog.n_foreground
        assign = self._numbers("assignments.csv").reshape(-1, 5)
        ints, conf = assign[:, :4].astype(np.int64), assign[:, 4]
        cumulative = self._numbers("selftrain_iterations.csv")[:, 6:].astype(np.int64)
        tau = self._numbers("thresholds.csv")[:, 1:]
        ev = self._numbers("eval_test.csv")  # k, recall, mean_recall, f_score, head, body, tail
        _check_outputs(self.ledger, "catm", ints, cumulative, tau, train,
                       rc.per_class_per_scene_cap, ev[:, 1:4].ravel(), ev[:, 4:].ravel())
        self.iterations = len(cumulative)
        audit = np.array(self._table("audit.csv"))[:, 1:3].astype(np.int64)
        assigned, correct = audit.sum(axis=0)
        params, *_ = selftrain.load_checkpoint(os.path.join(rc.checkpoint_dir, "selftrain.ckpt"))
        self.fingerprints["catm"] = fingerprint(ints, conf, params, tau)
        row = ev[ev[:, 0] == K][0]
        final = cumulative[-1] if len(cumulative) else np.zeros(n_fg, dtype=np.int64)
        self.quality.append(quality_row(
            "catm", row[1], row[2], row[3], row[6],
            correct / assigned if assigned else float("nan"), len(ints), final,
        ))


def build(name: str, rc: RunConfig, clock: Clock, ledger, workdir: Path):
    """The named workload, timing its stages on ``clock``."""
    if name == "policies":
        return InProcess(rc, selftrain.POLICIES, False, clock, ledger)
    if name == "gsl":
        return InProcess(rc, ("catm",), True, clock, ledger)
    if name == "cli":
        return CliPipeline(rc, workdir, clock, ledger)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("policies", "gsl", "cli")
