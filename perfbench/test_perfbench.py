"""Self-test of the benchmark harness at tiny scale.

Runs every workload in both modes on a 40-scene benchmark and checks that
every metric named in BENCHMARK.json is emitted, that each output check
fires on an injected fault, and that traced counts agree.
"""

import json
import signal
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import summarize  # noqa: E402
from workloads import Clock, assignment_arrays, make_config  # noqa: E402

from strel import selftrain, synthgen  # noqa: E402
from strel.classifier import pretrain  # noqa: E402
from strel.cli import generator_config, selftrain_config, train_config  # noqa: E402
from strel.labels import BG_INDEX  # noqa: E402
from strel.metrics import AssignmentRecord, audit_pseudo_labels  # noqa: E402

TINY = dict(n_scenes=40, max_iterations=6, pretrain_epochs=2)


def tiny_config():
    return make_config(4, **TINY)


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    return {
        (w, t): run.run_workload(w, 4, 0, t, rc=tiny_config(), out_dir=out)
        for w in ("policies", "gsl", "cli")
        for t in (0, 1)
    }, out


@pytest.mark.parametrize("workload", ["policies", "gsl", "cli"])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_emitted(records, workload, trace):
    record = records[0][(workload, trace)]
    declared = run.declared_metrics(run.ROOT)[trace]
    line = run.result_line(record, declared)
    assert set(line["metrics"]) == set(declared)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0, record["failures"]
    assert all(np.isfinite(m["value"]) for m in line["metrics"].values())
    json.loads(json.dumps(line))


@pytest.mark.parametrize("workload, runs", [("policies", 7), ("gsl", 1), ("cli", 1)])
def test_traced_counts_agree(records, workload, runs):
    m = records[0][(workload, 1)]["metrics"]
    expected = runs * TINY["max_iterations"]
    assert m["selftrain.partition_batch.calls"] == m["selftrain.iterations"] == expected
    assert (m["edges.sample_edges.s"] > 0) == (workload == "gsl")
    assert (m["labels.read_scenes.s"] > 0) == (workload == "cli")
    assert (m["io.bytes_written"] > 0) == (workload == "cli")
    # pretrain, selftrain (train and val each), eval and audit; the harness's
    # own reads of the outputs stay out of the trace
    assert m["labels.read_scenes.calls"] == (6 if workload == "cli" else 0)


@pytest.mark.parametrize("workload", ["policies", "gsl", "cli"])
def test_runs_repeat_their_fingerprints(records, workload):
    untraced, traced = records[0][(workload, 0)], records[0][(workload, 1)]
    assert untraced["fingerprints"] == traced["fingerprints"]
    assert not any("fingerprints" in f for f in untraced["failures"] + traced["failures"])


def test_summarizer_reads_records(records, capsys):
    assert summarize.main([str(records[1])]) == 0
    text = capsys.readouterr().out
    assert "catm - never" in text and "identical" in text


def test_bootstrap_interval_of_constant_differences_is_a_point():
    assert summarize.bootstrap_ci([1.5, 1.5, 1.5]) == (1.5, 1.5)


# --- host-speed adjustment --------------------------------------------------------


class FixedProbes(hostspeed.Speedometer):
    """A speedometer with given probe times instead of measured ones."""

    def __init__(self, probes, reference):
        super().__init__(reference=reference)
        self.starts = [a for a, _ in probes]
        self.ends = [b for _, b in probes]


def test_adjustment_takes_out_probes_and_pauses_and_scales_to_reference():
    # probes of 0.2 s at 0, 1, 2 and 3 s: the host runs at half the reference speed
    meter = FixedProbes([(t, t + 0.2) for t in (0.0, 1.0, 2.0, 3.0)], reference=0.1)
    clock = Clock(meter)
    clock.pauses.append((1.5, 2.5))  # harness work holding the probe at 2 s
    assert meter.probe_seconds(0.5, 2.9) == pytest.approx(0.4)
    assert meter.slowdown(0.5, 2.9) == pytest.approx(2.0)
    busy = 2.4 - 0.4 - (1.0 - 0.2)
    assert clock.seconds(0.5, 2.9, raw=True) == pytest.approx(busy)
    assert clock.seconds(0.5, 2.9) == pytest.approx(busy / 2.0)


def test_slowdown_uses_the_nearest_probes_outside_a_short_interval():
    meter = FixedProbes([(0.0, 0.1), (1.0, 1.3)], reference=0.1)
    assert meter.slowdown(0.4, 0.6) == pytest.approx(2.0)


def test_speedometer_probes_and_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Speedometer(interval=0.01) as meter:
        sum(i * i for i in range(300_000))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert meter.probes >= 3
    assert all(b > a for a, b in zip(meter.starts, meter.ends))


def test_untraced_run_records_raw_and_adjusted_times(records):
    record = records[0][("gsl", 0)]
    assert record["probes"] >= 2
    assert len(record["walls"]) == len(record["raw_walls"]) >= 1
    for name, samples in record["stage_samples"].items():
        assert len(samples) == len(record["raw_stage_samples"][name]) >= 1
        assert all(s > 0 for s in samples)


# --- injected faults ------------------------------------------------------------


@pytest.fixture(scope="module")
def catm_run():
    rc = tiny_config()
    full = synthgen.generate(generator_config(rc))
    masked = synthgen.mask_annotations(full, rc.annotated_fraction, rc.mask_seed)
    train, val, _ = synthgen.split(masked, (0.7, 0.1, 0.2), rc.split_seed)
    params, _ = pretrain(train, train_config(rc), val, metric_k=10)
    result = selftrain.run(params, train, val, selftrain_config(rc))
    ints, _ = assignment_arrays(result.assignments)
    n_fg = train.catalog.n_foreground
    cumulative = np.array([r.cumulative_counts for r in result.log.iterations]).reshape(-1, n_fg)
    tau = np.array([r.tau for r in result.log.iterations]).reshape(-1, n_fg)
    assert len(ints) > 0
    return train, ints, cumulative, tau


def _pairs(train, annotated):
    for scene in train.scenes:
        for i, t in enumerate(scene.triplets):
            if (t.observed_label != BG_INDEX) == annotated:
                yield scene.scene_id, i


def test_checks_pass_on_real_outputs(catm_run):
    train, ints, cumulative, tau = catm_run
    checks.never_accepts_none("catm", ints)
    checks.assignments_valid(ints, train, train.catalog.n_foreground, 3)
    checks.counts_match(ints, cumulative)
    checks.tau_in_unit_interval(tau)
    checks.metrics_in_range([0.0, 55.5, 100.0], [np.nan, 3.0])


def test_assignment_on_annotated_pair_fails(catm_run):
    train, ints, *_ = catm_run
    bad = ints.copy()
    bad[0, 1:3] = next(_pairs(train, annotated=True))
    with pytest.raises(checks.CheckFailed, match="annotated"):
        checks.assignments_valid(bad, train, train.catalog.n_foreground, 3)


def test_missing_pair_and_background_class_fail(catm_run):
    train, ints, *_ = catm_run
    missing = ints.copy()
    missing[0, 2] = 10_000
    with pytest.raises(checks.CheckFailed, match="missing"):
        checks.assignments_valid(missing, train, train.catalog.n_foreground, 3)
    background = ints.copy()
    background[0, 3] = BG_INDEX
    with pytest.raises(checks.CheckFailed, match="class"):
        checks.assignments_valid(background, train, train.catalog.n_foreground, 3)


def test_cap_violation_fails(catm_run):
    train = catm_run[0]
    scene = next(s for s in train.scenes if sum(t.observed_label == BG_INDEX for t in s.triplets) > 3)
    free = [i for i, t in enumerate(scene.triplets) if t.observed_label == BG_INDEX][:4]
    rows = np.array([[0, scene.scene_id, i, 1] for i in free], dtype=np.int64)
    checks.assignments_valid(rows[:3], train, train.catalog.n_foreground, 3)
    with pytest.raises(checks.CheckFailed, match="cap"):
        checks.assignments_valid(rows, train, train.catalog.n_foreground, 3)


def test_never_with_pseudo_labels_fails(catm_run):
    with pytest.raises(checks.CheckFailed):
        checks.never_accepts_none("never", catm_run[1])


def test_count_mismatch_fails(catm_run):
    _, ints, cumulative, _ = catm_run
    bad = cumulative.copy()
    bad[-1, 0] += 1
    with pytest.raises(checks.CheckFailed):
        checks.counts_match(ints, bad)


@pytest.mark.parametrize("value", [1.5, -0.1, np.nan])
def test_tau_outside_unit_interval_fails(catm_run, value):
    tau = catm_run[3].copy()
    tau[-1, -1] = value
    with pytest.raises(checks.CheckFailed):
        checks.tau_in_unit_interval(tau)


@pytest.mark.parametrize("headline, optional", [([101.0], []), ([np.nan], []), ([5.0], [-1.0])])
def test_metric_outside_range_fails(headline, optional):
    with pytest.raises(checks.CheckFailed):
        checks.metrics_in_range(headline, optional)


def test_traced_count_mismatch_fails():
    checks.traced_counts_agree([6, 6], [6, 6], 6)
    for parts, iters in (([5, 6], [6, 6]), ([5, 5], [5, 5]), ([], [])):
        with pytest.raises(checks.CheckFailed):
            checks.traced_counts_agree(parts, iters, 6)


def test_failed_audit_counts_as_failure(catm_run):
    ledger = checks.Ledger()
    bogus = [AssignmentRecord(0, 10_000, 0, 1, 0.9)]
    assert ledger.check("audit", audit_pseudo_labels, bogus, catm_run[0]) is None
    assert (ledger.attempted, ledger.failed) == (1, 1)


def test_program_fault_makes_the_run_incorrect(tmp_path, monkeypatch):
    """A partition that offers annotated pairs as candidates is caught."""
    original = selftrain.partition_batch

    def leaky(scenes):
        annotated, unannotated = original(scenes)
        return annotated, annotated + unannotated

    monkeypatch.setattr(selftrain, "partition_batch", leaky)
    record = run.run_workload("policies", 4, 0, 0, rc=tiny_config(), out_dir=tmp_path)
    line = run.result_line(record, run.declared_metrics(run.ROOT)[0])
    assert not line["correct"] and line["failed"] >= 1
    assert any("assignments valid" in f for f in record["failures"])
