"""Spans around the layer-boundary functions of ``strel``, recorded from outside.

``Tracer.install`` replaces each traced function with a wrapper in every
``strel`` module that holds a reference to it.  ``strel`` imports functions
by name (``selftrain`` and ``metrics`` both bind ``predict_probs``, ``cli``
binds ``read_scenes``), so patching only the defining module would miss
those call sites; the two lazy local imports (``focal_loss_grad`` in
``selftrain.run``, ``evaluate`` in ``classifier.pretrain``) read the
defining module's attribute at call time and see the wrapper too.

Spans (name, start, end, parent) stay in flat in-memory arrays and are
written once, when the run ends.  A span's self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

STREL_MODULES = (
    "synthgen", "labels", "classifier", "thresholds", "edges", "metrics",
    "selftrain", "tables", "tensorio", "rngs", "cli",
)


def _count_assign(tracer, args, kwargs, result):
    tracer.counts["selftrain.unannotated_seen"] += len(args[0])
    tracer.counts["selftrain.pseudo_accepted"] += len(result)


def _count_run(tracer, args, kwargs, result):
    tracer.run_iterations.append(len(result.log.iterations))


def _count_edges(tracer, args, kwargs, result):
    tracer.counts["edges.edges_sampled"] += len(result)
    tracer.counts["edges.gates_open"] += sum(s.hard for s in result)


def _bytes_written(tracer, args, kwargs, result):
    tracer.counts["io.bytes_written"] += os.path.getsize(args[0])


def _bytes_read(tracer, args, kwargs, result):
    tracer.counts["io.bytes_read"] += os.path.getsize(args[0])


# (defining module, attribute, span name, counter hook).  Span names are
# ``<layer>.<function>``: ``build_thresholds`` and the validation-quantile
# recompute live in ``selftrain`` but belong to the thresholds layer.
TRACED = (
    ("synthgen", "generate", "synthgen.generate", None),
    ("synthgen", "mask_annotations", "synthgen.mask_annotations", None),
    ("synthgen", "split", "synthgen.split", None),
    ("classifier", "pretrain", "classifier.pretrain", None),
    ("classifier", "supervised_loss_grad", "classifier.supervised_loss_grad", None),
    ("classifier", "background_loss_grad", "classifier.background_loss_grad", None),
    ("classifier", "sgd_step", "classifier.sgd_step", None),
    ("classifier", "predict_probs", "classifier.predict_probs", None),
    ("selftrain", "run", "selftrain.run", _count_run),
    ("selftrain", "partition_batch", "selftrain.partition_batch", None),
    ("selftrain", "assign_pseudo_labels", "selftrain.assign_pseudo_labels", _count_assign),
    ("selftrain", "three_term_loss", "selftrain.three_term_loss", None),
    ("selftrain", "build_thresholds", "thresholds.build_thresholds", None),
    ("thresholds", "ema_update", "thresholds.ema_update", None),
    ("selftrain", "_quantile_policy_from_val", "thresholds.val_recompute", None),
    ("edges", "edge_scores", "edges.edge_scores", None),
    ("edges", "sample_edges", "edges.sample_edges", _count_edges),
    ("edges", "message_pass", "edges.message_pass", None),
    ("edges", "focal_loss_grad", "edges.focal_loss_grad", None),
    ("metrics", "evaluate", "metrics.evaluate", None),
    ("metrics", "audit_pseudo_labels", "metrics.audit_pseudo_labels", None),
    ("labels", "read_scenes", "labels.read_scenes", _bytes_read),
    ("labels", "write_scenes", "labels.write_scenes", _bytes_written),
    ("tables", "write_table", "tables.write_table", _bytes_written),
    ("tables", "read_table", "tables.read_table", _bytes_read),
    ("tensorio", "save_tensors", "tensorio.save_tensors", _bytes_written),
    ("tensorio", "load_tensors", "tensorio.load_tensors", _bytes_read),
)

# ``metrics.evaluate`` is reported per caller: the span that encloses it.
EVALUATE_CALLERS = {"selftrain.run": "epoch_s", "classifier.pretrain": "pretrain_s"}


class Tracer:
    """In-memory span recorder; patches ``strel`` while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.run_iterations: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        sid = self._ids.get(name)
        if sid is None:
            sid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.span_name.append(sid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, hook=None):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(f"strel.{m}") for m in STREL_MODULES]
        by_name = {m.__name__.rsplit(".", 1)[1]: m for m in modules}
        for module_name, attr, name, hook in TRACED:
            original = getattr(by_name[module_name], attr)
            wrapper = self.wrap(name, original, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # --- analysis -----------------------------------------------------------

    def arrays(self):
        """Copies of the span columns (a view would pin the growing arrays)."""
        return (
            np.array(self.span_name, dtype=np.int32),
            np.array(self.parent, dtype=np.int32),
            np.array(self.start, dtype=np.float64),
            np.array(self.end, dtype=np.float64),
        )

    def self_times(self) -> np.ndarray:
        """Self time of every span: duration minus its direct children."""
        _, parent, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return dur - child

    def spans_named(self, name: str) -> np.ndarray:
        names, _, _, _ = self.arrays()
        sid = self._ids.get(name)
        return np.flatnonzero(names == sid) if sid is not None else np.zeros(0, np.intp)

    def partitions_per_run(self) -> list[int]:
        """``partition_batch`` calls directly inside each ``selftrain.run`` span."""
        _, parent, _, _ = self.arrays()
        parts = parent[self.spans_named("selftrain.partition_batch")]
        return [int(np.sum(parts == r)) for r in self.spans_named("selftrain.run")]

    def layer_metrics(self) -> dict[str, float]:
        """Per-function self time and calls, plus the counters of each layer."""
        names, parent, start, _ = self.arrays()
        self_s = self.self_times()
        out: dict[str, float] = {}
        for _, _, name, _ in TRACED:
            idx = self.spans_named(name)
            if name == "metrics.evaluate":
                callers = [
                    self.names[names[p]] if p >= 0 else "" for p in parent[idx]
                ]
                for key in ("epoch_s", "pretrain_s", "test_s"):
                    mask = np.array(
                        [EVALUATE_CALLERS.get(c, "test_s") == key for c in callers], bool
                    )
                    out[f"{name}.{key}"] = float(self_s[idx[mask]].sum()) if len(idx) else 0.0
            else:
                out[f"{name}.s"] = float(self_s[idx].sum())
            out[f"{name}.calls"] = float(len(idx))

        seen = self.counts["selftrain.unannotated_seen"]
        sampled = self.counts["edges.edges_sampled"]
        out["selftrain.iterations"] = float(sum(self.run_iterations))
        out["selftrain.unannotated_seen"] = float(seen)
        out["selftrain.pseudo_accepted"] = float(self.counts["selftrain.pseudo_accepted"])
        out["selftrain.accept_ratio"] = (
            self.counts["selftrain.pseudo_accepted"] / seen if seen else 0.0
        )
        gaps = self.iteration_gaps_ms()
        out["selftrain.iter_ms.p50"] = float(np.percentile(gaps, 50)) if len(gaps) else 0.0
        out["selftrain.iter_ms.p99"] = float(np.percentile(gaps, 99)) if len(gaps) else 0.0
        out["edges.edges_sampled"] = float(sampled)
        out["edges.gate_open_ratio"] = self.counts["edges.gates_open"] / sampled if sampled else 0.0
        out["io.bytes_written"] = float(self.counts["io.bytes_written"])
        out["io.bytes_read"] = float(self.counts["io.bytes_read"])
        out["trace.spans"] = float(len(start))
        return out

    def iteration_gaps_ms(self) -> np.ndarray:
        """Intervals between successive ``partition_batch`` starts in one run."""
        _, parent, start, _ = self.arrays()
        idx = self.spans_named("selftrain.partition_batch")
        if len(idx) < 2:
            return np.zeros(0)
        same_run = parent[idx[1:]] == parent[idx[:-1]]
        return 1000.0 * np.diff(start[idx])[same_run]

    def write(self, path) -> None:
        """Write every span as ``name``/``parent``/``start``/``end`` arrays."""
        name, parent, start, end = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(json.dumps(self.names)),
            name=name, parent=parent, start=start, end=end,
        )
