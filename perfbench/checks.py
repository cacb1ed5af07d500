"""Output checks.  Each check is one operation of the run's error rate.

The checks take plain arrays so that the in-process workloads (results in
memory) and the ``cli`` workload (results parsed back from its CSV files)
share them.  An assignment array has one row per accepted pseudo-label with
columns ``iteration, scene_id, triplet_index, assigned_class``.
"""

from __future__ import annotations

import numpy as np

from strel.labels import BG_INDEX


class CheckFailed(Exception):
    """An output of the program is wrong."""


class Ledger:
    """Operations attempted and failed in one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def check(self, name: str, fn, *args):
        """Run one operation; an exception is recorded as its failure."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # the run goes on and reports the failure
            self.fail(f"{name}: {type(exc).__name__}: {exc}")
            return None


def never_accepts_none(policy: str, assignments: np.ndarray) -> None:
    if policy == "never" and len(assignments):
        raise CheckFailed(f"'never' accepted {len(assignments)} pseudo-labels")


def assignments_valid(assignments: np.ndarray, train, n_foreground: int, cap: int) -> None:
    """Every pseudo-label sits on an observed-background pair of the training
    split, names a foreground class, and respects the per-(scene, class,
    iteration) cap."""
    if not len(assignments):
        return
    it, sid, idx, cls = assignments.T
    offset = {}
    observed = []
    for scene in train.scenes:
        offset[scene.scene_id] = (len(observed), len(scene.triplets))
        observed.extend(t.observed_label for t in scene.triplets)
    observed = np.asarray(observed)
    rows = np.empty(len(assignments), dtype=np.int64)
    for j, (s, i) in enumerate(zip(sid.tolist(), idx.tolist())):
        start, n = offset.get(s, (-1, 0))
        if start < 0 or not 0 <= i < n:
            raise CheckFailed(f"assignment {j} names a missing pair ({s}, {i})")
        rows[j] = start + i
    on_annotated = np.flatnonzero(observed[rows] != BG_INDEX)
    if len(on_annotated):
        j = on_annotated[0]
        raise CheckFailed(f"assignment {j} lies on annotated pair ({sid[j]}, {idx[j]})")
    if cls.min() < 1 or cls.max() > n_foreground:
        raise CheckFailed(f"assigned class outside 1..{n_foreground}")
    _, per_group = np.unique(np.stack([it, sid, cls], axis=1), axis=0, return_counts=True)
    if per_group.max() > cap:
        raise CheckFailed(f"{per_group.max()} pseudo-labels for one (scene, class, iteration); cap {cap}")


def counts_match(assignments: np.ndarray, cumulative: np.ndarray) -> None:
    """The logged cumulative per-class counts equal the assignment tallies at
    every iteration."""
    n_iter, n_fg = cumulative.shape
    tally = np.zeros((n_iter, n_fg), dtype=np.int64)
    if len(assignments):
        it, cls = assignments[:, 0], assignments[:, 3]
        if it.min() < 0 or it.max() >= n_iter:
            raise CheckFailed("assignment iteration outside the logged iterations")
        np.add.at(tally, (it, cls - 1), 1)
    if not np.array_equal(np.cumsum(tally, axis=0), cumulative):
        raise CheckFailed("cumulative counts differ from the assignment tallies")


def tau_in_unit_interval(tau: np.ndarray) -> None:
    if tau.size and not (np.all(np.isfinite(tau)) and tau.min() >= 0.0 and tau.max() <= 1.0):
        raise CheckFailed(f"tau left [0, 1]: min {tau.min()!r}, max {tau.max()!r}")


def metrics_in_range(headline, optional=()) -> None:
    """Headline metrics lie in [0, 100]; optional ones (nan where a class has
    no ground truth) do too when defined."""
    values = np.asarray(headline, dtype=np.float64)
    extra = np.asarray(optional, dtype=np.float64)
    extra = extra[~np.isnan(extra)]
    for v in (values, extra):
        if v.size and not (np.all(np.isfinite(v)) and v.min() >= 0.0 and v.max() <= 100.0):
            raise CheckFailed(f"metric outside [0, 100]: {v.min()!r}..{v.max()!r}")


def traced_counts_agree(partitions_per_run, iterations_per_run, max_iterations: int) -> None:
    """``partition_batch`` calls, logged iterations and the configured budget
    agree for every self-train run."""
    expected = [max_iterations] * len(iterations_per_run)
    if not iterations_per_run or list(partitions_per_run) != list(iterations_per_run) or list(iterations_per_run) != expected:
        raise CheckFailed(
            f"partition_batch calls {partitions_per_run}, iterations {iterations_per_run}, "
            f"budget {max_iterations}"
        )


def fingerprints_equal(first: dict, again: dict) -> None:
    """A repeated pass of the same code at the same seed reproduces every
    fingerprint."""
    if first != again:
        raise CheckFailed(f"fingerprints changed between passes: {sorted(first)} vs {sorted(again)}")
