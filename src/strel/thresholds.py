"""Pseudo-label acceptance thresholds for the seven self-training policies.

Every policy is one frozen ``Thresholds``: its name, one threshold ``tau``
per foreground class and an ``accept`` mask of the classes that may take
pseudo-labels at all.  A candidate is accepted when its class is in
``accept`` and its confidence is at least the class's ``tau``.  The policies
differ only in how ``tau`` starts and moves:

- "catm" (class-specific adaptive thresholds with momentum) starts from one
  constant and moves every iteration by an exponential moving average of the
  batch confidences (``ema_update``).  Its per-class momentum
  ``lambda_inc``/``lambda_dec`` follows class frequency: head thresholds move
  up fast and down slowly, tail thresholds the reverse.
- "constant", "fixed-class" and "freq-weighted" derive ``tau`` once from
  validation confidences: one pooled upper quantile, per-class upper
  quantiles, and per-class quantiles mixed with class frequency.
  "valid-interval" re-derives the per-class quantiles at a fixed interval.
- "dash-adaptive" ramps the per-class quantiles ``base_tau`` up by a growth
  factor per interval (``dash_adaptive_update``).
- "never" accepts no class, so self-training degenerates to supervised
  training on the same SGD budget.

``step`` counts catm's updates and holds dash-adaptive's current interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, ValidationError
from .labels import PredicateCatalog

POLICIES = (
    "catm",
    "constant",
    "fixed-class",
    "freq-weighted",
    "dash-adaptive",
    "valid-interval",
    "never",
)


@dataclass(frozen=True)
class Thresholds:
    """One policy's per-foreground-class thresholds and update state."""

    policy: str
    tau: np.ndarray
    accept: np.ndarray  # bool per class; a class outside it is never accepted
    lambda_inc: np.ndarray | None = None  # catm momentum
    lambda_dec: np.ndarray | None = None
    base_tau: np.ndarray | None = None  # dash-adaptive ramp start
    step: int = 0
    # the confidence each class index must reach, background first: the
    # background and every class outside ``accept`` are unreachable
    bar: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        bar = np.full(self.tau.size + 1, np.inf)
        np.copyto(bar[1:], self.tau, where=self.accept)
        object.__setattr__(self, "bar", bar)
        for arr in (bar, self.tau, self.accept, self.lambda_inc, self.lambda_dec, self.base_tau):
            if arr is not None:
                arr.setflags(write=False)


def momentum_coefficients(
    catalog: PredicateCatalog, alpha_inc: float = 0.4, alpha_dec: float = 0.4
) -> tuple[np.ndarray, np.ndarray]:
    """catm's momentum ``(lambda_inc, lambda_dec)`` per class, indexed by
    frequency rank (= label index - 1).

    ``lambda_inc[r] = (count[r] / count[0]) ** alpha_inc`` and
    ``lambda_dec[r] = (count[F - 1 - r] / count[0]) ** alpha_dec`` on the
    descending-count ranking, so lambda_inc is non-increasing and lambda_dec
    non-decreasing along the ranking.
    """
    counts = np.asarray(catalog.counts, dtype=np.float64)
    if counts[0] <= 0:
        raise ConfigError("the most frequent class must have a positive count")
    ratio = counts / counts[0]
    return ratio**alpha_inc, ratio[::-1] ** alpha_dec


def uniform_coefficients(n_foreground: int) -> tuple[np.ndarray, np.ndarray]:
    """Class-agnostic momentum 0.5, used by the no-class-specific-momentum ablation."""
    lam = np.full(n_foreground, 0.5)
    return lam, lam


def ema_update(
    state: Thresholds,
    pred_classes,
    confidences,
    strict_eligible_mean: bool = False,
) -> Thresholds:
    """One catm step from a batch of unannotated predictions.

    Per class c: if any prediction of class c clears the previous threshold,
    the threshold moves toward the batch mean confidence of all class-c
    predictions with the class's "increase" momentum; if all fall short it
    moves with the "decrease" momentum; with no class-c predictions it stays
    put.  Background-argmax predictions are ignored.  The mean deliberately
    runs over every class-c prediction in both branches;
    ``strict_eligible_mean`` restricts the increase-branch mean to the
    predictions that cleared the threshold.

    Every class's maximum is one ``maximum.reduceat`` over the predictions
    sorted by class, and the momentum step one vector expression over the
    predicted classes.
    """
    classes = np.asarray(pred_classes, dtype=np.intp)
    conf = np.asarray(confidences, dtype=np.float64)
    if classes.shape != conf.shape or classes.ndim != 1:
        raise ValidationError("pred_classes and confidences must be parallel vectors")
    if conf.size and (conf.min() < 0.0 or conf.max() > 1.0):
        raise ValidationError("confidences must lie in [0, 1]")
    tau = state.tau.copy()
    # a stable (radix) sort by class keeps each class's confidences in batch order
    order = np.argsort(classes.astype(np.min_scalar_type(tau.size)), kind="stable")
    bounds = np.searchsorted(classes[order], np.arange(1, tau.size + 2))
    fg = conf[order[bounds[0] : bounds[-1]]]  # foreground predictions, class by class
    sizes = np.diff(bounds)
    present = np.flatnonzero(sizes)  # label index - 1 of every predicted class
    if present.size:
        sizes, prev = sizes[present], tau[present]
        starts = np.cumsum(sizes) - sizes
        # some prediction clears the previous threshold: the increase branch
        rise = np.maximum.reduceat(fg, starts) >= prev
        by_class = [fg[a : a + n] for a, n in zip(starts.tolist(), sizes.tolist())]
        if strict_eligible_mean:
            by_class = [sel[sel >= p] if r else sel for sel, p, r in zip(by_class, prev, rise)]
        # one add.reduce per class, pairwise like ndarray.mean; reduceat and
        # bincount sum in sequence and round differently
        means = np.array([np.add.reduce(sel) / sel.size for sel in by_class])
        lam = np.where(rise, state.lambda_inc[present], state.lambda_dec[present])
        tau[present] = (1.0 - lam) * prev + lam * means
    # the constructor, not ``replace``: this runs every iteration
    return Thresholds(state.policy, tau, state.accept, state.lambda_inc, state.lambda_dec,
                      state.base_tau, state.step + 1)


def top_quantile(values, quantile: float) -> float:
    """The k-th largest value with k = ceil(quantile * n)."""
    arr = np.sort(np.asarray(values, dtype=np.float64))[::-1]
    if arr.size == 0:
        raise ValidationError("empty confidence pool")
    k = min(arr.size, max(1, math.ceil(quantile * arr.size)))
    return float(arr[k - 1])


def constant_threshold(confidences, n_foreground: int, quantile: float = 0.01) -> np.ndarray:
    """One pooled upper-quantile threshold applied to every class."""
    return np.full(n_foreground, top_quantile(confidences, quantile))


def fixed_class_threshold(classes, confidences, n_foreground: int,
                          quantile: float = 0.01) -> np.ndarray:
    """Per-class upper-quantile thresholds of argmax predictions, given as
    parallel ``classes`` and ``confidences``; background argmaxes are
    ignored and a class with no prediction gets 1.0."""
    classes = np.asarray(classes, dtype=np.intp)
    confidences = np.asarray(confidences, dtype=np.float64)
    if classes.size and not 0 <= classes.min() <= classes.max() <= n_foreground:
        raise ValidationError(f"argmax classes must lie in 0..{n_foreground}")
    tau = np.ones(n_foreground)
    for c in np.flatnonzero(np.bincount(classes, minlength=n_foreground + 1)[1:]):
        tau[c] = top_quantile(confidences[classes == c + 1], quantile)
    return tau


def freq_weighted_threshold(fixed, catalog: PredicateCatalog, mix: float) -> np.ndarray:
    """Blend per-class thresholds with normalized class frequency.

    tau_c = (1 - mix) * tau_c_fixed + mix * count_c / count_1, clipped to
    [0, 1]; penalizes accepting the frequent classes.
    """
    counts = np.asarray(catalog.counts, dtype=np.float64)
    freq = counts / counts[0]
    return np.clip((1.0 - mix) * np.asarray(fixed) + mix * freq, 0.0, 1.0)


def dash_adaptive_update(state: Thresholds, interval_index: int, growth: float) -> Thresholds:
    """Advance the ramp: tau_c = min(1, base_c * growth ** k)."""
    tau = np.minimum(1.0, state.base_tau * growth**interval_index)
    return replace(state, tau=tau, step=int(interval_index))
