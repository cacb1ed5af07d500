"""Pseudo-label acceptance thresholds.

The adaptive engine ("catm") keeps one threshold per foreground class and
updates it every iteration as an exponential moving average of batch
confidences, with per-class momentum derived from class frequency: head
thresholds move up fast and down slowly, tail thresholds the reverse.

Four static or scheduled baselines share the same decision interface: a
single pooled-quantile threshold ("constant"), per-class quantile thresholds
("fixed-class"), a frequency-penalized mix ("freq-weighted"), and a
monotonically growing schedule ("dash-adaptive").  A "never" variant that
accepts nothing is included for regression baselines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, ValidationError
from .labels import PredicateCatalog

POLICY_VARIANTS = ("constant", "fixed-class", "freq-weighted", "dash-adaptive", "never")


def _frozen(values) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class MomentumCoefficients:
    """Per-class EMA momentum, indexed by frequency rank (= label index - 1).

    ``lambda_inc[r] = (count[r] / count[0]) ** alpha_inc`` and
    ``lambda_dec[r] = (count[F - 1 - r] / count[0]) ** alpha_dec`` on the
    descending-count ranking, so lambda_inc is non-increasing and lambda_dec
    non-decreasing along the ranking.
    """

    lambda_inc: np.ndarray
    lambda_dec: np.ndarray
    alpha_inc: float
    alpha_dec: float


def momentum_coefficients(
    catalog: PredicateCatalog, alpha_inc: float = 0.4, alpha_dec: float = 0.4
) -> MomentumCoefficients:
    if not 0.0 <= alpha_inc <= 1.0 or not 0.0 <= alpha_dec <= 1.0:
        raise ConfigError("momentum exponents must lie in [0, 1]")
    counts = np.asarray(catalog.counts, dtype=np.float64)
    if counts[0] <= 0:
        raise ConfigError("the most frequent class must have a positive count")
    ratio = counts / counts[0]
    return MomentumCoefficients(
        lambda_inc=_frozen(ratio**alpha_inc),
        lambda_dec=_frozen(ratio[::-1] ** alpha_dec),
        alpha_inc=float(alpha_inc),
        alpha_dec=float(alpha_dec),
    )


def uniform_coefficients(n_foreground: int, value: float = 0.5) -> MomentumCoefficients:
    """Class-agnostic momentum, used by the no-class-specific-momentum ablation."""
    if not 0.0 < value <= 1.0:
        raise ConfigError("uniform momentum must lie in (0, 1]")
    lam = _frozen(np.full(n_foreground, value))
    return MomentumCoefficients(lambda_inc=lam, lambda_dec=lam, alpha_inc=float("nan"), alpha_dec=float("nan"))


@dataclass(frozen=True)
class ThresholdState:
    """Adaptive per-foreground-class thresholds plus their momentum."""

    tau: np.ndarray
    coefficients: MomentumCoefficients
    iteration: int = 0


def initial_state(
    coefficients: MomentumCoefficients, n_foreground: int, initial_tau: float = 0.0
) -> ThresholdState:
    if not 0.0 <= initial_tau <= 1.0:
        raise ConfigError("initial threshold must lie in [0, 1]")
    if coefficients.lambda_inc.shape != (n_foreground,):
        raise ValidationError("momentum size must match the foreground class count")
    return ThresholdState(
        tau=_frozen(np.full(n_foreground, initial_tau)),
        coefficients=coefficients,
        iteration=0,
    )


def ema_update(
    state: ThresholdState,
    pred_classes,
    confidences,
    strict_eligible_mean: bool = False,
) -> ThresholdState:
    """One adaptive-threshold step from a batch of unannotated predictions.

    Per class c: if any prediction of class c clears the previous threshold,
    the threshold moves toward the batch mean confidence of all class-c
    predictions with the class's "increase" momentum; if all fall short it
    moves with the "decrease" momentum; with no class-c predictions it stays
    put.  Background-argmax predictions are ignored.  The mean deliberately
    runs over every class-c prediction in both branches;
    ``strict_eligible_mean`` restricts the increase-branch mean to the
    predictions that cleared the threshold.
    """
    classes = np.asarray(pred_classes, dtype=np.intp)
    conf = np.asarray(confidences, dtype=np.float64)
    if classes.shape != conf.shape or classes.ndim != 1:
        raise ValidationError("pred_classes and confidences must be parallel vectors")
    if conf.size and (conf.min() < 0.0 or conf.max() > 1.0):
        raise ValidationError("confidences must lie in [0, 1]")
    tau = state.tau.copy()
    # a stable sort by class keeps each class's confidences in batch order
    order = np.argsort(classes, kind="stable")
    by_class = conf[order]
    bounds = np.searchsorted(classes[order], np.arange(1, tau.size + 2))
    for c in np.flatnonzero(np.diff(bounds)) + 1:
        sel = by_class[bounds[c - 1] : bounds[c]]
        prev = tau[c - 1]
        if sel.max() >= prev:  # some prediction clears the previous threshold
            lam = state.coefficients.lambda_inc[c - 1]
            if strict_eligible_mean:
                sel = sel[sel >= prev]
        else:
            lam = state.coefficients.lambda_dec[c - 1]
        mean = float(np.add.reduce(sel) / sel.size)  # exactly ndarray.mean
        tau[c - 1] = (1.0 - lam) * prev + lam * mean
    return ThresholdState(
        tau=_frozen(tau), coefficients=state.coefficients, iteration=state.iteration + 1
    )


@dataclass(frozen=True)
class ThresholdPolicy:
    """A static or scheduled per-class threshold vector."""

    variant: str
    tau: np.ndarray
    base_tau: np.ndarray | None = None  # schedule start for dash-adaptive
    growth: float = 1.0
    interval_index: int = 0

    def __post_init__(self) -> None:
        if self.variant not in POLICY_VARIANTS:
            raise ConfigError(f"unknown threshold policy variant {self.variant!r}")
        if np.any(self.tau < 0.0) or np.any(self.tau > 1.0):
            raise ValidationError("stored thresholds must lie in [0, 1]")


def top_quantile(values, quantile: float) -> float:
    """The k-th largest value with k = ceil(quantile * n)."""
    arr = np.sort(np.asarray(values, dtype=np.float64))[::-1]
    if arr.size == 0:
        raise ValidationError("empty confidence pool")
    if not 0.0 < quantile <= 1.0:
        raise ConfigError("quantile must lie in (0, 1]")
    k = min(arr.size, max(1, math.ceil(quantile * arr.size)))
    return float(arr[k - 1])


def constant_threshold(
    confidences, n_foreground: int, quantile: float = 0.01
) -> ThresholdPolicy:
    """One pooled upper-quantile threshold applied to every class."""
    tau = top_quantile(confidences, quantile)
    return ThresholdPolicy(variant="constant", tau=_frozen(np.full(n_foreground, tau)))


def fixed_class_threshold(
    confidences_by_class: Mapping[int, Sequence[float]],
    n_foreground: int,
    quantile: float = 0.01,
) -> ThresholdPolicy:
    """Per-class upper-quantile thresholds; absent classes never accept."""
    tau = np.ones(n_foreground)
    for c, pool in confidences_by_class.items():
        if not 1 <= c <= n_foreground:
            raise ValidationError(f"not a foreground class index: {c}")
        if len(pool):
            tau[c - 1] = top_quantile(pool, quantile)
    return ThresholdPolicy(variant="fixed-class", tau=_frozen(tau))


def freq_weighted_threshold(
    fixed: ThresholdPolicy, catalog: PredicateCatalog, mix: float
) -> ThresholdPolicy:
    """Blend per-class thresholds with normalized class frequency.

    tau_c = (1 - mix) * tau_c_fixed + mix * count_c / count_1, clipped to
    [0, 1]; penalizes accepting the frequent classes.
    """
    if not 0.0 <= mix <= 1.0:
        raise ConfigError("mix weight must lie in [0, 1]")
    counts = np.asarray(catalog.counts, dtype=np.float64)
    freq = counts / counts[0]
    tau = np.clip((1.0 - mix) * fixed.tau + mix * freq, 0.0, 1.0)
    return ThresholdPolicy(variant="freq-weighted", tau=_frozen(tau))


def dash_adaptive_policy(fixed: ThresholdPolicy, growth: float) -> ThresholdPolicy:
    """Monotone threshold ramp starting from the per-class quantile vector."""
    if growth <= 1.0:
        raise ConfigError("dash growth factor must exceed 1")
    return ThresholdPolicy(
        variant="dash-adaptive",
        tau=fixed.tau,
        base_tau=fixed.tau,
        growth=float(growth),
        interval_index=0,
    )


def dash_adaptive_update(policy: ThresholdPolicy, interval_index: int) -> ThresholdPolicy:
    """Advance the ramp: tau_c = min(1, base_c * growth ** k)."""
    if policy.variant != "dash-adaptive":
        raise ConfigError("not a dash-adaptive policy")
    if interval_index < 0:
        raise ConfigError("interval index must be non-negative")
    tau = np.minimum(1.0, policy.base_tau * policy.growth**interval_index)
    return replace(policy, tau=_frozen(tau), interval_index=int(interval_index))


def never_policy(n_foreground: int) -> ThresholdPolicy:
    """Accepts nothing; self-training degenerates to supervised training."""
    return ThresholdPolicy(variant="never", tau=_frozen(np.ones(n_foreground)))
