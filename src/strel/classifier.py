"""Softmax relation classifier with explicit gradients.

Two small architectures share one parameter container: a plain linear
softmax layer and a one-hidden-layer tanh network.  Everything runs in
double precision, the backward passes are written out by hand, and training
is a sequential SGD loop over scene batches so downstream threshold updates
see a serial stream of predictions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .errors import ConfigError, RuntimeAbort, ValidationError
from .labels import BG_INDEX, Dataset, PredicateCatalog
from .rngs import stream, streams

PROB_FLOOR = 1e-12
MAX_CLASS_WEIGHT = 100.0

Grads = tuple[tuple[np.ndarray, np.ndarray], ...]


@dataclass(frozen=True)
class ModelParams:
    """Weights of the relation classifier.

    ``layers`` holds one ``(weight, bias)`` pair for the linear architecture
    and two for the one-hidden-layer tanh network ("mlp").
    """

    arch: str
    layers: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __post_init__(self) -> None:
        if self.arch not in ("linear", "mlp"):
            raise ConfigError(f"unknown architecture {self.arch!r}")
        expected = 1 if self.arch == "linear" else 2
        if len(self.layers) != expected:
            raise ValidationError(f"{self.arch} expects {expected} layer(s)")

    @property
    def feature_dim(self) -> int:
        return self.layers[0][0].shape[0]

    @property
    def n_classes(self) -> int:
        return self.layers[-1][0].shape[1]


def init_params(
    arch: str, feature_dim: int, n_classes: int, hidden_dim: int = 16, seed: int = 0
) -> ModelParams:
    rng = stream(seed, "init")
    if arch == "linear":
        w = 0.01 * rng.standard_normal((feature_dim, n_classes))
        return ModelParams(arch="linear", layers=((w, np.zeros(n_classes)),))
    w1 = rng.standard_normal((feature_dim, hidden_dim)) / math.sqrt(feature_dim)
    w2 = rng.standard_normal((hidden_dim, n_classes)) / math.sqrt(hidden_dim)
    return ModelParams(
        arch=arch,
        layers=((w1, np.zeros(hidden_dim)), (w2, np.zeros(n_classes))),
    )


def softmax(logits: np.ndarray) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _forward_cache(params: ModelParams, X: np.ndarray):
    if params.arch == "linear":
        w, b = params.layers[0]
        return X @ w + b, (X,)
    (w1, b1), (w2, b2) = params.layers
    h = np.tanh(X @ w1 + b1)
    return h @ w2 + b2, (X, h)


def _backprop(params: ModelParams, cache, dlogits: np.ndarray) -> Grads:
    if params.arch == "linear":
        (X,) = cache
        return ((X.T @ dlogits, dlogits.sum(axis=0)),)
    X, h = cache
    w2, _ = params.layers[1]
    dw2 = h.T @ dlogits
    db2 = dlogits.sum(axis=0)
    dh = (dlogits @ w2.T) * (1.0 - h * h)
    return ((X.T @ dh, dh.sum(axis=0)), (dw2, db2))


def forward_probs(params: ModelParams, X: np.ndarray):
    """Class-probability rows of a feature matrix, plus the cache that
    :func:`weighted_ce_grads` backpropagates through."""
    logits, cache = _forward_cache(params, X)
    return softmax(logits), cache


def predict_probs(params: ModelParams, X) -> np.ndarray:
    """Class-probability rows for a feature matrix."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != params.feature_dim:
        raise ValidationError(
            f"feature matrix must be (n, {params.feature_dim}), got {X.shape}"
        )
    return forward_probs(params, X)[0]


def zero_grads(params: ModelParams) -> Grads:
    return tuple((np.zeros_like(w), np.zeros_like(b)) for w, b in params.layers)


def add_grads(a: Grads, b: Grads, scale: float = 1.0) -> Grads:
    return tuple(
        (aw + scale * bw, ab + scale * bb)
        for (aw, ab), (bw, bb) in zip(a, b)
    )


def weighted_ce_loss_grad(
    params: ModelParams, X: np.ndarray, targets: np.ndarray, coeffs: np.ndarray
) -> tuple[float, Grads]:
    """Cross-entropy with one multiplier per instance.

    loss = sum_i coeffs[i] * -log(probs[i, targets[i]]), with the probability
    floored at 1e-12 inside the log; the gradient is the matching exact
    softmax backward pass of the unfloored loss.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.shape[0] == 0:
        return 0.0, zero_grads(params)
    coeffs = np.asarray(coeffs, dtype=np.float64)
    nll, grads = weighted_ce_grads(
        params, forward_probs(params, X), np.asarray(targets, dtype=np.intp), coeffs
    )
    return float(np.sum(coeffs * nll)), grads


def weighted_ce_grads(
    params: ModelParams, forward, targets: np.ndarray, coeffs: np.ndarray
) -> tuple[np.ndarray, Grads]:
    """The probs-to-gradient half of :func:`weighted_ce_loss_grad`.

    From ``forward = forward_probs(params, X)``, returns each row's
    cross-entropy ``-log(probs[i, targets[i]])`` (probability floored at
    1e-12) and the gradient of ``sum_i coeffs[i] * cross-entropy[i]``.
    """
    probs, cache = forward
    rows = np.arange(len(targets))
    nll = -np.log(np.maximum(probs[rows, targets], PROB_FLOOR))
    dlogits = probs * coeffs[:, None]
    dlogits[rows, targets] -= coeffs
    return nll, _backprop(params, cache, dlogits)


def supervised_loss_grad(
    params: ModelParams, X: np.ndarray, labels: np.ndarray, class_weights: np.ndarray
) -> tuple[float, Grads]:
    """Mean weighted cross-entropy over annotated pairs: feature rows ``X``
    and their observed labels."""
    y = np.asarray(labels, dtype=np.intp)
    if not len(y):
        return 0.0, zero_grads(params)
    if np.any(y == BG_INDEX):
        raise ValidationError("supervised loss expects annotated triplets only")
    w = np.asarray(class_weights, dtype=np.float64)
    if w.shape != (params.n_classes,):
        raise ValidationError("class_weights length must match the class count")
    return weighted_ce_loss_grad(params, X, y, w[y] / len(y))


def background_loss_grad(
    params: ModelParams, X: np.ndarray, class_weights: np.ndarray
) -> tuple[float, Grads]:
    """Mean cross-entropy treating every feature row of ``X`` as background."""
    n = len(X)
    if not n:
        return 0.0, zero_grads(params)
    w = np.asarray(class_weights, dtype=np.float64)
    return weighted_ce_loss_grad(params, X, np.full(n, BG_INDEX), np.full(n, w[BG_INDEX] / n))


def sgd_step(params: ModelParams, grads: Grads, lr: float) -> ModelParams:
    """One deterministic gradient-descent update."""
    new_layers = []
    for li, ((w, b), (gw, gb)) in enumerate(zip(params.layers, grads)):
        if gw.shape != w.shape or gb.shape != b.shape:
            raise ValidationError(f"gradient shape mismatch in layer {li}")
        if not (np.all(np.isfinite(gw)) and np.all(np.isfinite(gb))):
            bad = int((~np.isfinite(gw)).sum() + (~np.isfinite(gb)).sum())
            raise RuntimeAbort(f"non-finite gradient in layer {li} ({bad} entries)")
        new_layers.append((w - lr * gw, b - lr * gb))
    return ModelParams(arch=params.arch, layers=tuple(new_layers))


def class_weights(catalog: PredicateCatalog, scheme: str) -> np.ndarray:
    """Per-class loss weights; the background weight is fixed at 1.

    The inverse-frequency scheme normalizes 1/count to mean 1 over the
    foreground classes with a positive count; zero-count classes get the
    maximum weight cap.
    """
    w = np.ones(catalog.n_classes)
    if scheme == "none":
        return w
    counts = np.asarray(catalog.counts, dtype=np.float64)
    positive = counts > 0
    fg = np.full(len(counts), MAX_CLASS_WEIGHT)
    if positive.any():
        raw = 1.0 / counts[positive]
        fg[positive] = raw / raw.mean()
    w[1:] = np.minimum(fg, MAX_CLASS_WEIGHT)
    return w


def balanced_resample(
    rows: np.ndarray, labels: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Resample annotated rows so classes appear near-uniformly.

    ``labels`` holds each row's class.  Total count is preserved; classes
    are drawn with replacement from their own pools (rows in given order) in
    label order, so the result is deterministic given the rng.
    """
    classes = np.flatnonzero(np.bincount(labels))  # sorted, without np.unique's numpy.ma import
    base, extra = divmod(len(rows), len(classes))
    out = []
    for slot, c in enumerate(classes):
        pool = rows[labels == c]
        out.append(pool[rng.integers(0, len(pool), size=base + (1 if slot < extra else 0))])
    return np.concatenate(out)


def downsample_background(
    rows: np.ndarray, keep_fraction: float, rng: np.random.Generator
) -> np.ndarray:
    """Subsample observed-background rows for the loss, keeping their order.

    Mirrors the pair-proposal subsampling of detection pipelines so the
    background term does not drown the annotated term when only a few
    percent of pairs are annotated.  Keeps at least one row.
    """
    if keep_fraction >= 1.0 or len(rows) == 0:
        return rows
    k = max(1, math.ceil(keep_fraction * len(rows)))
    return rows[np.sort(rng.choice(len(rows), size=k, replace=False))]


@dataclass(frozen=True)
class PretrainEpoch:
    epoch: int
    mean_loss: float
    val_mean_recall: float  # nan when no validation split was given


def pretrain(
    train: Dataset,
    cfg: RunConfig,
    val: Dataset | None = None,
    metric_k: int = 5,
) -> tuple[ModelParams, list[PretrainEpoch]]:
    """Supervised training with unannotated pairs treated as background.

    The loss per batch is the mean annotated cross-entropy plus the mean
    background cross-entropy over the (optionally downsampled) unannotated
    pairs; this is the conventional baseline the self-training loop later
    extends with a pseudo-label term.
    """
    arrays = train.arrays
    n_scenes = len(arrays.scene_ids)
    if not n_scenes:
        raise ConfigError("training split is empty")
    catalog = train.catalog
    params = init_params(
        cfg.arch, arrays.features.shape[1], catalog.n_classes, cfg.hidden_dim, cfg.pretrain_seed
    )
    w = class_weights(catalog, cfg.reweight)

    log: list[PretrainEpoch] = []
    for epoch in range(cfg.pretrain_epochs):
        order = stream(cfg.pretrain_seed, "epoch-order", epoch).permutation(n_scenes)
        starts = range(0, len(order), cfg.batch_size)
        batch_rngs = streams(cfg.pretrain_seed, "batch", epoch, keys=range(len(starts)))
        losses = []
        for b, (start, rng) in enumerate(zip(starts, batch_rngs)):
            rows = arrays.rows_of(order[start : start + cfg.batch_size])
            observed = arrays.observed[rows]
            annotated, background = rows[observed != BG_INDEX], rows[observed == BG_INDEX]
            if cfg.oversample and len(annotated):
                annotated = balanced_resample(annotated, arrays.observed[annotated], rng)
            background = downsample_background(background, cfg.bg_downsample, rng)
            loss_a, g_a = supervised_loss_grad(
                params, arrays.features[annotated], arrays.observed[annotated], w
            )
            loss_b, g_b = background_loss_grad(params, arrays.features[background], w)
            loss = loss_a + loss_b
            if not math.isfinite(loss):
                raise RuntimeAbort(f"pretraining diverged at epoch {epoch}, batch {b}")
            params = sgd_step(params, add_grads(g_a, g_b), cfg.pretrain_learning_rate)
            losses.append(loss)
        val_mr = float("nan")
        if val is not None:
            from .metrics import evaluate  # local import to avoid a module cycle

            val_mr = evaluate(params, val, ks=(metric_k,)).rows[0].mean_recall
        log.append(PretrainEpoch(epoch, float(np.mean(losses)) if losses else 0.0, val_mr))
    return params, log
