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
from typing import Iterable, Sequence

import numpy as np

from . import tensorio
from .errors import ConfigError, RuntimeAbort, ValidationError
from .labels import BG_INDEX, Dataset, Prediction, PredicateCatalog, TripletInstance, argmax_confidence
from .rngs import stream

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


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.5
    n_epochs: int = 30
    batch_size: int = 20  # scenes per batch
    reweight: str = "none"  # none | inverse-frequency
    oversample: bool = False
    bg_downsample: float = 1.0  # kept share of observed-bg triplets per batch
    arch: str = "linear"
    hidden_dim: int = 16
    seed: int = 0

    def validate(self) -> None:
        if self.learning_rate <= 0.0:
            raise ConfigError("learning_rate must be positive")
        if self.n_epochs < 0 or self.batch_size < 1:
            raise ConfigError("n_epochs must be >= 0 and batch_size >= 1")
        if self.reweight not in ("none", "inverse-frequency"):
            raise ConfigError(f"unknown reweight scheme {self.reweight!r}")
        if self.arch not in ("linear", "mlp"):
            raise ConfigError(f"unknown architecture {self.arch!r}")
        if not 0.0 < self.bg_downsample <= 1.0:
            raise ConfigError("bg_downsample must lie in (0, 1]")
        if self.hidden_dim < 1:
            raise ConfigError("hidden_dim must be positive")


def init_params(
    arch: str, feature_dim: int, n_classes: int, hidden_dim: int = 16, seed: int = 0
) -> ModelParams:
    rng = stream(seed, "init")
    if arch == "linear":
        w = 0.01 * rng.standard_normal((feature_dim, n_classes))
        return ModelParams(arch="linear", layers=((w, np.zeros(n_classes)),))
    if arch == "mlp":
        w1 = rng.standard_normal((feature_dim, hidden_dim)) / math.sqrt(feature_dim)
        w2 = rng.standard_normal((hidden_dim, n_classes)) / math.sqrt(hidden_dim)
        return ModelParams(
            arch="mlp",
            layers=((w1, np.zeros(hidden_dim)), (w2, np.zeros(n_classes))),
        )
    raise ConfigError(f"unknown architecture {arch!r}")


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


def predict_probs(params: ModelParams, X) -> np.ndarray:
    """Class-probability rows for a feature matrix."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != params.feature_dim:
        raise ValidationError(
            f"feature matrix must be (n, {params.feature_dim}), got {X.shape}"
        )
    logits, _ = _forward_cache(params, X)
    return softmax(logits)


def forward(params: ModelParams, features) -> Prediction:
    """Single-instance forward pass wrapped as a Prediction."""
    feats = np.asarray(features, dtype=np.float64)
    if feats.shape != (params.feature_dim,):
        raise ValidationError(
            f"expected a {params.feature_dim}-dimensional feature vector, got {feats.shape}"
        )
    probs = predict_probs(params, feats[None, :])[0]
    return argmax_confidence(probs)


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
    targets = np.asarray(targets, dtype=np.intp)
    coeffs = np.asarray(coeffs, dtype=np.float64)
    logits, cache = _forward_cache(params, X)
    probs = softmax(logits)
    rows = np.arange(len(targets))
    picked = probs[rows, targets]
    loss = float(np.sum(coeffs * -np.log(np.maximum(picked, PROB_FLOOR))))
    dlogits = probs * coeffs[:, None]
    dlogits[rows, targets] -= coeffs
    return loss, _backprop(params, cache, dlogits)


def supervised_loss_grad(
    params: ModelParams,
    triplets: Iterable[TripletInstance],
    class_weights: np.ndarray,
) -> tuple[float, Grads]:
    """Mean weighted cross-entropy over annotated triplets."""
    batch = list(triplets)
    if not batch:
        return 0.0, zero_grads(params)
    for t in batch:
        if t.observed_label == BG_INDEX:
            raise ValidationError("supervised loss expects annotated triplets only")
    w = np.asarray(class_weights, dtype=np.float64)
    if w.shape != (params.n_classes,):
        raise ValidationError("class_weights length must match the class count")
    X = np.stack([t.features for t in batch])
    y = np.array([t.observed_label for t in batch])
    return weighted_ce_loss_grad(params, X, y, w[y] / len(batch))


def background_loss_grad(
    params: ModelParams,
    triplets: Sequence[TripletInstance],
    class_weights: np.ndarray,
) -> tuple[float, Grads]:
    """Mean cross-entropy treating every given triplet as background."""
    if not triplets:
        return 0.0, zero_grads(params)
    w = np.asarray(class_weights, dtype=np.float64)
    X = np.stack([t.features for t in triplets])
    y = np.full(len(triplets), BG_INDEX)
    return weighted_ce_loss_grad(params, X, y, np.full(len(triplets), w[BG_INDEX] / len(triplets)))


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
    if scheme != "inverse-frequency":
        raise ConfigError(f"unknown reweight scheme {scheme!r}")
    counts = np.asarray(catalog.counts, dtype=np.float64)
    positive = counts > 0
    fg = np.full(len(counts), MAX_CLASS_WEIGHT)
    if positive.any():
        raw = 1.0 / counts[positive]
        fg[positive] = raw / raw.mean()
    w[1:] = np.minimum(fg, MAX_CLASS_WEIGHT)
    return w


def balanced_resample(
    triplets: Sequence[TripletInstance], rng: np.random.Generator
) -> list[TripletInstance]:
    """Resample annotated triplets so classes appear near-uniformly.

    Total count is preserved; classes are drawn with replacement from their
    own pools in label order, so the result is deterministic given the rng.
    """
    pools: dict[int, list[TripletInstance]] = {}
    for t in triplets:
        pools.setdefault(t.observed_label, []).append(t)
    classes = sorted(pools)
    base, extra = divmod(len(triplets), len(classes))
    out: list[TripletInstance] = []
    for slot, c in enumerate(classes):
        take = base + (1 if slot < extra else 0)
        pool = pools[c]
        for i in rng.integers(0, len(pool), size=take):
            out.append(pool[int(i)])
    return out


def downsample_background(
    triplets: Sequence[TripletInstance], keep_fraction: float, rng: np.random.Generator
) -> list[TripletInstance]:
    """Subsample observed-background triplets for the loss.

    Mirrors the pair-proposal subsampling of detection pipelines so the
    background term does not drown the annotated term when only a few
    percent of pairs are annotated.  Keeps at least one triplet.
    """
    if keep_fraction >= 1.0 or len(triplets) == 0:
        return list(triplets)
    k = max(1, math.ceil(keep_fraction * len(triplets)))
    idx = np.sort(rng.choice(len(triplets), size=k, replace=False))
    return [triplets[int(i)] for i in idx]


@dataclass(frozen=True)
class PretrainEpoch:
    epoch: int
    mean_loss: float
    val_mean_recall: float  # nan when no validation split was given


def pretrain(
    train: Dataset,
    cfg: TrainConfig,
    val: Dataset | None = None,
    metric_k: int = 5,
) -> tuple[ModelParams, list[PretrainEpoch]]:
    """Supervised training with unannotated pairs treated as background.

    The loss per batch is the mean annotated cross-entropy plus the mean
    background cross-entropy over the (optionally downsampled) unannotated
    pairs; this is the conventional baseline the self-training loop later
    extends with a pseudo-label term.
    """
    cfg.validate()
    if not train.scenes:
        raise ConfigError("training split is empty")
    catalog = train.catalog
    feature_dim = train.scenes[0].triplets[0].features.shape[0]
    params = init_params(cfg.arch, feature_dim, catalog.n_classes, cfg.hidden_dim, cfg.seed)
    w = class_weights(catalog, cfg.reweight)

    log: list[PretrainEpoch] = []
    for epoch in range(cfg.n_epochs):
        order = stream(cfg.seed, "epoch-order", epoch).permutation(len(train.scenes))
        losses = []
        for b, start in enumerate(range(0, len(order), cfg.batch_size)):
            scenes = [train.scenes[int(i)] for i in order[start : start + cfg.batch_size]]
            annotated = [t for s in scenes for t in s.triplets if t.observed_label != BG_INDEX]
            background = [t for s in scenes for t in s.triplets if t.observed_label == BG_INDEX]
            rng = stream(cfg.seed, "batch", epoch, b)
            if cfg.oversample and annotated:
                annotated = balanced_resample(annotated, rng)
            background = downsample_background(background, cfg.bg_downsample, rng)
            loss_a, g_a = supervised_loss_grad(params, annotated, w)
            loss_b, g_b = background_loss_grad(params, background, w)
            loss = loss_a + loss_b
            if not math.isfinite(loss):
                raise RuntimeAbort(f"pretraining diverged at epoch {epoch}, batch {b}")
            params = sgd_step(params, add_grads(g_a, g_b), cfg.learning_rate)
            losses.append(loss)
        val_mr = float("nan")
        if val is not None:
            from .metrics import evaluate  # local import to avoid a module cycle

            val_mr = evaluate(params, val, ks=(metric_k,)).rows[0].mean_recall
        log.append(PretrainEpoch(epoch, float(np.mean(losses)) if losses else 0.0, val_mr))
    return params, log


# --- checkpointing ----------------------------------------------------------


def params_to_tensors(params: ModelParams) -> dict[str, np.ndarray]:
    out = {}
    for i, (w, b) in enumerate(params.layers):
        out[f"layer{i}.w"] = w
        out[f"layer{i}.b"] = b
    return out


def params_from_tensors(tensors: dict[str, np.ndarray], arch: str) -> ModelParams:
    n_layers = 1 if arch == "linear" else 2
    layers = tuple(
        (tensors[f"layer{i}.w"], tensors[f"layer{i}.b"]) for i in range(n_layers)
    )
    return ModelParams(arch=arch, layers=layers)


def save_model(path, params: ModelParams, meta: dict | None = None) -> None:
    full_meta = {"arch": params.arch}
    full_meta.update(meta or {})
    tensorio.save_tensors(path, params_to_tensors(params), full_meta)


def load_model(path) -> tuple[ModelParams, dict]:
    tensors, meta = tensorio.load_tensors(path)
    return params_from_tensors(tensors, meta["arch"]), meta
