"""Edge relevance learner: scoring, relaxed Bernoulli sampling, focal loss.

A two-layer tanh network maps concatenated endpoint entity features to a
scalar logit whose sigmoid is the link probability of the pair.  Hard edge
samples come from a Gumbel-perturbed relaxation: with noise e ~ Gumbel(0,1),
relaxed = sigmoid((log s + e) / temperature) and hard = [relaxed > 0.5].
The hard decision depends only on the sign of log s + e, so it is invariant
to the temperature.  Self-training uses the hard samples only, to gate
pseudo-labels and to pick the message-passing edges; no gradient flows
through them, so the scorer learns from its focal loss alone
(``straight_through_grad`` gives the relaxation's slope for analysis).

Under this single-noise construction P(hard = 1) = 1 - exp(-s), not s.

Training uses a binary focal loss.  The positive term is
-y * (1 - s)**gamma * log(s); by default a symmetric negative term
-(1 - y) * s**gamma * log(1 - s) is added, because without it every-edge-on
is a trivial minimizer.  ``positive_only=True`` drops the negative term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensorio
from .classifier import (
    Grads,
    ModelParams,
    _backprop,
    _forward_cache,
    params_from_tensors,
    params_to_tensors,
    zero_grads,
)
from .errors import ConfigError, ValidationError
from .rngs import stream

SCORE_FLOOR = 1e-12


@dataclass(frozen=True)
class EdgeLearnerParams:
    """Edge scorer network plus its sampling and loss hyperparameters."""

    net: ModelParams  # two-layer net with a single output logit
    temperature: float = 0.5
    focal_gamma: float = 2.0

    def __post_init__(self) -> None:
        if self.temperature <= 0.0:
            raise ConfigError("Gumbel temperature must be positive")
        if self.focal_gamma < 0.0:
            raise ConfigError("focal exponent must be non-negative")
        if self.net.n_classes != 1:
            raise ValidationError("edge scorer must emit a single logit")


def init_edge_learner(
    entity_dim: int,
    hidden_dim: int = 16,
    seed: int = 0,
    temperature: float = 0.5,
    focal_gamma: float = 2.0,
) -> EdgeLearnerParams:
    rng = stream(seed, "edge-init")
    d = 2 * entity_dim
    w1 = rng.standard_normal((d, hidden_dim)) / math.sqrt(d)
    w2 = rng.standard_normal((hidden_dim, 1)) / math.sqrt(hidden_dim)
    net = ModelParams(arch="mlp", layers=((w1, np.zeros(hidden_dim)), (w2, np.zeros(1))))
    return EdgeLearnerParams(net=net, temperature=temperature, focal_gamma=focal_gamma)


def _pair_matrix(x_subject: np.ndarray, x_object: np.ndarray) -> np.ndarray:
    xs = np.atleast_2d(np.asarray(x_subject, dtype=np.float64))
    xo = np.atleast_2d(np.asarray(x_object, dtype=np.float64))
    if xs.shape != xo.shape:
        raise ValidationError("subject and object feature blocks must match in shape")
    return np.concatenate([xs, xo], axis=1)


def edge_scores(params: EdgeLearnerParams, x_subject, x_object) -> np.ndarray:
    """Link probabilities of ordered pairs; order matters (no symmetry)."""
    X = _pair_matrix(x_subject, x_object)
    if X.shape[1] != params.net.feature_dim:
        raise ValidationError(
            f"expected concatenated dimension {params.net.feature_dim}, got {X.shape[1]}"
        )
    logits, _ = _forward_cache(params.net, X)
    return _sigmoid(logits[:, 0])


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@dataclass(frozen=True, eq=False)
class EdgeSamples:
    """Relaxed Bernoulli draws, one entry per edge; indexing gives one
    edge's draw.

    ``hard`` is 1 iff ``relaxed`` > 0.5, which holds iff log(score) + noise
    > 0 -- a condition independent of the temperature.  ``noise`` is logged
    so samples can be replayed exactly.
    """

    score: np.ndarray
    relaxed: np.ndarray
    hard: np.ndarray
    noise: np.ndarray

    def __len__(self) -> int:
        return len(self.hard)

    def __getitem__(self, i) -> EdgeSamples:
        return EdgeSamples(self.score[i], self.relaxed[i], self.hard[i], self.noise[i])


def gumbel_noise(rng: np.random.Generator, n: int) -> np.ndarray:
    u = rng.random(n)
    return -np.log(-np.log(np.maximum(u, SCORE_FLOOR)))


def sample_edges(scores, temperature: float, noise) -> EdgeSamples:
    """Relaxed and hard samples of every edge under the given Gumbel noise
    (draw it with ``gumbel_noise``; logged noise replays a sample)."""
    if temperature <= 0.0:
        raise ConfigError("Gumbel temperature must be positive")
    s = np.clip(np.asarray(scores, dtype=np.float64), SCORE_FLOOR, 1.0 - SCORE_FLOOR)
    e = np.asarray(noise, dtype=np.float64)
    if s.shape != e.shape:
        raise ValidationError("need one noise value per edge score")
    relaxed = _sigmoid((np.log(s) + e) / temperature)
    return EdgeSamples(score=s, relaxed=relaxed, hard=(relaxed > 0.5).astype(np.intp), noise=e)


def straight_through_grad(samples: EdgeSamples, temperature: float) -> np.ndarray:
    """d hard / d score under the straight-through convention.

    Equals d relaxed / d score = relaxed * (1 - relaxed) / (temperature * s).
    """
    return samples.relaxed * (1.0 - samples.relaxed) / (temperature * samples.score)


def focal_loss_grad(
    params: EdgeLearnerParams,
    x_subject: np.ndarray,
    x_object: np.ndarray,
    labels: np.ndarray,
    positive_only: bool = False,
) -> tuple[float, Grads]:
    """Binary focal loss summed over pairs, with exact gradients.

    ``labels`` are 1 where a relation is annotated and 0 otherwise.
    """
    y = np.asarray(labels, dtype=np.float64)
    if y.size == 0:
        return 0.0, zero_grads(params.net)
    if np.any((y != 0.0) & (y != 1.0)):
        raise ValidationError("edge labels must be binary")
    X = _pair_matrix(x_subject, x_object)
    logits, cache = _forward_cache(params.net, X)
    z = logits[:, 0]
    s = _sigmoid(z)
    sc = np.clip(s, SCORE_FLOOR, 1.0 - SCORE_FLOOR)
    g = params.focal_gamma

    log_s = np.log(sc)
    loss_pos = -y * (1.0 - sc) ** g * log_s
    # d/dz of the positive term, with s' = s * (1 - s)
    dz = y * (g * sc * (1.0 - sc) ** g * log_s - (1.0 - sc) ** (g + 1.0))
    loss = loss_pos
    if not positive_only:
        log_1ms = np.log(1.0 - sc)
        loss = loss - (1.0 - y) * sc**g * log_1ms
        dz = dz + (1.0 - y) * (-g * sc**g * (1.0 - sc) * log_1ms + sc ** (g + 1.0))
    return float(loss.sum()), _backprop(params.net, cache, dz[:, None])


def message_pass(
    entity_features: np.ndarray,
    subject_rows: np.ndarray,
    object_rows: np.ndarray,
    hard: np.ndarray,
) -> np.ndarray:
    """One neighbor-averaging round; returns the refreshed pair features.

    Pair i links entity rows ``subject_rows[i]`` and ``object_rows[i]``.
    Entities touched by an on-edge are averaged with the mean of their
    neighbors (half self, half neighborhood; a neighbor counts once per
    on-edge); pair features are rebuilt as the concatenation of the refined
    endpoints.  With no on-edges the pair features come back unchanged.
    """
    flags = np.asarray(hard)
    if flags.shape != subject_rows.shape:
        raise ValidationError("need one hard flag per pair")
    on = np.flatnonzero(flags)
    # each on-edge sends each endpoint's features to the other; interleaving
    # keeps every entity's sum in pair order
    ends = np.stack([subject_rows[on], object_rows[on]], axis=1).ravel()
    others = np.stack([object_rows[on], subject_rows[on]], axis=1).ravel()
    degree = np.bincount(ends, minlength=len(entity_features))
    sums = np.zeros_like(entity_features)
    np.add.at(sums, ends, entity_features[others])
    refined = entity_features.copy()
    linked = degree > 0
    refined[linked] = 0.5 * entity_features[linked] + 0.5 * (sums[linked] / degree[linked, None])
    return np.concatenate([refined[subject_rows], refined[object_rows]], axis=1)


def save_edge_learner(path, params: EdgeLearnerParams, meta: dict | None = None) -> None:
    full_meta = {
        "arch": params.net.arch,
        "temperature": params.temperature,
        "focal_gamma": params.focal_gamma,
    }
    full_meta.update(meta or {})
    tensorio.save_tensors(path, params_to_tensors(params.net), full_meta)


def load_edge_learner(path) -> tuple[EdgeLearnerParams, dict]:
    tensors, meta = tensorio.load_tensors(path)
    net = params_from_tensors(tensors, meta["arch"])
    return (
        EdgeLearnerParams(
            net=net,
            temperature=float(meta["temperature"]),
            focal_gamma=float(meta["focal_gamma"]),
        ),
        meta,
    )
