"""Edge relevance learner: scoring, Gumbel-gated edge samples, focal loss.

A two-layer tanh network maps a pair's feature row (its subject's entity
features followed by its object's) to a scalar logit whose sigmoid s is the
link probability of the pair.  An edge sample is one comparison: with noise
e ~ Gumbel(0, 1), hard = [log s + e > 0], so P(hard = 1) = 1 - exp(-s), not
s.  Self-training uses the hard samples only, to gate pseudo-labels and to
pick the message-passing edges; no gradient flows through them, so the
scorer learns from its focal loss alone.  Evaluation draws no noise and
gates on s > 0.5.

Training uses a binary focal loss: the positive term
-y * (1 - s)**gamma * log(s) plus the symmetric negative term
-(1 - y) * s**gamma * log(1 - s), without which every-edge-on is a trivial
minimizer.  The exponent gamma is a setting, not learner state:
``selftrain.run`` passes ``RunConfig.focal_gamma``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .classifier import Grads, ModelParams, _backprop, _forward_cache
from .errors import ValidationError
from .rngs import stream

SCORE_FLOOR = 1e-12


@dataclass(frozen=True)
class EdgeLearnerParams:
    """Edge scorer network."""

    net: ModelParams  # two-layer net with a single output logit

    def __post_init__(self) -> None:
        if self.net.n_classes != 1:
            raise ValidationError("edge scorer must emit a single logit")


def init_edge_learner(pair_dim: int, hidden_dim: int = 16, seed: int = 0) -> EdgeLearnerParams:
    """A fresh scorer of ``pair_dim``-wide pair-feature rows."""
    rng = stream(seed, "edge-init")
    w1 = rng.standard_normal((pair_dim, hidden_dim)) / math.sqrt(pair_dim)
    w2 = rng.standard_normal((hidden_dim, 1)) / math.sqrt(hidden_dim)
    net = ModelParams(arch="mlp", layers=((w1, np.zeros(hidden_dim)), (w2, np.zeros(1))))
    return EdgeLearnerParams(net)


def edge_scores(params: EdgeLearnerParams, X) -> np.ndarray:
    """Link probabilities of ordered pairs, one per row of the pair-feature
    matrix ``X``; order matters (no symmetry)."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != params.net.feature_dim:
        raise ValidationError(f"expected pair dimension {params.net.feature_dim}, got {X.shape[1]}")
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
    """Gated edge samples, one entry per edge; indexing gives one edge's
    sample.  ``hard`` is 1 iff log(score) + noise > 0; ``noise`` is logged
    so samples can be replayed exactly."""

    score: np.ndarray
    hard: np.ndarray
    noise: np.ndarray

    def __len__(self) -> int:
        return len(self.hard)

    def __getitem__(self, i) -> EdgeSamples:
        return EdgeSamples(self.score[i], self.hard[i], self.noise[i])


def gumbel_noise(u) -> np.ndarray:
    """Gumbel(0, 1) noise from uniforms ``u`` in [0, 1)."""
    return -np.log(-np.log(np.maximum(u, SCORE_FLOOR)))


def batch_gumbel_noise(rngs: Iterator[np.random.Generator], sizes) -> np.ndarray:
    """The Gumbel noise of a batch's edges, scene by scene: the ``i``-th
    scene's ``sizes[i]`` edges draw from the next generator of ``rngs``,
    which ``selftrain.run`` keys by ``(seed, "gumbel", iteration, scene id)``.
    Exactly ``len(sizes)`` generators are consumed."""
    return gumbel_noise(np.concatenate([rng.random(n) for n, rng in zip(sizes, rngs)]))


def sample_edges(scores, noise) -> EdgeSamples:
    """Hard samples of every edge under the given Gumbel noise
    (``gumbel_noise`` of uniform draws; logged noise replays a sample)."""
    s = np.clip(np.asarray(scores, dtype=np.float64), SCORE_FLOOR, 1.0 - SCORE_FLOOR)
    e = np.asarray(noise, dtype=np.float64)
    if s.shape != e.shape:
        raise ValidationError("need one noise value per edge score")
    return EdgeSamples(score=s, hard=(np.log(s) + e > 0.0).astype(np.intp), noise=e)


def focal_loss_grad(params: EdgeLearnerParams, X, labels, gamma: float) -> tuple[float, Grads]:
    """Binary focal loss with exponent ``gamma`` summed over the pair-feature
    rows ``X``, with exact gradients.

    ``labels`` are 1 where a relation is annotated and 0 otherwise.
    """
    y = np.asarray(labels, dtype=np.float64)
    if np.any((y != 0.0) & (y != 1.0)):
        raise ValidationError("edge labels must be binary")
    logits, cache = _forward_cache(params.net, X)
    sc = np.clip(_sigmoid(logits[:, 0]), SCORE_FLOOR, 1.0 - SCORE_FLOOR)
    log_s, log_1ms = np.log(sc), np.log(1.0 - sc)
    loss = -y * (1.0 - sc) ** gamma * log_s - (1.0 - y) * sc**gamma * log_1ms
    # d/dz of each term, with s' = s * (1 - s)
    pos = gamma * sc * (1.0 - sc) ** gamma * log_s - (1.0 - sc) ** (gamma + 1.0)
    neg = -gamma * sc**gamma * (1.0 - sc) * log_1ms + sc ** (gamma + 1.0)
    dz = y * pos + (1.0 - y) * neg
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
