"""Batch-level self-training with a three-term objective.

Each iteration partitions a scene batch into annotated and unannotated
pairs, pseudo-labels the unannotated ones whose confidence clears the
per-class threshold snapshot from the previous iteration, then takes one
SGD step on

    mean annotated CE + mean background CE + beta * mean pseudo-label CE.

Thresholds update once per iteration from the same forward pass used for
the loss (no second inference pass), before the parameter step; neither
depends on the other within an iteration.  Pseudo-labels are ephemeral:
they are recomputed whenever a scene is revisited and never written back
into the dataset.

The loop reads the training split in its columnar form
(``Dataset.arrays``): a batch is a gather of the pair rows of its scenes,
annotated and unannotated pairs are masks over the batch's observed labels,
pseudo-label selection is one sort of the candidates, the loss terms are
row gathers and the cumulative counts a ``bincount``.  Accepted labels stay
arrays, in an ``AssignmentLog`` that builds its records only when read.

With the edge learner enabled, pair features are refreshed by one
message-passing round over the sampled edges, pseudo-label candidates are
additionally gated by their hard edge sample, and the edge scorer trains
jointly on its focal loss at unit weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from . import tensorio
from .classifier import (
    ModelParams,
    add_grads,
    class_weights,
    downsample_background,
    params_from_tensors,
    params_to_tensors,
    predict_probs,
    sgd_step,
    weighted_ce_loss_grad,
    zero_grads,
)
from .edges import (
    EdgeLearnerParams,
    edge_scores,
    focal_loss_grad,
    gumbel_noise,
    init_edge_learner,
    message_pass,
    sample_edges,
)
from .errors import ConfigError, RuntimeAbort, ValidationError
from .labels import BG_INDEX, Dataset
from .metrics import AssignmentLog, evaluate
from .rngs import stream
from .thresholds import (
    MomentumCoefficients,
    ThresholdPolicy,
    ThresholdState,
    constant_threshold,
    dash_adaptive_policy,
    dash_adaptive_update,
    ema_update,
    fixed_class_threshold,
    freq_weighted_threshold,
    initial_state,
    momentum_coefficients,
    never_policy,
    uniform_coefficients,
)

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
class SelfTrainConfig:
    beta: float = 1.0  # pseudo-label loss weight
    alpha_inc: float = 0.4
    alpha_dec: float = 0.4
    per_class_per_scene_cap: int = 3
    max_iterations: int = 1500
    policy: str = "catm"
    use_gsl: bool = False
    learning_rate: float = 0.5
    batch_size: int = 20  # scenes per batch
    seed: int = 0
    reweight: str = "none"
    bg_downsample: float = 1.0
    initial_tau: float = 0.0
    uniform_momentum: bool = False  # ablation: lambda = 0.5 for every class
    strict_eligible_mean: bool = False
    policy_quantile: float = 0.01
    policy_mix: float = 0.5
    dash_growth: float = 1.1
    dash_interval: int = 100
    valid_recompute_interval: int = 100
    gumbel_temperature: float = 0.5
    focal_gamma: float = 2.0
    gsl_hidden_dim: int = 16

    def validate(self) -> None:
        if self.beta < 0.0:
            raise ConfigError("beta must be non-negative")
        if self.per_class_per_scene_cap < 1:
            raise ConfigError("per-class per-scene cap must be >= 1")
        if self.max_iterations < 0:
            raise ConfigError("max_iterations must be non-negative")
        if self.policy not in POLICIES:
            raise ConfigError(f"unknown policy {self.policy!r}; choose from {POLICIES}")
        if self.learning_rate <= 0.0 or self.batch_size < 1:
            raise ConfigError("learning_rate must be positive and batch_size >= 1")
        if self.reweight not in ("none", "inverse-frequency"):
            raise ConfigError(f"unknown reweight scheme {self.reweight!r}")
        if not 0.0 < self.bg_downsample <= 1.0:
            raise ConfigError("bg_downsample must lie in (0, 1]")
        if not 0.0 <= self.alpha_inc <= 1.0 or not 0.0 <= self.alpha_dec <= 1.0:
            raise ConfigError("momentum exponents must lie in [0, 1]")
        if self.dash_interval < 1 or self.valid_recompute_interval < 1:
            raise ConfigError("policy intervals must be >= 1")


@dataclass(frozen=True)
class LossBreakdown:
    annotated: float
    background: float
    pseudo: float
    beta: float

    @property
    def total(self) -> float:
        return self.annotated + self.background + self.beta * self.pseudo


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    loss_annotated: float
    loss_background: float
    loss_pseudo: float
    loss_total: float
    tau: tuple[float, ...]
    cumulative_counts: tuple[int, ...]
    n_pseudo: int


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    iterations_done: int
    metrics: dict[int, tuple[float, float, float]]  # k -> (recall, mean recall, f)


@dataclass(frozen=True)
class TrainLog:
    iterations: tuple[IterationRecord, ...]
    epochs: tuple[EpochRecord, ...]


class EdgeTraceRow(NamedTuple):
    iteration: int
    scene_id: int
    triplet_index: int
    score: float
    noise: float
    hard: int


@dataclass(frozen=True)
class SelfTrainResult:
    params: ModelParams
    log: TrainLog
    assignments: AssignmentLog
    thresholds: ThresholdState | ThresholdPolicy
    edge_learner: EdgeLearnerParams | None = None
    edge_trace: tuple[EdgeTraceRow, ...] = ()


def partition_batch(observed) -> tuple[list[int], list[int]]:
    """Split a batch into annotated and unannotated pairs.

    ``observed`` holds the batch's observed labels; each side lists batch
    positions in increasing order.
    """
    annotated = np.asarray(observed) != BG_INDEX
    return np.flatnonzero(annotated).tolist(), np.flatnonzero(~annotated).tolist()


def assign_pseudo_labels(
    candidates,
    pred_classes: np.ndarray,
    confidences: np.ndarray,
    thresholds: ThresholdState | ThresholdPolicy,
    cap: int,
    gates=None,
) -> np.ndarray:
    """Select pseudo-labeled candidates for one batch.

    ``candidates`` holds one ``(scene, pair index)`` row per unannotated
    pair.  A candidate qualifies when its argmax is a foreground class, its
    confidence clears that class's threshold snapshot, and (when edge gating
    is active) its hard edge sample is on.  Within one scene at most ``cap``
    candidates per class survive, keeping the highest-confidence ones; ties
    keep the lowest pair index.  Returns the positions of the survivors in
    increasing order.
    """
    if cap < 1:
        raise ConfigError("cap must be >= 1")
    if isinstance(thresholds, ThresholdPolicy) and thresholds.variant == "never":
        return np.zeros(0, dtype=np.intp)
    keys = np.asarray(candidates, dtype=np.int64).reshape(-1, 2)
    classes = np.asarray(pred_classes, dtype=np.intp)
    conf = np.asarray(confidences, dtype=np.float64)
    tau = np.concatenate(([np.inf], thresholds.tau))  # background never clears
    eligible = conf >= tau[classes]
    if gates is not None:
        eligible &= np.asarray(gates, dtype=bool)
    pos = np.flatnonzero(eligible)
    scene, cls = keys[pos, 0], classes[pos]
    order = np.lexsort((keys[pos, 1], -conf[pos], cls, scene))
    pos, scene, cls = pos[order], scene[order], cls[order]
    starts = np.ones(len(pos), dtype=bool)
    starts[1:] = (scene[1:] != scene[:-1]) | (cls[1:] != cls[:-1])
    index = np.arange(len(pos))
    rank = index - np.maximum.accumulate(np.where(starts, index, 0))
    return np.sort(pos[rank < cap])


def three_term_loss(
    params: ModelParams,
    features: np.ndarray,
    annotated: tuple[np.ndarray, np.ndarray],
    background: np.ndarray,
    pseudo: tuple[np.ndarray, np.ndarray],
    weights: np.ndarray,
    beta: float,
) -> tuple[float, tuple, LossBreakdown]:
    """Annotated, background, and pseudo-label cross-entropy means.

    ``annotated`` and ``pseudo`` are ``(rows, classes)`` pairs and
    ``background`` the rows that target the background class, all indexing
    ``features``.  Each term is a mean over its own rows (empty terms
    contribute zero); the total is exactly annotated + background + beta *
    pseudo, and the returned gradients match it.
    """
    w = np.asarray(weights, dtype=np.float64)

    def term(rows, targets):
        if len(rows) == 0:
            return 0.0, zero_grads(params)
        t = np.asarray(targets, dtype=np.intp)
        return weighted_ce_loss_grad(params, features[rows], t, w[t] / len(rows))

    loss_a, g_a = term(*annotated)
    loss_b, g_b = term(background, np.full(len(background), BG_INDEX))
    loss_p, g_p = term(*pseudo)
    breakdown = LossBreakdown(annotated=loss_a, background=loss_b, pseudo=loss_p, beta=beta)
    total = breakdown.total
    if not math.isfinite(total):
        raise RuntimeAbort("non-finite self-training loss")
    grads = add_grads(add_grads(g_a, g_b), g_p, scale=beta)
    return total, grads, breakdown


def _quantile_policy_from_val(
    cfg: SelfTrainConfig, params: ModelParams, val: Dataset, n_fg: int
) -> ThresholdPolicy:
    if len(val.arrays.features) == 0:
        raise ValidationError("validation split has no triplets")
    probs = predict_probs(params, val.arrays.features)
    classes, confs = np.argmax(probs, axis=1), probs.max(axis=1)
    if cfg.policy == "constant":
        # pool foreground-argmax confidences only: the background class is
        # predicted with far higher confidence and would set an unreachable bar
        return constant_threshold(confs[classes != BG_INDEX], n_fg, cfg.policy_quantile)
    pools = {
        c: confs[classes == c] for c in range(1, n_fg + 1) if np.any(classes == c)
    }
    fixed = fixed_class_threshold(pools, n_fg, cfg.policy_quantile)
    if cfg.policy in ("fixed-class", "valid-interval"):
        return fixed
    if cfg.policy == "freq-weighted":
        return freq_weighted_threshold(fixed, val.catalog, cfg.policy_mix)
    if cfg.policy == "dash-adaptive":
        return dash_adaptive_policy(fixed, cfg.dash_growth)
    raise ConfigError(f"policy {cfg.policy!r} does not derive from validation confidences")


def build_thresholds(
    cfg: SelfTrainConfig,
    catalog,
    params: ModelParams,
    val: Dataset | None,
) -> ThresholdState | ThresholdPolicy:
    n_fg = catalog.n_foreground
    if cfg.policy == "catm":
        if cfg.uniform_momentum:
            coeff = uniform_coefficients(n_fg, 0.5)
        else:
            coeff = momentum_coefficients(catalog, cfg.alpha_inc, cfg.alpha_dec)
        return initial_state(coeff, n_fg, cfg.initial_tau)
    if cfg.policy == "never":
        return never_policy(n_fg)
    if val is None:
        raise ConfigError(f"policy {cfg.policy!r} needs a validation split")
    return _quantile_policy_from_val(cfg, params, val, n_fg)


def run(
    pretrained: ModelParams,
    train: Dataset,
    val: Dataset | None,
    cfg: SelfTrainConfig,
    metric_ks: Sequence[int] = (2, 5, 10),
    edge_learner: EdgeLearnerParams | None = None,
    start_iteration: int = 0,
    thresholds: ThresholdState | ThresholdPolicy | None = None,
    cumulative_counts: Sequence[int] | None = None,
    keep_edge_trace: bool = False,
) -> SelfTrainResult:
    """Fine-tune a pretrained classifier with pseudo-labeled batches.

    Deterministic given the config seed; the ``start_iteration`` /
    ``thresholds`` / ``cumulative_counts`` triple resumes a checkpointed run
    at iteration granularity and continues the exact same stream of batches.
    """
    cfg.validate()
    if not train.scenes:
        raise ConfigError("training split is empty")
    catalog = train.catalog
    arrays = train.arrays
    params = pretrained
    w = class_weights(catalog, cfg.reweight)
    state = thresholds if thresholds is not None else build_thresholds(cfg, catalog, params, val)
    counts = np.zeros(catalog.n_foreground, dtype=np.int64)
    if cumulative_counts is not None:
        counts[:] = np.asarray(cumulative_counts, dtype=np.int64)

    if cfg.use_gsl and edge_learner is None:
        edge_learner = init_edge_learner(
            arrays.features.shape[1] // 2,
            hidden_dim=cfg.gsl_hidden_dim,
            seed=cfg.seed,
            temperature=cfg.gumbel_temperature,
            focal_gamma=cfg.focal_gamma,
        )

    n_scenes = len(train.scenes)
    batches_per_epoch = math.ceil(n_scenes / cfg.batch_size)
    iter_records: list[IterationRecord] = []
    epoch_records: list[EpochRecord] = []
    # (iteration, split rows, per-row values) of accepted labels and edge samples
    accepted_log: list[tuple[np.ndarray, ...]] = []
    edge_log: list[tuple[np.ndarray, ...]] = []

    it = start_iteration
    epoch = start_iteration // batches_per_epoch
    while it < cfg.max_iterations:
        order = stream(cfg.seed, "epoch-order", epoch).permutation(n_scenes)
        batch_in_epoch = it % batches_per_epoch
        for b in range(batch_in_epoch, batches_per_epoch):
            if it >= cfg.max_iterations:
                break
            positions = order[b * cfg.batch_size : (b + 1) * cfg.batch_size]
            rows = arrays.rows_of(positions)
            observed = arrays.observed[rows]
            ann, un = (np.asarray(side, dtype=np.intp) for side in partition_batch(observed))

            X = arrays.features[rows]
            gates = None
            if cfg.use_gsl:
                ents, subj, obj = arrays.entity_table(rows)
                xs, xo = ents[subj], ents[obj]
                sizes = np.diff(arrays.scene_offsets)[positions]
                noise = [
                    gumbel_noise(stream(cfg.seed, "gumbel", it, int(arrays.scene_ids[p])), int(n))
                    for p, n in zip(positions, sizes)
                    if n
                ]
                samples = sample_edges(
                    edge_scores(edge_learner, xs, xo),
                    edge_learner.temperature,
                    np.concatenate(noise) if noise else np.zeros(0),
                )
                X = message_pass(ents, subj, obj, samples.hard)
                gates = samples.hard[un] == 1
                if keep_edge_trace:
                    edge_log.append((it, rows, samples.score, samples.noise, samples.hard))

            probs = predict_probs(params, X[un])
            pred_classes, confidences = np.argmax(probs, axis=1), probs.max(axis=1)
            accepted = assign_pseudo_labels(
                np.stack([arrays.pair_scene[rows[un]], arrays.pair_index[rows[un]]], axis=1),
                pred_classes,
                confidences,
                state,
                cfg.per_class_per_scene_cap,
                gates,
            )
            pseudo, pseudo_classes = un[accepted], pred_classes[accepted]
            background = np.delete(un, accepted)
            if cfg.bg_downsample < 1.0:
                rng = stream(cfg.seed, "bg-downsample", it)
                background = np.asarray(
                    downsample_background(background, cfg.bg_downsample, rng), dtype=np.intp
                )
            total, grads, breakdown = three_term_loss(
                params,
                X,
                (ann, observed[ann]),
                background,
                (pseudo, pseudo_classes),
                w,
                cfg.beta,
            )

            if cfg.use_gsl:
                gsl_loss, gsl_grads = focal_loss_grad(
                    edge_learner, xs, xo, (observed != BG_INDEX).astype(np.float64)
                )
                if not math.isfinite(gsl_loss):
                    raise RuntimeAbort("non-finite edge-learner loss")
                edge_learner = replace(
                    edge_learner,
                    net=sgd_step(edge_learner.net, gsl_grads, cfg.learning_rate),
                )

            # threshold update first; it only reads pre-step confidences, so
            # ordering against the parameter step is observationally free
            if isinstance(state, ThresholdState):
                state = ema_update(
                    state, pred_classes, confidences, cfg.strict_eligible_mean
                )
            elif cfg.policy == "dash-adaptive":
                k = (it + 1) // cfg.dash_interval
                if k != state.interval_index:
                    state = dash_adaptive_update(state, k)
            elif cfg.policy == "valid-interval" and (it + 1) % cfg.valid_recompute_interval == 0:
                state = _quantile_policy_from_val(cfg, params, val, catalog.n_foreground)

            params = sgd_step(params, grads, cfg.learning_rate)

            if len(pseudo):
                counts += np.bincount(pseudo_classes - 1, minlength=catalog.n_foreground)
                accepted_log.append((it, rows[pseudo], pseudo_classes, confidences[accepted]))
            iter_records.append(
                IterationRecord(
                    iteration=it,
                    loss_annotated=breakdown.annotated,
                    loss_background=breakdown.background,
                    loss_pseudo=breakdown.pseudo,
                    loss_total=total,
                    tau=tuple(state.tau.tolist()),
                    cumulative_counts=tuple(counts.tolist()),
                    n_pseudo=len(pseudo),
                )
            )
            it += 1
        if val is not None:
            report = evaluate(params, val, metric_ks, edge_learner if cfg.use_gsl else None)
            epoch_records.append(
                EpochRecord(
                    epoch=epoch,
                    iterations_done=it,
                    metrics={
                        row.k: (row.recall, row.mean_recall, row.f_score)
                        for row in report.rows
                    },
                )
            )
        epoch += 1

    no_values = (np.zeros(0, dtype=np.intp), np.zeros(0))
    edge_columns = _log_columns(arrays, edge_log, (np.zeros(0),) + no_values)
    return SelfTrainResult(
        params=params,
        log=TrainLog(iterations=tuple(iter_records), epochs=tuple(epoch_records)),
        assignments=AssignmentLog(*_log_columns(arrays, accepted_log, no_values)),
        thresholds=state,
        edge_learner=edge_learner,
        edge_trace=tuple(map(EdgeTraceRow._make, zip(*(c.tolist() for c in edge_columns)))),
    )


def _log_columns(arrays, log: list[tuple], empty: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    """Columns ``(iteration, scene_id, pair index, *values)`` of a log of
    ``(iteration, split rows, *per-row values)`` entries; ``empty`` holds
    the value columns of an empty log."""
    if not log:
        return (np.zeros(0, dtype=np.intp),) * 3 + empty
    iterations, rows, *values = zip(*log)
    lengths = [len(r) for r in rows]
    rows = np.concatenate(rows)
    return (
        np.repeat(iterations, lengths),
        arrays.scene_ids[arrays.pair_scene[rows]],
        arrays.pair_index[rows],
        *(np.concatenate(v) for v in values),
    )


# --- checkpointing ----------------------------------------------------------


def save_checkpoint(path, result_params: ModelParams, thresholds, iteration: int,
                    cumulative_counts, seed: int, meta: dict | None = None) -> None:
    """Persist params + threshold state + counters for exact resume.

    All randomness is drawn from counter-based streams, so the seed and the
    iteration number fully determine the remaining RNG state.
    """
    tensors = params_to_tensors(result_params)
    tensors["thresholds.tau"] = np.asarray(thresholds.tau, dtype=np.float64)
    tensors["counts"] = np.asarray(cumulative_counts, dtype=np.int64)
    full_meta = {
        "arch": result_params.arch,
        "iteration": int(iteration),
        "seed": int(seed),
        "threshold_kind": (
            "state" if isinstance(thresholds, ThresholdState) else thresholds.variant
        ),
    }
    if isinstance(thresholds, ThresholdState):
        tensors["thresholds.lambda_inc"] = thresholds.coefficients.lambda_inc
        tensors["thresholds.lambda_dec"] = thresholds.coefficients.lambda_dec
        full_meta["threshold_iteration"] = thresholds.iteration
        full_meta["alpha_inc"] = thresholds.coefficients.alpha_inc
        full_meta["alpha_dec"] = thresholds.coefficients.alpha_dec
    else:
        if thresholds.base_tau is not None:
            tensors["thresholds.base_tau"] = thresholds.base_tau
        full_meta["growth"] = thresholds.growth
        full_meta["interval_index"] = thresholds.interval_index
    full_meta.update(meta or {})
    tensorio.save_tensors(path, tensors, full_meta)


def load_checkpoint(path):
    """Inverse of :func:`save_checkpoint`.

    Returns (params, thresholds, iteration, cumulative_counts, meta).
    """
    tensors, meta = tensorio.load_tensors(path)
    params = params_from_tensors(tensors, meta["arch"])
    tau = tensors["thresholds.tau"]
    if meta["threshold_kind"] == "state":
        coeff = MomentumCoefficients(
            lambda_inc=tensors["thresholds.lambda_inc"],
            lambda_dec=tensors["thresholds.lambda_dec"],
            alpha_inc=float(meta["alpha_inc"]),
            alpha_dec=float(meta["alpha_dec"]),
        )
        thresholds = ThresholdState(
            tau=tau, coefficients=coeff, iteration=int(meta["threshold_iteration"])
        )
    else:
        thresholds = ThresholdPolicy(
            variant=meta["threshold_kind"],
            tau=tau,
            base_tau=tensors.get("thresholds.base_tau"),
            growth=float(meta.get("growth", 1.0)),
            interval_index=int(meta.get("interval_index", 0)),
        )
    return params, thresholds, int(meta["iteration"]), tensors["counts"], meta
