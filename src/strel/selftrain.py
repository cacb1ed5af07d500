"""Batch-level self-training with a three-term objective.

Each iteration partitions a scene batch into annotated and unannotated
pairs, pseudo-labels the unannotated ones whose confidence clears the
per-class threshold snapshot from the previous iteration, then takes one
SGD step on

    mean annotated CE + mean background CE + beta * mean pseudo-label CE.

Each iteration runs one forward pass over the batch and one backward pass:
pseudo-label selection and the threshold update read the same probabilities
the loss trains on, and the three terms enter one gradient through per-row
coefficients.  Thresholds update before the parameter step; neither depends
on the other within an iteration.  Pseudo-labels are ephemeral:
they are recomputed whenever a scene is revisited and never written back
into the dataset.

The loop reads the training split in its columnar form
(``Dataset.arrays``).  Each epoch's remaining batches are planned at once
(``SplitArrays.batches``, as pretraining plans its epochs): one gather of
their scenes' pair rows and observed labels, and with the edge learner of
their entity rows, which every batch slices.  A batch's features are a
gather of its pair rows, annotated and unannotated pairs are masks over its
observed labels, pseudo-label selection is one sort of the candidates, the
loss terms are per-row coefficients and the cumulative counts a
``bincount``.  Accepted labels and the per-iteration record stay arrays, in
an ``AssignmentLog`` and an ``IterationLog`` that build their records only
when read.

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
    class_weights,
    downsample_background,
    forward_probs,
    predict_probs,
    sgd_step,
    weighted_ce_grads,
)
from .config import RunConfig
from .edges import (
    EdgeLearnerParams,
    batch_gumbel_noise,
    edge_scores,
    focal_loss_grad,
    init_edge_learner,
    message_pass,
    sample_edges,
)
from .errors import ConfigError, RuntimeAbort, ValidationError
from .labels import BG_INDEX, Dataset
from .metrics import AssignmentLog, ColumnLog, evaluate
from .rngs import stream, streams
from .thresholds import (
    POLICIES,  # re-exported: callers iterate selftrain.POLICIES
    Thresholds,
    constant_threshold,
    dash_adaptive_update,
    ema_update,
    fixed_class_threshold,
    freq_weighted_threshold,
    momentum_coefficients,
    uniform_coefficients,
)


@dataclass(frozen=True)
class LossBreakdown:
    annotated: float
    background: float
    pseudo: float
    beta: float

    @property
    def total(self) -> float:
        return self.annotated + self.background + self.beta * self.pseudo


class IterationRecord(NamedTuple):
    iteration: int
    loss_annotated: float
    loss_background: float
    loss_pseudo: float
    loss_total: float
    tau: tuple[float, ...]
    cumulative_counts: tuple[int, ...]
    n_pseudo: int


@dataclass(frozen=True, eq=False)
class IterationLog(ColumnLog):
    """Per-iteration ``IterationRecord`` columns; ``tau`` and
    ``cumulative_counts`` hold one row per iteration."""

    record = IterationRecord
    iteration: np.ndarray
    loss_annotated: np.ndarray
    loss_background: np.ndarray
    loss_pseudo: np.ndarray
    loss_total: np.ndarray
    tau: np.ndarray
    cumulative_counts: np.ndarray
    n_pseudo: np.ndarray


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    iterations_done: int
    metrics: dict[int, tuple[float, float, float]]  # k -> (recall, mean recall, f)


@dataclass(frozen=True)
class TrainLog:
    iterations: IterationLog
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
    thresholds: Thresholds
    counts: np.ndarray  # cumulative pseudo-labels per foreground class
    iteration: int  # where the run stopped; the run state is all but the logs
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
    thresholds: Thresholds,
    cap: int,
    gates=None,
) -> np.ndarray:
    """Select pseudo-labeled candidates for one batch.

    ``candidates`` holds one ``(scene, pair index)`` row per unannotated
    pair.  A candidate qualifies when its argmax is a class the thresholds
    accept, its confidence clears that class's threshold snapshot, and (when
    edge gating is active) its hard edge sample is on.  Within one scene at most ``cap``
    candidates per class survive, keeping the highest-confidence ones; ties
    keep the lowest pair index.  Returns the positions of the survivors in
    increasing order.
    """
    classes = np.asarray(pred_classes, dtype=np.intp)
    conf = np.asarray(confidences, dtype=np.float64)
    eligible = conf >= thresholds.bar[classes]
    if gates is not None:
        eligible &= np.asarray(gates, dtype=bool)
    pos = np.flatnonzero(eligible)
    if not pos.size:  # as in every batch under never: skip the sort
        return pos
    keys = np.asarray(candidates, dtype=np.int64).reshape(-1, 2)
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
    forward,
    annotated: tuple[np.ndarray, np.ndarray],
    background: np.ndarray,
    pseudo: tuple[np.ndarray, np.ndarray],
    weights: np.ndarray,
    beta: float,
) -> tuple[float, tuple, LossBreakdown]:
    """Annotated, background, and pseudo-label cross-entropy means.

    ``forward`` is ``forward_probs`` over a batch.  ``annotated`` and
    ``pseudo`` are ``(rows, classes)`` pairs and ``background`` the rows
    that target the background class: disjoint sets of batch rows, and rows
    in none of them carry no loss.  Each term is a mean over its own rows
    (empty terms contribute zero); the total is exactly annotated +
    background + beta * pseudo, and one backward pass with per-row
    coefficients ``w[target] / n_term`` (times beta on pseudo rows) returns
    its gradient.
    """
    w = np.asarray(weights, dtype=np.float64)
    n = len(forward[0])
    term_rows = (annotated[0], background, pseudo[0])
    targets, coeffs = np.full(n, BG_INDEX, dtype=np.intp), np.zeros(n)
    targets[annotated[0]], targets[pseudo[0]] = annotated[1], pseudo[1]
    for rows in term_rows:
        if len(rows):
            coeffs[rows] = w[targets[rows]] / len(rows)
    grad_coeffs = coeffs.copy()
    grad_coeffs[pseudo[0]] *= beta
    nll, grads = weighted_ce_grads(params, forward, targets, grad_coeffs)
    row_loss = coeffs * nll
    loss_a, loss_b, loss_p = (float(row_loss[rows].sum()) for rows in term_rows)
    breakdown = LossBreakdown(annotated=loss_a, background=loss_b, pseudo=loss_p, beta=beta)
    total = breakdown.total
    if not math.isfinite(total):
        raise RuntimeAbort("non-finite self-training loss")
    return total, grads, breakdown


def _quantile_policy_from_val(
    cfg: RunConfig, params: ModelParams, val: Dataset, n_fg: int
) -> Thresholds:
    if len(val.arrays.features) == 0:
        raise ValidationError("validation split has no triplets")
    probs = predict_probs(params, val.arrays.features)
    classes, confs = np.argmax(probs, axis=1), probs.max(axis=1)
    if cfg.policy == "constant":
        # pool foreground-argmax confidences only: the background class is
        # predicted with far higher confidence and would set an unreachable bar
        tau = constant_threshold(confs[classes != BG_INDEX], n_fg, cfg.policy_quantile)
    else:
        tau = fixed_class_threshold(classes, confs, n_fg, cfg.policy_quantile)
    if cfg.policy == "freq-weighted":
        tau = freq_weighted_threshold(tau, val.catalog, cfg.policy_mix)
    base_tau = tau if cfg.policy == "dash-adaptive" else None
    return Thresholds(cfg.policy, tau, np.ones(n_fg, dtype=bool), base_tau=base_tau)


def build_thresholds(
    cfg: RunConfig,
    catalog,
    params: ModelParams,
    val: Dataset | None,
) -> Thresholds:
    n_fg = catalog.n_foreground
    if cfg.policy == "catm":
        if cfg.uniform_momentum:
            coeff = uniform_coefficients(n_fg)
        else:
            coeff = momentum_coefficients(catalog, cfg.alpha_inc, cfg.alpha_dec)
        tau = np.full(n_fg, float(cfg.initial_tau))
        return Thresholds("catm", tau, np.ones(n_fg, dtype=bool), *coeff)
    if cfg.policy == "never":
        return Thresholds("never", np.ones(n_fg), np.zeros(n_fg, dtype=bool))
    if val is None:
        raise ConfigError(f"policy {cfg.policy!r} needs a validation split")
    return _quantile_policy_from_val(cfg, params, val, n_fg)


def update_thresholds(state: Thresholds, cfg: RunConfig, iteration: int, pred_classes,
                      confidences, params: ModelParams, val: Dataset | None) -> Thresholds:
    """The thresholds after ``iteration``, by ``state.policy``.

    catm takes one EMA step on the batch's predictions; dash-adaptive moves
    to interval ``(iteration + 1) // dash_interval``; valid-interval
    re-derives its quantiles from ``params`` on the validation split after
    every ``valid_recompute_interval`` iterations; the rest stay put.
    """
    if state.policy == "catm":
        return ema_update(state, pred_classes, confidences, cfg.strict_eligible_mean)
    if state.policy == "dash-adaptive":
        k = (iteration + 1) // cfg.dash_interval
        return state if k == state.step else dash_adaptive_update(state, k, cfg.dash_growth)
    if state.policy == "valid-interval" and (iteration + 1) % cfg.valid_recompute_interval == 0:
        return _quantile_policy_from_val(cfg, params, val, len(state.tau))
    return state


def run(
    start: ModelParams | Checkpoint | SelfTrainResult,
    train: Dataset,
    val: Dataset | None,
    cfg: RunConfig,
    metric_ks: Sequence[int] = (2, 5, 10),
    keep_edge_trace: bool = False,
) -> SelfTrainResult:
    """Fine-tune a pretrained classifier, or resume a run state (a
    ``Checkpoint`` or a ``SelfTrainResult``), with pseudo-labeled batches.

    Deterministic given ``cfg.selftrain_seed``; a resumed run continues the
    exact same stream of batches.  Its state must hold thresholds of
    ``cfg.policy``, an edge learner exactly when ``cfg.use_gsl`` is set, and
    have stopped no later than ``cfg.max_iterations``.
    """
    catalog = train.catalog
    arrays = train.arrays
    n_scenes = len(arrays.scene_ids)
    if not n_scenes:
        raise ConfigError("training split is empty")
    if isinstance(start, ModelParams):
        params, start_iteration = start, 0
        state = build_thresholds(cfg, catalog, params, val)
        counts = np.zeros(catalog.n_foreground, dtype=np.int64)
        edge_learner = None
        if cfg.use_gsl:
            edge_learner = init_edge_learner(arrays.features.shape[1], cfg.gsl_hidden_dim,
                                             cfg.selftrain_seed)
    else:
        params, state, edge_learner = start.params, start.thresholds, start.edge_learner
        if state is None:
            raise ValidationError("the state to resume holds no thresholds: it is a pretrained model")
        if state.policy != cfg.policy:
            raise ValidationError(f"the thresholds to resume are policy {state.policy!r}, "
                                  f"not {cfg.policy!r}")
        if (edge_learner is not None) != cfg.use_gsl:
            raise ValidationError(f"the state to resume was saved {'without' if cfg.use_gsl else 'with'} "
                                  f"an edge learner; use_gsl is {str(cfg.use_gsl).lower()}")
        if start.iteration > cfg.max_iterations:
            raise ValidationError(f"the state to resume stopped at iteration {start.iteration}, "
                                  f"past max_iterations {cfg.max_iterations}")
        start_iteration, counts = start.iteration, np.array(start.counts, dtype=np.int64)
    w = class_weights(catalog, cfg.reweight)

    keys = np.stack([arrays.pair_scene, arrays.pair_index], axis=1).astype(np.int64)
    batches_per_epoch = math.ceil(n_scenes / cfg.batch_size)
    n_iter, n_fg = max(cfg.max_iterations - start_iteration, 0), catalog.n_foreground
    losses = np.zeros((n_iter, 4))  # annotated, background, pseudo, total
    tau_log = np.zeros((n_iter, n_fg))
    count_log = np.zeros((n_iter, n_fg), dtype=np.int64)
    n_pseudo = np.zeros(n_iter, dtype=np.int64)
    epoch_records: list[EpochRecord] = []
    # (iteration, split rows, per-row values) of accepted labels and edge samples
    accepted_log: list[tuple[np.ndarray, ...]] = []
    edge_log: list[tuple[np.ndarray, ...]] = []

    # one stream per iteration, taken in step with ``it``
    bg_rngs = streams(
        cfg.selftrain_seed, "bg-downsample", keys=np.arange(start_iteration, cfg.max_iterations)
    )
    it = start_iteration
    epoch = start_iteration // batches_per_epoch
    while it < cfg.max_iterations:
        order = stream(cfg.selftrain_seed, "epoch-order", epoch).permutation(n_scenes)
        batch_in_epoch = it % batches_per_epoch
        batch_end = min(batches_per_epoch, batch_in_epoch + cfg.max_iterations - it)
        # the epoch's remaining batches, planned at once
        positions = order[batch_in_epoch * cfg.batch_size : batch_end * cfg.batch_size]
        plan = arrays.batches(positions, cfg.batch_size, entities=cfg.use_gsl)
        if cfg.use_gsl:  # one Gumbel stream per (iteration, scene id), the epoch's at once
            its = it + np.arange(len(positions)) // cfg.batch_size
            gumbel_keys = np.stack([its, arrays.scene_ids[positions]], axis=1)
            gumbel_rngs = streams(cfg.selftrain_seed, "gumbel", keys=gumbel_keys)
        for batch in plan:
            rows, observed = batch.rows, batch.observed
            ann, un = (np.asarray(side, dtype=np.intp) for side in partition_batch(observed))

            X = arrays.features[rows]
            gates = None
            if cfg.use_gsl:  # the edge learner reads the pair rows before message passing
                noise = batch_gumbel_noise(gumbel_rngs, batch.sizes)
                samples = sample_edges(edge_scores(edge_learner, X), noise)
                gsl_loss, gsl_grads = focal_loss_grad(edge_learner, X, observed != BG_INDEX,
                                                     cfg.focal_gamma)
                if not math.isfinite(gsl_loss):
                    raise RuntimeAbort("non-finite edge-learner loss")
                edge_net = sgd_step(edge_learner.net, gsl_grads, cfg.selftrain_learning_rate)
                edge_learner = replace(edge_learner, net=edge_net)
                X = message_pass(arrays.entity_features[batch.entities], batch.subject,
                                 batch.object, samples.hard)
                gates = samples.hard[un] == 1
                if keep_edge_trace:
                    edge_log.append((it, rows, samples.score, samples.noise, samples.hard))

            forward = forward_probs(params, X)
            probs = forward[0][un]
            pred_classes, confidences = np.argmax(probs, axis=1), probs.max(axis=1)
            accepted = assign_pseudo_labels(
                keys[rows[un]],
                pred_classes,
                confidences,
                state,
                cfg.per_class_per_scene_cap,
                gates,
            )
            pseudo, pseudo_classes = un[accepted], pred_classes[accepted]
            unaccepted = np.ones(len(un), dtype=bool)
            unaccepted[accepted] = False
            background = un[unaccepted]
            if cfg.bg_downsample < 1.0:
                background = downsample_background(background, cfg.bg_downsample, next(bg_rngs))
            total, grads, breakdown = three_term_loss(
                params,
                forward,
                (ann, observed[ann]),
                background,
                (pseudo, pseudo_classes),
                w,
                cfg.beta,
            )

            # threshold update first; it only reads pre-step confidences, so
            # ordering against the parameter step is observationally free
            state = update_thresholds(state, cfg, it, pred_classes, confidences, params, val)

            params = sgd_step(params, grads, cfg.selftrain_learning_rate)

            if len(pseudo):
                counts += np.bincount(pseudo_classes - 1, minlength=n_fg)
                accepted_log.append((it, rows[pseudo], pseudo_classes, confidences[accepted]))
            i = it - start_iteration
            losses[i] = breakdown.annotated, breakdown.background, breakdown.pseudo, total
            tau_log[i], count_log[i], n_pseudo[i] = state.tau, counts, len(pseudo)
            it += 1
        if val is not None:
            report = evaluate(params, val, metric_ks, edge_learner)
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
        log=TrainLog(
            iterations=IterationLog(
                np.arange(start_iteration, start_iteration + n_iter), *losses.T,
                tau_log, count_log, n_pseudo,
            ),
            epochs=tuple(epoch_records),
        ),
        assignments=AssignmentLog(*_log_columns(arrays, accepted_log, no_values)),
        thresholds=state,
        counts=counts,
        iteration=it,
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

_THRESHOLD_ARRAYS = ("tau", "accept", "lambda_inc", "lambda_dec", "base_tau")


class Checkpoint(NamedTuple):
    """What :func:`load_checkpoint` reads; what a checkpoint lacks is None."""

    params: ModelParams
    thresholds: Thresholds | None
    iteration: int | None
    counts: np.ndarray | None
    meta: dict
    edge_learner: EdgeLearnerParams | None


def _layer_tensors(params: ModelParams, prefix: str = "") -> dict[str, np.ndarray]:
    return {f"{prefix}layer{i}.{k}": a for i, wb in enumerate(params.layers) for k, a in zip("wb", wb)}


def _layers(tensors: dict, arch, prefix: str = "") -> ModelParams:
    """The ``arch`` network stored under ``prefix``; a ValueError names a
    layer whose shapes do not chain."""
    if arch not in ("linear", "mlp"):
        raise ValueError(f"arch must be 'linear' or 'mlp', not {arch!r}")
    layers = tuple((tensors[f"{prefix}layer{i}.w"], tensors[f"{prefix}layer{i}.b"])
                   for i in range(1 if arch == "linear" else 2))
    width = "n"
    for i, (w, b) in enumerate(layers):
        if w.ndim != 2 or (i and w.shape[0] != width) or b.shape != w.shape[1:]:
            raise ValueError(f"{prefix}layer{i} has shapes {w.shape} and {b.shape}, "
                             f"not ({width}, m) and (m,)")
        width = w.shape[1]
    return ModelParams(arch, layers)


def save_checkpoint(path, state: ModelParams | Checkpoint | SelfTrainResult,
                    meta: dict | None = None) -> None:
    """Write a pretrained model (a ``ModelParams``) or a self-train run
    state (a ``SelfTrainResult`` or ``Checkpoint``) as one ``tensorio`` archive:

    - ``layer{i}.w``, ``layer{i}.b`` and meta ``arch``: the classifier;
    - ``thresholds.tau``, ``thresholds.accept`` and, where the policy has
      them, ``thresholds.lambda_inc``, ``thresholds.lambda_dec`` and
      ``thresholds.base_tau``, one entry per foreground class, and meta
      ``thresholds.policy`` and ``thresholds.step``; the run's int64
      pseudo-label ``counts`` and meta ``iteration``;
    - ``edge.layer{i}.w`` and ``edge.layer{i}.b``: the edge learner;
    - the keys of ``meta`` (the CLI's ``config`` is the run-config echo).

    Settings, the seed among them, are not state: a resumed run reads them
    from its config.  All randomness is drawn from counter-based streams, so
    the seed and the iteration number fully determine the remaining RNG state.
    """
    run_state = not isinstance(state, ModelParams)
    params = state.params if run_state else state
    tensors, full_meta = _layer_tensors(params), {"arch": params.arch}
    if run_state:
        thresholds = state.thresholds
        tensors.update({f"thresholds.{a}": v for a in _THRESHOLD_ARRAYS
                        if (v := getattr(thresholds, a)) is not None})
        tensors["counts"] = np.asarray(state.counts, dtype=np.int64)
        full_meta.update({"thresholds.policy": thresholds.policy, "thresholds.step": thresholds.step,
                          "iteration": int(state.iteration)})
        if state.edge_learner is not None:
            tensors.update(_layer_tensors(state.edge_learner.net, "edge."))
    tensorio.save_tensors(path, tensors, {**full_meta, **(meta or {})})


def load_checkpoint(path) -> Checkpoint:
    """Inverse of :func:`save_checkpoint`.  A checkpoint with meta
    ``iteration`` is a self-train run, one with any ``edge.`` tensor holds the
    edge learner, and a missing entry of either, an unknown ``arch``, layers
    whose shapes do not chain, an edge net with more than one output or
    threshold arrays and ``counts`` of another length than the classifier's
    foreground classes is a ValidationError.  The settings earlier versions
    wrote, meta ``seed``, ``edge.focal_gamma`` and ``edge.temperature``, are ignored."""
    tensors, meta = tensorio.load_tensors(path)
    try:
        params = _layers(tensors, meta["arch"])
        thresholds = iteration = counts = edge_learner = None
        if "iteration" in meta:
            arrays = [tensors["thresholds.tau"], tensors["thresholds.accept"]]
            arrays += [tensors.get(f"thresholds.{a}") for a in _THRESHOLD_ARRAYS[2:]]
            iteration, counts = int(meta["iteration"]), tensors["counts"]
            shapes = {a.shape for a in (*arrays, counts) if a is not None}
            if shapes != {(params.n_classes - 1,)}:
                raise ValueError(f"thresholds and counts have shapes {sorted(shapes)}, "
                                 f"not ({params.n_classes - 1},) for the classifier's classes")
            thresholds = Thresholds(meta["thresholds.policy"], *arrays, int(meta["thresholds.step"]))
        if any(k.startswith("edge.") for k in tensors):
            edge_learner = EdgeLearnerParams(_layers(tensors, "mlp", "edge."))
    except KeyError as exc:
        raise ValidationError(f"{path} is not a complete checkpoint: no {exc}") from exc
    except (TypeError, ValueError) as exc:  # an entry of the wrong type or value
        raise ValidationError(f"{path}: bad checkpoint entry: {exc}") from exc
    return Checkpoint(params, thresholds, iteration, counts, meta, edge_learner)
