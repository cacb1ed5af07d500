"""Pipeline driver: gen, pretrain, selftrain, eval, audit, and sweep.

Configuration is a flat ``key = value`` text file; every field can also be
overridden by a ``--kebab-case`` flag.  Exit codes: 0 success, 1 validation
or configuration error, 2 runtime abort.

``strel gen`` writes each split's columns as one archive, ``<data_dir>/train.tns``
(see ``labels``), beside ``manifest.json``; ``load_split`` reads one and checks it
against the manifest's catalog.  The file is binary; read it as any archive:
``columns, meta = strel.tensorio.load_tensors("data/train.tns")``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import synthgen, tables
from .classifier import TrainConfig, load_model, pretrain, save_model
from .edges import load_edge_learner, save_edge_learner
from .errors import ConfigError, RuntimeAbort, ValidationError
from .labels import Dataset, PredicateCatalog, annotated_counts, read_scenes, write_scenes
from .metrics import AssignmentLog, AssignmentRecord, audit_pseudo_labels, evaluate
from .selftrain import EdgeTraceRow, SelfTrainConfig, load_checkpoint, run, save_checkpoint


@dataclass(frozen=True)
class RunConfig:
    """Flat union of every pipeline knob; defaults are the desk benchmark."""

    # generator
    n_scenes: int = 2000
    entities_min: int = 12
    entities_max: int = 20
    n_fg_classes: int = 10
    zipf_exponent: float = 1.5
    feature_dim: int = 16
    class_separation: float = 4.0
    noise_sigma: float = 0.7
    bg_noise_sigma: float = 2.0
    annotated_fraction: float = 0.045
    true_bg_fraction: float = 0.15
    sibling_groups: int = 2
    sibling_scale: float = 0.35
    sibling_pairs: str = ""
    n_entity_classes: int = 16
    gen_seed: int = 20240817
    # masking and splitting
    mask_seed: int = 5
    train_fraction: float = 0.7
    val_fraction: float = 0.1
    test_fraction: float = 0.2
    split_seed: int = 11
    # pretraining
    pretrain_learning_rate: float = 0.5
    pretrain_epochs: int = 30
    batch_size: int = 20
    reweight: str = "none"
    oversample: bool = False
    bg_downsample: float = 0.05
    arch: str = "linear"
    hidden_dim: int = 16
    pretrain_seed: int = 3
    # self-training
    beta: float = 1.0
    alpha_inc: float = 0.4
    alpha_dec: float = 0.4
    per_class_per_scene_cap: int = 3
    max_iterations: int = 1500
    policy: str = "catm"
    use_gsl: bool = False
    selftrain_learning_rate: float = 0.5
    selftrain_seed: int = 4
    initial_tau: float = 0.0
    uniform_momentum: bool = False
    strict_eligible_mean: bool = False
    policy_quantile: float = 0.01
    policy_mix: float = 0.5
    dash_growth: float = 1.1
    dash_interval: int = 100
    valid_recompute_interval: int = 100
    gumbel_temperature: float = 0.5
    focal_gamma: float = 2.0
    gsl_hidden_dim: int = 16
    # evaluation and paths
    metric_ks: tuple[int, ...] = (2, 5, 10)
    data_dir: str = "data"
    checkpoint_dir: str = "checkpoints"
    log_dir: str = "logs"

    def echo(self) -> dict:
        out = dataclasses.asdict(self)
        out["metric_ks"] = ",".join(str(k) for k in self.metric_ks)
        return out


def generator_config(rc: RunConfig) -> synthgen.GeneratorConfig:
    return synthgen.GeneratorConfig(
        n_scenes=rc.n_scenes,
        entities_min=rc.entities_min,
        entities_max=rc.entities_max,
        n_fg_classes=rc.n_fg_classes,
        zipf_exponent=rc.zipf_exponent,
        feature_dim=rc.feature_dim,
        class_separation=rc.class_separation,
        noise_sigma=rc.noise_sigma,
        bg_noise_sigma=rc.bg_noise_sigma,
        annotated_fraction=rc.annotated_fraction,
        true_bg_fraction=rc.true_bg_fraction,
        sibling_groups=rc.sibling_groups,
        sibling_scale=rc.sibling_scale,
        sibling_pairs=rc.sibling_pairs,
        n_entity_classes=rc.n_entity_classes,
        seed=rc.gen_seed,
    )


def train_config(rc: RunConfig) -> TrainConfig:
    return TrainConfig(
        learning_rate=rc.pretrain_learning_rate,
        n_epochs=rc.pretrain_epochs,
        batch_size=rc.batch_size,
        reweight=rc.reweight,
        oversample=rc.oversample,
        bg_downsample=rc.bg_downsample,
        arch=rc.arch,
        hidden_dim=rc.hidden_dim,
        seed=rc.pretrain_seed,
    )


def selftrain_config(rc: RunConfig) -> SelfTrainConfig:
    beta = rc.beta
    if rc.reweight == "inverse-frequency" and rc.beta == 1.0:
        beta = 0.1  # reweighting shifts the pseudo-label weight down
    return SelfTrainConfig(
        beta=beta,
        alpha_inc=rc.alpha_inc,
        alpha_dec=rc.alpha_dec,
        per_class_per_scene_cap=rc.per_class_per_scene_cap,
        max_iterations=rc.max_iterations,
        policy=rc.policy,
        use_gsl=rc.use_gsl,
        learning_rate=rc.selftrain_learning_rate,
        batch_size=rc.batch_size,
        seed=rc.selftrain_seed,
        reweight=rc.reweight,
        bg_downsample=rc.bg_downsample,
        initial_tau=rc.initial_tau,
        uniform_momentum=rc.uniform_momentum,
        strict_eligible_mean=rc.strict_eligible_mean,
        policy_quantile=rc.policy_quantile,
        policy_mix=rc.policy_mix,
        dash_growth=rc.dash_growth,
        dash_interval=rc.dash_interval,
        valid_recompute_interval=rc.valid_recompute_interval,
        gumbel_temperature=rc.gumbel_temperature,
        focal_gamma=rc.focal_gamma,
        gsl_hidden_dim=rc.gsl_hidden_dim,
    )


# --- configuration parsing ---------------------------------------------------


def _coerce(name: str, text: str, target_type) -> object:
    text = text.strip()
    try:
        if target_type is bool:
            lowered = text.lower()
            if lowered in ("true", "1", "yes", "on"):
                return True
            if lowered in ("false", "0", "no", "off"):
                return False
            raise ValueError(text)
        if target_type is int:
            return int(text)
        if target_type is float:
            return float(text)
        if target_type is str:
            return text
        if target_type is tuple or name == "metric_ks":
            return tuple(int(part) for part in text.replace(" ", "").split(",") if part)
    except ValueError as exc:
        raise ConfigError(f"bad value for {name!r}: {text!r}") from exc
    raise ConfigError(f"cannot parse field {name!r}")


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}
_TYPE_MAP = {"int": int, "float": float, "str": str, "bool": bool, "tuple[int, ...]": tuple}


def parse_config_file(path) -> dict:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    values: dict[str, object] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, text = (part.strip() for part in line.split("=", 1))
            if key not in _FIELD_TYPES:
                raise ConfigError(f"{path}:{lineno}: unknown field {key!r}")
            values[key] = _coerce(key, text, _TYPE_MAP[_FIELD_TYPES[key]])
    return values


def build_run_config(file_values: dict, overrides: dict) -> RunConfig:
    merged = dict(file_values)
    merged.update(overrides)
    return RunConfig(**merged)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # validation failures exit with code 1
        raise ConfigError(message)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, help="key = value configuration file")
    for f in dataclasses.fields(RunConfig):
        flag = "--" + f.name.replace("_", "-")
        parser.add_argument(flag, dest=f.name, default=None, metavar="V")


def _collect_overrides(args: argparse.Namespace) -> dict:
    overrides = {}
    for f in dataclasses.fields(RunConfig):
        raw = getattr(args, f.name, None)
        if raw is None:
            continue
        overrides[f.name] = _coerce(f.name, str(raw), _TYPE_MAP[_FIELD_TYPES[f.name]])
    return overrides


def _load_run_config(args: argparse.Namespace) -> RunConfig:
    file_values = parse_config_file(args.config) if args.config else {}
    return build_run_config(file_values, _collect_overrides(args))


# --- dataset and artifact plumbing -------------------------------------------


def _data_path(rc: RunConfig, name: str) -> str:
    return os.path.join(rc.data_dir, name)


def load_split(rc: RunConfig, split: str) -> Dataset:
    path = _data_path(rc, f"{split}.tns")
    if not os.path.exists(path):
        raise ConfigError(f"missing dataset file: {path} (run `strel gen` first)")
    manifest = _data_path(rc, "manifest.json")
    if not os.path.exists(manifest):
        raise ConfigError(f"missing manifest: {manifest}")
    with open(manifest, "r", encoding="utf-8") as fh:
        try:
            info = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValidationError(f"{manifest}: not valid JSON ({exc})") from exc
    missing = [k for k in ("class_names", "train_counts") if not isinstance(info, dict) or k not in info]
    if missing:
        raise ValidationError(f"{manifest}: missing {' and '.join(missing)}")
    try:
        catalog = PredicateCatalog(tuple(info["class_names"]), tuple(info["train_counts"]))
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{manifest}: bad catalog: {exc}") from exc
    arrays = read_scenes(path)
    if arrays.hidden.max(initial=0) > catalog.n_foreground:
        raise ValidationError(f"{path}: a hidden label lies outside the {manifest} catalog")
    return Dataset(arrays, catalog, split)


def _checkpoint_path(rc: RunConfig, name: str) -> str:
    return os.path.join(rc.checkpoint_dir, name)


def _echoed(meta: dict, key: str):
    """A run-config value a checkpoint echoes in its metadata, or None."""
    config = meta.get("config")
    return config.get(key) if isinstance(config, dict) else None


def _edge_learner_beside(path: str, meta: dict, iteration: int | None, use_gsl: bool):
    """The edge learner of the checkpoint at ``path`` (metadata ``meta``, saved
    at self-train ``iteration``, None for a pretrained model): the one saved
    beside it at that iteration, or None for a run without one.  Resuming and
    evaluating a checkpoint both go through here."""
    saved = iteration is not None and bool(_echoed(meta, "use_gsl"))
    if saved != use_gsl:
        raise ConfigError(f"{path} was saved {'with' if saved else 'without'} an edge learner; "
                          f"use it with --use-gsl {str(saved).lower()}")
    if not use_gsl:
        return None
    gsl_path = os.path.join(os.path.dirname(path), "edge_learner.ckpt")
    if not os.path.exists(gsl_path):
        raise ConfigError(f"missing edge learner beside {path}: {gsl_path}")
    learner, gsl_meta = load_edge_learner(gsl_path)
    at = _echoed(gsl_meta, "max_iterations")
    if at != iteration:
        raise ValidationError(f"{gsl_path} was saved at iteration {at}, {path} at {iteration}")
    return learner


# --- commands -----------------------------------------------------------------


def cmd_gen(rc: RunConfig) -> int:
    os.makedirs(rc.data_dir, exist_ok=True)
    full = synthgen.generate(generator_config(rc))
    masked = synthgen.mask_annotations(full, rc.annotated_fraction, rc.mask_seed)
    train, val, test = synthgen.split(
        masked, (rc.train_fraction, rc.val_fraction, rc.test_fraction), rc.split_seed
    )
    splits = {"train": train.arrays, "val": val.arrays, "test": test.arrays}
    for split, arrays in splits.items():
        write_scenes(_data_path(rc, f"{split}.tns"), arrays)
    n_fg = train.catalog.n_foreground
    manifest = {
        "config": rc.echo(),
        "class_names": list(train.catalog.class_names),
        "train_counts": list(train.catalog.counts),
        "scenes": {s: len(a.scene_ids) for s, a in splits.items()},
        "annotated_triplets": {
            s: int(annotated_counts(a.observed, n_fg).sum()) for s, a in splits.items()
        },
    }
    with open(_data_path(rc, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print("class,train_count")
    for name, count in zip(train.catalog.class_names[1:], train.catalog.counts):
        print(f"{name},{count}")
    return 0


def cmd_pretrain(rc: RunConfig) -> int:
    train = load_split(rc, "train")
    val = load_split(rc, "val")
    params, log = pretrain(train, train_config(rc), val, metric_k=rc.metric_ks[-1])
    os.makedirs(rc.checkpoint_dir, exist_ok=True)
    os.makedirs(rc.log_dir, exist_ok=True)
    save_model(_checkpoint_path(rc, "pretrain.ckpt"), params, {"config": rc.echo()})
    tables.write_table(
        os.path.join(rc.log_dir, "pretrain_log.csv"),
        ("epoch", "mean_loss", "val_mean_recall"),
        [(e.epoch, e.mean_loss, e.val_mean_recall) for e in log],
        echo=rc.echo(),
    )
    if log:
        print(f"pretrained {rc.pretrain_epochs} epochs, final val mR@{rc.metric_ks[-1]} = "
              f"{log[-1].val_mean_recall:.2f}")
    return 0


def cmd_selftrain(rc: RunConfig, resume: str | None = None, edge_trace: bool = False) -> int:
    train = load_split(rc, "train")
    val = load_split(rc, "val")
    pre_path = _checkpoint_path(rc, "pretrain.ckpt")
    if not os.path.exists(pre_path):
        raise ConfigError(f"missing pretraining checkpoint: {pre_path} (run `strel pretrain`)")
    params, _ = load_model(pre_path)
    cfg = selftrain_config(rc)

    kwargs = {}
    if resume:
        if not os.path.exists(resume):
            raise ConfigError(f"missing resume checkpoint: {resume}")
        params, thresholds, iteration, counts, meta = load_checkpoint(resume)
        kwargs = {
            "start_iteration": iteration,
            "thresholds": thresholds,
            "cumulative_counts": counts,
        }
        kwargs["edge_learner"] = _edge_learner_beside(resume, meta, iteration, cfg.use_gsl)

    result = run(params, train, val, cfg, metric_ks=rc.metric_ks,
                 keep_edge_trace=edge_trace, **kwargs)

    log = result.log.iterations
    if len(log):
        counts = log.cumulative_counts[-1]
    else:  # nothing left to run: the resumed counts stand
        counts = kwargs.get("cumulative_counts", np.zeros(train.catalog.n_foreground, np.int64))
    os.makedirs(rc.checkpoint_dir, exist_ok=True)
    os.makedirs(rc.log_dir, exist_ok=True)
    save_checkpoint(
        _checkpoint_path(rc, "selftrain.ckpt"),
        result.params,
        result.thresholds,
        cfg.max_iterations,
        counts,
        cfg.seed,
        {"config": rc.echo()},
    )
    if result.edge_learner is not None:
        save_edge_learner(
            _checkpoint_path(rc, "edge_learner.ckpt"), result.edge_learner, {"config": rc.echo()}
        )

    n_fg = train.catalog.n_foreground
    echo = rc.echo()
    scalars = ("iteration", "loss_annotated", "loss_background", "loss_pseudo", "loss_total",
               "n_pseudo")
    tables.write_columns(
        os.path.join(rc.log_dir, "selftrain_iterations.csv"),
        scalars + tuple(f"count_{c}" for c in range(1, n_fg + 1)),
        [getattr(log, f) for f in scalars] + list(log.cumulative_counts.T),
        echo=echo,
    )
    tables.write_columns(
        os.path.join(rc.log_dir, "thresholds.csv"),
        ("iteration",) + tuple(f"tau_{c}" for c in range(1, n_fg + 1)),
        [log.iteration, *log.tau.T],
        echo=echo,
    )
    epoch_rows = []
    for e in result.log.epochs:
        row = [e.epoch, e.iterations_done]
        for k in rc.metric_ks:
            r, mr, f = e.metrics[k]
            row.extend([r, mr, f])
        epoch_rows.append(row)
    header = ["epoch", "iterations"]
    for k in rc.metric_ks:
        header.extend([f"recall_at_{k}", f"mean_recall_at_{k}", f"f_at_{k}"])
    tables.write_table(os.path.join(rc.log_dir, "selftrain_epochs.csv"), header, epoch_rows, echo=echo)
    tables.write_columns(
        os.path.join(rc.log_dir, "assignments.csv"),
        AssignmentRecord._fields,
        [getattr(result.assignments, f) for f in AssignmentRecord._fields],
        echo=echo,
    )
    if edge_trace:
        tables.write_table(
            os.path.join(rc.log_dir, "edge_trace.csv"),
            EdgeTraceRow._fields,
            result.edge_trace,
            echo=echo,
        )
    print(f"self-trained {len(log)} iterations with policy {cfg.policy}; "
          f"{len(result.assignments)} pseudo-labels assigned")
    return 0


def cmd_eval(rc: RunConfig, checkpoint: str | None, split: str) -> int:
    dataset = load_split(rc, split)
    path = checkpoint or _checkpoint_path(rc, "selftrain.ckpt")
    if not os.path.exists(path):
        raise ConfigError(f"missing checkpoint: {path}")
    params, meta = load_model(path)
    edge = _edge_learner_beside(path, meta, meta.get("iteration"), rc.use_gsl)
    report = evaluate(params, dataset, rc.metric_ks, edge)

    os.makedirs(rc.log_dir, exist_ok=True)
    echo = rc.echo()
    tables.write_table(
        os.path.join(rc.log_dir, f"eval_{split}.csv"),
        ("k", "recall", "mean_recall", "f_score", "head", "body", "tail"),
        [
            (row.k, row.recall, row.mean_recall, row.f_score,
             row.group_recall["head"], row.group_recall["body"], row.group_recall["tail"])
            for row in report.rows
        ],
        echo=echo,
    )
    tables.write_table(
        os.path.join(rc.log_dir, f"eval_{split}_per_class.csv"),
        ("class",) + tuple(f"recall_at_{row.k}" for row in report.rows),
        [
            (dataset.catalog.class_names[c],)
            + tuple(float(row.per_class[c - 1]) for row in report.rows)
            for c in range(1, dataset.catalog.n_foreground + 1)
        ],
        echo=echo,
    )
    ks = "/".join(str(row.k) for row in report.rows)
    print(f"split={split}  R@{ks}  mR@{ks}  F@{ks}")
    print(
        "  " + "  ".join(f"{row.recall:.1f}" for row in report.rows)
        + " | " + "  ".join(f"{row.mean_recall:.1f}" for row in report.rows)
        + " | " + "  ".join(f"{row.f_score:.1f}" for row in report.rows)
    )
    return 0


def cmd_audit(rc: RunConfig, assignments_path: str | None, split: str) -> int:
    dataset = load_split(rc, split)
    path = assignments_path or os.path.join(rc.log_dir, "assignments.csv")
    if not os.path.exists(path):
        raise ConfigError(f"missing assignment log: {path} (run `strel selftrain`)")
    columns = tables.read_columns(
        path, AssignmentRecord._fields, [np.int64] * 4 + [np.float64]  # confidence is last
    )
    audit = audit_pseudo_labels(AssignmentLog(*columns), dataset)
    os.makedirs(rc.log_dir, exist_ok=True)
    tables.write_table(
        os.path.join(rc.log_dir, "audit.csv"),
        ("class", "assigned", "correct", "precision", "recall", "recoverable"),
        [
            (
                dataset.catalog.class_names[c],
                int(audit.assigned[c - 1]),
                int(audit.correct[c - 1]),
                float(audit.precision[c - 1]),
                float(audit.recall[c - 1]),
                int(audit.recoverable[c - 1]),
            )
            for c in range(1, dataset.catalog.n_foreground + 1)
        ],
        echo=rc.echo(),
    )
    print(
        f"assignments={int(audit.assigned.sum())} overall_precision={audit.overall_precision!r} "
        f"bg_violations={audit.bg_violations}"
    )
    return 0


def cmd_sweep(rc: RunConfig, grid: str) -> int:
    values = [float(v) for v in grid.replace(" ", "").split(",") if v]
    if any(not 0.0 <= v <= 1.0 for v in values):
        raise ConfigError("sweep grid values must lie in [0, 1]")
    train = load_split(rc, "train")
    val = load_split(rc, "val")
    pre_path = _checkpoint_path(rc, "pretrain.ckpt")
    if not os.path.exists(pre_path):
        raise ConfigError(f"missing pretraining checkpoint: {pre_path}")
    params, _ = load_model(pre_path)
    k = rc.metric_ks[-1]
    rows = []
    for a_inc in values:
        for a_dec in values:
            cfg = dataclasses.replace(
                selftrain_config(rc), alpha_inc=a_inc, alpha_dec=a_dec, policy="catm"
            )
            result = run(params, train, val, cfg, metric_ks=(k,))
            r, mr, f = result.log.epochs[-1].metrics[k]
            rows.append((a_inc, a_dec, r, mr, f))
    os.makedirs(rc.log_dir, exist_ok=True)
    tables.write_table(
        os.path.join(rc.log_dir, "sweep.csv"),
        ("alpha_inc", "alpha_dec", f"recall_at_{k}", f"mean_recall_at_{k}", f"f_at_{k}"),
        rows,
        echo=rc.echo(),
    )
    print(f"swept {len(rows)} cells; wrote {os.path.join(rc.log_dir, 'sweep.csv')}")
    return 0


# --- entry point --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="strel", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)  # the config flags every command takes
    _add_config_flags(common)
    for name in ("gen", "pretrain", "selftrain", "eval", "audit", "sweep"):
        p = sub.add_parser(name, parents=[common])
        if name == "selftrain":
            p.add_argument("--resume", default=None, help="checkpoint to resume from")
            p.add_argument("--edge-trace", action="store_true", help="log edge samples")
        if name == "eval":
            p.add_argument("--checkpoint", default=None)
            p.add_argument("--split", default="test", choices=("train", "val", "test"))
        if name == "audit":
            p.add_argument("--assignments", default=None)
            p.add_argument("--split", default="train", choices=("train", "val", "test"))
        if name == "sweep":
            p.add_argument("--grid", default="0.0,0.2,0.4,0.6,0.8,1.0",
                           help="comma-separated momentum exponents")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        rc = _load_run_config(args)
        if args.command == "gen":
            return cmd_gen(rc)
        if args.command == "pretrain":
            return cmd_pretrain(rc)
        if args.command == "selftrain":
            return cmd_selftrain(rc, resume=args.resume, edge_trace=args.edge_trace)
        if args.command == "eval":
            return cmd_eval(rc, args.checkpoint, args.split)
        if args.command == "audit":
            return cmd_audit(rc, args.assignments, args.split)
        if args.command == "sweep":
            return cmd_sweep(rc, args.grid)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeAbort as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
