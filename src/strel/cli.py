"""Pipeline driver: gen, pretrain, selftrain, eval, audit, and sweep.

Every ``RunConfig`` field is a setting, read from a flat ``key = value`` file
(``--config``) and from its ``--kebab-case`` flag; a flag wins over the file.
Both texts are parsed one way, as the type of the field's default: a switch
takes true/false, yes/no, on/off or 1/0, and ``metric_ks`` a comma list.
Exit codes: 0 success; 1 a bad setting or input file, or an ``OSError``
such as a directory given for a file; 2 runtime abort.  A failure prints one
line.

``strel gen`` writes each split's columns as one archive, ``<data_dir>/train.tns``
(see ``labels``), beside ``manifest.json``; ``load_split`` reads one and checks it
against the manifest's catalog.  The file is binary; read it as any archive:
``columns, meta = strel.tensorio.load_tensors("data/train.tns")``.

``strel pretrain`` and ``strel selftrain`` each write one checkpoint archive,
``<checkpoint_dir>/pretrain.ckpt`` and ``selftrain.ckpt``
(``selftrain.save_checkpoint``): the ``layer*`` tensors and meta ``arch`` and
``config``; a self-train run adds its state, ``thresholds.*``, ``counts`` and
meta ``iteration``, and with the edge learner ``edge.layer*``.  Only a
checkpoint with ``edge.`` entries resumes or evaluates under ``--use-gsl
true``, and only with a split whose pairs have the width its networks were
trained on.  ``selftrain --resume`` continues a run only under the config its
checkpoint echoes, except ``metric_ks``, the three directories and
``max_iterations``, which may not fall below the checkpoint's ``iteration``.
``eval`` reads a self-train checkpoint under the fields a resume compares, and
a pretrained one under the fields only pretraining reads.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from . import synthgen, tables, tensorio
from .classifier import ModelParams, pretrain
from .config import RunConfig
from .errors import ConfigError, RuntimeAbort, ValidationError
from .labels import Dataset, PredicateCatalog, annotated_counts, read_scenes, write_scenes
from .metrics import AssignmentLog, AssignmentRecord, audit_pseudo_labels, evaluate
from .selftrain import Checkpoint, EdgeTraceRow, load_checkpoint, run, save_checkpoint


# The benchmark harness (``perfbench``, ``scripts/run_benchmark.py``) still
# calls these; every stage takes the run config itself.
def _same(rc: RunConfig) -> RunConfig:
    return rc


generator_config = train_config = selftrain_config = _same


# --- configuration parsing ---------------------------------------------------


_DEFAULTS = dataclasses.asdict(RunConfig())
_SWITCH = {"true": True, "1": True, "yes": True, "on": True,
           "false": False, "0": False, "no": False, "off": False}


def _coerce(name: str, text: str) -> object:
    """``text`` as a value of field ``name``, of its default's type."""
    kind, text = type(_DEFAULTS[name]), text.strip()
    try:
        if kind is bool:
            return _SWITCH[text.lower()]
        if kind is tuple:
            return tuple(int(part) for part in text.replace(" ", "").split(",") if part)
        return kind(text)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad value for {name!r}: {text!r}") from exc


def parse_config_file(path) -> dict:
    values: dict[str, object] = {}
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                line = raw.decode("utf-8").split("#", 1)[0].strip()
            except UnicodeDecodeError as exc:
                raise ConfigError(f"{path}:{lineno}: not UTF-8 text") from exc
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, text = (part.strip() for part in line.split("=", 1))
            if key not in _DEFAULTS:
                raise ConfigError(f"{path}:{lineno}: unknown field {key!r}")
            values[key] = _coerce(key, text)
    return values


def run_config(args: argparse.Namespace) -> RunConfig:
    """The config file's settings, if ``args`` names one, under the flags."""
    values = parse_config_file(args.config) if args.config else {}
    for name in _DEFAULTS:
        if getattr(args, name) is not None:
            values[name] = _coerce(name, getattr(args, name))
    return RunConfig(**values)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # validation failures exit with code 1
        raise ConfigError(message)


# --- dataset and artifact plumbing -------------------------------------------


def load_split(rc: RunConfig, split: str) -> Dataset:
    path = os.path.join(rc.data_dir, f"{split}.tns")
    if not os.path.exists(path):
        raise ConfigError(f"missing dataset file: {path} (run `strel gen` first)")
    manifest = os.path.join(rc.data_dir, "manifest.json")
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


def write_manifest(path, manifest: dict) -> None:
    with tensorio.write_atomic(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _checkpoint(path: str, dataset: Dataset, use_gsl: bool | None = None,
                hint: str = "") -> Checkpoint:
    """The checkpoint at ``path``, whose networks must read pairs as wide as
    ``dataset``'s.  Evaluating passes ``use_gsl``, and the checkpoint must
    hold an edge learner exactly when it is set."""
    if not os.path.exists(path):
        raise ConfigError(f"missing checkpoint: {path}{hint}")
    ckpt = load_checkpoint(path)
    saved = ckpt.edge_learner is not None
    if use_gsl is not None and saved != use_gsl:
        raise ConfigError(f"{path} was saved {'with' if saved else 'without'} an edge learner; "
                          f"use it with --use-gsl {str(saved).lower()}")
    width = dataset.arrays.features.shape[1]
    nets = {"classifier": ckpt.params}
    if saved:
        nets["edge learner"] = ckpt.edge_learner.net
    for name, net in nets.items():
        if net.feature_dim != width:
            raise ValidationError(f"{path}: its {name} reads {net.feature_dim} pair features, "
                                  f"the {dataset.split} split has {width}")
    return ckpt


# the fields a resumed run may change: how far it runs, what it reports and where
_RESUMABLE = ("max_iterations", "metric_ks", "data_dir", "checkpoint_dir", "log_dir")
_RESUMED = tuple(name for name in _DEFAULTS if name not in _RESUMABLE)
# the fields only pretraining reads, which self-training from its model must share
_PRETRAIN_ONLY = ("arch", "hidden_dim", "pretrain_seed", "pretrain_epochs",
                  "pretrain_learning_rate", "oversample")


def _check_same_run(path: str, ckpt: Checkpoint, rc: RunConfig, names) -> None:
    """A ConfigError naming the first of ``names`` in which ``rc`` differs
    from the config ``ckpt`` echoes."""
    saved, echo = ckpt.meta.get("config"), rc.echo()
    if not isinstance(saved, dict):
        raise ConfigError(f"{path} echoes no config")
    for name in names:
        if saved.get(name) != echo[name]:
            raise ConfigError(f"{path} was saved with {name} {saved.get(name)!r}, "
                              f"this run has {echo[name]!r}")


def _pretrained(rc: RunConfig, train: Dataset) -> ModelParams:
    """``pretrain.ckpt``'s model, which must have been pretrained under
    ``rc``'s ``_PRETRAIN_ONLY`` fields."""
    path = os.path.join(rc.checkpoint_dir, "pretrain.ckpt")
    ckpt = _checkpoint(path, train, hint=" (run `strel pretrain`)")
    _check_same_run(path, ckpt, rc, _PRETRAIN_ONLY)
    return ckpt.params


def _write_log(rc: RunConfig, name: str, write, header, body) -> None:
    """Write the table ``<log_dir>/<name>`` under ``rc``'s echo with ``write``:
    ``tables.write_table`` for rows or ``tables.write_columns`` for columns."""
    os.makedirs(rc.log_dir, exist_ok=True)
    write(os.path.join(rc.log_dir, name), header, body, echo=rc.echo())


# --- commands -----------------------------------------------------------------


def cmd_gen(rc: RunConfig) -> int:
    os.makedirs(rc.data_dir, exist_ok=True)
    full = synthgen.generate(rc)
    masked = synthgen.mask_annotations(full, rc.annotated_fraction, rc.mask_seed)
    train, val, test = synthgen.split(
        masked, (rc.train_fraction, rc.val_fraction, rc.test_fraction), rc.split_seed
    )
    splits = {"train": train.arrays, "val": val.arrays, "test": test.arrays}
    for split, arrays in splits.items():
        write_scenes(os.path.join(rc.data_dir, f"{split}.tns"), arrays)
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
    write_manifest(os.path.join(rc.data_dir, "manifest.json"), manifest)
    print("class,train_count")
    for name, count in zip(train.catalog.class_names[1:], train.catalog.counts):
        print(f"{name},{count}")
    return 0


def cmd_pretrain(rc: RunConfig) -> int:
    train = load_split(rc, "train")
    val = load_split(rc, "val")
    params, log = pretrain(train, rc, val, metric_k=rc.metric_ks[-1])
    _write_log(rc, "pretrain_log.csv", tables.write_table, ("epoch", "mean_loss", "val_mean_recall"),
               [(e.epoch, e.mean_loss, e.val_mean_recall) for e in log])
    os.makedirs(rc.checkpoint_dir, exist_ok=True)
    save_checkpoint(os.path.join(rc.checkpoint_dir, "pretrain.ckpt"), params, {"config": rc.echo()})
    if log:
        print(f"pretrained {rc.pretrain_epochs} epochs, final val mR@{rc.metric_ks[-1]} = "
              f"{log[-1].val_mean_recall:.2f}")
    return 0


def cmd_selftrain(rc: RunConfig, resume: str | None = None, edge_trace: bool = False) -> int:
    if edge_trace and not rc.use_gsl:
        raise ConfigError("--edge-trace logs the edge learner's samples; it needs --use-gsl true")
    train = load_split(rc, "train")
    val = load_split(rc, "val")
    if resume:  # the run's checkpoint holds all it needs; pretrain.ckpt is not read
        start = _checkpoint(resume, train)
        _check_same_run(resume, start, rc, _RESUMED)
    else:
        start = _pretrained(rc, train)

    result = run(start, train, val, rc, metric_ks=rc.metric_ks, keep_edge_trace=edge_trace)

    log = result.log.iterations
    n_fg = train.catalog.n_foreground
    scalars = ("iteration", "loss_annotated", "loss_background", "loss_pseudo", "loss_total",
               "n_pseudo")
    _write_log(rc, "selftrain_iterations.csv", tables.write_columns,
               scalars + tuple(f"count_{c}" for c in range(1, n_fg + 1)),
               [getattr(log, f) for f in scalars] + list(log.cumulative_counts.T))
    _write_log(rc, "thresholds.csv", tables.write_columns,
               ("iteration",) + tuple(f"tau_{c}" for c in range(1, n_fg + 1)),
               [log.iteration, *log.tau.T])
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
    _write_log(rc, "selftrain_epochs.csv", tables.write_table, header, epoch_rows)
    _write_log(rc, "assignments.csv", tables.write_columns, AssignmentRecord._fields,
               [getattr(result.assignments, f) for f in AssignmentRecord._fields])
    if edge_trace:
        _write_log(rc, "edge_trace.csv", tables.write_table, EdgeTraceRow._fields,
                   result.edge_trace)
    os.makedirs(rc.checkpoint_dir, exist_ok=True)
    save_checkpoint(os.path.join(rc.checkpoint_dir, "selftrain.ckpt"), result, {"config": rc.echo()})
    print(f"self-trained {len(log)} iterations with policy {rc.policy}; "
          f"{len(result.assignments)} pseudo-labels assigned")
    return 0


def cmd_eval(rc: RunConfig, checkpoint: str | None, split: str) -> int:
    dataset = load_split(rc, split)
    path = checkpoint or os.path.join(rc.checkpoint_dir, "selftrain.ckpt")
    ckpt = _checkpoint(path, dataset, rc.use_gsl)
    # a pretrained model shares its pretraining fields, a run what a resume shares
    _check_same_run(path, ckpt, rc, _PRETRAIN_ONLY if ckpt.iteration is None else _RESUMED)
    report = evaluate(ckpt.params, dataset, rc.metric_ks, ckpt.edge_learner)

    _write_log(
        rc, f"eval_{split}.csv", tables.write_table,
        ("k", "recall", "mean_recall", "f_score", "head", "body", "tail"),
        [
            (row.k, row.recall, row.mean_recall, row.f_score,
             row.group_recall["head"], row.group_recall["body"], row.group_recall["tail"])
            for row in report.rows
        ],
    )
    _write_log(
        rc, f"eval_{split}_per_class.csv", tables.write_table,
        ("class",) + tuple(f"recall_at_{row.k}" for row in report.rows),
        [
            (dataset.catalog.class_names[c],)
            + tuple(float(row.per_class[c - 1]) for row in report.rows)
            for c in range(1, dataset.catalog.n_foreground + 1)
        ],
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
    _write_log(
        rc, "audit.csv", tables.write_table,
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
    )
    print(
        f"assignments={int(audit.assigned.sum())} overall_precision={audit.overall_precision!r} "
        f"bg_violations={audit.bg_violations}"
    )
    return 0


def cmd_sweep(rc: RunConfig, grid: str) -> int:
    if rc.policy != "catm":
        raise ConfigError(f"policy must be catm for a sweep of its momentum, not {rc.policy!r}")
    try:  # every cell's config is checked before the first run
        values = [_coerce("alpha_inc", v) for v in grid.split(",") if v.strip()]
        cells = [dataclasses.replace(rc, alpha_inc=a, alpha_dec=d) for a in values for d in values]
    except ConfigError as exc:
        raise ConfigError(f"--grid {grid!r}: {exc}") from exc
    if not cells:
        raise ConfigError(f"--grid {grid!r} lists no value")
    if rc.max_iterations < 1:  # a cell's result is its last epoch's metrics
        raise ConfigError("a sweep needs --max-iterations of at least 1 to finish an epoch")
    train = load_split(rc, "train")
    val = load_split(rc, "val")
    params = _pretrained(rc, train)
    k = rc.metric_ks[-1]
    rows = []
    for cfg in cells:
        r, mr, f = run(params, train, val, cfg, metric_ks=(k,)).log.epochs[-1].metrics[k]
        rows.append((cfg.alpha_inc, cfg.alpha_dec, r, mr, f))
    _write_log(rc, "sweep.csv", tables.write_table,
               ("alpha_inc", "alpha_dec", f"recall_at_{k}", f"mean_recall_at_{k}", f"f_at_{k}"), rows)
    print(f"swept {len(rows)} cells; wrote {os.path.join(rc.log_dir, 'sweep.csv')}")
    return 0


# --- entry point --------------------------------------------------------------


@functools.cache  # one parser per process: each one is a web of reference cycles
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="strel", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)  # the settings every command takes
    common.add_argument("--config", default=None, help="key = value configuration file")
    for name in _DEFAULTS:
        common.add_argument("--" + name.replace("_", "-"), dest=name, default=None, metavar="V")
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
        rc = run_config(args)
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
    except (ConfigError, ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeAbort as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
