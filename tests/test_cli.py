import argparse
import dataclasses
import gc
import hashlib
import os
import shutil

import numpy as np
import pytest

from strel import cli, tensorio
from strel.config import RunConfig
from strel.errors import RuntimeAbort
from strel.metrics import AssignmentLog, AssignmentRecord
from strel.selftrain import load_checkpoint, run
from strel.tables import read_columns, read_table


def tiny_args(root, **extra):
    """Flag list for a fast end-to-end pipeline; an ``extra`` value of None
    drops that flag."""
    values = {
        "n-scenes": 60,
        "entities-min": 6,
        "entities-max": 10,
        "n-fg-classes": 4,
        "feature-dim": 8,
        "sibling-groups": 1,
        "annotated-fraction": 0.2,
        "bg-downsample": 0.25,
        "pretrain-epochs": 4,
        "max-iterations": 10,
        "batch-size": 8,
        "metric-ks": "2,5",
        "data-dir": os.path.join(root, "data"),
        "checkpoint-dir": os.path.join(root, "ckpt"),
        "log-dir": os.path.join(root, "logs"),
    }
    values.update(extra)
    out = []
    for key, val in values.items():
        if val is not None:
            out.extend([f"--{key}", str(val)])
    return out


def gsl_selftrain(root, iterations, log, resume=None):
    """Self-train catm with the edge learner into ``root``'s checkpoint dir;
    returns the checkpoint path."""
    args = tiny_args(root, **{"use-gsl": "true", "max-iterations": iterations, "log-dir": str(log)})
    assert cli.main(["selftrain"] + (["--resume", resume] if resume else []) + args) == 0
    return os.path.join(root, "ckpt", "selftrain.ckpt")


def file_hash(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


def tree_hashes(root, *names):
    """The hash of every file in the directories ``root/<name>``."""
    dirs = [os.path.join(root, name) for name in names]
    return {os.path.join(d, f): file_hash(os.path.join(d, f)) for d in dirs for f in os.listdir(d)}


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """A finished gen/pretrain/selftrain run; a test that writes copies it."""
    root = str(tmp_path_factory.mktemp("pipeline"))
    assert cli.main(["gen"] + tiny_args(root)) == 0
    assert cli.main(["pretrain"] + tiny_args(root)) == 0
    assert cli.main(["selftrain"] + tiny_args(root)) == 0
    return root


@pytest.fixture
def run_dir(pipeline_dir, tmp_path):
    root = str(tmp_path / "run")
    shutil.copytree(pipeline_dir, root)
    return root


# one bad flag each, and the field its error must name
REJECTED = [
    ({"selftrain-learning-rate": 0}, "selftrain_learning_rate"),
    ({"pretrain-learning-rate": -1}, "pretrain_learning_rate"),
    ({"pretrain-epochs": -1}, "pretrain_epochs"),
    ({"batch-size": 0}, "batch_size"),
    ({"per-class-per-scene-cap": 0}, "per_class_per_scene_cap"),
    ({"alpha-inc": 2}, "alpha_inc"),
    ({"alpha-dec": -0.5}, "alpha_dec"),
    ({"dash-interval": 0}, "dash_interval"),
    ({"valid-recompute-interval": 0}, "valid_recompute_interval"),
    ({"entities-min": 1}, "entities_min"),
    ({"entities-min": 8, "entities-max": 7}, "entities_max"),
    ({"initial-tau": 1.5}, "initial_tau"),
    ({"policy": "dash-adaptive", "dash-growth": 1.0}, "dash_growth"),
    ({"noise-sigma": -1}, "noise_sigma"),
    ({"class-separation": -1}, "class_separation"),
    ({"n-fg-classes": 1}, "n_fg_classes"),
    ({"arch": "cnn"}, "arch"),
    ({"gen-seed": -1}, "gen_seed"),
    ({"split-seed": -1}, "split_seed"),
    ({"policy-quantile": 2}, "policy_quantile"),
    ({"policy-mix": 1.5}, "policy_mix"),
    ({"focal-gamma": -1}, "focal_gamma"),
    ({"train-fraction": 0, "val-fraction": 0.3, "test-fraction": 0.7}, "train_fraction"),
    ({"val-fraction": 0.2}, "val_fraction"),
    ({"reweight": "sqrt"}, "reweight"),
]
# values that are not finite, which the range tests of these fields let through
NOT_FINITE = [
    ({"policy": "dash-adaptive", "dash-interval": 5, "dash-growth": "nan"}, "dash_growth"),
    ({"class-separation": "inf"}, "class_separation"),
]


class TestGen:
    def test_writes_datasets_and_manifest(self, tmp_path):
        root = str(tmp_path)
        assert cli.main(["gen"] + tiny_args(root)) == 0
        for name in ("train.tns", "val.tns", "test.tns", "manifest.json"):
            assert os.path.exists(os.path.join(root, "data", name))

    def test_repeated_seed_gives_identical_files(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert cli.main(["gen"] + tiny_args(a, **{"gen-seed": 99})) == 0
        assert cli.main(["gen"] + tiny_args(b, **{"gen-seed": 99})) == 0
        for name in ("train.tns", "val.tns", "test.tns"):
            assert file_hash(os.path.join(a, "data", name)) == file_hash(
                os.path.join(b, "data", name)
            )

    def test_invalid_fraction_names_the_field(self, tmp_path, capsys):
        code = cli.main(["gen"] + tiny_args(str(tmp_path), **{"annotated-fraction": 1.5}))
        assert code == 1
        assert "annotated_fraction" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flags, field",
        [
            ("gen", {"n-entity-classes": 0}, "n_entity_classes"),
            ("selftrain", {"use-gsl": "true", "gsl-hidden-dim": 0}, "gsl_hidden_dim"),
            ("gen", {"policy": "bogus"}, "policy"),
        ],
        ids=["n_entity_classes", "gsl_hidden_dim", "policy"],
    )
    def test_invalid_value_names_the_field(self, run_dir, command, flags, field, capsys):
        """Every command checks every field, not only the fields it reads."""
        capsys.readouterr()
        assert cli.main([command] + tiny_args(run_dir, **flags)) == 1
        assert field in capsys.readouterr().err


    @pytest.mark.parametrize("flags, field", REJECTED + NOT_FINITE, ids=[
        field for _, field in REJECTED] + [f"{field}-not-finite" for _, field in NOT_FINITE])
    def test_each_rejected_field_is_named(self, tmp_path, flags, field, capsys):
        capsys.readouterr()
        assert cli.main(["gen"] + tiny_args(str(tmp_path), **flags)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert field in err
        assert not os.path.exists(tmp_path / "data")

    @pytest.mark.parametrize("command", ["gen", "selftrain"])
    def test_metric_ks_below_one_writes_nothing(self, run_dir, command, capsys):
        before = {p: file_hash(p) for p in _files(run_dir)}
        capsys.readouterr()
        assert cli.main([command] + tiny_args(run_dir, **{"metric-ks": "0,5"})) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "metric_ks" in err, err
        assert {p: file_hash(p) for p in _files(run_dir)} == before


def _files(root):
    return sorted(os.path.join(d, f) for d, _, names in os.walk(root) for f in names)


class TestConfigFile:
    def test_file_values_and_overrides(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_scenes = 33\nnoise_sigma = 0.9  # trailing comment\n")
        args = cli.build_parser().parse_args(["gen", "--config", str(cfg), "--noise-sigma", "1.1"])
        rc = cli.run_config(args)
        assert rc.n_scenes == 33
        assert rc.noise_sigma == 1.1

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("not_a_field = 3\n")
        assert cli.main(["gen", "--config", str(cfg)]) == 1
        assert "not_a_field" in capsys.readouterr().err

    def test_removed_gumbel_temperature_is_unknown(self, tmp_path, capsys):
        """The edge gate has no temperature; naming one writes nothing."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gumbel_temperature = 0.5\n")
        capsys.readouterr()
        assert cli.main(["gen", "--config", str(cfg)]) == 1
        assert "unknown field 'gumbel_temperature'" in capsys.readouterr().err
        assert cli.main(["gen", "--gumbel-temperature", "0.5"] + tiny_args(str(tmp_path))) == 1
        assert "--gumbel-temperature" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "data")

    def test_bad_value_names_the_field(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_scenes = many\n")
        assert cli.main(["gen", "--config", str(cfg)]) == 1
        assert "n_scenes" in capsys.readouterr().err

    def test_metric_ks_parsing(self):
        args = cli.build_parser().parse_args(["gen", "--metric-ks", " 1, 3,"])
        assert cli.run_config(args).metric_ks == (1, 3)

    @pytest.mark.parametrize("command", ["pretrain", "sweep", "eval", "selftrain", "config-file"])
    def test_empty_metric_ks_rejected(self, run_dir, tmp_path, command, capsys):
        if command == "config-file":
            cfg = tmp_path / "run.cfg"
            cfg.write_text("metric_ks =\n")
            argv = ["eval", "--config", str(cfg)] + tiny_args(run_dir, **{"metric-ks": None})
        else:
            argv = [command] + tiny_args(run_dir, **{"metric-ks": ","})
        capsys.readouterr()
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "metric_ks" in err

    def test_echo_round_trips_through_a_config_file(self, tmp_path):
        """Every field, each off its default, reads back from its own echo."""
        rc = RunConfig(
            n_scenes=2001, entities_min=13, entities_max=21, n_fg_classes=11,
            zipf_exponent=1.25, feature_dim=18, class_separation=4.5, noise_sigma=0.75,
            bg_noise_sigma=2.5, annotated_fraction=0.05, true_bg_fraction=0.2,
            sibling_groups=3, sibling_scale=0.4, sibling_pairs="1:11,2:9",
            n_entity_classes=17, gen_seed=1, mask_seed=6, train_fraction=0.6,
            val_fraction=0.15, test_fraction=0.25, split_seed=12,
            pretrain_learning_rate=0.25, pretrain_epochs=31, batch_size=21,
            reweight="inverse-frequency", oversample=True, bg_downsample=0.5, arch="mlp",
            hidden_dim=17, pretrain_seed=5, beta=0.5, alpha_inc=0.3, alpha_dec=0.2,
            per_class_per_scene_cap=4, max_iterations=1501, policy="dash-adaptive",
            use_gsl=True, selftrain_learning_rate=0.25, selftrain_seed=6, initial_tau=0.5,
            uniform_momentum=True, strict_eligible_mean=True, policy_quantile=0.02,
            policy_mix=0.25, dash_growth=1.2, dash_interval=101, valid_recompute_interval=102,
            focal_gamma=1.5, gsl_hidden_dim=17, metric_ks=(1, 3),
            data_dir="d", checkpoint_dir="c", log_dir="l",
        )
        for f in dataclasses.fields(RunConfig):
            assert getattr(rc, f.name) != f.default, f.name
        path = tmp_path / "run.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in rc.echo().items()))
        assert RunConfig(**cli.parse_config_file(str(path))) == rc
        flags = [a for k, v in rc.echo().items() for a in ("--" + k.replace("_", "-"), str(v))]
        assert cli.run_config(cli.build_parser().parse_args(["gen"] + flags)) == rc

    def test_one_flag_per_field_on_every_command(self):
        names = [f.name for f in dataclasses.fields(RunConfig)]
        (commands,) = (a for a in cli.build_parser()._actions if a.choices)
        assert sorted(commands.choices) == [
            "audit", "eval", "gen", "pretrain", "selftrain", "sweep"
        ]
        for command, parser in commands.choices.items():
            flags = {a.dest: a.option_strings for a in parser._actions if a.dest in names}
            assert sorted(flags) == sorted(names), command
            assert all(flags[n] == ["--" + n.replace("_", "-")] for n in names), command

    def test_main_leaves_no_parser_to_collect(self, tmp_path, capsys):
        """``main`` builds its parser once: later calls leave no argparse
        object, each a node of a reference cycle, for the cyclic collector."""
        argv = ["audit", "--data-dir", str(tmp_path)]  # fails: no split there
        assert cli.main(argv) == 1
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)  # keep what the collector finds in gc.garbage
        try:
            for _ in range(3):
                assert cli.main(argv) == 1
            gc.collect()
            left = [o for o in gc.garbage if type(o).__module__ == "argparse"
                    or isinstance(o, argparse.ArgumentParser)]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert left == []


class TestPipeline:
    def test_artifacts_exist(self, pipeline_dir):
        logs = os.path.join(pipeline_dir, "logs")
        for name in (
            "pretrain_log.csv",
            "selftrain_iterations.csv",
            "selftrain_epochs.csv",
            "thresholds.csv",
            "assignments.csv",
        ):
            assert os.path.exists(os.path.join(logs, name))
        assert os.path.exists(os.path.join(pipeline_dir, "ckpt", "pretrain.ckpt"))
        assert os.path.exists(os.path.join(pipeline_dir, "ckpt", "selftrain.ckpt"))

    def test_outputs_carry_config_echo(self, pipeline_dir):
        path = os.path.join(pipeline_dir, "logs", "thresholds.csv")
        head = open(path).readline()
        assert head.startswith("# ")

    def test_threshold_log_has_full_precision_columns(self, pipeline_dir):
        header, rows = read_table(os.path.join(pipeline_dir, "logs", "thresholds.csv"))
        assert header[0] == "iteration" and header[1] == "tau_1"
        assert len(rows) == 10
        float(rows[-1][1])  # parses back

    def test_eval_and_audit(self, pipeline_dir):
        assert cli.main(["eval", "--split", "test"] + tiny_args(pipeline_dir)) == 0
        assert cli.main(["audit"] + tiny_args(pipeline_dir)) == 0
        header, rows = read_table(os.path.join(pipeline_dir, "logs", "eval_test.csv"))
        assert header == ["k", "recall", "mean_recall", "f_score", "head", "body", "tail"]
        assert len(rows) == 2
        header, rows = read_table(os.path.join(pipeline_dir, "logs", "audit.csv"))
        assert len(rows) == 4  # one row per foreground class

    def test_eval_of_pretrain_equals_selftrain_with_zero_iterations(self, run_dir, tmp_path):
        args = tiny_args(run_dir, **{"max-iterations": 0, "log-dir": str(tmp_path / "l0")})
        assert cli.main(["selftrain"] + args) == 0
        assert cli.main(["eval", "--split", "val"] + args) == 0
        zero_iter = read_table(os.path.join(str(tmp_path / "l0"), "eval_val.csv"))[1]

        pre_args = tiny_args(run_dir, **{"log-dir": str(tmp_path / "l1")})
        ckpt = os.path.join(run_dir, "ckpt", "pretrain.ckpt")
        assert cli.main(["eval", "--split", "val", "--checkpoint", ckpt] + pre_args) == 0
        pretrained = read_table(os.path.join(str(tmp_path / "l1"), "eval_val.csv"))[1]
        assert zero_iter == pretrained

    def test_selftrain_equals_the_library_run(self, pipeline_dir):
        """``strel selftrain`` logs and saves what ``selftrain.run`` returns for
        the splits ``load_split`` reads and ``strel pretrain``'s checkpoint."""
        args = cli.build_parser().parse_args(["selftrain"] + tiny_args(pipeline_dir))
        rc = cli.run_config(args)
        params = load_checkpoint(os.path.join(pipeline_dir, "ckpt", "pretrain.ckpt")).params
        result = run(params, cli.load_split(rc, "train"), cli.load_split(rc, "val"),
                     rc, metric_ks=rc.metric_ks)
        columns = read_columns(os.path.join(pipeline_dir, "logs", "assignments.csv"),
                               AssignmentRecord._fields, [np.int64] * 4 + [np.float64])
        assert len(result.assignments) > 0
        assert result.assignments == AssignmentLog(*columns)
        saved = load_checkpoint(os.path.join(pipeline_dir, "ckpt", "selftrain.ckpt"))[0]
        assert saved.arch == result.params.arch
        for got, want in zip(result.params.layers, saved.layers, strict=True):
            assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want, strict=True))

    def test_loss_total_uses_the_echoed_beta(self, run_dir, tmp_path):
        """Under inverse-frequency reweighting, each logged total is the
        annotated and background terms plus the echoed beta times the pseudo
        term."""
        args = tiny_args(run_dir, **{"reweight": "inverse-frequency", "log-dir": str(tmp_path)})
        assert cli.main(["selftrain"] + args) == 0
        path = os.path.join(str(tmp_path), "selftrain_iterations.csv")
        with open(path) as fh:
            echo = dict(line[2:].rstrip("\n").split("=", 1) for line in fh if line.startswith("# "))
        beta = float(echo["beta"])
        assert beta == 1.0
        names = ("loss_annotated", "loss_background", "loss_pseudo", "loss_total")
        header, rows = read_table(path)
        terms = [[float(row[header.index(n)]) for n in names] for row in rows]
        assert len(terms) == 10 and any(pseudo > 0.0 for _, _, pseudo, _ in terms)
        for annotated, background, pseudo, total in terms:
            assert total == annotated + background + beta * pseudo

    def test_gsl_eval_reads_the_learner_beside_the_checkpoint(self, run_dir, tmp_path):
        """A catm + edge learner checkpoint moved out of --checkpoint-dir
        evaluates as it does in place."""
        def eval_rows(ckpt, log):
            args = tiny_args(run_dir, **{"use-gsl": "true", "log-dir": str(log)})
            assert cli.main(["eval", "--checkpoint", ckpt] + args) == 0
            return read_table(os.path.join(log, "eval_test.csv"))[1]

        in_place = gsl_selftrain(run_dir, 10, log=tmp_path / "l")
        want = eval_rows(in_place, tmp_path / "e1")
        moved = tmp_path / "moved"
        moved.mkdir()
        shutil.move(in_place, moved / "selftrain.ckpt")
        assert eval_rows(str(moved / "selftrain.ckpt"), tmp_path / "e2") == want

    def test_gsl_checkpoint_with_an_edge_temperature_evaluates(self, run_dir, tmp_path):
        """Earlier versions wrote a meta ``edge.temperature``; it is ignored."""
        ckpt = gsl_selftrain(run_dir, 5, log=tmp_path / "l")
        args = tiny_args(run_dir, **{"use-gsl": "true", "log-dir": str(tmp_path / "e")})
        assert cli.main(["eval"] + args) == 0
        want = read_table(os.path.join(tmp_path, "e", "eval_test.csv"))[1]
        tensors, meta = tensorio.load_tensors(ckpt)
        tensorio.save_tensors(ckpt, tensors, {**meta, "edge.temperature": 0.5})
        assert cli.main(["eval"] + args) == 0
        assert read_table(os.path.join(tmp_path, "e", "eval_test.csv"))[1] == want

    def test_gsl_selftrain_writes_one_checkpoint(self, run_dir, tmp_path):
        """The edge learner is saved inside the self-train checkpoint."""
        gsl_selftrain(run_dir, 5, log=tmp_path / "l")
        assert sorted(os.listdir(os.path.join(run_dir, "ckpt"))) == [
            "pretrain.ckpt", "selftrain.ckpt"
        ]

    def test_eval_pretrain_checkpoint_of_a_gsl_run(self, run_dir, tmp_path, capsys):
        """A pretrained model has no edge learner, whatever its config echo says."""
        args = tiny_args(run_dir, **{"use-gsl": "true", "log-dir": str(tmp_path)})
        assert cli.main(["pretrain"] + args) == 0
        ckpt = os.path.join(run_dir, "ckpt", "pretrain.ckpt")
        assert cli.main(["eval", "--checkpoint", ckpt] + tiny_args(run_dir)) == 0
        capsys.readouterr()
        assert cli.main(["eval", "--checkpoint", ckpt] + args) == 1
        assert "saved without an edge learner" in capsys.readouterr().err

    def test_missing_checkpoint_names_path(self, tmp_path, capsys):
        root = str(tmp_path)
        assert cli.main(["gen"] + tiny_args(root)) == 0
        code = cli.main(["selftrain"] + tiny_args(root))
        assert code == 1
        assert "pretrain.ckpt" in capsys.readouterr().err

    def test_resume_flag(self, run_dir, tmp_path, capsys):
        """Resuming a run that is already at max_iterations keeps its counts."""
        finished = str(tmp_path / "finished.ckpt")
        shutil.copy(os.path.join(run_dir, "ckpt", "selftrain.ckpt"), finished)
        capsys.readouterr()
        assert cli.main(["selftrain", "--resume", finished] + tiny_args(run_dir)) == 0
        assert capsys.readouterr().out.startswith("self-trained 0 iterations")
        counts = load_checkpoint(finished)[3]
        assert counts.sum() > 0
        resumed = load_checkpoint(os.path.join(run_dir, "ckpt", "selftrain.ckpt"))[3]
        assert resumed.tolist() == counts.tolist()

    def test_gsl_resume_reads_the_learner_beside_the_checkpoint(self, run_dir, tmp_path):
        """A catm + edge learner run resumed at 5 from a moved checkpoint, with
        no other checkpoint left, ends where the straight 10-iteration run ends."""
        def final_weights(path):
            ckpt = load_checkpoint(path)
            return [a for wb in ckpt.params.layers + ckpt.edge_learner.net.layers for a in wb]

        straight = final_weights(gsl_selftrain(run_dir, 10, log=tmp_path / "l10"))
        moved = tmp_path / "moved"
        moved.mkdir()
        shutil.move(gsl_selftrain(run_dir, 5, log=tmp_path / "l5"), moved / "selftrain.ckpt")
        os.remove(os.path.join(run_dir, "ckpt", "pretrain.ckpt"))
        resume = str(moved / "selftrain.ckpt")
        resumed = final_weights(gsl_selftrain(run_dir, 10, log=tmp_path / "lr", resume=resume))
        assert all(np.array_equal(a, b) for a, b in zip(straight, resumed, strict=True))


class TestCorruptInputs:
    """A damaged input file exits 1 with a one-line ``error:`` message."""

    def _fails_with_one_line(self, argv, capsys):
        capsys.readouterr()
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        return err

    @pytest.mark.parametrize("keep", [0.5, 0.999])  # cut in the header, cut in a tensor
    def test_truncated_checkpoint(self, run_dir, keep, capsys):
        path = os.path.join(run_dir, "ckpt", "selftrain.ckpt")
        data = open(path, "rb").read()
        open(path, "wb").write(data[: int(keep * len(data))])
        self._fails_with_one_line(["eval"] + tiny_args(run_dir), capsys)

    def test_resume_from_pretrain_checkpoint(self, run_dir, capsys):
        ckpt = os.path.join(run_dir, "ckpt", "pretrain.ckpt")
        self._fails_with_one_line(["selftrain", "--resume", ckpt] + tiny_args(run_dir), capsys)

    # a command, the flag naming its input, and what is at that path instead:
    # a directory, a file where a directory belongs, bytes that are not
    # UTF-8, or nothing
    UNUSABLE = [
        ("gen", "config", "dir"), ("eval", "checkpoint", "dir"), ("selftrain", "resume", "dir"),
        ("audit", "assignments", "dir"), ("pretrain", "log-dir", "file"),
        ("gen", "config", "not-utf8"), ("audit", "assignments", "not-utf8"),
        ("gen", "config", "missing"),
    ]
    NOT_UTF8 = {
        "config": b"noise_sigma = 0.\xff9\n",
        "assignments": b"iteration,scene_id,triplet_index,assigned_class,confidence\n0,1,2,1,0.\xff5\n",
    }

    @pytest.mark.parametrize("command, flag, kind", UNUSABLE,
                             ids=[f"{flag}-{kind}" for _, flag, kind in UNUSABLE])
    def test_unusable_path_is_named(self, run_dir, tmp_path, command, flag, kind, capsys):
        """A directory given for a file, a file for a directory, a file that
        is not UTF-8 text or none at all exits 1 with one line and changes no
        file."""
        bad = tmp_path / "bad"
        if kind == "dir":
            bad.mkdir()
        elif kind != "missing":
            bad.write_bytes(self.NOT_UTF8.get(flag, b"a file\n"))
        before = {p: file_hash(p) for p in _files(run_dir)}
        argv = [command] + tiny_args(run_dir, **{flag: str(bad)})
        assert str(bad) in self._fails_with_one_line(argv, capsys)
        assert {p: file_hash(p) for p in _files(run_dir)} == before

    @pytest.mark.parametrize("command", ["selftrain", "sweep"])
    def test_pretrained_under_other_pretraining_settings(self, run_dir, command, capsys):
        """Self-training continues a pretrained model only under the settings
        that only pretraining reads: an mlp does not go on as a linear model.
        A setting both stages read may differ, as in the runs that reweight
        during self-training only."""
        mlp = {"arch": "mlp", "hidden-dim": 5}
        assert cli.main(["pretrain"] + tiny_args(run_dir, **mlp)) == 0
        before = tree_hashes(run_dir, "ckpt", "logs")
        argv = [command, *(["--grid", "0.4"] if command == "sweep" else [])]
        assert " arch 'mlp'" in self._fails_with_one_line(argv + tiny_args(run_dir), capsys)
        assert tree_hashes(run_dir, "ckpt", "logs") == before
        assert cli.main(argv + tiny_args(run_dir, reweight="inverse-frequency", **mlp)) == 0

    def test_resume_under_another_policy(self, run_dir, capsys):
        ckpt = os.path.join(run_dir, "ckpt", "selftrain.ckpt")  # a catm run
        argv = ["selftrain", "--resume", ckpt] + tiny_args(run_dir, policy="never")
        self._fails_with_one_line(argv, capsys)

    # one changed flag each, and the field its error must name
    OTHER_RUNS = [
        ({"selftrain-seed": 9}, "selftrain_seed"),
        ({"batch-size": 7}, "batch_size"),
        ({"beta": 0.1}, "beta"),
        ({"use-gsl": "true"}, "use_gsl"),
        ({"policy": "never"}, "policy"),
    ]

    @pytest.mark.parametrize("flags, field", OTHER_RUNS, ids=[field for _, field in OTHER_RUNS])
    def test_resume_under_another_config(self, run_dir, flags, field, capsys):
        """A resume continues the checkpoint's run: it may run longer, but
        under the config that run was saved with."""
        ckpt = os.path.join(run_dir, "ckpt", "selftrain.ckpt")  # 10 catm iterations
        before = tree_hashes(run_dir, "ckpt", "logs")
        argv = ["selftrain", "--resume", ckpt] + tiny_args(run_dir, **{"max-iterations": 20}, **flags)
        assert f" {field} " in self._fails_with_one_line(argv, capsys)
        assert tree_hashes(run_dir, "ckpt", "logs") == before

    def test_resume_past_max_iterations(self, run_dir, capsys):
        """A 10-iteration run does not resume under --max-iterations 5: its
        counts and thresholds are 10 iterations' own."""
        ckpt = os.path.join(run_dir, "ckpt", "selftrain.ckpt")
        before = tree_hashes(run_dir, "ckpt", "logs")
        argv = ["selftrain", "--resume", ckpt] + tiny_args(run_dir, **{"max-iterations": 5})
        assert "stopped at iteration 10" in self._fails_with_one_line(argv, capsys)
        assert tree_hashes(run_dir, "ckpt", "logs") == before

    def test_resume_checkpoint_without_a_config_echo(self, run_dir, capsys):
        path = os.path.join(run_dir, "ckpt", "selftrain.ckpt")
        tensors, meta = tensorio.load_tensors(path)
        del meta["config"]
        tensorio.save_tensors(path, tensors, meta)
        argv = ["selftrain", "--resume", path] + tiny_args(run_dir)
        assert "echoes no config" in self._fails_with_one_line(argv, capsys)

    def test_resume_gsl_checkpoint_without_gsl(self, run_dir, tmp_path, capsys):
        ckpt = gsl_selftrain(run_dir, 5, log=tmp_path / "l")
        self._fails_with_one_line(["selftrain", "--resume", ckpt] + tiny_args(run_dir), capsys)

    def test_resume_plain_checkpoint_with_gsl(self, run_dir, capsys):
        ckpt = os.path.join(run_dir, "ckpt", "selftrain.ckpt")  # catm without the learner
        argv = ["selftrain", "--resume", ckpt] + tiny_args(run_dir, **{"use-gsl": "true"})
        self._fails_with_one_line(argv, capsys)

    def _gsl_checkpoint_without_edge_entries(self, run_dir, tmp_path):
        """A GSL run's checkpoint as it was written when its learner was a
        file beside it: the config echoes use_gsl, but no entry is ``edge.``."""
        ckpt = gsl_selftrain(run_dir, 5, log=tmp_path / "l")
        tensors, meta = tensorio.load_tensors(ckpt)
        assert meta["config"]["use_gsl"] is True
        tensorio.save_tensors(
            ckpt,
            {k: v for k, v in tensors.items() if not k.startswith("edge.")},
            {k: v for k, v in meta.items() if not k.startswith("edge.")},
        )
        return ckpt

    def test_resume_gsl_without_its_edge_learner(self, run_dir, tmp_path, capsys):
        ckpt = self._gsl_checkpoint_without_edge_entries(run_dir, tmp_path)
        argv = ["selftrain", "--resume", ckpt] + tiny_args(run_dir, **{"use-gsl": "true"})
        assert "saved without an edge learner" in self._fails_with_one_line(argv, capsys)

    @pytest.mark.parametrize("drop", ["edge.layer0.w"])
    def test_edge_learner_without_its_fields(self, run_dir, tmp_path, drop, capsys):
        ckpt = gsl_selftrain(run_dir, 5, log=tmp_path / "l")
        tensors, meta = tensorio.load_tensors(ckpt)
        tensors.pop(drop, None)
        meta.pop(drop, None)
        tensorio.save_tensors(ckpt, tensors, meta)
        argv = ["selftrain", "--resume", ckpt] + tiny_args(run_dir, **{"use-gsl": "true"})
        self._fails_with_one_line(argv, capsys)
        self._fails_with_one_line(["eval"] + tiny_args(run_dir, **{"use-gsl": "true"}), capsys)

    @pytest.mark.parametrize("key, value", [("iteration", "abc"), ("thresholds.step", None)])
    def test_checkpoint_meta_of_the_wrong_type(self, run_dir, tmp_path, key, value, capsys):
        ckpt = gsl_selftrain(run_dir, 5, log=tmp_path / "l")
        tensors, meta = tensorio.load_tensors(ckpt)
        tensorio.save_tensors(ckpt, tensors, {**meta, key: value})
        argv = ["selftrain", "--resume", ckpt] + tiny_args(run_dir, **{"use-gsl": "true"})
        self._fails_with_one_line(argv, capsys)
        self._fails_with_one_line(["eval"] + tiny_args(run_dir, **{"use-gsl": "true"}), capsys)

    CHECKPOINT_EDITS = {
        "edge-layer0-rows": lambda t, m: t.update({"edge.layer0.w": t["edge.layer0.w"][:3]}),
        "layer0-rows": lambda t, m: t.update({"layer0.w": t["layer0.w"][:5]}),
        "arch-list": lambda t, m: m.update({"arch": ["mlp"]}),
        "short-tau": lambda t, m: t.update({"thresholds.tau": t["thresholds.tau"][:2]}),
    }

    @pytest.mark.parametrize("edit", CHECKPOINT_EDITS.values(), ids=CHECKPOINT_EDITS)
    def test_checkpoint_of_the_wrong_shape_is_named(self, run_dir, tmp_path, edit, capsys):
        ckpt = gsl_selftrain(run_dir, 5, log=tmp_path / "l")
        tensors, meta = tensorio.load_tensors(ckpt)
        edit(tensors, meta)
        tensorio.save_tensors(ckpt, tensors, meta)
        args = tiny_args(run_dir, **{"use-gsl": "true"})
        for argv in (["selftrain", "--resume", ckpt] + args, ["eval"] + args):
            assert ckpt in self._fails_with_one_line(argv, capsys)

    def test_checkpoint_of_another_split_width_is_named(self, run_dir, tmp_path, capsys):
        """A pretrained model of 8-wide pairs cannot score a 6-wide split."""
        wide = os.path.join(run_dir, "ckpt", "pretrain.ckpt")
        narrow = tiny_args(str(tmp_path), **{"feature-dim": 6})
        assert cli.main(["gen"] + narrow) == 0
        os.makedirs(tmp_path / "ckpt")
        shutil.copy(wide, tmp_path / "ckpt" / "pretrain.ckpt")
        err = self._fails_with_one_line(["selftrain"] + narrow, capsys)
        assert "pretrain.ckpt" in err and "8 pair features" in err

    def test_eval_gsl_without_its_edge_learner(self, run_dir, tmp_path, capsys):
        ckpt = self._gsl_checkpoint_without_edge_entries(run_dir, tmp_path)
        argv = ["eval", "--checkpoint", ckpt] + tiny_args(run_dir, **{"use-gsl": "true"})
        assert "saved without an edge learner" in self._fails_with_one_line(argv, capsys)

    def test_eval_gsl_checkpoint_without_gsl(self, run_dir, tmp_path, capsys):
        ckpt = gsl_selftrain(run_dir, 5, log=tmp_path / "l")
        self._fails_with_one_line(["eval", "--checkpoint", ckpt] + tiny_args(run_dir), capsys)

    def test_eval_plain_checkpoint_with_gsl(self, run_dir, capsys):
        argv = ["eval"] + tiny_args(run_dir, **{"use-gsl": "true"})  # catm without the learner
        self._fails_with_one_line(argv, capsys)

    @pytest.mark.parametrize("drop", ["iteration", "thresholds.tau", "counts"])
    def test_resume_checkpoint_without_its_run_state(self, run_dir, drop, capsys):
        """Without ``iteration`` a checkpoint reads as a pretrained model,
        which holds no thresholds to resume."""
        path = os.path.join(run_dir, "ckpt", "selftrain.ckpt")
        tensors, meta = tensorio.load_tensors(path)
        tensors.pop(drop, None)
        meta.pop(drop, None)
        tensorio.save_tensors(path, tensors, meta)
        self._fails_with_one_line(["selftrain", "--resume", path] + tiny_args(run_dir), capsys)

    @pytest.mark.parametrize("drop", ["arch", "layer0.w"])
    def test_checkpoint_without_params(self, run_dir, drop, capsys):
        path = os.path.join(run_dir, "ckpt", "selftrain.ckpt")
        tensors, meta = tensorio.load_tensors(path)
        tensors.pop(drop, None)
        meta.pop(drop, None)
        tensorio.save_tensors(path, tensors, meta)
        self._fails_with_one_line(["eval"] + tiny_args(run_dir), capsys)

    def test_checkpoint_metadata_not_an_object(self, run_dir, capsys):
        path = os.path.join(run_dir, "ckpt", "selftrain.ckpt")
        data = open(path, "rb").read()
        start = len(tensorio.MAGIC) + 8
        end = start + int.from_bytes(data[len(tensorio.MAGIC) : start], "little")
        header = data[start:end].replace(b'{"meta":{', b'{"meta":[{', 1)
        header = header.replace(b'},"tensors"', b'}],"tensors"', 1)
        assert header.startswith(b'{"meta":[{') and b'}],"tensors"' in header
        with open(path, "wb") as fh:
            fh.write(tensorio.MAGIC + len(header).to_bytes(8, "little") + header + data[end:])
        argv = ["eval", "--checkpoint", path] + tiny_args(run_dir)
        assert "not a JSON object" in self._fails_with_one_line(argv, capsys)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda text: text[: len(text) // 2],  # truncated
            lambda text: text.replace('"class_names"', '"names"'),
            lambda text: text.replace('"train_counts"', '"counts"'),
            lambda text: "[]",
            lambda text: text.replace('"train_counts": [', '"train_counts": ["many", '),
        ],
        ids=["truncated", "no-class-names", "no-train-counts", "not-an-object",
             "count-not-a-number"],
    )
    def test_bad_manifest(self, run_dir, edit, capsys):
        path = os.path.join(run_dir, "data", "manifest.json")
        text = open(path).read()
        open(path, "w").write(edit(text))
        self._fails_with_one_line(["eval"] + tiny_args(run_dir), capsys)

    @pytest.mark.parametrize(
        "damage", ["truncated", "magic", "hidden-outside-catalog", "observed-not-hidden",
                   "offsets", "endpoint-outside-scene"],
    )
    def test_damaged_split_archive(self, run_dir, damage, capsys):
        path = os.path.join(run_dir, "data", "test.tns")
        data = open(path, "rb").read()
        columns, meta = tensorio.load_tensors(path)
        fg = np.flatnonzero(columns["hidden"] > 0)[0]  # the first pair with a relation
        if damage == "truncated":
            data = data[: len(data) - 100]
        elif damage == "magic":
            data = b"JSONL" + data[5:]
        else:
            if damage == "hidden-outside-catalog":
                columns["hidden"][fg] = 5  # the catalog has 4 foreground classes
            elif damage == "observed-not-hidden":
                columns["observed"][fg] = columns["hidden"][fg] % 4 + 1
            elif damage == "offsets":
                columns["scene_offsets"][1:3] = columns["scene_offsets"][2:0:-1]
            else:
                columns["object_row"][0] = columns["entity_offsets"][1]  # scene 1's first entity
            data = tensorio.pack_tensors(columns, meta)
        open(path, "wb").write(data)
        self._fails_with_one_line(["eval"] + tiny_args(run_dir), capsys)

    def test_data_dir_without_archives(self, run_dir, capsys):
        """A data directory of scene JSONL files asks for `strel gen`."""
        path = os.path.join(run_dir, "data", "test.tns")
        os.replace(path, path[: -len(".tns")] + ".jsonl")
        err = self._fails_with_one_line(["eval"] + tiny_args(run_dir), capsys)
        assert "test.tns (run `strel gen` first)" in err

    @pytest.mark.parametrize("row", [
        "0,1", "0,1,x,1,0.5", "0,1,99999999999999999999,1,0.5",
        "0,1,,1,0.5", "0,1,2,1,0.5,7", "0,1.5,2,1,0.5", "0,1,2,1,0.5\n1,2,3",
    ])
    def test_bad_assignment_row(self, run_dir, tmp_path, row, capsys):
        path = str(tmp_path / "assignments.csv")
        with open(path, "w") as fh:
            fh.write(f"iteration,scene_id,triplet_index,assigned_class,confidence\n{row}\n")
        self._fails_with_one_line(["audit", "--assignments", path] + tiny_args(run_dir), capsys)


class TestSweep:
    def test_grid_rows(self, pipeline_dir, tmp_path):
        args = tiny_args(
            pipeline_dir, **{"max-iterations": 2, "log-dir": str(tmp_path / "sweep")}
        )
        assert cli.main(["sweep", "--grid", "0.2,0.6"] + args) == 0
        header, rows = read_table(os.path.join(str(tmp_path / "sweep"), "sweep.csv"))
        assert header[:2] == ["alpha_inc", "alpha_dec"]
        assert len(rows) == 4

    def test_single_cell_matches_selftrain_run(self, run_dir, tmp_path):
        sweep_args = tiny_args(
            run_dir,
            **{"max-iterations": 5, "alpha-inc": 0.4, "alpha-dec": 0.4,
               "log-dir": str(tmp_path / "s1")},
        )
        assert cli.main(["sweep", "--grid", "0.4"] + sweep_args) == 0
        _, sweep_rows = read_table(os.path.join(str(tmp_path / "s1"), "sweep.csv"))

        run_args = tiny_args(
            run_dir,
            **{"max-iterations": 5, "alpha-inc": 0.4, "alpha-dec": 0.4,
               "log-dir": str(tmp_path / "s2")},
        )
        assert cli.main(["selftrain"] + run_args) == 0
        header, epochs = read_table(os.path.join(str(tmp_path / "s2"), "selftrain_epochs.csv"))
        f_col = header.index("f_at_5")
        assert float(sweep_rows[0][4]) == float(epochs[-1][f_col])

    def test_other_policy_rejected(self, run_dir, tmp_path, capsys):
        """A sweep runs catm; it does not echo another policy over catm's results."""
        log = tmp_path / "sweep"
        capsys.readouterr()
        args = tiny_args(run_dir, policy="never", **{"log-dir": str(log)})
        assert cli.main(["sweep", "--grid", "0.4"] + args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "policy" in err, err
        assert not log.exists()

    def test_grid_values_validated(self, pipeline_dir, capsys):
        assert cli.main(["sweep", "--grid", "0.2,1.4"] + tiny_args(pipeline_dir)) == 1
        assert "grid" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["0.2,abc", "0.2,nan", "", " , "],
                             ids=["not-a-number", "nan", "empty", "blank"])
    def test_bad_or_empty_grid_runs_nothing(self, pipeline_dir, tmp_path, grid, capsys):
        log = tmp_path / "sweep"
        capsys.readouterr()
        assert cli.main(["sweep", "--grid", grid] + tiny_args(pipeline_dir, **{"log-dir": str(log)})) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --grid ") and err.count("\n") == 1, err
        assert not log.exists()


class TestExitCodes:
    def test_runtime_abort_maps_to_two(self, monkeypatch, tmp_path):
        def boom(rc):
            raise RuntimeAbort("synthetic failure")

        monkeypatch.setattr(cli, "cmd_gen", boom)
        assert cli.main(["gen"] + tiny_args(str(tmp_path))) == 2

    def test_unknown_command_rejected(self):
        assert cli.main(["frobnicate"]) == 1
