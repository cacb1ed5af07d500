import hashlib
import os
import shutil

import numpy as np
import pytest

from strel import cli, tensorio
from strel.classifier import load_model
from strel.edges import load_edge_learner
from strel.errors import RuntimeAbort
from strel.metrics import AssignmentLog, AssignmentRecord
from strel.selftrain import load_checkpoint, run
from strel.tables import read_columns, read_table


def tiny_args(root, **extra):
    """Flag list for a fast end-to-end pipeline."""
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


class TestConfigFile:
    def test_file_values_and_overrides(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_scenes = 33\nnoise_sigma = 0.9  # trailing comment\n")
        values = cli.parse_config_file(str(cfg))
        rc = cli.build_run_config(values, {"noise_sigma": 1.1})
        assert rc.n_scenes == 33
        assert rc.noise_sigma == 1.1

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("not_a_field = 3\n")
        assert cli.main(["gen", "--config", str(cfg)]) == 1
        assert "not_a_field" in capsys.readouterr().err

    def test_bad_value_names_the_field(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_scenes = many\n")
        assert cli.main(["gen", "--config", str(cfg)]) == 1
        assert "n_scenes" in capsys.readouterr().err

    def test_metric_ks_parsing(self):
        rc = cli.build_run_config({}, {"metric_ks": (1, 3)})
        assert rc.metric_ks == (1, 3)


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
        rc = cli._load_run_config(args)
        params, _ = load_model(os.path.join(pipeline_dir, "ckpt", "pretrain.ckpt"))
        result = run(params, cli.load_split(rc, "train"), cli.load_split(rc, "val"),
                     cli.selftrain_config(rc), metric_ks=rc.metric_ks)
        columns = read_columns(os.path.join(pipeline_dir, "logs", "assignments.csv"),
                               AssignmentRecord._fields, [np.int64] * 4 + [np.float64])
        assert len(result.assignments) > 0
        assert result.assignments == AssignmentLog(*columns)
        saved = load_checkpoint(os.path.join(pipeline_dir, "ckpt", "selftrain.ckpt"))[0]
        assert saved.arch == result.params.arch
        for got, want in zip(result.params.layers, saved.layers, strict=True):
            assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want, strict=True))

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
        shutil.move(os.path.join(run_dir, "ckpt", "edge_learner.ckpt"), moved / "edge_learner.ckpt")
        assert eval_rows(str(moved / "selftrain.ckpt"), tmp_path / "e2") == want

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
        """A catm + edge learner run resumed at 5 from a moved checkpoint
        ends where the straight 10-iteration run ends."""
        def final_weights(ckpt):
            learner = load_edge_learner(os.path.join(run_dir, "ckpt", "edge_learner.ckpt"))[0]
            return [a for wb in load_checkpoint(ckpt)[0].layers + learner.net.layers for a in wb]

        straight = final_weights(gsl_selftrain(run_dir, 10, log=tmp_path / "l10"))
        moved = tmp_path / "moved"
        moved.mkdir()
        shutil.move(gsl_selftrain(run_dir, 5, log=tmp_path / "l5"), moved / "selftrain.ckpt")
        shutil.move(os.path.join(run_dir, "ckpt", "edge_learner.ckpt"), moved / "edge_learner.ckpt")
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

    def test_resume_under_another_policy(self, run_dir, capsys):
        ckpt = os.path.join(run_dir, "ckpt", "selftrain.ckpt")  # a catm run
        argv = ["selftrain", "--resume", ckpt] + tiny_args(run_dir, policy="never")
        self._fails_with_one_line(argv, capsys)

    def test_resume_gsl_checkpoint_without_gsl(self, run_dir, tmp_path, capsys):
        ckpt = gsl_selftrain(run_dir, 5, log=tmp_path / "l")
        self._fails_with_one_line(["selftrain", "--resume", ckpt] + tiny_args(run_dir), capsys)

    def test_resume_plain_checkpoint_with_gsl(self, run_dir, capsys):
        ckpt = os.path.join(run_dir, "ckpt", "selftrain.ckpt")  # catm without the learner
        argv = ["selftrain", "--resume", ckpt] + tiny_args(run_dir, **{"use-gsl": "true"})
        self._fails_with_one_line(argv, capsys)

    def test_resume_gsl_without_its_edge_learner(self, run_dir, tmp_path, capsys):
        """The learner in --checkpoint-dir is not the one of a checkpoint
        kept elsewhere."""
        moved = str(tmp_path / "moved.ckpt")
        shutil.copy(gsl_selftrain(run_dir, 5, log=tmp_path / "l"), moved)
        argv = ["selftrain", "--resume", moved] + tiny_args(run_dir, **{"use-gsl": "true"})
        self._fails_with_one_line(argv, capsys)

    @pytest.mark.parametrize("drop", ["temperature", "layer0.w"])
    def test_edge_learner_without_its_fields(self, run_dir, tmp_path, drop, capsys):
        ckpt = gsl_selftrain(run_dir, 5, log=tmp_path / "l")
        path = os.path.join(run_dir, "ckpt", "edge_learner.ckpt")
        tensors, meta = tensorio.load_tensors(path)
        tensors.pop(drop, None)
        meta.pop(drop, None)
        tensorio.save_tensors(path, tensors, meta)
        argv = ["selftrain", "--resume", ckpt] + tiny_args(run_dir, **{"use-gsl": "true"})
        self._fails_with_one_line(argv, capsys)
        self._fails_with_one_line(["eval"] + tiny_args(run_dir, **{"use-gsl": "true"}), capsys)

    def test_eval_gsl_checkpoint_without_gsl(self, run_dir, tmp_path, capsys):
        ckpt = gsl_selftrain(run_dir, 5, log=tmp_path / "l")
        self._fails_with_one_line(["eval", "--checkpoint", ckpt] + tiny_args(run_dir), capsys)

    def test_eval_plain_checkpoint_with_gsl(self, run_dir, capsys):
        argv = ["eval"] + tiny_args(run_dir, **{"use-gsl": "true"})  # catm without the learner
        self._fails_with_one_line(argv, capsys)

    def test_eval_gsl_without_its_edge_learner(self, run_dir, tmp_path, capsys):
        """The learner in --checkpoint-dir is not the one of a checkpoint
        kept elsewhere."""
        moved = str(tmp_path / "moved.ckpt")
        shutil.copy(gsl_selftrain(run_dir, 5, log=tmp_path / "l"), moved)
        argv = ["eval", "--checkpoint", moved] + tiny_args(run_dir, **{"use-gsl": "true"})
        self._fails_with_one_line(argv, capsys)

    def test_resume_gsl_with_a_learner_of_another_iteration(self, run_dir, tmp_path, capsys):
        half = str(tmp_path / "half.ckpt")
        shutil.copy(gsl_selftrain(run_dir, 5, log=tmp_path / "l5"), half)
        shutil.copy(half, os.path.join(run_dir, "ckpt", "half.ckpt"))
        gsl_selftrain(run_dir, 10, log=tmp_path / "l10")  # rewrites the learner beside it
        ckpt = os.path.join(run_dir, "ckpt", "half.ckpt")
        argv = ["selftrain", "--resume", ckpt] + tiny_args(run_dir, **{"use-gsl": "true"})
        self._fails_with_one_line(argv, capsys)

    @pytest.mark.parametrize("drop", ["arch", "layer0.w"])
    def test_checkpoint_without_params(self, run_dir, drop, capsys):
        path = os.path.join(run_dir, "ckpt", "selftrain.ckpt")
        tensors, meta = tensorio.load_tensors(path)
        tensors.pop(drop, None)
        meta.pop(drop, None)
        tensorio.save_tensors(path, tensors, meta)
        self._fails_with_one_line(["eval"] + tiny_args(run_dir), capsys)

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

    def test_grid_values_validated(self, pipeline_dir, capsys):
        assert cli.main(["sweep", "--grid", "0.2,1.4"] + tiny_args(pipeline_dir)) == 1
        assert "grid" in capsys.readouterr().err


class TestExitCodes:
    def test_runtime_abort_maps_to_two(self, monkeypatch, tmp_path):
        def boom(rc):
            raise RuntimeAbort("synthetic failure")

        monkeypatch.setattr(cli, "cmd_gen", boom)
        assert cli.main(["gen"] + tiny_args(str(tmp_path))) == 2

    def test_unknown_command_rejected(self):
        assert cli.main(["frobnicate"]) == 1
