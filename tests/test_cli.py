import hashlib
import os
import shutil

import pytest

from strel import cli
from strel.errors import RuntimeAbort
from strel.tables import read_table


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


def file_hash(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("pipeline"))
    assert cli.main(["gen"] + tiny_args(root)) == 0
    assert cli.main(["pretrain"] + tiny_args(root)) == 0
    assert cli.main(["selftrain"] + tiny_args(root)) == 0
    return root


class TestGen:
    def test_writes_datasets_and_manifest(self, tmp_path):
        root = str(tmp_path)
        assert cli.main(["gen"] + tiny_args(root)) == 0
        for name in ("train.jsonl", "val.jsonl", "test.jsonl", "manifest.json"):
            assert os.path.exists(os.path.join(root, "data", name))

    def test_repeated_seed_gives_identical_files(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert cli.main(["gen"] + tiny_args(a, **{"gen-seed": 99})) == 0
        assert cli.main(["gen"] + tiny_args(b, **{"gen-seed": 99})) == 0
        for name in ("train.jsonl", "val.jsonl", "test.jsonl"):
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

    def test_eval_of_pretrain_equals_selftrain_with_zero_iterations(self, pipeline_dir, tmp_path):
        args = tiny_args(pipeline_dir, **{"max-iterations": 0, "log-dir": str(tmp_path / "l0")})
        assert cli.main(["selftrain"] + args) == 0
        assert cli.main(["eval", "--split", "val"] + args) == 0
        zero_iter = read_table(os.path.join(str(tmp_path / "l0"), "eval_val.csv"))[1]

        pre_args = tiny_args(pipeline_dir, **{"log-dir": str(tmp_path / "l1")})
        ckpt = os.path.join(pipeline_dir, "ckpt", "pretrain.ckpt")
        assert cli.main(["eval", "--split", "val", "--checkpoint", ckpt] + pre_args) == 0
        pretrained = read_table(os.path.join(str(tmp_path / "l1"), "eval_val.csv"))[1]
        assert zero_iter == pretrained

    def test_missing_checkpoint_names_path(self, tmp_path, capsys):
        root = str(tmp_path)
        assert cli.main(["gen"] + tiny_args(root)) == 0
        code = cli.main(["selftrain"] + tiny_args(root))
        assert code == 1
        assert "pretrain.ckpt" in capsys.readouterr().err

    def test_resume_flag(self, pipeline_dir, tmp_path):
        args = tiny_args(pipeline_dir, **{"log-dir": str(tmp_path / "resume")})
        ckpt = os.path.join(pipeline_dir, "ckpt", "selftrain.ckpt")
        assert cli.main(["selftrain", "--resume", ckpt] + args) == 0


class TestCorruptInputs:
    """A damaged input file exits 1 with a one-line ``error:`` message."""

    @pytest.fixture
    def run_dir(self, pipeline_dir, tmp_path):
        root = str(tmp_path / "run")
        shutil.copytree(pipeline_dir, root)
        return root

    def _fails_with_one_line(self, argv, capsys):
        capsys.readouterr()
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("keep", [0.5, 0.999])  # cut in the header, cut in a tensor
    def test_truncated_checkpoint(self, run_dir, keep, capsys):
        path = os.path.join(run_dir, "ckpt", "selftrain.ckpt")
        data = open(path, "rb").read()
        open(path, "wb").write(data[: int(keep * len(data))])
        self._fails_with_one_line(["eval"] + tiny_args(run_dir), capsys)

    @pytest.mark.parametrize("line", ['{"scene_id": 7, "entities": [', '{"scene_id": 7}'])
    def test_malformed_scene_line(self, run_dir, line, capsys):
        with open(os.path.join(run_dir, "data", "test.jsonl"), "a") as fh:
            fh.write(line + "\n")
        self._fails_with_one_line(["eval"] + tiny_args(run_dir), capsys)

    @pytest.mark.parametrize("row", ["0,1", "0,1,x,1,0.5", "0,1,99999999999999999999,1,0.5"])
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

    def test_single_cell_matches_selftrain_run(self, pipeline_dir, tmp_path):
        sweep_args = tiny_args(
            pipeline_dir,
            **{"max-iterations": 5, "alpha-inc": 0.4, "alpha-dec": 0.4,
               "log-dir": str(tmp_path / "s1")},
        )
        assert cli.main(["sweep", "--grid", "0.4"] + sweep_args) == 0
        _, sweep_rows = read_table(os.path.join(str(tmp_path / "s1"), "sweep.csv"))

        run_args = tiny_args(
            pipeline_dir,
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
