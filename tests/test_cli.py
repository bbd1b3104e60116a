"""End-to-end command line workflow on a tiny dataset, plus error
reporting and option precedence.
"""

import json
import os

import pytest

from divrank import cli
from divrank.data import load_jsonl

GEN_ARGS = ["gen-data", "--seed", "5", "--num-users", "8",
            "--num-requests", "20", "--catalog-size", "50",
            "--num-categories", "4", "--candidates-per-request", "25",
            "--latent-dim", "8"]

TRAIN_ARGS = ["--d", "8", "--k", "3", "--K-teacher", "5",
              "--warm-epochs", "1", "--joint-epochs", "2",
              "--batch-size", "4", "--lr", "0.2", "--seed", "1"]


def run(argv, capsys=None):
    code = cli.main(argv)
    if capsys is not None:
        return code, capsys.readouterr()
    return code


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data_path = root / "tiny.jsonl"
    ckpt = root / "ckpt"
    assert cli.main(GEN_ARGS + ["--out", str(data_path)]) == 0
    assert cli.main(["train", "--data", str(data_path),
                     "--out", str(ckpt)] + TRAIN_ARGS) == 0
    return root, data_path, ckpt


class TestGenData:
    def test_writes_data_and_manifest(self, workspace):
        _, data_path, _ = workspace
        ds = load_jsonl(data_path)
        assert len(ds) == 20
        manifest = json.loads((data_path.parent
                               / "tiny.jsonl.manifest.json").read_text())
        assert manifest["command"] == "gen-data"
        assert manifest["outputs"] == [str(data_path)]
        assert manifest["config"]["seed"] == 5

    def test_refuses_overwrite_without_force(self, workspace, capsys):
        _, data_path, _ = workspace
        code, out = run(GEN_ARGS + ["--out", str(data_path)], capsys)
        assert code == 2
        err = json.loads(out.err)
        assert err["error"] == "FileExistsError"

    def test_force_overwrites(self, tmp_path):
        p = tmp_path / "d.jsonl"
        assert cli.main(GEN_ARGS + ["--out", str(p)]) == 0
        assert cli.main(GEN_ARGS + ["--out", str(p), "--force"]) == 0

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        cli.main(GEN_ARGS + ["--out", str(a)])
        cli.main(GEN_ARGS + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestTrain:
    def test_checkpoint_contents(self, workspace):
        _, _, ckpt = workspace
        for name in ("weights.bin", "manifest.json", "config.json",
                     "vocab.json", "history.json", "run_manifest.json"):
            assert (ckpt / name).exists(), name
        manifest = json.loads((ckpt / "run_manifest.json").read_text())
        assert manifest["config"]["d"] == 8
        assert manifest["inputs"][0]["sha256"]
        assert manifest["peak_rss_mb"] > 0

    def test_flag_overrides_config_file(self, workspace, tmp_path):
        _, data_path, _ = workspace
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"d": 8, "k": 3, "K_teacher": 5,
                                        "warm_epochs": 1, "joint_epochs": 0,
                                        "lr": 0.3, "seed": 9}))
        out = tmp_path / "ckpt"
        assert cli.main(["train", "--data", str(data_path), "--out", str(out),
                         "--config", str(cfg_file), "--lr", "0.111"]) == 0
        resolved = json.loads((out / "config.json").read_text())
        assert resolved["lr"] == 0.111
        assert resolved["seed"] == 9

    def test_unknown_config_field_errors(self, workspace, tmp_path, capsys):
        _, data_path, _ = workspace
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"momentum": 0.9}))
        code, out = run(["train", "--data", str(data_path),
                         "--out", str(tmp_path / "x"),
                         "--config", str(cfg_file)], capsys)
        assert code == 2
        assert json.loads(out.err)["error"] == "ConfigError"

    def test_teacher_size_below_one_errors(self, workspace, tmp_path, capsys):
        _, data_path, _ = workspace
        code, out = run(["train", "--data", str(data_path),
                         "--out", str(tmp_path / "x")]
                        + TRAIN_ARGS + ["--K-teacher", "0"], capsys)
        assert code == 2
        assert json.loads(out.err)["error"] == "ConfigError"
        assert not (tmp_path / "x").exists()

    def test_missing_data_file_errors(self, tmp_path, capsys):
        code, out = run(["train", "--data", str(tmp_path / "nope.jsonl"),
                         "--out", str(tmp_path / "x")] + TRAIN_ARGS, capsys)
        assert code == 2
        assert json.loads(out.err)["error"] == "FileNotFoundError"


class TestEvaluate:
    def test_report_grid(self, workspace, tmp_path):
        _, data_path, ckpt = workspace
        out = tmp_path / "metrics.json"
        assert cli.main(["evaluate", "--checkpoint", str(ckpt),
                         "--data", str(data_path), "--ks", "3,5",
                         "--gammas", "0.0,0.1", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["reports"]) == 4
        for rep in payload["reports"]:
            assert set(rep) >= {"K", "gamma", "ilad", "cc", "recall", "mrr"}

    def test_stdout_when_no_out(self, workspace, capsys):
        _, data_path, ckpt = workspace
        code, out = run(["evaluate", "--checkpoint", str(ckpt),
                         "--data", str(data_path), "--ks", "3",
                         "--gammas", "0.0"], capsys)
        assert code == 0
        assert json.loads(out.out)["reports"][0]["K"] == 3


class TestRank:
    def test_jsonl_output_shape(self, workspace, tmp_path):
        _, data_path, ckpt = workspace
        out = tmp_path / "ranked.jsonl"
        assert cli.main(["rank", "--checkpoint", str(ckpt),
                         "--data", str(data_path), "--K", "5",
                         "--gamma", "0.1", "--out", str(out)]) == 0
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(lines) == 20
        for line in lines:
            assert len(line["items"]) == 5
            assert len(line["scores"]) == 5
            assert sorted(line["scores"], reverse=True) == line["scores"]

    def test_corrupt_checkpoint_errors(self, workspace, tmp_path, capsys):
        _, data_path, ckpt = workspace
        import shutil
        bad = tmp_path / "bad_ckpt"
        shutil.copytree(ckpt, bad)
        blob = (bad / "weights.bin").read_bytes()
        (bad / "weights.bin").write_bytes(blob[:-8])
        code, out = run(["rank", "--checkpoint", str(bad),
                         "--data", str(data_path)], capsys)
        assert code == 2
        assert json.loads(out.err)["error"] == "CheckpointError"


class TestBench:
    def test_small_bench_runs(self, workspace, tmp_path):
        _, _, ckpt = workspace
        out = tmp_path / "bench.json"
        assert cli.main(["bench", "--checkpoint", str(ckpt), "--N", "200",
                         "--K", "8", "--repeats", "1",
                         "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["N"] == 200
        assert payload["speedup"] > 0


class TestThreadPinning:
    def test_flag_sets_environment(self, monkeypatch):
        monkeypatch.delenv("DIVRANK_THREADS", raising=False)
        cli._pin_threads(["--threads", "3", "bench"])
        assert os.environ["OMP_NUM_THREADS"] == "3"
        cli._pin_threads(["bench"])
        assert os.environ["OMP_NUM_THREADS"] == "1"
        monkeypatch.setenv("DIVRANK_THREADS", "5")
        cli._pin_threads(["bench"])
        assert os.environ["OMP_NUM_THREADS"] == "5"
