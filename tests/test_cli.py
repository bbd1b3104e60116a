"""End-to-end command line workflow on a tiny dataset, plus error
reporting and option precedence.
"""

import argparse
import dataclasses
import json
import os
import re
import shlex

import pytest

from divrank import cli
from divrank.backbone import TrainConfig
from divrank.data import SyntheticSpec, load_jsonl
from divrank.distill import CDMModel, load_checkpoint, save_checkpoint
from divrank.evaluation import fused_rank

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")

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

    def test_every_flag_is_a_spec_field_with_its_default(self):
        # cmd_gen_data builds its SyntheticSpec from the flags by field
        # name, and each flag's default is the dataclass default
        subparsers = next(a for a in cli.build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        actions = [a for a in subparsers.choices["gen-data"]._actions
                   if a.dest not in {"help", "out", "force"}]
        assert actions
        fields = {f.name: f.default
                  for f in dataclasses.fields(SyntheticSpec)}
        for action in actions:
            assert action.dest in fields
            assert action.default == fields[action.dest]
            assert type(action.default) is type(fields[action.dest])

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

    def test_every_flag_is_a_config_field(self):
        # _resolve_config reads flags by TrainConfig field name, so a
        # misnamed flag would be silently ignored
        subparsers = next(a for a in cli.build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        actions = {a.dest: a for a in subparsers.choices["train"]._actions}
        fields = TrainConfig.__dataclass_fields__
        flags = actions.keys() - {"help", "data", "out", "config"}
        assert flags <= fields.keys()
        # each flag parses to its field's type; K_teacher defaults to None
        for dest in flags:
            default = fields[dest].default
            want = float if isinstance(default, float) else int
            assert actions[dest].type is want, dest

    def test_unknown_config_field_errors(self, workspace, tmp_path, capsys):
        _, data_path, _ = workspace
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"momentum": 0.9}))
        code, out = run(["train", "--data", str(data_path),
                         "--out", str(tmp_path / "x"),
                         "--config", str(cfg_file)], capsys)
        assert code == 2
        assert json.loads(out.err)["error"] == "ConfigError"

    # a flag given next to a file that is not an object is not merged in
    @pytest.mark.parametrize("payload, flags", [
        ({"k": 2.5}, []), ([{"k": 3}], ["--lr", "0.1"])])
    def test_wrong_config_type_errors(self, workspace, tmp_path, capsys,
                                      payload, flags):
        _, data_path, _ = workspace
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(payload))
        code, out = run(["train", "--data", str(data_path),
                         "--out", str(tmp_path / "x"),
                         "--config", str(cfg_file)] + flags, capsys)
        assert code == 2
        assert json.loads(out.err)["error"] == "ConfigError"
        assert not (tmp_path / "x").exists()

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


@pytest.fixture(scope="module")
def gamma_checkpoint(workspace):
    """The workspace checkpoint re-saved with a training gamma of 0.3,
    away from rank's and evaluate's old fixed defaults."""
    root, _, ckpt = workspace
    model = load_checkpoint(ckpt)
    model = CDMModel(dataclasses.replace(model.config, gamma=0.3),
                     model.item_category, model.category_ids, model.user_ids,
                     params=model.params)
    path = root / "ckpt_gamma03"
    save_checkpoint(model, path)
    return path, model


class TestCheckpointGamma:
    def test_rank_defaults_to_checkpoint_gamma(self, workspace,
                                               gamma_checkpoint, tmp_path):
        _, data_path, _ = workspace
        path, model = gamma_checkpoint
        out = tmp_path / "ranked.jsonl"
        assert cli.main(["rank", "--checkpoint", str(path), "--data",
                         str(data_path), "--K", "5", "--out", str(out)]) == 0
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        requests = load_jsonl(data_path).requests
        assert len(lines) == len(requests)
        for line, request in zip(lines, requests):
            want = fused_rank(model, request, 5, gamma=0.3)
            assert line["items"] == want.item_ids
            assert line["scores"] == [float(s) for s in want.scores]
        # the old fixed default would have ranked differently
        assert any(
            line["scores"] != [float(s) for s in
                               fused_rank(model, request, 5, 0.1).scores]
            for line, request in zip(lines, requests))

    def test_evaluate_defaults_to_zero_and_checkpoint_gamma(
            self, workspace, gamma_checkpoint, capsys):
        _, data_path, _ = workspace
        path, _ = gamma_checkpoint
        code, out = run(["evaluate", "--checkpoint", str(path), "--data",
                         str(data_path), "--ks", "3"], capsys)
        assert code == 0
        reports = json.loads(out.out)["reports"]
        assert [r["gamma"] for r in reports] == [0.0, 0.3]


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

    def rank_fails(self, workspace, tmp_path, out, capsys):
        """rank over the workspace data with request 6 cut to 5 candidates,
        below the 2k + 1 = 7 that the student's context needs."""
        _, data_path, ckpt = workspace
        lines = data_path.read_text().splitlines()
        req = json.loads(lines[5])
        req["candidates"] = req["candidates"][:5]
        lines[5] = json.dumps(req)
        bad = tmp_path / "short.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        code, err = run(["rank", "--checkpoint", str(ckpt), "--data",
                         str(bad), "--out", str(out)], capsys)
        assert code == 2
        assert json.loads(err.err)["error"] == "DomainError"
        assert not list(tmp_path.glob(f".{out.name}.tmp*"))

    def test_failure_writes_no_new_file(self, workspace, tmp_path, capsys):
        out = tmp_path / "ranked.jsonl"
        self.rank_fails(workspace, tmp_path, out, capsys)
        assert not out.exists()

    def test_failure_keeps_existing_file(self, workspace, tmp_path, capsys):
        out = tmp_path / "ranked.jsonl"
        out.write_bytes(b'{"request_id": "old"}\n')
        self.rank_fails(workspace, tmp_path, out, capsys)
        assert out.read_bytes() == b'{"request_id": "old"}\n'

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

    def test_unknown_item_message_is_unquoted(self, workspace, tmp_path,
                                              capsys):
        # VocabError is a KeyError, whose str() is the repr of its message
        _, data_path, ckpt = workspace
        lines = data_path.read_text().splitlines()
        req = json.loads(lines[0])
        req["candidates"][0]["item_id"] = "zzz"
        bad = tmp_path / "unknown.jsonl"
        bad.write_text(json.dumps(req) + "\n")
        code, out = run(["rank", "--checkpoint", str(ckpt),
                         "--data", str(bad)], capsys)
        assert code == 2
        assert json.loads(out.err) == {"error": "VocabError",
                                       "message": "unknown item id: 'zzz'"}


class TestAtomicOpen:
    def test_concurrent_writers_keep_their_own_temporary_file(
            self, tmp_path, monkeypatch):
        # a second run (another pid) writes the same path and fails while
        # the first is still writing; the first run's file must survive
        out = tmp_path / "ranked.jsonl"
        pid = os.getpid()
        with cli._atomic_open(out) as first:
            first.write("first\n")
            monkeypatch.setattr(os, "getpid", lambda: pid + 1)
            with pytest.raises(RuntimeError):
                with cli._atomic_open(out) as second:
                    second.write("second\n")
                    raise RuntimeError("second run fails")
            monkeypatch.undo()
        assert out.read_text() == "first\n"
        assert [p.name for p in tmp_path.iterdir()] == [out.name]


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
        assert payload["crossover_K"] in (None, 25, 50, 100, 200)


def readme_commands():
    """Each `divrank ...` command line in README.md's shell blocks, with
    backslash continuations joined and leading VAR=value words dropped."""
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"^```sh\n(.*?)^```", fh.read(), flags=re.M | re.S)
    commands = []
    for block in blocks:
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            while words and re.fullmatch(r"\w+=\S*", words[0]):
                words.pop(0)
            if words[:1] == ["divrank"]:
                commands.append(words[1:])
    return commands


def test_readme_commands_parse():
    commands = readme_commands()
    assert len(commands) == 6
    assert {c[0] for c in commands} == {"gen-data", "train", "evaluate",
                                        "rank", "bench"}
    parser = cli.build_parser()
    for words in commands:
        parser.parse_args(words)
