"""Fast self-test of the benchmark on tiny inputs.

    python3 perfbench/selftest.py

Runs every workload end to end, untraced and traced, and shows that each
correctness check rejects a corrupted output. Exits non-zero on the first
failure. It also runs the benchmark command in a directory holding only
the benchmark's own files, where it must fail without printing a result.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import run

os.environ.update({var: "1" for var in run.THREAD_VARS})
pkg = run.import_package()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402

WORK = os.path.join(run.WORK, "selftest")


def benchmark_spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def rejects(check, *args):
    try:
        check(*args)
    except checks.CheckFailed:
        return
    raise AssertionError(f"{check.__name__} accepted a corrupted output")


def test_workloads():
    spec = benchmark_spec()
    e2e = [m["name"] for m in spec["end_to_end"]]
    layers = [m["name"] for m in spec["per_layer"]]
    # serve-long runs by hand only: too unsteady on a shared host to gate
    assert [w["name"] for w in spec["workloads"]] == [
        name for name in workloads.WORKLOADS if name != "serve-long"]
    for name, fn in workloads.WORKLOADS.items():
        paths = inputs.make_inputs(pkg, name, 3, inputs.TINY, WORK)
        for trace, names in ((False, e2e), (True, layers)):
            loop, metrics = fn(pkg, paths, inputs.TINY, 0.01, trace)
            assert list(metrics) == names, (name, trace, sorted(metrics))
            assert all(np.isfinite(v) for v, _ in metrics.values())
            short = len(inputs.TINY.short_sizes) if name == "serve" else 0
            rounds = len(loop.walls)
            # each round: fused_rank and mmr_select fail on every short request
            assert loop.failed == 2 * short * rounds, (name, loop.failed)
            if not trace:
                assert all(v > 0 for v, _ in metrics.values()), metrics
        print(f"ok  {name}: attempted {loop.attempted}, failed {loop.failed}")


def tiny_model():
    paths = inputs.make_inputs(pkg, "serve", 3, inputs.TINY, WORK)
    ds = pkg.data.load_jsonl(paths["data"])
    model = pkg.distill.load_checkpoint(paths["checkpoint"])
    weights = checks.Weights.from_checkpoint_files(paths["checkpoint"])
    raw = workloads.read_raw(paths["data"])
    i = next(j for j, r in enumerate(ds.requests)
             if not r.request_id.startswith(inputs.SHORT_TAG))
    return ds, model, weights, ds.requests[i], raw[i]


def test_checks_reject_corruption():
    ev = pkg.evaluation
    ds, model, weights, req, raw = tiny_model()
    K = 8
    scores = ev.fused_scores(model, req, 0.1)
    good = ev.fused_rank(model, req, K, 0.1)
    checks.check_ranked_list(raw, good, scores, K)

    def ranked(idx, sc=None):
        idx = np.asarray(idx)
        return dataclasses.replace(
            good, item_idx=idx, scores=scores[idx] if sc is None else sc,
            item_ids=[raw["candidates"][i]["item_id"] for i in idx])

    idx = good.item_idx
    rejects(checks.check_ranked_list, raw, ranked(idx[::-1]), scores, K)
    rejects(checks.check_ranked_list, raw, ranked(idx[:-1]), scores, K)
    rejects(checks.check_ranked_list, raw,
            ranked(np.r_[idx[:-1], idx[0]]), scores, K)
    rejects(checks.check_ranked_list, raw, dataclasses.replace(
        good, item_idx=np.r_[idx[:-1], len(scores)]), scores, K)
    worst = np.argsort(-scores, kind="stable")[-1]
    rejects(checks.check_ranked_list, raw,
            ranked(np.r_[idx[:-1], worst]), scores, K)
    bad = scores[idx].copy()
    bad[1] = np.nan
    rejects(checks.check_ranked_list, raw, ranked(idx, bad), scores, K)
    # a tie must go to the smaller index
    tied = scores.copy()
    tied[idx[1]] = tied[idx[0]]
    order = np.argsort(-tied, kind="stable")[:K]
    swapped = order.copy()
    swapped[:2] = swapped[1::-1]
    rejects(checks.check_ranked_list, raw,
            dataclasses.replace(ranked(swapped), scores=tied[swapped]),
            tied, K)
    wrong_id = ranked(idx)
    wrong_id.item_ids[0] = "nope"
    rejects(checks.check_ranked_list, raw, wrong_id, scores, K)

    acc = ev.fused_scores(model, req, 0.0)
    checks.check_accuracy(raw, weights, acc)
    rejects(checks.check_accuracy, raw, weights, acc + 1e-9)

    probs = model.win_probabilities(req)
    checks.check_probabilities(raw, probs)
    one = probs.copy()
    one[0] = 1.0
    rejects(checks.check_probabilities, raw, one)

    label = pkg.teacher.mmr_select(req, model, model.config.lam, K)
    checks.check_mmr(raw, weights, label, K)
    picks = label.winning_idx.copy()
    picks[[2, 3]] = picks[[3, 2]]
    rejects(checks.check_mmr, raw, weights,
            dataclasses.replace(label, winning_idx=picks), K)
    rejects(checks.check_mmr, raw, weights, dataclasses.replace(
        label, gains=[g + 1e-6 for g in label.gains]), K)

    history = [{"phase": "warmup", "epoch": 0, "train_bce": 0.6},
               {"phase": "joint", "epoch": 0, "train_total": 1.0}]
    checks.check_training(history, 1, 1)
    rejects(checks.check_training, history[:1], 1, 1)
    rejects(checks.check_training,
            [history[0], dict(history[1], train_total=float("nan"))], 1, 1)

    rejects(checks.check_auc, [0.5, 0.5], 0.55)
    assert checks.pairwise_auc([1, 0, 1, 0], [0.9, 0.1, 0.5, 0.5]) == 0.875

    report = ev.evaluate_model(model, pkg.data.Dataset(
        [req], ds.items, vocab_from=ds), [K], [0.1])[0]
    checks.check_report(report, [good.item_idx], [raw], weights)
    for field in ("ilad", "recall"):
        rejects(checks.check_report, dataclasses.replace(
            report, **{field: getattr(report, field) + 1e-6}),
            [good.item_idx], [raw], weights)
    print("ok  every check rejects its corrupted output")


def test_round_mismatch():
    ds, model, _, req, _ = tiny_model()
    loop = workloads.Loop(pkg, False)
    served = workloads.Served(pkg, loop, model, ds, [req], 5, 5, 0.1, 1)
    served.serve_round(0)
    served.serve_round(1, passes=2)
    assert not served.mismatch
    served.K = 6
    served.serve_round(2)
    assert served.mismatch, "a changed output in a later round went unseen"
    print("ok  a later round that differs from round 0 is caught")


def test_bare_directory():
    bare = os.path.join(WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    spec = benchmark_spec()
    proc = subprocess.run(
        spec["command"] + ["--workload", "serve", "--seed", "1", "--seconds",
                           "1", "--trace", "0"],
        cwd=bare, capture_output=True, timeout=180)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc
    shutil.rmtree(bare)
    print("ok  without the package the command fails and prints no result")


def main():
    test_checks_reject_corruption()
    test_round_mismatch()
    test_workloads()
    test_bare_directory()
    shutil.rmtree(WORK, ignore_errors=True)
    print("selftest passed")


if __name__ == "__main__":
    sys.exit(main())
