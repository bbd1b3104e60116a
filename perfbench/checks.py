"""Correctness checks computed apart from the program.

Every reference here is written from the method's definition in numpy:
the accuracy MLP forward, an exact incremental greedy teacher (one running
max-similarity vector), a stable full sort, a pairwise AUC count, and ILAD
and recall from raw embedding rows and input labels. None of them calls
into the package, so a fault in the program cannot hide in its oracle.
"""

from __future__ import annotations

import json
import os

import numpy as np


class CheckFailed(Exception):
    pass


def _fail(msg):
    raise CheckFailed(msg)


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


class Weights:
    """Model tables and vocabularies, read without the package's loaders."""

    def __init__(self, params, item_ids, item_category, category_ids,
                 user_ids, lam):
        self.params = params
        self.item_row = {k: i for i, k in enumerate(item_ids)}
        self.item_category = dict(item_category)
        self.cat_row = {k: i for i, k in enumerate(category_ids)}
        self.user_row = {k: i for i, k in enumerate(user_ids)}
        self.lam = lam

    @classmethod
    def from_checkpoint_files(cls, path):
        with open(os.path.join(path, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        with open(os.path.join(path, "vocab.json"), encoding="utf-8") as fh:
            vocab = json.load(fh)
        with open(os.path.join(path, "config.json"), encoding="utf-8") as fh:
            config = json.load(fh)
        blob = np.fromfile(os.path.join(path, "weights.bin"), dtype="<f8")
        params = {}
        for t in manifest["tensors"]:
            start = t["offset"] // 8
            size = int(np.prod(t["shape"]))
            params[t["name"]] = blob[start:start + size].reshape(t["shape"])
        return cls(params, [i for i, _ in vocab["items"]], vocab["items"],
                   vocab["categories"], vocab["users"], config["lam"])

    @classmethod
    def from_model(cls, model):
        params = {name: np.array(arr) for name, arr in model.params.items()}
        return cls(params, model.item_ids, model.item_category,
                   model.category_ids, model.user_ids, model.config.lam)

    def rows(self, req):
        """(user row, item rows, category rows) of a request dict."""
        items = [c["item_id"] for c in req["candidates"]]
        item_rows = np.array([self.item_row[i] for i in items])
        cat_rows = np.array([self.cat_row[self.item_category[i]]
                             for i in items])
        return self.user_row[req["user_id"]], item_rows, cat_rows

    def accuracy(self, req):
        """sigmoid(MLP([u, e, c, u*e, u*c])) per candidate."""
        P = self.params
        u, items, cats = self.rows(req)
        eu = np.tile(P["user_emb"][u], (len(items), 1))
        ei, ec = P["item_emb"][items], P["cat_emb"][cats]
        x = np.hstack([eu, ei, ec, eu * ei, eu * ec])
        h = np.maximum(x @ P["mlp_w1"] + P["mlp_b1"], 0.0)
        h = np.maximum(h @ P["mlp_w2"] + P["mlp_b2"], 0.0)
        return sigmoid((h @ P["mlp_w3"] + P["mlp_b3"])[:, 0])

    def greedy(self, req, K):
        """Exact incremental greedy MMR: picks and per-step gains.

        acc + lam * (1 - max similarity to the picked set), where the max
        is one running vector updated once per pick; ties go to the
        smaller candidate index (first argmax).
        """
        u, items, _ = self.rows(req)
        acc = self.accuracy(req)
        ew = self.params["item_emb"][items] * self.params["user_emb"][u]
        first = int(np.argmax(acc))
        picks, gains = [first], [float(acc[first])]
        chosen = np.zeros(len(acc), dtype=bool)
        chosen[first] = True
        max_sim = sigmoid(ew @ ew[first])
        for _ in range(1, K):
            gain = acc + self.lam * (1.0 - max_sim)
            gain[chosen] = -np.inf
            best = int(np.argmax(gain))
            picks.append(best)
            gains.append(float(gain[best]))
            chosen[best] = True
            np.maximum(max_sim, sigmoid(ew @ ew[best]), out=max_sim)
        return picks, gains


# ---------------------------------------------------------------------------
# per-output checks


def check_ranked_list(req, ranked, scores, K):
    """A fused Top-K list against the scores it was drawn from."""
    rid = req["request_id"]
    n = len(req["candidates"])
    scores = np.asarray(scores, dtype=np.float64)
    idx = np.asarray(ranked.item_idx)
    m = min(K, n)
    if len(scores) != n or not np.all(np.isfinite(scores)):
        _fail(f"{rid}: fused scores are not {n} finite values")
    if len(idx) != m:
        _fail(f"{rid}: list holds {len(idx)} positions, expected {m}")
    if idx.min() < 0 or idx.max() >= n or len(set(idx.tolist())) != m:
        _fail(f"{rid}: list positions are not distinct valid candidates")
    got = np.asarray(ranked.scores, dtype=np.float64)
    if not np.all(np.isfinite(got)) or not np.array_equal(got, scores[idx]):
        _fail(f"{rid}: list scores are not the candidates' fused scores")
    step = np.diff(got)
    if np.any(step > 0):
        _fail(f"{rid}: list scores increase")
    if np.any((step == 0) & (np.diff(idx) < 0)):
        _fail(f"{rid}: a tie is not broken to the smaller index")
    if not np.array_equal(idx, np.argsort(-scores, kind="stable")[:m]):
        _fail(f"{rid}: list is not the top {m} of a stable full sort")
    ids = [req["candidates"][i]["item_id"] for i in idx]
    if list(ranked.item_ids) != ids:
        _fail(f"{rid}: list item ids do not match its positions")


def check_accuracy(req, weights, acc_scores):
    ref = weights.accuracy(req)
    err = float(np.max(np.abs(np.asarray(acc_scores) - ref)))
    if not err <= 1e-12:
        _fail(f"{req['request_id']}: gamma=0 scores differ from the "
              f"numpy MLP forward by {err:.3g}")


def check_probabilities(req, probs):
    p = np.asarray(probs, dtype=np.float64)
    if len(p) != len(req["candidates"]) or not np.all((p > 0) & (p < 1)):
        _fail(f"{req['request_id']}: student probabilities outside (0, 1)")


def check_mmr(req, weights, labeling, K):
    picks, gains = weights.greedy(req, K)
    got = [int(i) for i in labeling.winning_idx]
    for step, (want, have) in enumerate(zip(picks, got)):
        if want != have:
            _fail(f"{req['request_id']}: MMR step {step} picked {have}, "
                  f"the incremental greedy picks {want}")
    if len(got) != K:
        _fail(f"{req['request_id']}: MMR picked {len(got)} of K={K}")
    err = float(np.max(np.abs(np.asarray(labeling.gains) - gains)))
    if not err <= 1e-9:
        _fail(f"{req['request_id']}: MMR gains differ by {err:.3g}")
    y = np.asarray(labeling.y_tea)
    if y.sum() != K or not np.all(y[picks] == 1.0):
        _fail(f"{req['request_id']}: teacher labels do not mark the picks")


def pairwise_auc(labels, scores):
    """Share of (positive, negative) pairs ordered right, ties half."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    pos, neg = scores[labels == 1], scores[labels == 0]
    diff = pos[:, None] - neg[None, :]
    return float(((diff > 0).sum() + 0.5 * (diff == 0).sum()) / diff.size)


def check_training(history, warm_epochs, joint_epochs):
    phases = [h.get("phase") for h in history]
    if phases != ["warmup"] * warm_epochs + ["joint"] * joint_epochs:
        _fail(f"training ran epochs {phases}, expected {warm_epochs} "
              f"warm-up and {joint_epochs} joint")
    for h in history:
        for key, value in h.items():
            if key.endswith(("bce", "kd", "infonce", "total")) \
                    and not np.isfinite(value):
                _fail(f"epoch {h['epoch']} ({h['phase']}): {key}={value}")


def check_auc(aucs, floor):
    mean = float(np.mean(aucs))
    if not mean > floor:
        _fail(f"held-out student AUC vs teacher labels {mean:.4f} "
              f"is not above {floor}")
    return mean


def list_quality(req, weights, idx):
    """(ILAD of the list, recall of the list or None without positives)."""
    items = [req["candidates"][i]["item_id"] for i in idx]
    E = weights.params["item_emb"][[weights.item_row[i] for i in items]]
    unit = E / np.linalg.norm(E, axis=1, keepdims=True)
    m = len(unit)
    cos = unit @ unit.T
    ilad = 1.0 - (cos.sum() - np.trace(cos)) / (m * (m - 1)) if m >= 2 else None
    labels = [c.get("label") for c in req["candidates"]]
    positives = sum(1 for y in labels if y == 1)
    recall = None if positives == 0 else \
        sum(1 for i in idx if labels[i] == 1) / positives
    return ilad, recall


def check_report(report, lists, reqs, weights):
    """evaluate_model's ILAD and recall against lists rescored here."""
    ilads, recalls = [], []
    for req, idx in zip(reqs, lists):
        ilad, recall = list_quality(req, weights, idx)
        if ilad is not None:
            ilads.append(ilad)
        if recall is not None:
            recalls.append(recall)
    for name, mine in (("ilad", ilads), ("recall", recalls)):
        want = float(np.mean(mine)) if mine else 0.0
        have = getattr(report, name)
        if not abs(have - want) <= 1e-9:
            _fail(f"evaluate_model {name}@{report.K} gamma={report.gamma}: "
                  f"{have!r}, recomputed {want!r}")
