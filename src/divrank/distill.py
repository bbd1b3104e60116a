"""Student win-probability head, distillation losses, the two-phase
training loop and checkpoint persistence.

Training is define-by-run: each SGD step records one batched block on one
tape (batch_loss). The candidates of all the batch's requests are stacked
as rows; each target attends over its own request's context pool, padded
to the batch's widest pool and masked, and pools its contexts through
dense (N, |pool|) weights, as serving does. The loss of one request is
batch_loss over a batch of one.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import zlib
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import autodiff as ad
from . import backbone as bb
from . import cce
from . import teacher as teach
from .autodiff import ParamStore, Tensor
from .backbone import TrainConfig, VocabError
from .data import Dataset, split_train_eval

# most requests one stacked teacher pass labels; bounds its (R, n, d) work
# arrays to stay cache-sized
LABEL_CHUNK = 64

# most target rows one block of the serving forward takes; bounds its
# (2, rows, |pool|) softmax work arrays to stay cache-sized at pre-ranking
# sizes, while a request of up to this many candidates is one block
ROW_BLOCK = 512


class TrainingDiverged(RuntimeError):
    pass


class CheckpointError(ValueError):
    pass


class CDMModel:
    """Backbone + CCE student over a fixed vocabulary."""

    def __init__(self, config: TrainConfig, item_categories: dict,
                 category_ids: list, user_ids: list,
                 params: ParamStore | None = None):
        self.config = config
        self.item_category = dict(item_categories)  # item_id -> category_id
        self.item_ids = list(item_categories)
        self.category_ids = list(category_ids)
        self.user_ids = list(user_ids)
        self._item_row = {k: i for i, k in enumerate(self.item_ids)}
        self._cat_row = {k: i for i, k in enumerate(self.category_ids)}
        self._user_row = {k: i for i, k in enumerate(self.user_ids)}
        # category row of each item row, so decoding is one lookup per id
        self._item_cat_row = np.array(
            [self._cat_row[c] for c in self.item_category.values()],
            dtype=np.int64)
        if params is None:
            params = ParamStore()
            rng = np.random.default_rng(
                np.random.SeedSequence([config.seed, 0x1417]))
            bb.init_backbone(params, len(self.item_ids), len(self.category_ids),
                             len(self.user_ids), config.d, rng,
                             emb_scale=config.emb_init_scale)
            cce.init_cce(params, config.d, rng)
        self.params = params

    @classmethod
    def from_dataset(cls, dataset: Dataset, config: TrainConfig):
        items = dataset.items
        return cls(config, {iid: items[iid] for iid in dataset.item_vocab},
                   dataset.category_vocab, dataset.user_vocab)

    # --- decoding ------------------------------------------------------

    def request_arrays(self, request) -> "RequestRows":
        """The request as this model's rows; unknown ids raise VocabError."""
        ids = request.item_ids
        try:
            item_idx = np.fromiter(map(self._item_row.__getitem__, ids),
                                   dtype=np.int64, count=len(ids))
        except KeyError as e:
            raise VocabError(f"unknown item id: {e.args[0]!r}") from None
        if request.user_id not in self._user_row:
            raise VocabError(f"unknown user id: {request.user_id!r}")
        return RequestRows(
            self._user_row[request.user_id], item_idx,
            self._item_cat_row[item_idx],
            np.array(request.labels, dtype=np.int64),
            (self.config.seed << 32)
            ^ zlib.crc32(request.request_id.encode("utf-8")), self.config)

    # --- detached (eval-mode) scoring ----------------------------------

    def acc_scores(self, rows: "RequestRows") -> np.ndarray:
        return bb.score_all_detached(self.params, rows.u_idx, rows.item_idx,
                                     rows.cat_idx)

    def student_scores(self, rows: "RequestRows") -> np.ndarray:
        return win_probabilities_detached(self.params, rows, self.config)

    def win_probabilities(self, request) -> np.ndarray:
        return self.student_scores(self.request_arrays(request))


@dataclass(eq=False)
class RequestRows:
    """One request decoded to model rows: the user's row, each candidate's
    item row, category row and label (-1 when never shown), and the seed
    of its context pool. The pool is drawn on first use, under config's
    max_context_pool, and then kept."""

    u_idx: int
    item_idx: np.ndarray
    cat_idx: np.ndarray
    labels: np.ndarray
    pool_seed: int
    config: TrainConfig

    @cached_property
    def pool(self) -> np.ndarray:
        return context_pool(len(self.item_idx), self.config, self.pool_seed)


def context_pool(n: int, config: TrainConfig, pool_seed: int) -> np.ndarray:
    """Sorted candidate positions whose keys and values every target of a
    request attends over: all n when n <= max_context_pool, otherwise a
    subsample of max_context_pool drawn from pool_seed. Training and
    serving both take their contexts from this pool."""
    if n <= config.max_context_pool:
        return np.arange(n)
    prng = np.random.default_rng(pool_seed)
    return np.sort(prng.choice(n, size=config.max_context_pool,
                               replace=False))


def win_probabilities_detached(params: ParamStore, rows: RequestRows,
                               config: TrainConfig) -> np.ndarray:
    """Serving path: numpy-only student forward over the request's context
    pool, zero noise, dropout off.

    Targets run in blocks of at most ROW_BLOCK rows, split as evenly as
    possible. A row's arithmetic does not depend on its block, so the
    output is bitwise that of one block over all rows.
    """
    d = config.d
    k = config.k
    n = len(rows.item_idx)
    cce.check_pool(k, n)
    pool = rows.pool
    E = params["item_emb"][rows.item_idx]
    E_pool = E[pool]
    keys = (E_pool @ params["cce_w2"]).T
    # pooling is one gemm per side against the pool's value rows, with the
    # user gate folded into those rows, written into the FFN input's halves
    uv = (E_pool @ params["cce_w3"]) * params["user_emb"][rows.u_idx]
    z = np.empty(n)
    blocks = -(-n // ROW_BLOCK)
    edges = [n * i // blocks for i in range(blocks + 1)]
    # the pool is sorted, so the columns a block's rows own are one slice
    own = np.searchsorted(pool, edges)
    for a, b, lo, hi in zip(edges, edges[1:], own, own[1:]):
        q = E[a:b] @ params["cce_w1"]
        w = (q / math.sqrt(d)) @ keys
        att = _context_weights(w, pool[lo:hi] - a, np.arange(lo, hi), k)
        x = np.empty((b - a, 2, d))
        np.matmul(att, uv, out=x.transpose(1, 0, 2))
        h = x.reshape(b - a, 2 * d) @ params["ffn_w1"]
        h += params["ffn_b1"]
        np.maximum(h, 0.0, out=h)
        c = h @ params["ffn_w2"]
        c += params["ffn_b2"]
        z[a:b] = np.einsum("ij,ij->i", q, c)
    return ad.sigmoid(z, out=z)


def _context_weights(w, own_rows, own_cols, k):
    """Zero-noise pooling weights of the (n, m) attention scores w of n
    targets over a context pool of m candidates, where target own_rows[j]
    is the candidate of column own_cols[j].

    Returns a (2, n, m) array: [0] holds each row's softmax over its k
    highest scores (positive side), [1] over its k lowest (negative
    side), each shifted by its own largest pick. A row never picks its
    own column, and every other entry is 0. Overwrites the own scores in w
    with +inf.

    Picks are read off one sort of the score values: everything at or
    beyond the k-th value from each end. Where equal scores straddle a
    threshold (duplicated items give equal keys), the row keeps its scores
    strictly beyond the threshold plus the lowest columns tied at it, k in
    all.
    """
    n, m = w.shape
    # an own score of +inf sorts last, so an owning row's highest other
    # scores sit one place further in
    w[own_rows, own_cols] = np.inf
    # top, k-th largest and k-th smallest score of each row, and the
    # next score in from each threshold
    ranks = np.array([m - 1, m - k, k - 1, m - k - 1, k])
    s = np.sort(w, axis=1)
    lim = s[:, ranks].T
    lim[:, own_rows] = s[own_rows[:, None], ranks - [1, 1, 0, 1, 0]].T
    top, thr_pos, thr_neg, next_pos, next_neg = lim
    picks = np.empty((2, n, m), dtype=bool)
    np.greater_equal(w, thr_pos[:, None], out=picks[0])
    picks[0, own_rows, own_cols] = False
    np.less_equal(w, thr_neg[:, None], out=picks[1])
    # a side holds more than k picks exactly where the next score in
    # equals its threshold
    for side, thr, nxt in ((picks[0], thr_pos, next_pos),
                           (picks[1], thr_neg, next_neg)):
        tied = np.flatnonzero(nxt == thr)
        if tied.size:
            sel = side[tied]
            at = sel & (w[tied] == thr[tied, None])
            short = k - np.count_nonzero(sel & ~at, axis=1)
            side[tied] = sel & (~at | (np.cumsum(at, axis=1)
                                       <= short[:, None]))
    return ad.masked_softmax(w, picks, lim[[0, 2]])


# ---------------------------------------------------------------------------
# losses


def _draw_noise(rng, row_off, n_shown, ms, config):
    """One training step's noise, drawn from rng in the order a loop over
    the batch's requests draws it: per request, MLP dropout for both
    layers over its shown rows, then, with context pools ms, Gumbel
    uniforms for the positive and the negative side and FFN dropout.

    Returns (mlp, gumbel, ffn): the keep multipliers (u >= p) / (1 - p)
    of both MLP layers, stacked over requests; both sides' (2, N, widest
    pool) uniforms, padded with 0.5; the FFN keep multipliers. Each is
    None when its noise is off.
    """
    p = config.dropout
    h1, h2 = bb.hidden_sizes(config.d)
    mlp1, mlp2, ffn = [], [], []
    gumbel = None if ms is None else np.full((2, row_off[-1], max(ms)), 0.5)
    for r, (a, b) in enumerate(zip(row_off[:-1], row_off[1:])):
        if p > 0.0 and n_shown[r] > 0:
            mlp1.append(rng.random((n_shown[r], h1)))
            mlp2.append(rng.random((n_shown[r], h2)))
        if ms is not None:
            for side in gumbel:
                side[a:b, :ms[r]] = rng.random((b - a, ms[r]))
            if p > 0.0:
                ffn.append(rng.random((b - a, 2 * config.d)))

    def keep(draws):
        return (np.concatenate(draws) >= p) / (1.0 - p) if draws else None

    mlp = (keep(mlp1), keep(mlp2)) if mlp1 else None
    return mlp, gumbel, keep(ffn)


def batch_loss(P, batch, y_teas, config: TrainConfig, rng=None):
    """Joint loss of a batch of requests as one block on P's tape.

    batch holds one RequestRows per request and y_teas its teacher
    labels; y_teas=None computes only the accuracy BCE (the warm-up loss),
    which reads no context pool. The candidates of all requests are
    stacked as rows. Each target attends over the keys and values of its
    own request's context pool (candidate positions rows.pool); pool
    columns are padded to the widest pool and masked.

    The loss and each component are the mean over requests of that
    request's own mean: rows are weighted 1/(B*n_r), BCE covers only
    shown rows, and a request with no shown rows adds 0 to the BCE.

    Training passes rng: _draw_noise draws the step's Gumbel uniforms and
    dropout keeps from it, each request's in request order, so a batch
    uses the random numbers a loop over its requests would. rng=None
    (validation) turns both Gumbel noise and dropout off.

    Returns (total, components dict of Tensors); z_stu holds the student
    logits of all rows.
    """
    B = len(batch)
    joint = y_teas is not None
    ns = np.array([len(r.item_idx) for r in batch])
    n_shown = np.array([np.count_nonzero(r.labels >= 0) for r in batch])
    row_off = np.concatenate(([0], np.cumsum(ns)))
    users = np.repeat([r.u_idx for r in batch], ns)
    items = np.concatenate([r.item_idx for r in batch])
    labels = np.concatenate([r.labels for r in batch])
    shown = np.flatnonzero(labels >= 0)
    ms = None
    if joint:
        pools = [r.pool for r in batch]
        ms = np.array([len(p) for p in pools])
        cce.check_pool(config.k, ms.min())
    mlp_keep = gumbel_u = ffn_keep = None
    if rng is not None:
        mlp_keep, gumbel_u, ffn_keep = _draw_noise(rng, row_off, n_shown, ms,
                                                   config)

    components = {}
    if shown.size > 0:
        z_shown = bb.score_logits(
            P, users[shown], items[shown],
            np.concatenate([r.cat_idx for r in batch])[shown], mlp_keep)
        weights = 1.0 / (B * np.repeat(n_shown, n_shown))
        loss_bce = bb.bce_loss(z_shown, labels[shown], weights)
    else:
        loss_bce = Tensor(0.0)
    components["bce"] = loss_bce
    if not joint:
        return loss_bce, components

    pool_off = np.concatenate(([0], np.cumsum(ms)))
    pool_rows = np.concatenate([r0 + p for r0, p in zip(row_off, pools)])
    E = ad.gather_rows(P["item_emb"], items)
    # pools of all n positions are E itself: no gather node on the tape
    E_pool = E if len(pool_rows) == len(items) \
        else ad.gather_rows(E, pool_rows)
    segments = (row_off, pool_off)
    q = ad.matmul(E, P["cce_w1"])
    w = cce.attention_scores_all(P, q, E_pool, segments)
    # mask padding columns and each target's own column: target
    # pool[j] of a request is its column j
    mask = np.where(np.arange(ms.max()) < np.repeat(ms, ns)[:, None], 0.0,
                    cce.MASK_VALUE)
    pool_cols = np.arange(len(pool_rows)) - np.repeat(pool_off[:-1], ms)
    mask[pool_rows, pool_cols] = cce.MASK_VALUE
    a_pos, a_neg = cce.sample_contexts(w, mask, config.k, gumbel_u)
    values = ad.matmul(E_pool, P["cce_w3"])
    c_pos = ad.segment_matmul(a_pos, values, *segments)
    c_neg = ad.segment_matmul(a_neg, values, *segments)

    row_w = 1.0 / (B * np.repeat(ns, ns))
    loss_nce = cce.infonce_loss(q, c_pos, c_neg, config.infonce_t, row_w)
    components["infonce"] = loss_nce

    u_rows = ad.gather_rows(P["user_emb"], users)
    c_fused = cce.fuse_context(u_rows, c_pos, c_neg, P, ffn_keep)
    z = ad.tsum(ad.mul(q, c_fused), axis=1)
    loss_kd = bb.bce_loss(z, np.concatenate(y_teas), row_w)
    components["kd"] = loss_kd
    components["z_stu"] = z

    total = ad.add(loss_bce,
                   ad.add(ad.scale(loss_kd, config.beta1),
                          ad.scale(loss_nce, config.beta2)))
    return total, components


# ---------------------------------------------------------------------------
# training


def _teacher_k(config, n):
    """Teacher picks for a request of n candidates: K_teacher, or
    ceil(0.2 * n)."""
    return config.K_teacher or math.ceil(0.2 * n)


def _refresh_labels(model: CDMModel, split, config):
    """Teacher labels per request, _teacher_k picks each.

    Requests of equal candidate count n share K, so they are labelled in
    stacked greedy passes of up to LABEL_CHUNK requests, grouped in the
    order each n first appears.
    """
    by_n = {}
    for i, rows in enumerate(split):
        by_n.setdefault(len(rows.item_idx), []).append(i)
    labels = [None] * len(split)
    for n, members in by_n.items():
        K = _teacher_k(config, n)
        for start in range(0, len(members), LABEL_CHUNK):
            chunk = members[start:start + LABEL_CHUNK]
            y_tea = teach.mmr_labels(model, [split[i] for i in chunk],
                                     config.lam, K)
            for i, y in zip(chunk, y_tea):
                labels[i] = y
    return labels


def _check_trainable(requests, split, config):
    """Refuse, before any epoch runs, a request the joint phase cannot
    train on: one with fewer candidates than its teacher picks, or a
    context pool too small for k contexts per side."""
    for req, rows in zip(requests, split):
        n = len(rows.item_idx)
        try:
            teach.check_size(_teacher_k(config, n), n)
            cce.check_pool(config.k, len(rows.pool))
        except ValueError as e:
            raise type(e)(f"request {req.request_id!r}: {e}") from None


def _check_finite(value, epoch, step):
    """step=None stands for the epoch's validation."""
    if not np.isfinite(value):
        at = "validation" if step is None else f"step {step}"
        raise TrainingDiverged(
            f"non-finite loss at epoch {epoch}, {at}: {value}")


def _loss_keys(labels):
    """The losses history reports: the warm-up's BCE (labels=None), or the
    joint loss and its three components."""
    return ("bce",) if labels is None else ("total", "bce", "kd", "infonce")


def _epoch(model, split, labels, config, rng, epoch):
    """One epoch of SGD over split in a fresh random order, batch_size
    requests a step; returns each reported loss as the mean over steps.

    labels holds each request's teacher labels; labels=None is the
    warm-up. Its BCE is a mean over requests with a shown label, so each
    slice of the order keeps only those, and a slice left empty takes no
    step.
    """
    order = rng.permutation(len(split))
    sums = {key: [] for key in _loss_keys(labels)}
    for step, start in enumerate(range(0, len(order), config.batch_size)):
        idx = order[start:start + config.batch_size]
        if labels is None:
            idx = [i for i in idx if np.any(split[i].labels >= 0)]
            if not idx:
                continue
        tape = ad.Tape()
        P = model.params.leaves(tape)
        loss, comps = batch_loss(
            P, [split[i] for i in idx],
            None if labels is None else [labels[i] for i in idx], config,
            rng=rng)
        _check_finite(loss.item(), epoch, step)
        tape.backward(loss)
        model.params.sgd_step(P, config.lr)
        comps["total"] = loss
        for key, values in sums.items():
            values.append(comps[key].item())
    return {key: float(np.mean(values)) if values else 0.0
            for key, values in sums.items()}


def _val_loss(model, split, labels, config):
    """Eval-mode batch_loss over split, batch_size requests at a time;
    returns each reported loss as the mean over requests. labels=None is
    the warm-up, which covers only the requests with a shown label."""
    if labels is None:
        split = [rows for rows in split if np.any(rows.labels >= 0)]
    P = {name: Tensor(arr) for name, arr in model.params.items()}
    sums = dict.fromkeys(_loss_keys(labels), 0.0)
    for start in range(0, len(split), config.batch_size):
        stop = start + config.batch_size
        total, comps = batch_loss(
            P, split[start:stop],
            None if labels is None else labels[start:stop], config)
        comps["total"] = total
        share = len(split[start:stop]) / len(split)
        for key in sums:
            sums[key] += share * comps[key].item()
    return sums


def train(dataset: Dataset, config: TrainConfig, val_dataset: Dataset | None = None):
    """Two-phase training; returns (best model, history list of dicts)."""
    config.validate()
    if val_dataset is None:
        train_ds, val_ds = split_train_eval(dataset, config.eval_fraction,
                                            config.seed)
    else:
        train_ds, val_ds = dataset, val_dataset

    model = CDMModel.from_dataset(train_ds, config)
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0x7EA]))

    train_rows = [model.request_arrays(req) for req in train_ds.requests]
    val_rows = [model.request_arrays(req) for req in val_ds.requests]
    if config.joint_epochs > 0:
        _check_trainable(train_ds.requests, train_rows, config)
        _check_trainable(val_ds.requests, val_rows, config)
    history = []

    def run_epoch(phase, epoch, train_labels, val_labels):
        """One epoch and its validation, logged to history; returns the
        validation losses."""
        train_loss = _epoch(model, train_rows, train_labels, config, rng,
                            epoch)
        val_loss = _val_loss(model, val_rows, val_labels, config)
        for value in val_loss.values():
            _check_finite(value, epoch, None)
        history.append({"phase": phase, "epoch": epoch,
                        **{f"train_{k}": v for k, v in train_loss.items()},
                        **{f"val_{k}": v for k, v in val_loss.items()}})
        return val_loss

    # phase 1: backbone-only BCE warm-up over the requests with shown labels
    for epoch in range(config.warm_epochs):
        run_epoch("warmup", epoch, None, None)

    # phase 2: joint loss with per-epoch teacher refresh
    best_params = model.params.copy()
    best_val = math.inf
    stale = 0
    for epoch in range(config.joint_epochs):
        val_total = run_epoch("joint", epoch,
                              _refresh_labels(model, train_rows, config),
                              _refresh_labels(model, val_rows, config))["total"]
        if val_total < best_val:
            best_val = val_total
            best_params = model.params.copy()
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                history[-1]["early_stop"] = True
                break

    model.params = best_params
    return model, history


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(model: CDMModel, path, history=None):
    """Write a checkpoint directory without ever exposing a partial one.

    Every file is written into a temporary sibling directory first. A new
    path is that directory renamed into place; into an existing directory
    the files are renamed one by one, a history.json left from an earlier
    save is removed when this one has none, and other files stay. A
    failed write leaves the path as it was.
    """
    path = os.path.normpath(path)
    parent = os.path.dirname(path) or "."
    os.makedirs(parent, exist_ok=True)
    tmp = os.path.join(parent, f".{os.path.basename(path)}.tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    os.mkdir(tmp)
    try:
        _write_checkpoint(model, tmp, history)
        if not os.path.exists(path):
            os.rename(tmp, path)
            return
        for name in sorted(os.listdir(tmp)):
            os.replace(os.path.join(tmp, name), os.path.join(path, name))
        if history is None and os.path.exists(
                os.path.join(path, "history.json")):
            os.remove(os.path.join(path, "history.json"))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _write_checkpoint(model: CDMModel, path, history):
    manifest = []
    offset = 0
    with open(os.path.join(path, "weights.bin"), "wb") as fh:
        for name in sorted(model.params.names()):
            arr = np.ascontiguousarray(model.params[name], dtype="<f8")
            manifest.append({"name": name, "shape": list(arr.shape),
                             "offset": offset, "nbytes": arr.nbytes})
            fh.write(arr.data)
            offset += arr.nbytes
    with open(os.path.join(path, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump({"tensors": manifest, "total_bytes": offset}, fh, indent=2)
    with open(os.path.join(path, "config.json"), "w", encoding="utf-8") as fh:
        json.dump(model.config.to_dict(), fh, indent=2)
    vocab = {"items": [[iid, model.item_category[iid]]
                       for iid in model.item_ids],
             "categories": model.category_ids,
             "users": model.user_ids}
    with open(os.path.join(path, "vocab.json"), "w", encoding="utf-8") as fh:
        json.dump(vocab, fh)
    if history is not None:
        with open(os.path.join(path, "history.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(history, fh, indent=2)


def load_checkpoint(path) -> CDMModel:
    with open(os.path.join(path, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    with open(os.path.join(path, "config.json"), encoding="utf-8") as fh:
        config = TrainConfig.from_dict(json.load(fh))
    with open(os.path.join(path, "vocab.json"), encoding="utf-8") as fh:
        vocab = json.load(fh)
    with open(os.path.join(path, "weights.bin"), "rb") as fh:
        blob = fh.read()

    # each id names one row, and every item's category has a row
    item_categories = dict(vocab["items"])
    for field, ids in (("item", [iid for iid, _ in vocab["items"]]),
                       ("category", vocab["categories"]),
                       ("user", vocab["users"])):
        twice = [i for i, count in Counter(ids).items() if count > 1]
        if twice:
            raise CheckpointError(
                f"vocab.json lists {field} ids more than once: {twice}")
    unknown = set(item_categories.values()) - set(vocab["categories"])
    if unknown:
        raise CheckpointError(
            f"vocab.json items name unknown categories: {sorted(unknown)}")

    tensors = manifest["tensors"]
    # every table must fit the vocabulary and width the model will index
    expected = {**bb.param_shapes(len(vocab["items"]),
                                  len(vocab["categories"]),
                                  len(vocab["users"]), config.d),
                **cce.param_shapes(config.d)}
    end = 0
    params = ParamStore()
    for entry in tensors:
        name = entry["name"]
        if name not in expected:
            raise CheckpointError(f"unknown tensor name in manifest: {name!r}")
        if entry["offset"] != end:
            raise CheckpointError("manifest offsets overlap or leave gaps")
        shape = tuple(entry["shape"])
        if shape != expected[name]:
            raise CheckpointError(
                f"tensor {name!r} has shape {list(shape)}; the vocabulary "
                f"and d={config.d} need {list(expected[name])}")
        nbytes = entry["nbytes"]
        if nbytes != int(np.prod(shape)) * 8:
            raise CheckpointError(f"byte length mismatch for {name!r}")
        if end + nbytes > len(blob):
            raise CheckpointError("weights.bin truncated")
        arr = np.frombuffer(blob, dtype="<f8", count=nbytes // 8,
                            offset=end).reshape(shape)
        params.add(name, arr.copy())
        end += nbytes
    if end != len(blob) or end != manifest.get("total_bytes", end):
        raise CheckpointError("weights.bin size does not match manifest")
    missing = expected.keys() - set(params.names())
    if missing:
        raise CheckpointError(f"checkpoint missing tensors: {sorted(missing)}")

    return CDMModel(config, item_categories, vocab["categories"],
                    vocab["users"], params=params)
