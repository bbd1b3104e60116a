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

import numpy as np
from scipy.special import expit

from . import autodiff as ad
from . import backbone as bb
from . import cce
from . import teacher as teach
from .autodiff import ParamStore, Tensor
from .backbone import TrainConfig, VocabError
from .data import Dataset, split_train_eval

ALL_PARAM_NAMES = bb.BACKBONE_PARAM_NAMES + cce.CCE_PARAM_NAMES


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

    # --- vocabulary surfaces -------------------------------------------

    def user_index(self, user_id: str) -> int:
        if user_id not in self._user_row:
            raise VocabError(f"unknown user id: {user_id!r}")
        return self._user_row[user_id]

    def request_arrays(self, request):
        """(item rows, category rows, labels) of a request's candidates."""
        ids = request.item_ids
        try:
            item_idx = np.fromiter(map(self._item_row.__getitem__, ids),
                                   dtype=np.int64, count=len(ids))
        except KeyError as e:
            raise VocabError(f"unknown item id: {e.args[0]!r}") from None
        return (item_idx, self._item_cat_row[item_idx],
                np.array(request.labels, dtype=np.int64))

    # --- detached (eval-mode) scoring ----------------------------------

    def acc_scores(self, u_idx: int, item_idx, cat_idx) -> np.ndarray:
        return bb.score_all_detached(self.params, u_idx, item_idx, cat_idx)

    def win_probabilities(self, request) -> np.ndarray:
        item_idx, cat_idx, _ = self.request_arrays(request)
        u_idx = self.user_index(request.user_id)
        return win_probabilities_detached(
            self.params, u_idx, item_idx, self.config,
            pool_seed=request_pool_seed(self.config.seed, request.request_id))

    def copy(self) -> "CDMModel":
        return CDMModel(self.config, self.item_category, self.category_ids,
                        self.user_ids, params=self.params.copy())


def request_pool_seed(seed: int, request_id: str) -> int:
    import zlib
    return (seed << 32) ^ zlib.crc32(request_id.encode("utf-8"))


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


def win_probabilities_detached(params: ParamStore, u_idx: int, item_idx,
                               config: TrainConfig,
                               pool_seed: int = 0) -> np.ndarray:
    """Serving path: numpy-only student forward over the request's context
    pool, zero noise, dropout off."""
    d = config.d
    k = config.k
    item_idx = np.asarray(item_idx, dtype=np.int64)
    n = len(item_idx)
    if 2 * k > n - 1:
        raise ad.DomainError(f"2k={2 * k} exceeds usable pool {n - 1}")
    E = params["item_emb"][item_idx]
    pool = context_pool(n, config, pool_seed)
    E_pool = E[pool]
    q = E @ params["cce_w1"]
    w = (q / math.sqrt(d)) @ (E_pool @ params["cce_w2"]).T
    a = _context_weights(w, pool, k)
    # pooling is one gemm per side against the pool's value rows, with the
    # user gate folded into those rows, written into the FFN input's halves
    uv = (E_pool @ params["cce_w3"]) * params["user_emb"][u_idx]
    x = np.empty((n, 2, d))
    np.matmul(a, uv, out=x.transpose(1, 0, 2))
    h = x.reshape(n, 2 * d) @ params["ffn_w1"]
    h += params["ffn_b1"]
    np.maximum(h, 0.0, out=h)
    c = h @ params["ffn_w2"]
    c += params["ffn_b2"]
    return expit(np.einsum("ij,ij->i", q, c))


def _context_weights(w, pool, k):
    """Zero-noise pooling weights of the (n, m) attention scores w over a
    context pool of m candidates, where target pool[j] is column j.

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
    cols = np.arange(m)
    # an own score of +inf sorts last, so a pool row's highest other
    # scores sit one place further in
    w[pool, cols] = np.inf
    # top, k-th largest and k-th smallest score of each row
    ranks = np.array([m - 1, m - k, k - 1])
    s = np.sort(w, axis=1)
    lim = s[:, ranks].T
    lim[:, pool] = s[pool[:, None], ranks - [1, 1, 0]].T
    top, thr_pos, thr_neg = lim
    picks = np.empty((2, n, m), dtype=bool)
    np.greater_equal(w, thr_pos[:, None], out=picks[0])
    picks[0, pool, cols] = False
    np.less_equal(w, thr_neg[:, None], out=picks[1])
    # a row holds more than k picks only where scores tie at a threshold
    if np.count_nonzero(picks) > 2 * n * k:
        for side, thr in ((picks[0], thr_pos), (picks[1], thr_neg)):
            tied = np.flatnonzero(np.count_nonzero(side, axis=1) > k)
            sel = side[tied]
            at = sel & (w[tied] == thr[tied, None])
            short = k - np.count_nonzero(sel & ~at, axis=1)
            side[tied] = sel & (~at | (np.cumsum(at, axis=1)
                                       <= short[:, None]))
    # every pick lies at or below its side's shift; clamping the rest at 0
    # keeps exp finite before the mask zeroes them
    a = np.subtract(w, lim[[0, 2], :, None])
    np.minimum(a, 0.0, out=a)
    np.exp(a, out=a)
    a *= picks
    a *= 1.0 / (a.reshape(2 * n, m) @ np.ones(m)).reshape(2, n, 1)
    return a


# ---------------------------------------------------------------------------
# losses


def _kd_from_logits(z: Tensor, y_tea, weights=None) -> Tensor:
    # softplus(z) - y*z == -y log(sigma) - (1-y) log(1-sigma), stable
    terms = ad.sub(ad.softplus(z), ad.mul(np.asarray(y_tea), z))
    return ad.weighted_mean(terms, weights)


class _StackedDraws:
    """Stands in for the generator inside one batched step: call i of
    random() returns block i, the uniforms that every request of the batch
    would have drawn at that call on its own, stacked along rows."""

    def __init__(self, blocks):
        self._blocks = iter(blocks)

    def random(self, shape):
        block = next(self._blocks)
        if block.shape != tuple(shape):
            raise ad.ShapeError(f"pre-drawn block {block.shape} != {shape}")
        return block


def _draw_noise(rng, row_off, n_shown, ms, config):
    """Each request's uniforms in the order a one-request batch draws them
    (MLP dropout x2; with context pools ms, Gumbel for the positive and
    negative sides and FFN dropout), stacked per draw; Gumbel blocks are
    padded to the widest pool."""
    h1, h2 = bb.hidden_sizes(config.d)
    drop = config.dropout > 0.0
    mlp1, mlp2, ffn = [], [], []
    if ms is not None:
        gumbel = np.full((2, row_off[-1], max(ms)), 0.5)
    for r, (a, b) in enumerate(zip(row_off[:-1], row_off[1:])):
        if drop and n_shown[r] > 0:
            mlp1.append(rng.random((n_shown[r], h1)))
            mlp2.append(rng.random((n_shown[r], h2)))
        if ms is not None:
            for side in gumbel:
                side[a:b, :ms[r]] = rng.random((b - a, ms[r]))
            if drop:
                ffn.append(rng.random((b - a, 2 * config.d)))
    blocks = [np.concatenate(p) for p in (mlp1, mlp2) if p]
    if ms is not None:
        blocks += [gumbel[0], gumbel[1]] + ([np.concatenate(ffn)] if drop
                                            else [])
    return _StackedDraws(blocks)


def batch_loss(P, batch, y_teas, config: TrainConfig, rng=None,
               training=False):
    """Joint loss of a batch of requests as one block on P's tape.

    batch holds one (u_idx, item_idx, cat_idx, labels, pool) tuple per
    request and y_teas its teacher labels; y_teas=None computes only the
    accuracy BCE (the warm-up loss). The candidates of all requests are
    stacked as rows. Each target attends over the keys and values of its
    own request's context pool (candidate positions `pool`); pool columns
    are padded to the widest pool and masked.

    The loss and each component are the mean over requests of that
    request's own mean: rows are weighted 1/(B*n_r), BCE covers only
    shown rows, and a request with no shown rows adds 0 to the BCE.
    Training draws each request's noise in request order, so a batch uses
    the random numbers a loop over its requests would.

    Returns (total, components dict of Tensors); z_stu holds the student
    logits of all rows. rng=None disables both Gumbel noise and dropout
    regardless of the training flag.
    """
    B = len(batch)
    joint = y_teas is not None
    users, items, cats, labels, pools = zip(*batch)
    ns = np.array([len(i) for i in items])
    n_shown = np.array([np.count_nonzero(y >= 0) for y in labels])
    row_off = np.concatenate(([0], np.cumsum(ns)))
    users = np.repeat(users, ns)
    items = np.concatenate(items)
    labels = np.concatenate(labels)
    shown = np.flatnonzero(labels >= 0)
    ms = None
    if joint:
        ms = np.array([len(p) for p in pools])
        if 2 * config.k > ms.min() - 1:
            raise ad.DomainError(
                f"2k={2 * config.k} exceeds usable pool {ms.min() - 1}")
    draws = None
    if training and rng is not None:
        draws = _draw_noise(rng, row_off, n_shown, ms, config)
    drop = config.dropout if draws is not None else 0.0

    components = {}
    if shown.size > 0:
        f_shown = ad.sigmoid(bb.score_logits(
            P, users[shown], items[shown], np.concatenate(cats)[shown],
            training=training, dropout=drop, rng=draws))
        weights = 1.0 / (B * np.repeat(n_shown, n_shown))
        loss_bce = bb.bce_loss(f_shown, labels[shown], weights)
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
    a_pos, a_neg = cce.sample_contexts(w, mask, config.k, draws)
    values = ad.matmul(E_pool, P["cce_w3"])
    c_pos = ad.segment_matmul(a_pos, values, *segments)
    c_neg = ad.segment_matmul(a_neg, values, *segments)

    row_w = 1.0 / (B * np.repeat(ns, ns))
    loss_nce = cce.infonce_loss(q, c_pos, c_neg, config.infonce_t, row_w)
    components["infonce"] = loss_nce

    u_rows = ad.gather_rows(P["user_emb"], users)
    c_fused = cce.fuse_context(u_rows, c_pos, c_neg, P, training=training,
                               dropout=drop, rng=draws)
    z = ad.tsum(ad.mul(q, c_fused), axis=1)
    loss_kd = _kd_from_logits(z, np.concatenate(y_teas), row_w)
    components["kd"] = loss_kd
    components["z_stu"] = z

    total = ad.add(loss_bce,
                   ad.add(ad.scale(loss_kd, config.beta1),
                          ad.scale(loss_nce, config.beta2)))
    return total, components


# ---------------------------------------------------------------------------
# training


def _teacher_k(config: TrainConfig, n: int) -> int:
    return config.K_teacher if config.K_teacher is not None \
        else math.ceil(0.2 * n)


def _refresh_labels(model: CDMModel, packed, config):
    out = []
    for u_idx, item_idx, cat_idx, *_ in packed:
        acc = model.acc_scores(u_idx, item_idx, cat_idx)
        ew = model.params["item_emb"][item_idx] * model.params["user_emb"][u_idx]
        K = _teacher_k(config, len(item_idx))
        selected, _gains = teach.mmr_greedy(acc, ew, config.lam, K)
        y = np.zeros(len(item_idx))
        y[selected] = 1.0
        out.append(y)
    return out


def _mean(values):
    return float(np.mean(values)) if values else 0.0


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

    def pack(ds):
        out = []
        for req in ds.requests:
            item_idx, cat_idx, labels = model.request_arrays(req)
            pool = context_pool(len(item_idx), config, request_pool_seed(
                config.seed, req.request_id))
            out.append((model.user_index(req.user_id), item_idx, cat_idx,
                        labels, pool))
        return out

    train_packed = pack(train_ds)
    val_packed = pack(val_ds)
    history = []

    def check_finite(value, epoch, step):
        if not np.isfinite(value):
            raise TrainingDiverged(
                f"non-finite loss at epoch {epoch}, step {step}: {value}")

    # phase 1: backbone-only BCE warm-up over the requests with shown labels
    for epoch in range(config.warm_epochs):
        order = rng.permutation(len(train_packed))
        losses = []
        for step, start in enumerate(range(0, len(order), config.batch_size)):
            # the BCE is a mean over requests with a shown label (field 3)
            batch = [train_packed[i]
                     for i in order[start:start + config.batch_size]
                     if np.any(train_packed[i][3] >= 0)]
            if not batch:
                continue
            tape = ad.Tape()
            P = model.params.leaves(tape)
            loss, _ = batch_loss(P, batch, None, config, rng=rng,
                                 training=True)
            check_finite(loss.item(), epoch, step)
            tape.backward(loss)
            model.params.sgd_step(P, config.lr)
            losses.append(loss.item())
        val_bce = _phase1_val_loss(model, val_packed)
        history.append({"phase": "warmup", "epoch": epoch,
                        "train_bce": _mean(losses), "val_bce": val_bce})

    # phase 2: joint loss with per-epoch teacher refresh
    best_params = model.params.copy()
    best_val = math.inf
    stale = 0
    for epoch in range(config.joint_epochs):
        train_labels = _refresh_labels(model, train_packed, config)
        val_labels = _refresh_labels(model, val_packed, config)
        order = rng.permutation(len(train_packed))
        sums = {"total": [], "bce": [], "kd": [], "infonce": []}
        for step, start in enumerate(range(0, len(order), config.batch_size)):
            batch = order[start:start + config.batch_size]
            tape = ad.Tape()
            P = model.params.leaves(tape)
            loss, comps = batch_loss(
                P, [train_packed[i] for i in batch],
                [train_labels[i] for i in batch], config, rng=rng,
                training=True)
            check_finite(loss.item(), epoch, step)
            tape.backward(loss)
            model.params.sgd_step(P, config.lr)
            sums["total"].append(loss.item())
            for key in ("bce", "kd", "infonce"):
                sums[key].append(comps[key].item())

        val_total, val_comps = _joint_val_loss(model, val_packed, val_labels,
                                               config)
        check_finite(val_total, epoch, -1)
        history.append({"phase": "joint", "epoch": epoch,
                        "train_total": _mean(sums["total"]),
                        "train_bce": _mean(sums["bce"]),
                        "train_kd": _mean(sums["kd"]),
                        "train_infonce": _mean(sums["infonce"]),
                        "val_total": val_total, **val_comps})
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


def _phase1_val_loss(model, packed):
    losses = []
    for u_idx, item_idx, cat_idx, labels, _ in packed:
        shown = np.flatnonzero(labels >= 0)
        if shown.size == 0:
            continue
        f = model.acc_scores(u_idx, item_idx[shown], cat_idx[shown])
        f = np.clip(f, 1e-12, 1.0 - 1e-12)
        y = labels[shown].astype(np.float64)
        losses.append(float(-(y * np.log(f) + (1 - y) * np.log(1 - f)).mean()))
    return _mean(losses)


def _joint_val_loss(model, packed, labels_list, config):
    """Eval-mode joint loss and components, each the mean over requests,
    computed batch_size requests at a time."""
    P = {name: Tensor(arr) for name, arr in model.params.items()}
    sums = {"total": 0.0, "bce": 0.0, "kd": 0.0, "infonce": 0.0}
    for start in range(0, len(packed), config.batch_size):
        stop = start + config.batch_size
        total, comps = batch_loss(P, packed[start:stop],
                                  labels_list[start:stop], config)
        share = len(packed[start:stop]) / len(packed)
        sums["total"] += share * total.item()
        for key in ("bce", "kd", "infonce"):
            sums[key] += share * comps[key].item()
    return sums["total"], {f"val_{key}": sums[key]
                           for key in ("bce", "kd", "infonce")}


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
    blob = bytearray()
    for name in sorted(model.params.names()):
        arr = np.ascontiguousarray(model.params[name], dtype="<f8")
        raw = arr.tobytes()
        manifest.append({"name": name, "shape": list(arr.shape),
                         "offset": offset, "nbytes": len(raw)})
        blob.extend(raw)
        offset += len(raw)
    with open(os.path.join(path, "weights.bin"), "wb") as fh:
        fh.write(bytes(blob))
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

    tensors = manifest["tensors"]
    expected_names = set(ALL_PARAM_NAMES)
    total = 0
    last_end = 0
    params = ParamStore()
    for entry in tensors:
        name = entry["name"]
        if name not in expected_names:
            raise CheckpointError(f"unknown tensor name in manifest: {name!r}")
        if entry["offset"] != last_end:
            raise CheckpointError("manifest offsets overlap or leave gaps")
        shape = tuple(entry["shape"])
        nbytes = entry["nbytes"]
        if nbytes != int(np.prod(shape)) * 8:
            raise CheckpointError(f"byte length mismatch for {name!r}")
        end = entry["offset"] + nbytes
        if end > len(blob):
            raise CheckpointError("weights.bin truncated")
        arr = np.frombuffer(blob, dtype="<f8", count=nbytes // 8,
                            offset=entry["offset"]).reshape(shape)
        params.add(name, arr.copy())
        total += nbytes
        last_end = end
    if total != len(blob) or total != manifest.get("total_bytes", total):
        raise CheckpointError("weights.bin size does not match manifest")
    missing = expected_names - set(params.names())
    if missing:
        raise CheckpointError(f"checkpoint missing tensors: {sorted(missing)}")

    item_categories = {iid: cat for iid, cat in vocab["items"]}
    return CDMModel(config, item_categories, vocab["categories"],
                    vocab["users"], params=params)
