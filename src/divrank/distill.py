"""Student win-probability head, distillation losses, the two-phase
training loop and checkpoint persistence.

Training is define-by-run: each batch builds one tape covering every
request in the batch, with all of a request's candidates processed as one
batched target block.
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

    def item_index(self, item_id: str) -> int:
        if item_id not in self._item_row:
            raise VocabError(f"unknown item id: {item_id!r}")
        return self._item_row[item_id]

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
    q = E @ params["cce_w1"]
    keys = E[pool] @ params["cce_w2"]
    values = E[pool] @ params["cce_w3"]
    w = (q / math.sqrt(d)) @ keys.T
    # one full sort yields both ends; grab k+1 per side and drop each
    # target's own column afterwards instead of masking two copies of w
    col_of = np.full(n, -1, dtype=np.int64)
    col_of[pool] = np.arange(len(pool))
    order = np.argsort(w, axis=1)
    pos = _drop_self(order[:, :-(k + 2):-1], col_of, k)
    neg = _drop_self(order[:, :k + 1], col_of, k)
    # zero-noise pooling weights reduce to softmax of the raw scores for
    # both the positive and the anti-attention side
    w_pos = np.take_along_axis(w, pos, axis=1)
    w_neg = np.take_along_axis(w, neg, axis=1)
    a_pos = _softmax_rows(w_pos)
    a_neg = _softmax_rows(w_neg)
    c_pos = np.einsum("nk,nkd->nd", a_pos, values[pos])
    c_neg = np.einsum("nk,nkd->nd", a_neg, values[neg])
    u_vec = params["user_emb"][u_idx]
    x = np.empty((n, 2 * d))
    np.multiply(u_vec, c_pos, out=x[:, :d])
    np.multiply(u_vec, c_neg, out=x[:, d:])
    h = np.maximum(x @ params["ffn_w1"] + params["ffn_b1"], 0.0)
    c = h @ params["ffn_w2"] + params["ffn_b2"]
    return expit((q * c).sum(axis=1))


def _drop_self(cand, self_col, k):
    """First k columns of the ordered (n, k+1) candidate matrix after
    removing each row's own column id (present at most once)."""
    keep = cand != self_col[:, None]
    # rows where all k+1 survive: drop the trailing extra instead
    keep[:, -1] &= keep[:, :-1].sum(axis=1) < k
    return cand[keep].reshape(len(cand), k)


def _softmax_rows(x):
    """Row softmax, each row shifted by its own max so no row underflows."""
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# losses


def _kd_from_logits(z: Tensor, y_tea) -> Tensor:
    # softplus(z) - y*z == -y log(sigma) - (1-y) log(1-sigma), stable
    return ad.tmean(ad.sub(ad.softplus(z), ad.mul(np.asarray(y_tea), z)))


def request_loss(P, u_idx, item_idx, cat_idx, labels, y_tea,
                 config: TrainConfig, rng=None, training=False, pool=None):
    """Joint per-request loss on the tape of P's tensors.

    Every target attends over the keys and values of the context pool,
    the candidate positions `pool` (default: context_pool(n, config, 0),
    as win_probabilities_detached draws it for pool_seed 0).

    Returns (total, components dict of Tensors). rng=None disables both
    Gumbel noise and dropout regardless of the training flag.
    """
    n = len(item_idx)
    if pool is None:
        pool = context_pool(n, config, 0)
    m = len(pool)
    noise_rng = rng if training else None
    drop = config.dropout if (training and rng is not None) else 0.0

    components = {}
    shown = np.flatnonzero(labels >= 0)
    if shown.size > 0:
        f_shown = ad.sigmoid(bb.score_logits(
            P, u_idx, item_idx[shown], cat_idx[shown],
            training=training, dropout=drop, rng=rng))
        loss_bce = bb.bce_loss(f_shown, labels[shown])
    else:
        loss_bce = Tensor(0.0)
    components["bce"] = loss_bce

    E = ad.gather_rows(P["item_emb"], item_idx)
    # a pool of all n positions is E itself: no gather node on the tape
    E_pool = E if m == n else ad.gather_rows(E, pool)
    w = cce.attention_scores_all(P, E, E_pool)
    mask = np.zeros((n, m))
    mask[pool, np.arange(m)] = cce.MASK_VALUE  # target pool[j] is column j
    sample = cce.sample_contexts(w, mask, config.k, noise_rng)
    values = ad.matmul(E_pool, P["cce_w3"])
    v_pos = ad.gather_rows(values, sample.pos_idx)  # (N, k, d) view of rows
    v_neg = ad.gather_rows(values, sample.neg_idx)
    c_pos = cce.positive_context(sample.w_pos, v_pos)
    c_neg = cce.negative_context(sample.w_neg, v_neg)

    q = ad.matmul(E, P["cce_w1"])
    loss_nce = cce.infonce_loss(q, c_pos, c_neg, config.infonce_t)
    components["infonce"] = loss_nce

    u_row = ad.gather_rows(P["user_emb"], np.asarray([u_idx], dtype=np.int64))
    c_fused = cce.fuse_context(u_row, c_pos, c_neg, P, training=training,
                               dropout=drop, rng=rng)
    z = ad.tsum(ad.mul(q, c_fused), axis=1)
    loss_kd = _kd_from_logits(z, y_tea)
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

    # phase 1: backbone-only BCE warm-up
    for epoch in range(config.warm_epochs):
        order = rng.permutation(len(train_packed))
        losses = []
        for step, start in enumerate(range(0, len(order), config.batch_size)):
            batch = order[start:start + config.batch_size]
            tape = ad.Tape()
            P = model.params.leaves(tape)
            acc_terms = []
            for idx in batch:
                u_idx, item_idx, cat_idx, labels, _ = train_packed[idx]
                shown = np.flatnonzero(labels >= 0)
                if shown.size == 0:
                    continue
                f = ad.sigmoid(bb.score_logits(
                    P, u_idx, item_idx[shown], cat_idx[shown],
                    training=True, dropout=config.dropout, rng=rng))
                acc_terms.append(bb.bce_loss(f, labels[shown]))
            if not acc_terms:
                continue
            loss = acc_terms[0]
            for t in acc_terms[1:]:
                loss = ad.add(loss, t)
            loss = ad.scale(loss, 1.0 / len(acc_terms))
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
            loss = None
            comp_acc = {"bce": 0.0, "kd": 0.0, "infonce": 0.0}
            for idx in batch:
                u_idx, item_idx, cat_idx, labels, pool = train_packed[idx]
                total, comps = request_loss(
                    P, u_idx, item_idx, cat_idx, labels, train_labels[idx],
                    config, rng=rng, training=True, pool=pool)
                loss = total if loss is None else ad.add(loss, total)
                for key in comp_acc:
                    comp_acc[key] += comps[key].item()
            loss = ad.scale(loss, 1.0 / len(batch))
            check_finite(loss.item(), epoch, step)
            tape.backward(loss)
            model.params.sgd_step(P, config.lr)
            sums["total"].append(loss.item())
            for key in comp_acc:
                sums[key].append(comp_acc[key] / len(batch))

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
    P = {name: Tensor(arr) for name, arr in model.params.items()}
    totals, bces, kds, nces = [], [], [], []
    for (u_idx, item_idx, cat_idx, labels, pool), y_tea in zip(packed,
                                                               labels_list):
        total, comps = request_loss(P, u_idx, item_idx, cat_idx, labels,
                                    y_tea, config, rng=None, training=False,
                                    pool=pool)
        totals.append(total.item())
        bces.append(comps["bce"].item())
        kds.append(comps["kd"].item())
        nces.append(comps["infonce"].item())
    return _mean(totals), {"val_bce": _mean(bces), "val_kd": _mean(kds),
                           "val_infonce": _mean(nces)}


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
