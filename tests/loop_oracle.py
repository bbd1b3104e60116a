"""The training step as a loop over requests with one graph per request.

This is the per-request loss and mini-batch step that distill.batch_loss
replaced, kept as the oracle the batched step is checked against. Each
request records its own graph, q = E @ cce_w1 is computed twice, and the
batch loss is the mean of the per-request losses. Contexts are selected
the way training did before it pooled through dense weights: an argsort
of the masked perturbed scores gives each side's k picks, their scores
are gathered on the tape for a k-wide softmax, and the sampled value rows
are gathered before pooling. Each request draws its own noise from the
generator, in the order the per-request ops consume it: MLP dropout for
both layers, Gumbel uniforms for the positive and then the negative
side, and FFN dropout.
"""

import math

import numpy as np

from divrank import autodiff as ad
from divrank import backbone as bb
from divrank import cce
from divrank.autodiff import Tensor


def transpose(a):
    """2-D transpose on the tape; only this oracle still needs it."""
    a = ad._coerce(a)
    if a.data.ndim != 2:
        raise ad.ShapeError("transpose expects a 2-D tensor")
    return ad._record(a.tape, np.ascontiguousarray(a.data.T), (a,),
                      lambda g: (g.T,))


def hard_topk(values, k):
    """Top-k indices along the last axis, ordered by value descending."""
    n = values.shape[-1]
    if k > n:
        raise ad.DomainError(f"k={k} exceeds n={n}")
    return np.argsort(values, axis=-1)[..., :-k - 1:-1]


def dropout_keep(rng, shape, p):
    """Dropout multipliers of one layer, or None when dropout is off."""
    return (rng.random(shape) >= p) / (1.0 - p) if p > 0.0 else None


def mlp_keep(rng, n, config):
    """Both MLP layers' dropout multipliers for n rows, or None."""
    if config.dropout <= 0.0:
        return None
    return tuple(dropout_keep(rng, (n, h), config.dropout)
                 for h in bb.hidden_sizes(config.d))


def take_per_row(a, idx):
    """a: (N, S); idx: (N, k) -> (N, k), gathering along axis 1."""
    a = ad._coerce(a)
    idx = np.asarray(idx)
    shape = a.data.shape

    def back(g):
        grad = np.zeros(shape)
        np.add.at(grad, (np.arange(shape[0])[:, None], idx), g)
        return (grad,)

    return ad._record(a.tape, np.take_along_axis(a.data, idx, axis=1), (a,),
                      back)


def sample_contexts(w, mask, k, rng=None):
    """(pos_idx, w_pos, neg_idx, w_neg): each side's k pool columns and
    its perturbed scores gathered there. The mask is added before the
    noise; the positive side draws its uniforms first."""
    w_pos = ad.add(w, mask)
    w_neg = ad.add(ad.scale(w, -1.0), mask)
    if rng is not None:
        w_pos = ad.add(w_pos, cce.gumbel_noise(
            rng.random(w_pos.data.shape)))
        w_neg = ad.add(w_neg, cce.gumbel_noise(
            rng.random(w_neg.data.shape)))
    pos_idx = hard_topk(w_pos.data, k)
    neg_idx = hard_topk(w_neg.data, k)
    return (pos_idx, take_per_row(w_pos, pos_idx),
            neg_idx, take_per_row(w_neg, neg_idx))


def softmax_all(x):
    """Softmax over every entry of each row, shifted by the row's maximum."""
    return ad.softmax(x, np.ones(x.data.shape, bool), x.data.max(axis=-1))


def _pool(weights, values):
    """Softmax weights (N, k) applied to gathered value rows (N, k, d)."""
    w3 = ad.reshape(weights, weights.data.shape + (1,))
    return ad.tsum(ad.mul(w3, values), axis=-2)


def request_loss(P, rows, y_tea, config, rng=None):
    """(total, components) of one request (distill.RequestRows) over its
    context pool; rng=None turns noise and dropout off. y_tea=None
    computes only the accuracy BCE (the warm-up loss)."""
    u_idx, item_idx, cat_idx, labels, pool = (
        rows.u_idx, rows.item_idx, rows.cat_idx, rows.labels, rows.pool)
    n = len(item_idx)
    m = len(pool)

    components = {}
    shown = np.flatnonzero(labels >= 0)
    if shown.size > 0:
        keep = None if rng is None else mlp_keep(rng, shown.size, config)
        loss_bce = bb.bce_loss(bb.score_logits(
            P, u_idx, item_idx[shown], cat_idx[shown], keep), labels[shown],
            np.full(shown.size, 1.0 / shown.size))
    else:
        loss_bce = Tensor(0.0)
    components["bce"] = loss_bce
    if y_tea is None:
        return loss_bce, components

    E = ad.gather_rows(P["item_emb"], item_idx)
    E_pool = E if m == n else ad.gather_rows(E, pool)
    d = E.data.shape[-1]
    keys = ad.matmul(E_pool, P["cce_w2"])
    w = ad.scale(ad.matmul(ad.matmul(E, P["cce_w1"]), transpose(keys)),
                 1.0 / math.sqrt(d))
    mask = np.zeros((n, m))
    mask[pool, np.arange(m)] = cce.MASK_VALUE
    pos_idx, w_pos, neg_idx, w_neg = sample_contexts(w, mask, config.k, rng)
    values = ad.matmul(E_pool, P["cce_w3"])
    c_pos = _pool(softmax_all(w_pos), ad.gather_rows(values, pos_idx))
    c_neg = _pool(softmax_all(ad.scale(w_neg, -1.0)),
                  ad.gather_rows(values, neg_idx))

    q = ad.matmul(E, P["cce_w1"])
    row_w = np.full(n, 1.0 / n)
    loss_nce = cce.infonce_loss(q, c_pos, c_neg, config.infonce_t, row_w)
    components["infonce"] = loss_nce

    u_row = ad.gather_rows(P["user_emb"], np.asarray([u_idx], dtype=np.int64))
    keep = None if rng is None else dropout_keep(rng, (n, 2 * d),
                                                 config.dropout)
    c_fused = cce.fuse_context(u_row, c_pos, c_neg, P, keep)
    z = ad.tsum(ad.mul(q, c_fused), axis=1)
    loss_kd = bb.bce_loss(z, y_tea, row_w)
    components["kd"] = loss_kd
    components["z_stu"] = z

    total = ad.add(loss_bce,
                   ad.add(ad.scale(loss_kd, config.beta1),
                          ad.scale(loss_nce, config.beta2)))
    return total, components


def joint_step(params, batch, y_teas, config, rng):
    """One SGD step on the mean joint loss; returns the loss value."""
    tape = ad.Tape()
    P = params.leaves(tape)
    loss = None
    for rows, y_tea in zip(batch, y_teas):
        total, _ = request_loss(P, rows, y_tea, config, rng=rng)
        loss = total if loss is None else ad.add(loss, total)
    loss = ad.scale(loss, 1.0 / len(batch))
    tape.backward(loss)
    params.sgd_step(P, config.lr)
    return loss.item()


def warmup_step(params, batch, config, rng):
    """One SGD step on the mean BCE of the requests with shown labels."""
    tape = ad.Tape()
    P = params.leaves(tape)
    terms = []
    for rows in batch:
        shown = np.flatnonzero(rows.labels >= 0)
        if shown.size == 0:
            continue
        terms.append(bb.bce_loss(bb.score_logits(
            P, rows.u_idx, rows.item_idx[shown], rows.cat_idx[shown],
            mlp_keep(rng, shown.size, config)), rows.labels[shown],
            np.full(shown.size, 1.0 / shown.size)))
    loss = terms[0]
    for t in terms[1:]:
        loss = ad.add(loss, t)
    loss = ad.scale(loss, 1.0 / len(terms))
    tape.backward(loss)
    params.sgd_step(P, config.lr)
    return loss.item()
