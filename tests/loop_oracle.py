"""The training step as a loop over requests with one graph per request.

This is the per-request loss and mini-batch step that distill.batch_loss
replaced, kept as the oracle the batched step is checked against. Each
request records its own graph, q = E @ cce_w1 is computed twice, and the
batch loss is the mean of the per-request losses. Contexts are selected
the way training did before it pooled through dense weights: an argsort
of the masked perturbed scores gives each side's k picks, their scores
are gathered on the tape for a k-wide softmax, and the sampled value rows
are gathered before pooling.
"""

import math

import numpy as np

from divrank import autodiff as ad
from divrank import backbone as bb
from divrank import cce
from divrank.autodiff import Tensor
from divrank.sampler import perturb


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
    noise, and the two sides draw their noise in the order
    cce.sample_contexts does."""
    w_pos = perturb(ad.add_constant(w, mask), rng)
    w_neg = perturb(ad.add_constant(ad.neg(w), mask), rng)
    pos_idx = hard_topk(w_pos.data, k)
    neg_idx = hard_topk(w_neg.data, k)
    return (pos_idx, take_per_row(w_pos, pos_idx),
            neg_idx, take_per_row(w_neg, neg_idx))


def _pool(weights, values):
    """Softmax weights (N, k) applied to gathered value rows (N, k, d)."""
    w3 = ad.reshape(weights, weights.data.shape + (1,))
    return ad.tsum(ad.mul(w3, values), axis=-2)


def request_loss(P, u_idx, item_idx, cat_idx, labels, y_tea, config, pool,
                 rng=None, training=False):
    """(total, components) of one request over its context pool."""
    n = len(item_idx)
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
    E_pool = E if m == n else ad.gather_rows(E, pool)
    d = E.data.shape[-1]
    keys = ad.matmul(E_pool, P["cce_w2"])
    w = ad.scale(ad.matmul(ad.matmul(E, P["cce_w1"]), transpose(keys)),
                 1.0 / math.sqrt(d))
    mask = np.zeros((n, m))
    mask[pool, np.arange(m)] = cce.MASK_VALUE
    pos_idx, w_pos, neg_idx, w_neg = sample_contexts(w, mask, config.k,
                                                     noise_rng)
    values = ad.matmul(E_pool, P["cce_w3"])
    c_pos = _pool(ad.softmax(w_pos), ad.gather_rows(values, pos_idx))
    c_neg = _pool(ad.softmax(ad.neg(w_neg)), ad.gather_rows(values, neg_idx))

    q = ad.matmul(E, P["cce_w1"])
    loss_nce = cce.infonce_loss(q, c_pos, c_neg, config.infonce_t)
    components["infonce"] = loss_nce

    u_row = ad.gather_rows(P["user_emb"], np.asarray([u_idx], dtype=np.int64))
    c_fused = cce.fuse_context(u_row, c_pos, c_neg, P, training=training,
                               dropout=drop, rng=rng)
    z = ad.tsum(ad.mul(q, c_fused), axis=1)
    loss_kd = ad.tmean(ad.sub(ad.softplus(z), ad.mul(np.asarray(y_tea), z)))
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
    for (u_idx, item_idx, cat_idx, labels, pool), y_tea in zip(batch, y_teas):
        total, _ = request_loss(P, u_idx, item_idx, cat_idx, labels, y_tea,
                                config, pool, rng=rng, training=True)
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
    for u_idx, item_idx, cat_idx, labels, _ in batch:
        shown = np.flatnonzero(labels >= 0)
        if shown.size == 0:
            continue
        f = ad.sigmoid(bb.score_logits(
            P, u_idx, item_idx[shown], cat_idx[shown],
            training=True, dropout=config.dropout, rng=rng))
        terms.append(bb.bce_loss(f, labels[shown]))
    loss = terms[0]
    for t in terms[1:]:
        loss = ad.add(loss, t)
    loss = ad.scale(loss, 1.0 / len(terms))
    tape.backward(loss)
    params.sgd_step(P, config.lr)
    return loss.item()
