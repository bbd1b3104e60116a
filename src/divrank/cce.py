"""Contrastive context encoder: target attention over the context pool,
positive/negative context sampling into dense pooling weights (attention
and anti-attention), InfoNCE separation and user interest-aware fusion.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore, Tensor
from .sampler import perturb

MASK_VALUE = -1e30  # additive mask; keeps a column out of every top-k pick

CCE_PARAM_NAMES = ("cce_w1", "cce_w2", "cce_w3",
                   "ffn_w1", "ffn_b1", "ffn_w2", "ffn_b2")


def init_cce(params: ParamStore, d: int, rng):
    for name in ("cce_w1", "cce_w2", "cce_w3"):
        lim = math.sqrt(6.0 / (2 * d))
        params.add(name, rng.uniform(-lim, lim, size=(d, d)))
    lim1 = math.sqrt(6.0 / (4 * d))
    params.add("ffn_w1", rng.uniform(-lim1, lim1, size=(2 * d, 2 * d)))
    params.add("ffn_b1", np.zeros(2 * d))
    lim2 = math.sqrt(6.0 / (3 * d))
    params.add("ffn_w2", rng.uniform(-lim2, lim2, size=(2 * d, d)))
    params.add("ffn_b2", np.zeros(d))


def _offsets(n_rows, n_pool, segments):
    """(row offsets, pool offsets): segments itself, or without it one
    request holding every row and every pool row."""
    return ((0, n_rows), (0, n_pool)) if segments is None else segments


def attention_scores_all(P, q: Tensor, E_pool: Tensor,
                         segments=None) -> Tensor:
    """Scaled dot-product scores of the targets' queries q = E @ cce_w1
    against the context-pool keys E_pool @ cce_w2, unmasked.

    segments = (row_offsets, pool_offsets): rows row_offsets[r]:
    row_offsets[r+1] of q are request r's targets and meet only its pool,
    rows pool_offsets[r]:pool_offsets[r+1] of E_pool. The (N, width)
    result holds each request's scores left-aligned, with width its widest
    pool and 0 beyond a narrower one. Without segments all rows are one
    request.
    """
    d = q.data.shape[-1]
    keys = ad.matmul(E_pool, P["cce_w2"])
    row_off, pool_off = _offsets(q.data.shape[0], E_pool.data.shape[0],
                                 segments)
    return ad.scale(ad.segment_matmul(q, keys, row_off, pool_off,
                                      transpose_b=True), 1.0 / math.sqrt(d))


def sample_contexts(w: Tensor, mask, k: int,
                    rng=None) -> tuple[Tensor, Tensor]:
    """Gumbel-Top-k draws of a positive set (high attention) and a negative
    set (negated attention), with independent noise per side, returned as
    (positive, negative) dense (N, |pool|) pooling weights.

    w holds the (N, |pool|) raw scores of the targets against their
    context pool. The additive mask (MASK_VALUE at each target's own
    column and at any padding column, 0 elsewhere) enters only the
    selection, after negation too, so a target can never enter its own
    context. Each side picks the k largest of its perturbed scores
    x = +-w + g. Its row of weights is the softmax over those picks of x
    on the positive side and of -x = w - g (anti-attention) on the
    negative side, and 0 at every other column. Draws may overlap; they
    are not forced disjoint. Scores tied at a side's k-th largest value
    are all picked; with noise on, ties have probability 0.

    The noise goes onto the scores directly rather than onto their
    log-softmax: the two differ by a per-row constant, which changes
    neither the picks nor the softmax over them.
    """
    n = w.data.shape[-1]
    if 2 * k > n - 1:
        raise ad.DomainError(f"2k={2 * k} exceeds usable pool {n - 1}")
    x_pos = perturb(w, rng)
    x_neg = perturb(ad.neg(w), rng)
    return (ad.softmax(x_pos, keep=_top_k(x_pos.data + mask, k)),
            ad.softmax(ad.neg(x_neg), keep=_top_k(x_neg.data + mask, k)))


def _top_k(x, k):
    """Boolean mask of each row's entries at or above its k-th largest."""
    return x >= np.sort(x, axis=-1)[:, [-k]]


def infonce_loss(q: Tensor, c_pos: Tensor, c_neg: Tensor, t: float,
                 weights=None) -> Tensor:
    """Two-term InfoNCE; batched inputs are averaged, or summed with the
    given row weights."""
    if t <= 0.0:
        raise ad.DomainError("InfoNCE temperature must be positive")
    s_pos = ad.tsum(ad.mul(q, c_pos), axis=-1)
    s_neg = ad.tsum(ad.mul(q, c_neg), axis=-1)
    margin = ad.scale(ad.sub(s_neg, s_pos), 1.0 / t)
    return ad.weighted_mean(ad.softplus(margin), weights)


def fuse_context(u, c_pos: Tensor, c_neg: Tensor, P, *, training=False,
                 dropout=0.0, rng=None) -> Tensor:
    """FFN over the user-gated contexts: C = FFN(concat(u*C+, u*C-))."""
    x = ad.concat([ad.mul(u, c_pos), ad.mul(u, c_neg)], axis=-1)
    h = ad.relu(ad.add(ad.matmul(x, P["ffn_w1"]), P["ffn_b1"]))
    h = ad.dropout(h, dropout, rng, training)
    return ad.add(ad.matmul(h, P["ffn_w2"]), P["ffn_b2"])
