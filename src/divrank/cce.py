"""Contrastive context encoder: target attention over the context pool,
positive/negative context sampling, anti-attention pooling, InfoNCE
separation and user interest-aware fusion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore, Tensor
from .sampler import hard_topk, perturb

MASK_VALUE = -1e30  # additive mask; drives softmax weight to exactly 0

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


@dataclass
class ContextSample:
    pos_idx: np.ndarray   # (N, k) context-pool columns
    w_pos: Tensor         # perturbed weights gathered at pos_idx
    neg_idx: np.ndarray
    w_neg: Tensor


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


def sample_contexts(w: Tensor, mask, k: int, rng=None) -> ContextSample:
    """Gumbel-Top-k draws of a positive set (high attention) and a negative
    set (negated attention), with independent noise per side.

    w holds the (N, |pool|) raw scores of the targets against their
    context pool. The additive mask (MASK_VALUE at each target's own
    column and at any padding column, 0 elsewhere) is applied after
    negation too, so a target can never enter its own context. Draws may
    overlap; they are not forced disjoint.

    The noise goes onto the masked scores directly rather than onto their
    log-softmax: the two differ by a per-row constant, which changes
    neither the top-k indices nor the softmax pooling over the gathered
    weights.
    """
    n = w.data.shape[-1]
    if 2 * k > n - 1:
        raise ad.DomainError(f"2k={2 * k} exceeds usable pool {n - 1}")
    masked = ad.add_constant(w, mask)
    neg_masked = ad.add_constant(ad.neg(w), mask)
    w_pos = perturb(masked, rng)
    w_neg = perturb(neg_masked, rng)
    pos_idx = hard_topk(w_pos.data, k)
    neg_idx = hard_topk(w_neg.data, k)
    return ContextSample(pos_idx=pos_idx,
                         w_pos=ad.take_per_row(w_pos, pos_idx),
                         neg_idx=neg_idx,
                         w_neg=ad.take_per_row(w_neg, neg_idx))


def _pool(weights: Tensor, idx, values: Tensor, segments) -> Tensor:
    """Each target's weights over its k sampled pool columns idx applied
    to its request's pool value rows."""
    row_off, pool_off = _offsets(weights.data.shape[0], values.data.shape[0],
                                 segments)
    dense = ad.put_per_row(weights, idx, int(np.diff(pool_off).max()))
    return ad.segment_matmul(dense, values, row_off, pool_off)


def positive_context(w_tilde: Tensor, idx, values: Tensor,
                     segments=None) -> Tensor:
    """softmax-weighted pooling of the sampled value rows (target attention).

    w_tilde: (N, k) perturbed scores at the pool columns idx; values: the
    pool's value rows, laid out by segments as in attention_scores_all.
    """
    return _pool(ad.softmax(w_tilde), idx, values, segments)


def negative_context(w_tilde: Tensor, idx, values: Tensor,
                     segments=None) -> Tensor:
    """Anti-attention: weights from the negated perturbed scores."""
    return _pool(ad.softmax(ad.neg(w_tilde)), idx, values, segments)


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
