"""Contrastive context encoder: target attention over the context pool,
Gumbel-Top-k sampling of positive/negative contexts into dense pooling
weights (attention and anti-attention), InfoNCE separation and user
interest-aware fusion.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore, Tensor

MASK_VALUE = -1e30  # additive mask; keeps a column out of every top-k pick
U_CLAMP = 1e-12


def param_shapes(d: int) -> dict:
    """Shape of each CCE and FFN parameter at embedding width d."""
    return {"cce_w1": (d, d), "cce_w2": (d, d), "cce_w3": (d, d),
            "ffn_w1": (2 * d, 2 * d), "ffn_b1": (2 * d,),
            "ffn_w2": (2 * d, d), "ffn_b2": (d,)}


def init_cce(params: ParamStore, d: int, rng):
    """Glorot-uniform weight matrices and zero biases."""
    for name, shape in param_shapes(d).items():
        lim = math.sqrt(6.0 / sum(shape))
        params.add(name, np.zeros(shape) if len(shape) == 1
                   else rng.uniform(-lim, lim, size=shape))


def gumbel_noise(u):
    """g = -log(-log(u)) for uniform u, clamped away from {0, 1}."""
    u = np.clip(np.asarray(u, dtype=np.float64), U_CLAMP, 1.0 - U_CLAMP)
    return -np.log(-np.log(u))


def attention_scores_all(P, q: Tensor, E_pool: Tensor, segments) -> Tensor:
    """Scaled dot-product scores of the targets' queries q = E @ cce_w1
    against the context-pool keys E_pool @ cce_w2, unmasked.

    segments = (row_off, pool_off): rows row_off[r]:row_off[r+1] of q are
    request r's targets and meet only its pool, rows
    pool_off[r]:pool_off[r+1] of E_pool. The (N, width) result holds each
    request's scores left-aligned, with width its widest pool and 0 beyond
    a narrower one.
    """
    d = q.data.shape[-1]
    keys = ad.matmul(E_pool, P["cce_w2"])
    return ad.scale(ad.segment_matmul(q, keys, *segments, transpose_b=True),
                    1.0 / math.sqrt(d))


def sample_contexts(w: Tensor, mask, k: int,
                    u=None) -> tuple[Tensor, Tensor]:
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

    u holds the two sides' uniforms, each of w's shape, and each side's
    noise is g = gumbel_noise(u[side]); u=None means zero noise.

    The noise goes onto the scores directly rather than onto their
    log-softmax: the two differ by a per-row constant, which changes
    neither the picks nor the softmax over them.
    """
    n = w.data.shape[-1]
    if 2 * k > n - 1:
        raise ad.DomainError(f"2k={2 * k} exceeds usable pool {n - 1}")
    # the negative side records w - g, the input of its softmax; its picks
    # are the k largest of x = g - w
    v_pos = v_neg = w
    if u is not None:
        v_pos = ad.add(w, gumbel_noise(u[0]))
        v_neg = ad.add(w, -gumbel_noise(u[1]))
    keep_pos, s_pos = _top_k(v_pos.data + mask, k)
    keep_neg, s_neg = _top_k(mask - v_neg.data, k)
    # the mask is 0 at every pick, so each side's largest pick is read
    # off its sort: the top value, and the k-th largest negated
    return (ad.softmax(v_pos, keep_pos, shift=s_pos[:, -1]),
            ad.softmax(v_neg, keep_neg, shift=-s_neg[:, -k]))


def _top_k(x, k):
    """(boolean mask of each row's entries at or above its k-th largest,
    each row sorted ascending)."""
    s = np.sort(x, axis=-1)
    return x >= s[:, [-k]], s


def infonce_loss(q: Tensor, c_pos: Tensor, c_neg: Tensor, t: float,
                 weights=None) -> Tensor:
    """Two-term InfoNCE; batched inputs are averaged, or summed with the
    given row weights."""
    if t <= 0.0:
        raise ad.DomainError("InfoNCE temperature must be positive")
    s_pos = ad.tsum(ad.mul(q, c_pos), axis=-1)
    s_neg = ad.tsum(ad.mul(q, c_neg), axis=-1)
    margin = ad.scale(ad.add(s_neg, ad.scale(s_pos, -1.0)), 1.0 / t)
    return ad.weighted_mean(ad.softplus(margin), weights)


def fuse_context(u, c_pos: Tensor, c_neg: Tensor, P, keep=None) -> Tensor:
    """FFN over the user-gated contexts: C = FFN(concat(u*C+, u*C-)).
    keep, if given, multiplies the hidden layer (dropout)."""
    x = ad.concat([ad.mul(u, c_pos), ad.mul(u, c_neg)], axis=-1)
    h = ad.relu(ad.add(ad.matmul(x, P["ffn_w1"]), P["ffn_b1"]))
    if keep is not None:
        h = ad.mul(h, keep)
    return ad.add(ad.matmul(h, P["ffn_w2"]), P["ffn_b2"])
