"""Serving forwards in the form the package's fast paths replaced.

win_probabilities is the student forward that
distill.win_probabilities_detached replaced, kept as the oracle the
value-sort forward is checked against. It argsorts each target's pool
scores, drops the target's own column from the k+1 candidates at each
end, gathers the picked scores and value rows, and pools them with a
per-row softmax.

accuracy_scores is the accuracy MLP over the (N, 5d) concat that
backbone.score_all_detached replaced with its folded first layer.
"""

import math

import numpy as np

from divrank import autodiff as ad
from divrank.distill import context_pool

from logistic import sigmoid


def accuracy_scores(params, user_idx, item_idx, cat_idx):
    """Eval-mode accuracy scores of one user's candidates: the first layer
    multiplies concat(u, e_i, c, u*e_i, u*c) by mlp_w1."""
    n = len(item_idx)
    eu = np.broadcast_to(params["user_emb"][user_idx],
                         (n, params["user_emb"].shape[1]))
    ei = params["item_emb"][np.asarray(item_idx, dtype=np.int64)]
    ec = params["cat_emb"][np.asarray(cat_idx, dtype=np.int64)]
    x = np.concatenate([eu, ei, ec, eu * ei, eu * ec], axis=1)
    h = np.maximum(x @ params["mlp_w1"] + params["mlp_b1"], 0.0)
    h = np.maximum(h @ params["mlp_w2"] + params["mlp_b2"], 0.0)
    return sigmoid((h @ params["mlp_w3"] + params["mlp_b3"])[:, 0])


def win_probabilities(params, u_idx, item_idx, config, pool_seed=0):
    """Student win probabilities of one request's candidates."""
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
    # target's own column afterwards
    col_of = np.full(n, -1, dtype=np.int64)
    col_of[pool] = np.arange(len(pool))
    order = np.argsort(w, axis=1)
    pos = drop_self(order[:, :-(k + 2):-1], col_of, k)
    neg = drop_self(order[:, :k + 1], col_of, k)
    a_pos = softmax_rows(np.take_along_axis(w, pos, axis=1))
    a_neg = softmax_rows(np.take_along_axis(w, neg, axis=1))
    c_pos = np.einsum("nk,nkd->nd", a_pos, values[pos])
    c_neg = np.einsum("nk,nkd->nd", a_neg, values[neg])
    u_vec = params["user_emb"][u_idx]
    x = np.concatenate((u_vec * c_pos, u_vec * c_neg), axis=1)
    h = np.maximum(x @ params["ffn_w1"] + params["ffn_b1"], 0.0)
    c = h @ params["ffn_w2"] + params["ffn_b2"]
    return sigmoid((q * c).sum(axis=1))


def drop_self(cand, self_col, k):
    """First k columns of the ordered (n, k+1) candidate matrix after
    removing each row's own column id (present at most once)."""
    keep = cand != self_col[:, None]
    # rows where all k+1 survive: drop the trailing extra instead
    keep[:, -1] &= keep[:, :-1].sum(axis=1) < k
    return cand[keep].reshape(len(cand), k)


def softmax_rows(x):
    """Row softmax, each row shifted by its own max so no row underflows."""
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)
