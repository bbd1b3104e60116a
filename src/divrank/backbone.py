"""Point-wise scorer f(u, i) over shared embedding tables.

A compact MLP with explicit user*item and user*category cross features
stands in for a full cross-network: the properties downstream code relies
on are the shared bottom embeddings and a point-wise probability score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore, Tensor


class ConfigError(ValueError):
    pass


class VocabError(KeyError):
    pass


@dataclass
class TrainConfig:
    d: int = 16
    lr: float = 0.5
    batch_size: int = 8
    lam: float = 0.1            # teacher accuracy/diversity trade-off
    gamma: float = 0.1          # inference fusion weight
    beta1: float = 1.0          # KD loss weight
    beta2: float = 0.1          # InfoNCE loss weight
    k: int = 8                  # context sample size per side
    K_teacher: int | None = None  # None -> ceil(0.2 * N) per request
    infonce_t: float = 0.2
    dropout: float = 0.25
    patience: int = 10
    warm_epochs: int = 3
    joint_epochs: int = 30
    eval_fraction: float = 1.0 / 6.0
    max_context_pool: int = 40  # cap on the context pool (train and serve)
    emb_init_scale: float = 0.1
    seed: int = 0

    def validate(self):
        if self.d <= 0:
            raise ConfigError("d must be positive")
        if self.lr <= 0:
            raise ConfigError("lr must be positive")
        if self.batch_size <= 0:
            raise ConfigError("batch_size must be positive")
        for name in ("lam", "gamma", "beta1", "beta2"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        if self.K_teacher is not None and self.K_teacher < 1:
            raise ConfigError("K_teacher must be >= 1 (or None)")
        if self.infonce_t <= 0:
            raise ConfigError("infonce_t must be positive")
        if not (0.0 <= self.dropout < 1.0):
            raise ConfigError("dropout must be in [0, 1)")
        if self.patience < 1:
            raise ConfigError("patience must be >= 1")
        if self.warm_epochs < 0 or self.joint_epochs < 0:
            raise ConfigError("epoch counts must be >= 0")
        if not (0.0 < self.eval_fraction < 1.0):
            raise ConfigError("eval_fraction must be in (0, 1)")
        if self.max_context_pool < 2 * self.k + 1:
            raise ConfigError("max_context_pool must be >= 2k + 1")
        if self.emb_init_scale <= 0:
            raise ConfigError("emb_init_scale must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        return self

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, obj):
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(obj) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        return cls(**obj).validate()


def hidden_sizes(d: int):
    return 4 * d, 2 * d


def param_shapes(n_items, n_cats, n_users, d) -> dict:
    """Shape of each backbone parameter over vocabularies of these sizes."""
    h1, h2 = hidden_sizes(d)
    return {"item_emb": (n_items, d), "cat_emb": (n_cats, d),
            "user_emb": (n_users, d), "mlp_w1": (5 * d, h1), "mlp_b1": (h1,),
            "mlp_w2": (h1, h2), "mlp_b2": (h2,), "mlp_w3": (h2, 1),
            "mlp_b3": (1,)}


def init_backbone(params: ParamStore, n_items, n_cats, n_users, d, rng,
                  emb_scale: float = 0.1):
    """Install freshly initialized backbone tables and scorer weights.

    emb_scale sets the embedding table std; it controls how sharply the
    interest similarity sigma((e_i*u).(e_j*u)) can discriminate, since
    the pairwise dot products scale with the fourth power of the entry
    magnitude.
    """
    shapes = param_shapes(n_items, n_cats, n_users, d)
    for name in ("item_emb", "cat_emb", "user_emb"):
        params.add(name, emb_scale * rng.standard_normal(shapes[name]))
    for name in ("mlp_w1", "mlp_w2", "mlp_w3"):
        lim = math.sqrt(6.0 / sum(shapes[name]))   # fan_in + fan_out
        params.add(name, rng.uniform(-lim, lim, size=shapes[name]))
    for name in ("mlp_b1", "mlp_b2", "mlp_b3"):
        params.add(name, np.zeros(shapes[name]))


def score_logits(P, user_idx, item_idx, cat_idx, keep=None):
    """Batched scorer logits on whatever tape P's tensors live on.

    P maps parameter name -> Tensor; index arrays are plain integer arrays.
    user_idx is one user row for every candidate or one row per candidate.
    keep, if given, holds the multipliers of both hidden layers (dropout).
    """
    n = len(item_idx)
    eu = ad.gather_rows(P["user_emb"], np.broadcast_to(
        np.asarray(user_idx, dtype=np.int64), (n,)))
    ei = ad.gather_rows(P["item_emb"], np.asarray(item_idx, dtype=np.int64))
    ec = ad.gather_rows(P["cat_emb"], np.asarray(cat_idx, dtype=np.int64))
    x = ad.concat([eu, ei, ec, ad.mul(eu, ei), ad.mul(eu, ec)], axis=1)
    h = ad.relu(ad.add(ad.matmul(x, P["mlp_w1"]), P["mlp_b1"]))
    if keep is not None:
        h = ad.mul(h, keep[0])
    h = ad.relu(ad.add(ad.matmul(h, P["mlp_w2"]), P["mlp_b2"]))
    if keep is not None:
        h = ad.mul(h, keep[1])
    z = ad.add(ad.matmul(h, P["mlp_w3"]), P["mlp_b3"])
    return ad.reshape(z, (n,))


def score_all_detached(params: ParamStore, user_idx, item_idx, cat_idx):
    """Fast eval-mode scoring of one user's candidates: pure numpy, no
    tape, dropout off.

    The first layer is score_logits' concat(u, e_i, c, u*e_i, u*c) @ W1
    with the user's terms folded into the weights:
    h1 = e_i (W_i + diag(u) W_ui) + T[c], where the table
    T = cat_emb (W_c + diag(u) W_uc) + u W_u + b1 holds one row per
    category. The sums run in another order than the concat's, so scores
    agree with score_logits to rounding (about 1e-16), not bit for bit.
    """
    u = params["user_emb"][user_idx]
    w_u, w_i, w_c, w_ui, w_uc = params["mlp_w1"].reshape(5, len(u), -1)
    table = params["cat_emb"] @ (w_c + u[:, None] * w_uc)
    table += u @ w_u + params["mlp_b1"]
    h = params["item_emb"][np.asarray(item_idx, dtype=np.int64)] \
        @ (w_i + u[:, None] * w_ui)
    h += table[np.asarray(cat_idx, dtype=np.int64)]
    np.maximum(h, 0.0, out=h)
    h = np.maximum(h @ params["mlp_w2"] + params["mlp_b2"], 0.0)
    z = (h @ params["mlp_w3"] + params["mlp_b3"])[:, 0]
    return ad.sigmoid(z, out=z)


def bce_loss(logits: Tensor, labels, weights=None) -> Tensor:
    """Mean binary cross-entropy of sigmoid(logits) against labels.

    labels is an array of {0, 1}; weights, if given, replace the mean by
    sum(weights * entry loss). Each entry is softplus(z) - y*z, which
    equals -y log(sigma(z)) - (1-y) log(1 - sigma(z)) and keeps its
    gradient sigma(z) - y where sigma(z) saturates.
    """
    y = np.asarray(labels, dtype=np.float64)
    if y.size == 0:
        raise ValueError("bce_loss over an empty labeled set")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("labels must be 0 or 1")
    return ad.weighted_mean(ad.add(ad.softplus(logits), ad.mul(-y, logits)),
                            weights)
