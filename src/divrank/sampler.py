"""Gumbel-Top-k subset sampling: Gumbel noise, perturbed scores and the
hard top-k indices of the perturbed scores.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import DomainError, Tensor

U_CLAMP = 1e-12


def gumbel_noise(u):
    """g = -log(-log(u)) for uniform u, clamped away from {0, 1}."""
    u = np.clip(np.asarray(u, dtype=np.float64), U_CLAMP, 1.0 - U_CLAMP)
    return -np.log(-np.log(u))


def perturb(log_probs, rng=None) -> Tensor:
    """Add fresh Gumbel noise to log probabilities, or to any scores that
    differ from them by a per-row constant (rng=None: zero noise)."""
    log_probs = log_probs if isinstance(log_probs, Tensor) else Tensor(log_probs)
    if rng is None:
        return log_probs
    noise = gumbel_noise(rng.random(log_probs.data.shape))
    return ad.add_constant(log_probs, noise)


def hard_topk(values: np.ndarray, k: int) -> np.ndarray:
    """Top-k indices along the last axis, ordered by value descending."""
    n = values.shape[-1]
    if k > n:
        raise DomainError(f"k={k} exceeds n={n}")
    if k == n:
        idx = np.argsort(-values, axis=-1)
    else:
        part = np.argpartition(-values, k - 1, axis=-1)[..., :k]
        top_vals = np.take_along_axis(values, part, axis=-1)
        order = np.argsort(-top_vals, axis=-1)
        idx = np.take_along_axis(part, order, axis=-1)
    return idx

