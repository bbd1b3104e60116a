"""Gumbel noise for Gumbel-Top-k subset sampling, and the perturbed
scores it gives.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

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

