"""Differentiable subset sampling: Gumbel-Top-k with iterated softmax
relaxation and temperature annealing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import DomainError, Tensor

U_CLAMP = 1e-12


@dataclass
class RelaxedSubset:
    perturbed: Tensor          # w~, shape (..., N)
    a: Tensor                  # relaxed k-hot, rows sum to k
    steps: list                # per-iteration relaxed one-hot tensors a^1..a^k
    hard_idx: np.ndarray       # (..., k) top-k of w~, ordered by value desc


@dataclass
class AnnealSchedule:
    tau_start: float = 1.0
    tau_end: float = 0.05
    decay: float = 0.85        # exponential, per epoch
    current: float = field(init=False)

    def __post_init__(self):
        if not (self.tau_start >= self.tau_end > 0.0):
            raise DomainError("need tau_start >= tau_end > 0")
        if not (0.0 < self.decay <= 1.0):
            raise DomainError("decay must be in (0, 1]")
        self.current = self.tau_start


def anneal(schedule: AnnealSchedule, epoch: int) -> float:
    if epoch < 0:
        raise DomainError("epoch must be >= 0")
    tau = max(schedule.tau_end, schedule.tau_start * schedule.decay ** epoch)
    schedule.current = tau
    return tau


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


def relaxed_topk(perturbed: Tensor, k: int, tau: float) -> RelaxedSubset:
    """Iterated tempered softmax relaxation of top-k selection.

    Each of the k iterations produces a relaxed one-hot vector; selected
    mass is suppressed from the logits via log(1 - P) before the next
    round. Fully differentiable w.r.t. the perturbed weights.
    """
    perturbed = perturbed if isinstance(perturbed, Tensor) else Tensor(perturbed)
    n = perturbed.data.shape[-1]
    if k > n:
        raise DomainError(f"k={k} exceeds candidate count {n}")
    if tau <= 0.0:
        raise DomainError("tau must be positive")
    alpha = perturbed
    steps = []
    total = None
    for _ in range(k):
        p = ad.softmax_t(alpha, tau, axis=-1)
        steps.append(p)
        total = p if total is None else ad.add(total, p)
        alpha = ad.add(alpha, ad.log1m_clamped(p))
    return RelaxedSubset(perturbed=perturbed, a=total, steps=steps,
                         hard_idx=hard_topk(perturbed.data, k))
