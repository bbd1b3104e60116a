"""Interest-aware MMR teacher: greedy winning-set selection and labels.

Selection runs on detached (non-gradient) embeddings and scores. Two
greedy implementations make the same picks:

- ``mmr_core`` recomputes, at each step, the similarity of every remaining
  candidate to every selected item. It is the quadratic re-scan the paper
  describes and the student is meant to replace; the serving-cost gates
  time it and count its similarity evaluations.
- ``mmr_greedy`` keeps one running max-similarity vector and folds in only
  the newest pick (the incremental update of Chen, Zhang & Zhou, NeurIPS
  2018), so K picks cost O(N*K*d) instead of O(N*K^2*d). Teacher labels
  come from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit


@dataclass
class TeacherLabeling:
    request_id: str
    winning_ids: list      # ordered item ids, length K
    winning_idx: np.ndarray  # candidate positions, same order
    y_tea: np.ndarray      # {0,1} per candidate, exactly K ones
    gains: list            # recorded marginal gain per step


def _check_size(K, n):
    if K < 1:
        raise ValueError(f"K={K} must be >= 1")
    if K > n:
        raise ValueError(f"K={K} exceeds candidate count {n}")


def mmr_core(acc, ew, lam, K, counters=None):
    """Greedy selection on detached arrays.

    acc: (N,) accuracy scores; ew: (N, d) interest-weighted embeddings.
    Returns (selected indices in order, per-step marginal gains).
    """
    n = len(acc)
    _check_size(K, n)
    first = int(np.argmax(acc))
    selected = [first]
    gains = [float(acc[first])]
    chosen = np.zeros(n, dtype=bool)
    chosen[first] = True
    for _ in range(1, K):
        remaining = np.flatnonzero(~chosen)
        sims = expit(ew[remaining] @ ew[selected].T)   # (|rem|, h)
        if counters is not None:
            counters["sim_evals"] = counters.get("sim_evals", 0) + sims.size
        gain = acc[remaining] + lam * (1.0 - sims.max(axis=1))
        best = int(np.argmax(gain))  # first max -> smallest candidate index
        selected.append(int(remaining[best]))
        gains.append(float(gain[best]))
        chosen[remaining[best]] = True
    return selected, gains


def mmr_greedy(acc, ew, lam, K, counters=None):
    """Exact incremental greedy: the picks of mmr_core at O(N*d) per step.

    After each pick only the similarities to that pick are computed and
    folded into the running per-candidate maximum. Chosen candidates get a
    gain of -inf through a penalty added once per pick; argmax returns the
    first maximum, so ties go to the smaller index exactly as in mmr_core.
    """
    n = len(acc)
    _check_size(K, n)
    last = int(np.argmax(acc))
    selected = [last]
    gains = [float(acc[last])]
    max_sim = np.full(n, -np.inf)
    penalty = np.zeros(n)
    sim = np.empty(n)
    gain = np.empty(n)
    for _ in range(1, K):
        penalty[last] = -np.inf
        np.dot(ew, ew[last], out=sim)
        np.maximum(max_sim, expit(sim, out=sim), out=max_sim)
        if counters is not None:
            counters["sim_evals"] = counters.get("sim_evals", 0) + n
        # gain = (acc + lam * (1 - max_sim)) + penalty, evaluated in place
        np.subtract(1.0, max_sim, out=gain)
        gain *= lam
        gain += acc
        gain += penalty
        last = int(gain.argmax())
        selected.append(last)
        gains.append(float(gain[last]))
    return selected, gains


def mmr_rows(model, rows, lam, K):
    """Interest-aware MMR over a decoded request (distill.RequestRows)
    using the model's current state: (picks in order, per-step gains,
    y_tea holding 1.0 at each pick)."""
    acc = model.acc_scores(rows)
    ew = model.params["item_emb"][rows.item_idx] \
        * model.params["user_emb"][rows.u_idx]
    selected, gains = mmr_greedy(acc, ew, lam, K)
    y_tea = np.zeros(len(rows.item_idx), dtype=np.float64)
    y_tea[selected] = 1.0
    return selected, gains, y_tea


def mmr_select(request, model, lam, K) -> TeacherLabeling:
    """Interest-aware MMR over a request using the model's current state."""
    selected, gains, y_tea = mmr_rows(model, model.request_arrays(request),
                                      lam, K)
    return TeacherLabeling(
        request_id=request.request_id,
        winning_ids=[request.item_ids[i] for i in selected],
        winning_idx=np.asarray(selected, dtype=np.int64),
        y_tea=y_tea,
        gains=gains,
    )
