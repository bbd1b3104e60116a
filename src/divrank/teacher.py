"""Interest-aware MMR teacher: greedy winning-set selection and labels.

Selection runs on detached (non-gradient) embeddings and scores. Two
greedy implementations make the same picks:

- ``mmr_core`` recomputes, at each step, the similarity of every remaining
  candidate to every selected item. It is the quadratic re-scan the paper
  describes and the student is meant to replace; the serving-cost gates
  time it and count its similarity evaluations.
- ``mmr_greedy`` keeps one running max-similarity vector and folds in only
  the newest pick (the incremental update of Chen, Zhang & Zhou, NeurIPS
  2018), so K picks cost O(N*K*d) instead of O(N*K^2*d). ``mmr_select``
  and ``latency_bench`` run it one request at a time.
- ``mmr_greedy_stacked`` runs the same step arithmetic on R requests of
  n candidates at once: one matmul and one row-wise argmax per step in
  place of R numpy call sequences. Each row's picks and gains are
  mmr_greedy's bit for bit. Training labels come from it, through
  ``mmr_labels``, over requests grouped by candidate count; requests are
  never padded to a common n, since padding would change how the
  similarity products are summed and so flip picks on near-ties. A batch
  of one goes to mmr_greedy, which is faster at R = 1.

The similarity of two candidates is s = sigmoid(x), x the dot product of
their interest-weighted embeddings, computed as autodiff.sigmoid computes
it: 1 / (1 + exp(-x)). Each greedy takes -ew once, so every step's
product is already -x, and silences exp's overflow (s = 0 where
x < -709) once per call, not once per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import sigmoid_of_negated


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
    neg_ew = -ew
    with np.errstate(over="ignore"):
        for _ in range(1, K):
            remaining = np.flatnonzero(~chosen)
            sims = sigmoid_of_negated(neg_ew[remaining] @ ew[selected].T)
            if counters is not None:
                counters["sim_evals"] = counters.get("sim_evals", 0) \
                    + sims.size
            gain = acc[remaining] + lam * (1.0 - sims.max(axis=1))
            best = int(np.argmax(gain))  # first max -> smallest index
            selected.append(int(remaining[best]))
            gains.append(float(gain[best]))
            chosen[remaining[best]] = True
    return selected, gains


def mmr_greedy(acc, ew, lam, K):
    """Exact incremental greedy: the picks of mmr_core at O(N*d) per step.

    After each pick only the similarities to that pick are computed and
    folded into the running per-candidate maximum, kept as the minimum of
    e = exp(-x) over the picks: the sum and the reciprocal of 1 / (1 + e)
    are correctly rounded and so monotone, so 1 / (1 + min e) is bitwise
    the largest similarity, at one reciprocal per step. Chosen candidates get
    a gain of -inf through an accuracy copy set to -inf at each pick;
    argmax returns the first maximum, so ties go to the smaller index
    exactly as in mmr_core.
    """
    n = len(acc)
    _check_size(K, n)
    last = int(np.argmax(acc))
    selected = [last]
    gains = [float(acc[last])]
    open_acc = np.array(acc, dtype=np.float64)
    min_e = np.full(n, np.inf)
    e = np.empty(n)
    gain = np.empty(n)
    neg_ew = -ew
    with np.errstate(over="ignore"):
        for _ in range(1, K):
            open_acc[last] = -np.inf
            np.dot(neg_ew, ew[last], out=e)
            np.minimum(min_e, np.exp(e, out=e), out=min_e)
            # gain = acc + lam * (1 - 1 / (1 + min_e)), in place
            np.add(min_e, 1.0, out=gain)
            np.reciprocal(gain, out=gain)
            np.subtract(1.0, gain, out=gain)
            gain *= lam
            gain += open_acc
            last = int(gain.argmax())
            selected.append(last)
            gains.append(float(gain[last]))
    return selected, gains


def mmr_greedy_stacked(acc, ew, lam, K):
    """mmr_greedy over R requests of n candidates each, all at once.

    acc: (R, n) accuracy scores; ew: (R, n, d) interest-weighted
    embeddings. Returns (R, K) picks in order and (R, K) per-step gains;
    row r holds mmr_greedy(acc[r], ew[r], lam, K) bit for bit: the
    stacked matmul runs the same per-request product as np.dot, and every
    other step is elementwise.
    """
    R, n = acc.shape
    _check_size(K, n)
    reqs = np.arange(R)
    picks = np.empty((R, K), dtype=np.int64)
    gains = np.empty((R, K))
    last = acc.argmax(axis=1)
    picks[:, 0] = last
    gains[:, 0] = acc[reqs, last]
    open_acc = np.array(acc, dtype=np.float64)
    min_e = np.full((R, n), np.inf)
    e = np.empty((R, n))
    gain = np.empty((R, n))
    neg_ew = -ew
    with np.errstate(over="ignore"):
        for h in range(1, K):
            open_acc[reqs, last] = -np.inf
            np.matmul(neg_ew, ew[reqs, last, :, None], out=e[:, :, None])
            np.minimum(min_e, np.exp(e, out=e), out=min_e)
            np.add(min_e, 1.0, out=gain)
            np.reciprocal(gain, out=gain)
            np.subtract(1.0, gain, out=gain)
            gain *= lam
            gain += open_acc
            last = gain.argmax(axis=1)
            picks[:, h] = last
            gains[:, h] = gain[reqs, last]
    return picks, gains


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


def mmr_labels(model, batch, lam, K):
    """Teacher labels of decoded requests that all have n candidates:
    an (R, n) array whose row r is mmr_rows(model, batch[r], lam, K)'s
    y_tea bit for bit."""
    if len(batch) == 1:
        return mmr_rows(model, batch[0], lam, K)[2][None]
    acc = np.stack([model.acc_scores(rows) for rows in batch])
    ew = model.params["item_emb"][np.stack([r.item_idx for r in batch])] \
        * model.params["user_emb"][[r.u_idx for r in batch]][:, None, :]
    picks, _ = mmr_greedy_stacked(acc, ew, lam, K)
    y_tea = np.zeros(acc.shape)
    np.put_along_axis(y_tea, picks, 1.0, axis=1)
    return y_tea


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
