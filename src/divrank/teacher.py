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


def check_size(K, n):
    """Refuse K picks from n candidates unless 1 <= K <= n."""
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
    check_size(K, n)
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
    check_size(K, n)
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
            _fold_pick(e, min_e, gain, open_acc, lam)
            last = int(gain.argmax())
            selected.append(last)
            gains.append(float(gain[last]))
    return selected, gains


def _fold_pick(e, min_e, gain, open_acc, lam):
    """One incremental greedy step after its product, in place: fold the
    newest pick's e = -x into min_e as exp(e), and write each candidate's
    gain open_acc + lam * (1 - 1 / (1 + min_e)) into gain. The steps are
    elementwise, so a row of stacked arrays gets the one-request result."""
    np.minimum(min_e, np.exp(e, out=e), out=min_e)
    np.add(min_e, 1.0, out=gain)
    np.reciprocal(gain, out=gain)
    np.subtract(1.0, gain, out=gain)
    gain *= lam
    gain += open_acc


def mmr_greedy_stacked(acc, ew, lam, K):
    """mmr_greedy over R requests of n candidates each, all at once.

    acc: (R, n) accuracy scores; ew: (R, n, d) interest-weighted
    embeddings. Returns (R, K) picks in order and (R, K) per-step gains;
    row r holds mmr_greedy(acc[r], ew[r], lam, K) bit for bit: the
    stacked matmul runs the same per-request product as np.dot, and both
    then take the same _fold_pick step.
    """
    R, n = acc.shape
    check_size(K, n)
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
            _fold_pick(e, min_e, gain, open_acc, lam)
            last = gain.argmax(axis=1)
            picks[:, h] = last
            gains[:, h] = gain[reqs, last]
    return picks, gains


def mmr_inputs(model, rows):
    """The teacher's inputs for a decoded request (distill.RequestRows)
    under the model's current state: (accuracy scores, interest-weighted
    embeddings e_i * u)."""
    return (model.acc_scores(rows), model.params["item_emb"][rows.item_idx]
            * model.params["user_emb"][rows.u_idx])


def mmr_labels(model, batch, lam, K):
    """Teacher labels of decoded requests that all have n candidates: an
    (R, n) array holding 1.0 at each request's picks, row r those of
    mmr_greedy(*mmr_inputs(model, batch[r]), lam, K)."""
    if len(batch) == 1:
        picks = [mmr_greedy(*mmr_inputs(model, batch[0]), lam, K)[0]]
    else:
        acc, ew = zip(*(mmr_inputs(model, rows) for rows in batch))
        picks, _ = mmr_greedy_stacked(np.stack(acc), np.stack(ew), lam, K)
    y_tea = np.zeros((len(batch), len(batch[0].item_idx)))
    np.put_along_axis(y_tea, np.asarray(picks), 1.0, axis=1)
    return y_tea


def mmr_select(request, model, lam, K) -> TeacherLabeling:
    """Interest-aware MMR over a request using the model's current state."""
    rows = model.request_arrays(request)
    selected, gains = mmr_greedy(*mmr_inputs(model, rows), lam, K)
    y_tea = np.zeros(len(rows.item_idx))
    y_tea[selected] = 1.0
    return TeacherLabeling(
        request_id=request.request_id,
        winning_ids=[request.item_ids[i] for i in selected],
        winning_idx=np.asarray(selected, dtype=np.int64),
        y_tea=y_tea,
        gains=gains,
    )
