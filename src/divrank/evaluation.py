"""Fused ranking via a bounded min-heap, list-quality metrics and the
latency benchmark comparing the student against the greedy teacher.
"""

from __future__ import annotations

import heapq
import os
import platform
import time
from dataclasses import asdict, dataclass
from itertools import islice

import numpy as np

from . import teacher as teach
from .distill import CDMModel, RequestRows


@dataclass
class RankedList:
    request_id: str
    item_idx: np.ndarray    # candidate positions, best first
    item_ids: list
    scores: np.ndarray      # fused scores, same order


def _counting_key(counters: dict):
    """A tuple type whose `<` (the only comparison heapq makes) adds 1 to
    counters["heap_comparisons"]."""
    counters.setdefault("heap_comparisons", 0)

    class CountingKey(tuple):
        __slots__ = ()

        def __lt__(self, other):
            counters["heap_comparisons"] += 1
            return tuple.__lt__(self, other)

    return CountingKey


def _push_then_pop(heap, key):
    heapq.heappush(heap, key)
    heapq.heappop(heap)


def top_k_fused(scores: np.ndarray, K: int, counters: dict | None = None):
    """Indices of the K best scores via a size-K heapq min-heap.

    Keys are (score, -candidate_index), so ties break toward the smaller
    candidate index. Serving keeps only the keys at or above the K-th
    largest score, one np.partition: any other key is beaten by at least K
    of those, so the top K are the same. It steps each kept key with
    heappushpop, which exits after one comparison when the key does not
    beat the root. With counters given, every key is pushed and then popped
    instead, so the count of the heap's comparisons grows as N log K; the
    final sort is not counted. Non-finite scores raise ValueError: NaN
    compares false both ways and would corrupt the heap order.
    """
    if not np.all(np.isfinite(scores)):
        raise ValueError("top_k_fused needs finite scores")
    n = len(scores)
    K = min(K, n)
    if K <= 0:
        return np.empty(0, dtype=np.int64)
    # python floats compare faster than numpy scalars, in the same order
    if counters is None and K < n:
        kept = np.flatnonzero(scores >= np.partition(scores, n - K)[n - K])
        keys = zip(scores[kept].tolist(), (-kept).tolist())
    else:
        keys = zip(scores.tolist(), range(0, -n, -1))
    step = heapq.heappushpop
    if counters is not None:
        keys = map(_counting_key(counters), keys)
        step = _push_then_pop
    heap = list(islice(keys, K))
    heapq.heapify(heap)
    for key in keys:
        step(heap, key)
    best = sorted(map(tuple, heap), reverse=True)   # plain tuples: uncounted
    return np.asarray([-neg for _, neg in best], dtype=np.int64)


def fused_scores(model: CDMModel, request, gamma: float) -> np.ndarray:
    """f(u, i) + gamma * y_stu per candidate; y_stu is skipped at gamma=0."""
    rows = model.request_arrays(request)
    acc = model.acc_scores(rows)
    if gamma == 0.0:
        return acc
    return acc + gamma * model.student_scores(rows)


def fused_rank(model: CDMModel, request, K: int, gamma: float) -> RankedList:
    scores = fused_scores(model, request, gamma)
    idx = top_k_fused(scores, K)
    return RankedList(request_id=request.request_id, item_idx=idx,
                      item_ids=[request.item_ids[i] for i in idx],
                      scores=scores[idx])


# ---------------------------------------------------------------------------
# metrics


def ilad_at_k(embeddings: np.ndarray) -> float:
    """1 - mean pairwise cosine similarity over the ranked items' raw
    embedding rows. Needs at least two rows."""
    E = np.asarray(embeddings, dtype=np.float64)
    m = len(E)
    if m < 2:
        raise ValueError("ILAD needs at least two items")
    norms = np.linalg.norm(E, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("ILAD is undefined for zero-norm embeddings")
    unit = E / norms[:, None]
    cos = unit @ unit.T
    total = cos.sum() - np.trace(cos)
    return 1.0 - total / (m * (m - 1))


def cc_at_k(category_lists, num_categories: int) -> float:
    """System-level category coverage: distinct categories anywhere in the
    ranked lists over the total category count."""
    if num_categories <= 0:
        raise ValueError("num_categories must be positive")
    covered = set()
    for cats in category_lists:
        covered.update(cats)
    return len(covered) / num_categories


def recall_at_k(ranked_labels, total_positives: int) -> float:
    if total_positives <= 0:
        raise ValueError("recall needs at least one positive")
    return sum(1 for y in ranked_labels if y == 1) / total_positives


def mrr_at_k(ranked_labels) -> float:
    for pos, y in enumerate(ranked_labels, start=1):
        if y == 1:
            return 1.0 / pos
    return 0.0


def auc_score(labels, scores) -> float:
    """Rank-based AUC with midrank tie handling."""
    labels = np.asarray(labels, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both classes")
    # a run of c tied scores ending at 1-based sorted position e shares
    # the midrank e - (c - 1) / 2
    _, inverse, counts = np.unique(scores, return_inverse=True,
                                   return_counts=True)
    ranks = (np.cumsum(counts) - 0.5 * (counts - 1))[inverse]
    rank_sum = ranks[labels == 1].sum()
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


@dataclass
class MetricReport:
    K: int
    gamma: float
    ilad: float
    cc: float
    recall: float
    mrr: float
    num_requests: int
    num_scored: int          # requests with at least one positive label
    num_skipped: int

    def to_dict(self):
        return asdict(self)


def evaluate_model(model: CDMModel, dataset, Ks, gammas) -> list:
    """Rank every request per (K, gamma) and aggregate the four metrics.

    Recall and MRR average over requests that have at least one positive
    label; label-free requests are skipped and counted. ILAD averages per
    request; CC pools category coverage across the whole run.
    """
    reports = []
    split = [model.request_arrays(req) for req in dataset.requests]
    # neither score depends on gamma or K: score each request once
    acc = [model.acc_scores(rows) for rows in split]
    if any(gamma != 0.0 for gamma in gammas):
        y_stu = [model.student_scores(rows) for rows in split]
    for gamma in gammas:
        per_request = acc if gamma == 0.0 else \
            [a + gamma * y for a, y in zip(acc, y_stu)]
        for K in Ks:
            ilads, recalls, mrrs, cat_lists = [], [], [], []
            skipped = 0
            for rows, scores in zip(split, per_request):
                top = top_k_fused(scores, K)
                E = model.params["item_emb"][rows.item_idx[top]]
                if len(top) >= 2:
                    ilads.append(ilad_at_k(E))
                cat_lists.append(rows.cat_idx[top].tolist())
                positives = int((rows.labels == 1).sum())
                if positives == 0:
                    skipped += 1
                    continue
                ranked_labels = rows.labels[top].tolist()
                recalls.append(recall_at_k(ranked_labels, positives))
                mrrs.append(mrr_at_k(ranked_labels))
            reports.append(MetricReport(
                K=K, gamma=gamma,
                ilad=float(np.mean(ilads)) if ilads else 0.0,
                cc=cc_at_k(cat_lists, len(model.category_ids)),
                recall=float(np.mean(recalls)) if recalls else 0.0,
                mrr=float(np.mean(mrrs)) if mrrs else 0.0,
                num_requests=len(dataset.requests),
                num_scored=len(recalls), num_skipped=skipped))
    return reports


# ---------------------------------------------------------------------------
# latency benchmark


def _median_time(fn, repeats: int, warmup: int = 1) -> float:
    for _ in range(warmup):
        fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


CROSSOVER_LADDER = (25, 50, 100, 200, 400)


def crossover_k(Ks, greedy_time, student_time):
    """Smallest K of Ks (ascending) at which greedy_time(K) >=
    student_time(K), or None; stops timing at the first such K."""
    return next((K for K in Ks if greedy_time(K) >= student_time(K)), None)


def latency_bench(model: CDMModel, N: int = 10000, K: int = 100,
                  repeats: int = 5, seed: int = 0) -> dict:
    """Median wall-clock of one teacher pass vs one student pass over a
    synthetic pool of N catalog items, plus the operation-count scalings
    that pin down their asymptotics.

    The teacher is timed twice: the quadratic re-scan (mmr_core, which the
    speedup and the similarity-count scaling refer to) and the exact
    incremental greedy (mmr_greedy, the strongest honest baseline). The
    candidate pool is drawn (with replacement if needed) from the model's
    catalog so both paths see identical inputs; distinct_items says how
    many different items it holds. crossover_K is the smallest K of
    CROSSOVER_LADDER (capped at N) at which mmr_greedy takes at least as
    long as the student pass at that K, or None.

    heap_comparisons_N and heap_comparisons_2N count the `<` comparisons
    that top_k_fused's size-K heap makes over the N and the 2N accuracy
    scores, every key pushed and then popped (the final sort of the K
    survivors is not counted); heap_comparison_ratio is 2N over N.
    """
    rng = np.random.default_rng(seed)
    n_items = len(model.item_ids)
    cfg = model.config
    u_idx = int(rng.integers(len(model.user_ids)))

    def draw(n):
        """A request of n sampled catalog items, no labels shown."""
        item_idx = np.sort(rng.choice(n_items, size=n, replace=n > n_items))
        return RequestRows(u_idx, item_idx, model._item_cat_row[item_idx],
                           np.full(n, -1, dtype=np.int64), seed, cfg)

    rows = draw(N)
    acc = model.acc_scores(rows)
    ew = model.params["item_emb"][rows.item_idx] \
        * model.params["user_emb"][u_idx]

    teacher_time = _median_time(
        lambda: teach.mmr_core(acc, ew, cfg.lam, K), repeats)
    incremental_time = _median_time(
        lambda: teach.mmr_greedy(acc, ew, cfg.lam, K), repeats)

    # rows keeps its context pool after the warm-up pass: the draw took
    # 16-29 us of a 9-10 ms pass at N = 10 000 on a 2 vCPU VM
    def student_pass(K):
        return top_k_fused(acc + cfg.gamma * model.student_scores(rows), K)

    student_time = _median_time(lambda: student_pass(K), repeats)

    crossover = crossover_k(
        sorted({min(K_i, N) for K_i in CROSSOVER_LADDER}),
        lambda K_i: _median_time(
            lambda: teach.mmr_greedy(acc, ew, cfg.lam, K_i), repeats),
        lambda K_i: _median_time(lambda: student_pass(K_i), repeats))

    # similarity-evaluation scaling: K doubling at fixed N
    counters_k = {}
    teach.mmr_core(acc, ew, cfg.lam, K, counters_k)
    counters_2k = {}
    teach.mmr_core(acc, ew, cfg.lam, 2 * K, counters_2k)

    # heap-comparison scaling: N doubling at fixed K
    acc2 = model.acc_scores(draw(2 * N))
    heap_n = {}
    top_k_fused(acc, K, heap_n)
    heap_2n = {}
    top_k_fused(acc2, K, heap_2n)

    return {
        "N": N, "K": K, "repeats": repeats,
        "teacher_median_s": teacher_time,
        "student_median_s": student_time,
        "speedup": teacher_time / student_time,
        "incremental_teacher_median_s": incremental_time,
        "speedup_vs_incremental": incremental_time / student_time,
        "crossover_K": crossover,
        "distinct_items": len(np.unique(rows.item_idx)),
        "sim_evals_K": counters_k["sim_evals"],
        "sim_evals_2K": counters_2k["sim_evals"],
        "sim_eval_ratio": counters_2k["sim_evals"] / counters_k["sim_evals"],
        "heap_comparisons_N": heap_n["heap_comparisons"],
        "heap_comparisons_2N": heap_2n["heap_comparisons"],
        "heap_comparison_ratio": heap_2n["heap_comparisons"]
        / heap_n["heap_comparisons"],
        "environment": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "system": platform.system(),
            "numpy": np.__version__,
            # BLAS threads move the teacher/student speed ratio
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        },
    }
