"""Exhaustive oracle for the greedy teacher: the best size-K subset of a
request under the MMR objective, found by enumeration (tiny inputs only).
"""

from itertools import combinations, permutations
from math import comb

import numpy as np
from scipy.special import expit


def _order_value(order, acc, sim, lam):
    total = float(acc[order[0]])
    for h in range(1, len(order)):
        best_sim = max(sim[order[h], order[j]] for j in range(h))
        total += float(acc[order[h]]) + lam * (1.0 - best_sim)
    return total


def brute_force_core(acc, ew, lam, K, limit=10**6):
    """Exhaustive size-K subset search; each subset is valued by its best
    greedy-order evaluation (all K! orders, K <= 4)."""
    n = len(acc)
    if K > 4:
        raise ValueError("brute force supports K <= 4 (K! order enumeration)")
    if comb(n, K) > limit:
        raise ValueError(f"C({n},{K}) exceeds the combinatorial limit")
    sim = expit(ew @ ew.T)
    best_val = -np.inf
    best_subset = None
    for subset in combinations(range(n), K):
        val = max(_order_value(order, acc, sim, lam)
                  for order in permutations(subset))
        if val > best_val:
            best_val = val
            best_subset = subset
    return list(best_subset), float(best_val)

