"""Greedy interest-aware selection: hand-checkable cases, per-step
optimality, tie-breaking, counters and the exhaustive oracle.
"""

import numpy as np
import pytest

from divrank import teacher
from divrank.teacher import mmr_core, mmr_greedy, mmr_greedy_stacked

from brute_force import brute_force_core
from logistic import sigmoid

RNG = np.random.default_rng(42)


def interest_similarity(e_i, e_j, u):
    """sigma((e_i * u) . (e_j * u)) in (0, 1): the teacher's similarity
    for one pair, in scalar form."""
    e_i, e_j, u = (np.asarray(v, dtype=np.float64) for v in (e_i, e_j, u))
    return float(sigmoid(np.dot(e_i * u, e_j * u)))


def div_score(e_cand, selected_embs, u):
    """1 - max similarity to the already-selected items."""
    if len(selected_embs) == 0:
        raise ValueError("div_score needs a non-empty selection; "
                         "the first item is chosen by accuracy alone")
    sims = [interest_similarity(e_cand, e_s, u) for e_s in selected_embs]
    return 1.0 - max(sims)


def brute_force_best_subset(request, model, lam, K):
    """The exhaustive oracle's best subset of a Request, as item ids."""
    rows = model.request_arrays(request)
    ew = model.params["item_emb"][rows.item_idx] \
        * model.params["user_emb"][rows.u_idx]
    subset, value = brute_force_core(model.acc_scores(rows), ew, lam, K)
    return [request.item_ids[i] for i in subset], value


def random_instance(n=12, d=5, rng=RNG):
    acc = rng.uniform(0.0, 1.0, size=n)
    ew = rng.standard_normal((n, d))
    return acc, ew


class TestSimilarity:
    def test_symmetric_and_bounded(self):
        for _ in range(50):
            e_i, e_j, u = RNG.standard_normal((3, 6))
            s = interest_similarity(e_i, e_j, u)
            assert 0.0 < s < 1.0
            assert s == pytest.approx(interest_similarity(e_j, e_i, u))

    def test_matches_definition(self):
        e_i, e_j, u = np.eye(3)[0], np.ones(3), np.array([2.0, 0.0, 1.0])
        expected = sigmoid(np.dot(e_i * u, e_j * u))
        assert interest_similarity(e_i, e_j, u) == pytest.approx(expected)

    def test_interest_weighting_can_hide_similarity(self):
        # identical items look dissimilar once the user zeroes them out
        e = np.array([3.0, 0.0])
        assert interest_similarity(e, e, np.array([1.0, 1.0])) > 0.99
        assert interest_similarity(e, e, np.array([0.0, 1.0])) == \
            pytest.approx(0.5)

    def test_div_needs_nonempty_selection(self):
        with pytest.raises(ValueError):
            div_score(np.ones(3), [], np.ones(3))

    def test_div_uses_most_similar_selected(self):
        u = np.ones(4)
        cand = RNG.standard_normal(4)
        sel = [RNG.standard_normal(4) for _ in range(3)]
        expected = 1.0 - max(interest_similarity(cand, s, u) for s in sel)
        assert div_score(cand, sel, u) == pytest.approx(expected)


class TestGreedySelection:
    def test_first_pick_is_best_accuracy(self):
        acc, ew = random_instance()
        selected, gains = mmr_core(acc, ew, lam=0.3, K=4)
        assert selected[0] == int(np.argmax(acc))
        assert gains[0] == pytest.approx(acc.max())

    def test_each_step_maximizes_marginal_gain(self):
        for trial in range(20):
            acc, ew = random_instance(n=10)
            lam = 0.4
            selected, gains = mmr_core(acc, ew, lam, K=5)
            sim = sigmoid(ew @ ew.T)
            for h in range(1, 5):
                prev = selected[:h]
                best = -np.inf
                for j in range(10):
                    if j in prev:
                        continue
                    gain = acc[j] + lam * (1.0 - sim[j, prev].max())
                    best = max(best, gain)
                assert gains[h] == pytest.approx(best)

    def test_lambda_zero_reduces_to_accuracy_ranking(self):
        acc, ew = random_instance()
        selected, _ = mmr_core(acc, ew, lam=0.0, K=5)
        assert selected == list(np.argsort(-acc)[:5])

    def test_large_lambda_avoids_near_duplicates(self):
        # two copies of the best item plus one dissimilar mediocre item
        base = np.array([2.0, 0.0, 0.0])
        ew = np.stack([base, base, np.array([0.0, 0.0, 2.0])])
        acc = np.array([0.9, 0.89, 0.2])
        selected, _ = mmr_core(acc, ew, lam=5.0, K=2)
        assert selected == [0, 2]
        selected, _ = mmr_core(acc, ew, lam=0.0, K=2)
        assert selected == [0, 1]

    def test_tie_breaks_to_smallest_index(self):
        acc = np.array([0.5, 0.5, 0.5])
        ew = np.zeros((3, 2))  # all similarities identical
        selected, _ = mmr_core(acc, ew, lam=0.7, K=3)
        assert selected == [0, 1, 2]

    def test_k_too_large_rejected(self):
        acc, ew = random_instance(n=4)
        with pytest.raises(ValueError):
            mmr_core(acc, ew, 0.1, K=5)

    @pytest.mark.parametrize("greedy", [mmr_core, mmr_greedy])
    def test_k_below_one_rejected(self, greedy):
        acc, ew = random_instance(n=4)
        for K in (0, -3):
            with pytest.raises(ValueError, match="must be >= 1"):
                greedy(acc, ew, 0.1, K=K)

    def test_counter_counts_full_recompute(self):
        acc, ew = random_instance(n=20)
        counters = {}
        mmr_core(acc, ew, 0.1, K=5, counters=counters)
        # step h compares (n - h) remaining against h selected
        expected = sum((20 - h) * h for h in range(1, 5))
        assert counters["sim_evals"] == expected


class TestIncrementalGreedy:
    def test_matches_quadratic_core_on_1200_instances(self):
        for trial in range(1200):
            rng = np.random.default_rng(trial)
            n = int(rng.integers(5, 301))
            K = int(rng.integers(1, min(n, 60) + 1))
            lam = (0.0, 0.1, 1.0, 5.0)[trial % 4]
            # two decimals force accuracy ties; repeated rows force
            # similarity ties
            acc = np.round(rng.uniform(0.0, 1.0, size=n), 2)
            ew = rng.standard_normal((n, int(rng.integers(2, 17))))
            if trial % 3 == 0:
                ew[rng.integers(n, size=n // 3)] = ew[rng.integers(n)]
            want, want_gains = mmr_core(acc, ew, lam, K)
            got, got_gains = mmr_greedy(acc, ew, lam, K)
            assert got == want, f"trial {trial}"
            np.testing.assert_allclose(got_gains, want_gains, rtol=0.0,
                                       atol=1e-12)

    def test_k_too_large_rejected(self):
        acc, ew = random_instance(n=4)
        with pytest.raises(ValueError):
            mmr_greedy(acc, ew, 0.1, K=5)


class TestStackedGreedy:
    @pytest.mark.parametrize("R", [1, 2, 7, 64])
    def test_matches_per_request_greedy_bitwise(self, R):
        for trial in range(40):
            rng = np.random.default_rng([R, trial])
            n = int(rng.integers(5, 301))
            K = int(rng.integers(1, min(n, 60) + 1))
            lam = (0.0, 0.1, 1.0, 5.0)[trial % 4]
            # the recipe of test_matches_quadratic_core_on_1200_instances,
            # per request of the stack
            acc = np.round(rng.uniform(0.0, 1.0, size=(R, n)), 2)
            ew = rng.standard_normal((R, n, int(rng.integers(2, 17))))
            if trial % 3 == 0:
                for r in range(R):
                    ew[r, rng.integers(n, size=n // 3)] = ew[r, rng.integers(n)]
            picks, gains = mmr_greedy_stacked(acc, ew, lam, K)
            assert picks.shape == gains.shape == (R, K)
            for r in range(R):
                want, want_gains = mmr_greedy(acc[r], ew[r], lam, K)
                assert np.array_equal(picks[r], want), f"trial {trial}"
                assert np.array_equal(gains[r], want_gains), f"trial {trial}"

    def test_k_out_of_range_rejected(self):
        acc, ew = random_instance(n=4)
        for K in (0, 5):
            with pytest.raises(ValueError):
                mmr_greedy_stacked(acc[None], ew[None], 0.1, K=K)


class TestBruteForceOracle:
    def test_oracle_at_least_greedy(self):
        for trial in range(30):
            acc, ew = random_instance(n=9, rng=np.random.default_rng(trial))
            lam = 0.5
            selected, gains = mmr_core(acc, ew, lam, K=3)
            _, best_val = brute_force_core(acc, ew, lam, K=3)
            assert best_val >= sum(gains) - 1e-9

    def test_oracle_exact_on_tiny_case(self):
        # K = n: the only subset; value must equal the best greedy order
        acc = np.array([0.3, 0.8])
        ew = RNG.standard_normal((2, 3))
        subset, val = brute_force_core(acc, ew, 0.5, K=2)
        sim = sigmoid(ew @ ew.T)
        expected = acc[1] + acc[0] + 0.5 * (1.0 - sim[0, 1])
        assert sorted(subset) == [0, 1]
        assert val == pytest.approx(expected)

    def test_k_limit(self):
        acc, ew = random_instance(n=8)
        with pytest.raises(ValueError):
            brute_force_core(acc, ew, 0.1, K=5)

    def test_combinatorial_limit(self):
        acc, ew = random_instance(n=30)
        with pytest.raises(ValueError):
            brute_force_core(acc, ew, 0.1, K=4, limit=1000)


class TestRequestLevel:
    def test_labeling_shape_and_consistency(self, small_model_and_data):
        model, ds = small_model_and_data
        req = ds.requests[0]
        lab = teacher.mmr_select(req, model, lam=0.2, K=4)
        assert lab.request_id == req.request_id
        assert len(lab.winning_ids) == 4
        assert lab.y_tea.sum() == 4
        assert set(np.flatnonzero(lab.y_tea)) == set(lab.winning_idx)
        for i, iid in zip(lab.winning_idx, lab.winning_ids):
            assert req.item_ids[i] == iid

    def test_labels_match_quadratic_core(self, small_model_and_data):
        model, ds = small_model_and_data
        for req in ds.requests[:8]:
            lab = teacher.mmr_select(req, model, lam=0.5, K=6)
            rows = model.request_arrays(req)
            ew = model.params["item_emb"][rows.item_idx] \
                * model.params["user_emb"][rows.u_idx]
            selected, gains = mmr_core(model.acc_scores(rows), ew, 0.5, 6)
            assert lab.winning_idx.tolist() == selected
            np.testing.assert_allclose(lab.gains, gains, rtol=0.0,
                                       atol=1e-12)

    def test_brute_force_request_matches_core(self, small_model_and_data):
        model, ds = small_model_and_data
        req = ds.requests[1]
        ids, val = brute_force_best_subset(req, model, lam=0.3, K=2)
        assert len(ids) == 2
        assert val > 0.0
