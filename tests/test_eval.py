"""Heap-based fused ranking and the list-quality metrics, each pinned to
hand-computed reference values.
"""

import os

import numpy as np
import pytest

from divrank import evaluation as ev
from divrank.evaluation import (auc_score, cc_at_k, fused_rank, ilad_at_k,
                                latency_bench, mrr_at_k, recall_at_k,
                                top_k_fused)

RNG = np.random.default_rng(55)


class TestTopKHeap:
    def test_matches_stable_sort_reference(self):
        for trial in range(300):
            rng = np.random.default_rng(trial)
            n = int(rng.integers(1, 40))
            scores = rng.integers(0, 6, size=n).astype(float)  # force ties
            K = int(rng.integers(1, n + 1))
            ref = sorted(range(n), key=lambda i: (-scores[i], i))[:K]
            assert top_k_fused(scores, K).tolist() == ref
            counters = {"heap_comparisons": 0}
            assert top_k_fused(scores, K, counters).tolist() == ref
            if n > 1:
                assert counters["heap_comparisons"] > 0

    def test_k_larger_than_n(self):
        scores = np.array([0.3, 0.9, 0.1])
        assert top_k_fused(scores, 10).tolist() == [1, 0, 2]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        scores = np.array([0.1, bad, 0.3, 0.2])
        with pytest.raises(ValueError, match="finite"):
            top_k_fused(scores, 2)
        with pytest.raises(ValueError, match="finite"):
            top_k_fused(scores, 2, {"heap_comparisons": 0})

    def test_counters_start_empty_and_accumulate(self):
        scores = np.array([0.3, 0.1, 0.2])
        counters = {}
        assert top_k_fused(scores, 2, counters).tolist() == [0, 2]
        once = counters["heap_comparisons"]
        assert once > 0
        assert top_k_fused(scores, 2, counters).tolist() == [0, 2]
        assert counters["heap_comparisons"] == 2 * once
        counters = {"heap_comparisons": 100, "sim_evals": 7}
        top_k_fused(scores, 2, counters)
        assert counters == {"heap_comparisons": 100 + once, "sim_evals": 7}

    def test_comparisons_grow_linearly_in_n(self):
        rng = np.random.default_rng(0)
        K = 16
        a = {"heap_comparisons": 0}
        top_k_fused(rng.random(4000), K, a)
        b = {"heap_comparisons": 0}
        top_k_fused(rng.random(8000), K, b)
        ratio = b["heap_comparisons"] / a["heap_comparisons"]
        assert 1.5 <= ratio <= 2.5


class TestMetricsHandCases:
    def test_ilad_orthogonal_vectors(self):
        E = np.eye(3)
        assert ilad_at_k(E) == pytest.approx(1.0, abs=1e-12)

    def test_ilad_identical_vectors(self):
        E = np.tile([1.0, 2.0], (4, 1))
        assert ilad_at_k(E) == pytest.approx(0.0, abs=1e-12)

    def test_ilad_mixed_pair(self):
        E = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        # pairs: (0,1) cos 1, (0,2) cos 0, (1,2) cos 0 -> mean 1/3
        assert ilad_at_k(E) == pytest.approx(1.0 - 1.0 / 3.0, abs=1e-12)

    def test_ilad_needs_two_items(self):
        with pytest.raises(ValueError):
            ilad_at_k(np.ones((1, 3)))
        with pytest.raises(ValueError):
            ilad_at_k(np.array([[0.0, 0.0], [1.0, 0.0]]))

    def test_cc_pools_across_requests(self):
        lists = [["a", "b"], ["b"], ["c"]]
        assert cc_at_k(lists, 4) == pytest.approx(0.75, abs=1e-12)
        assert cc_at_k([], 4) == 0.0
        with pytest.raises(ValueError):
            cc_at_k(lists, 0)

    def test_recall_hand_case(self):
        assert recall_at_k([1, 0, 1], total_positives=4) == \
            pytest.approx(0.5, abs=1e-12)
        with pytest.raises(ValueError):
            recall_at_k([1], 0)

    def test_mrr_hand_cases(self):
        assert mrr_at_k([0, 0, 1, 1]) == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert mrr_at_k([1, 0]) == pytest.approx(1.0, abs=1e-12)
        assert mrr_at_k([0, 0]) == 0.0


class TestAuc:
    def test_perfect_and_inverted(self):
        y = [0, 0, 1, 1]
        assert auc_score(y, [0.1, 0.2, 0.8, 0.9]) == 1.0
        assert auc_score(y, [0.9, 0.8, 0.2, 0.1]) == 0.0

    def test_ties_midrank(self):
        assert auc_score([0, 1], [0.5, 0.5]) == 0.5

    def test_matches_pairwise_counting(self):
        rng = np.random.default_rng(3)
        y = (rng.random(50) < 0.4).astype(int)
        # distinct scores, and integer scores where most entries tie
        for s in (rng.random(50), rng.integers(0, 4, 50).astype(float)):
            pairs = [(si, sj) for si, yi in zip(s, y) if yi
                     for sj, yj in zip(s, y) if not yj]
            ref = np.mean([1.0 if a > b else 0.5 if a == b else 0.0
                           for a, b in pairs])
            assert auc_score(y, s) == pytest.approx(ref, abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            auc_score([1, 1], [0.1, 0.2])


class TestModelEvaluation:
    def test_gamma_zero_ranks_by_accuracy(self, trained_small):
        model, _, ds = trained_small
        req = ds.requests[0]
        acc = model.acc_scores(model.request_arrays(req))
        ranked = fused_rank(model, req, K=5, gamma=0.0)
        assert ranked.item_idx.tolist() == \
            sorted(range(len(acc)), key=lambda i: (-acc[i], i))[:5]

    def test_gamma_shifts_scores_by_win_probability(self, trained_small):
        model, _, ds = trained_small
        req = ds.requests[1]
        acc = model.acc_scores(model.request_arrays(req))
        y = model.win_probabilities(req)
        ranked = fused_rank(model, req, K=4, gamma=0.2)
        fused = acc + 0.2 * y
        np.testing.assert_allclose(ranked.scores, fused[ranked.item_idx],
                                   atol=1e-12)

    def test_each_request_decoded_once(self, trained_small, small_config,
                                       monkeypatch):
        """Every path decodes a request once, through
        CDMModel.request_arrays, and draws its context pool at most once:
        only when the student runs."""
        import dataclasses
        from collections import Counter

        from divrank import distill, teacher
        from divrank.data import Dataset
        model, _, ds = trained_small
        req = ds.requests[2]
        want = model.acc_scores(model.request_arrays(req)) \
            + 0.3 * model.win_probabilities(req)
        calls, acc_calls, pools = [], [], []
        decode = type(model).request_arrays
        monkeypatch.setattr(type(model), "request_arrays",
                            lambda self, r: calls.append(r.request_id)
                            or decode(self, r))
        draw = distill.context_pool
        monkeypatch.setattr(distill, "context_pool",
                            lambda n, config, seed: pools.append((n, seed))
                            or draw(n, config, seed))
        ranked = fused_rank(model, req, K=4, gamma=0.3)
        assert len(calls) == 1 and len(pools) == 1
        np.testing.assert_array_equal(ranked.scores, want[ranked.item_idx])
        calls.clear()
        pools.clear()
        teacher.mmr_select(req, model, model.config.lam, 4)
        ev.fused_scores(model, req, 0.0)
        assert len(calls) == 2 and pools == []
        calls.clear()
        score = type(model).acc_scores
        monkeypatch.setattr(type(model), "acc_scores",
                            lambda self, *a: acc_calls.append(a)
                            or score(self, *a))
        three = Dataset(ds.requests[:3], ds.items, vocab_from=ds)
        ev.evaluate_model(model, three, Ks=[3, 5], gammas=[0.0, 0.1, 0.25])
        assert len(calls) == 3
        assert len(acc_calls) == 3
        assert len(pools) == 3
        # one training run: both splits decoded once, each pool drawn once
        calls.clear()
        pools.clear()
        distill.train(ds, dataclasses.replace(small_config, joint_epochs=1))
        assert Counter(calls) == Counter(r.request_id for r in ds.requests)
        assert max(Counter(pools).values()) == 1
        assert len(pools) == len(ds.requests)

    def test_reports_cover_grid(self, trained_small):
        model, _, ds = trained_small
        reports = ev.evaluate_model(model, ds, Ks=[3, 5], gammas=[0.0, 0.1])
        assert len(reports) == 4
        assert {(r.K, r.gamma) for r in reports} == \
            {(3, 0.0), (3, 0.1), (5, 0.0), (5, 0.1)}
        for r in reports:
            assert 0.0 <= r.ilad <= 2.0
            assert 0.0 <= r.cc <= 1.0
            assert 0.0 <= r.recall <= 1.0
            assert 0.0 <= r.mrr <= 1.0
            assert r.num_scored + r.num_skipped == r.num_requests

    def test_label_free_requests_are_skipped_not_scored(self, trained_small):
        from divrank.data import Dataset, Request
        model, _, ds = trained_small
        first = ds.requests[0]
        stripped = Request(
            request_id="nolabel", user_id=first.user_id,
            item_ids=first.item_ids, labels=(-1,) * len(first.item_ids))
        tiny = Dataset([stripped, ds.requests[1]], ds.items, vocab_from=ds)
        reports = ev.evaluate_model(model, tiny, Ks=[3], gammas=[0.0])
        assert reports[0].num_skipped == 1
        assert reports[0].num_scored == 1


class TestLatencyBench:
    def test_counters_and_fields(self, trained_small):
        model, _, _ = trained_small
        out = latency_bench(model, N=300, K=10, repeats=2)
        assert out["teacher_median_s"] > 0
        assert out["student_median_s"] > 0
        # full per-step recompute: doubling K quadruples similarity work
        assert out["sim_eval_ratio"] == pytest.approx(4.0, rel=0.25)
        assert out["incremental_teacher_median_s"] > 0
        assert out["speedup_vs_incremental"] == pytest.approx(
            out["incremental_teacher_median_s"] / out["student_median_s"])
        assert 1 <= out["distinct_items"] <= min(300, len(model.item_ids))
        assert out["heap_comparison_ratio"] == pytest.approx(2.0, rel=0.25)
        assert out["environment"]["numpy"]
        for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            assert out["environment"][key] == os.environ.get(key)
        assert out["crossover_K"] in (None, 25, 50, 100, 200, 300)

    def test_crossover_k_is_first_ladder_k_where_greedy_catches_up(self):
        timed = []

        def greedy(K):
            timed.append(K)
            return K * 1e-4

        assert ev.crossover_k([25, 50, 100, 200], greedy,
                              lambda K: 0.01) == 100
        assert timed == [25, 50, 100]     # stops at the first crossing
        assert ev.crossover_k([25, 50], greedy, lambda K: 1.0) is None
        assert ev.crossover_k([25, 50], greedy, lambda K: 0.0025) == 25

    def test_crossover_ladder_capped_at_n(self, trained_small, monkeypatch):
        model, _, _ = trained_small
        seen = []
        real = ev.crossover_k
        monkeypatch.setattr(ev, "crossover_k",
                            lambda Ks, g, s: seen.append(Ks) or real(Ks, g, s))
        latency_bench(model, N=150, K=10, repeats=1)
        assert seen == [[25, 50, 100, 150]]
