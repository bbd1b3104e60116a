"""Acceptance gate: the end-to-end guarantees the toolkit is built
around, each pinned to an explicit tolerance.

The expensive fixtures (a full-scale training run and a 5-seed sweep of
reduced runs) are session-scoped and only built when a test in this
module first needs them.
"""

import itertools
import math
import time

import numpy as np
import pytest

from divrank import backbone as bb
from divrank import cce
from divrank import data
from divrank import distill
from divrank import evaluation as ev
from divrank import teacher as teach
from divrank.autodiff import Tensor

from brute_force import brute_force_core
from gradcheck import grad_check
from logistic import sigmoid

SEED = 20240815


# ---------------------------------------------------------------------------
# expensive fixtures


@pytest.fixture(scope="session")
def full_run():
    """Full-scale training on the default synthetic set: 2400 requests of
    200 candidates split 2000/400, d=16, teacher list size 40."""
    spec = data.SyntheticSpec(seed=0)
    ds = data.generate_synthetic(spec)
    cfg = bb.TrainConfig(K_teacher=40, joint_epochs=12, seed=0)
    started = time.monotonic()
    model, history = distill.train(ds, cfg)
    duration = time.monotonic() - started
    _, eval_ds = data.split_train_eval(ds, cfg.eval_fraction, cfg.seed)
    return model, history, eval_ds, duration


@pytest.fixture(scope="session")
def sweep_runs():
    """Five reduced training runs (one per seed) for the fusion-weight
    sweep; reduced scale keeps the suite runtime tractable."""
    runs = []
    for seed in range(5):
        spec = data.SyntheticSpec(seed=seed, num_users=6, num_requests=400,
                                  catalog_size=600, num_categories=16,
                                  candidates_per_request=100, latent_dim=16,
                                  show_fraction=0.2, cluster_noise=0.1,
                                  preference_concentration=2.0)
        ds = data.generate_synthetic(spec)
        # lam and emb_init_scale are set so the interest similarities
        # spread over (0, 1) and the diversity term binds; the context
        # pool cap exceeds the candidate count so serving is exact here
        cfg = bb.TrainConfig(K_teacher=20, lam=2.0, emb_init_scale=0.7,
                             lr=1.0, beta1=2.0, warm_epochs=5,
                             joint_epochs=12, max_context_pool=128,
                             seed=seed)
        model, _ = distill.train(ds, cfg)
        _, eval_ds = data.split_train_eval(ds, cfg.eval_fraction, cfg.seed)
        runs.append((model, eval_ds))
    return runs


def bench_model():
    spec = data.SyntheticSpec(seed=0, num_users=20, num_requests=10,
                              catalog_size=12000, num_categories=8,
                              candidates_per_request=50)
    ds = data.generate_synthetic(spec)
    return distill.CDMModel.from_dataset(ds, bb.TrainConfig(seed=0))


@pytest.fixture(scope="session")
def bench_result():
    model = bench_model()
    started = time.monotonic()
    out = ev.latency_bench(model, N=10_000, K=100, repeats=5)
    out["wall_s"] = time.monotonic() - started
    return out


# ---------------------------------------------------------------------------
# 1. greedy teacher: per-step optimality and approximation quality


class TestTeacherSelection:
    def test_every_step_maximizes_marginal_gain_1000_instances(self):
        rng = np.random.default_rng(SEED)
        lam = 0.5
        for _ in range(1000):
            n, K = 12, 4
            acc = rng.uniform(0.0, 1.0, size=n)
            ew = rng.standard_normal((n, 5))
            selected, gains = teach.mmr_core(acc, ew, lam, K)
            sim = sigmoid(ew @ ew.T)
            assert selected[0] == int(np.argmax(acc))
            assert gains[0] == pytest.approx(acc.max(), abs=1e-12)
            for h in range(1, K):
                prev = selected[:h]
                rest = np.setdiff1d(np.arange(n), prev)
                best = (acc[rest] + lam * (1.0 - sim[np.ix_(rest, prev)]
                                           .max(axis=1))).max()
                assert gains[h] == pytest.approx(best, abs=1e-12)

    def test_greedy_within_1_minus_1_over_e_of_oracle(self):
        rng = np.random.default_rng(SEED + 1)
        bound = 1.0 - 1.0 / math.e
        hits = 0
        trials = 1000
        for _ in range(trials):
            acc = rng.uniform(0.0, 1.0, size=10)
            ew = rng.standard_normal((10, 5))
            lam = rng.uniform(0.0, 1.0)
            _, gains = teach.mmr_core(acc, ew, lam, K=3)
            _, oracle = brute_force_core(acc, ew, lam, K=3)
            if sum(gains) >= bound * oracle - 1e-9:
                hits += 1
        assert hits >= 0.99 * trials


# ---------------------------------------------------------------------------
# 2. gradient of the joint loss against the finite-difference oracle


class TestJointLossGradient:
    def test_every_parameter_within_1e4(self):
        # the seed picks an instance with no ReLU input near zero, where
        # the central difference would measure the kink instead of the
        # one-sided derivative the tape reports
        spec = data.SyntheticSpec(seed=3, num_users=3, num_requests=6,
                                  catalog_size=16, num_categories=3,
                                  candidates_per_request=8, latent_dim=4,
                                  show_fraction=0.5)
        ds = data.generate_synthetic(spec)
        cfg = bb.TrainConfig(d=4, k=2, K_teacher=3, max_context_pool=8,
                             seed=3)
        model = distill.CDMModel.from_dataset(ds, cfg)
        req = ds.requests[0]
        rows = model.request_arrays(req)
        y_tea = teach.mmr_select(req, model, cfg.lam, 3).y_tea

        worst = {}
        for name in model.params.names():
            def f(leaf, _name=name):
                P = {n: Tensor(v) for n, v in model.params.items()}
                P[_name] = leaf
                total, _ = distill.batch_loss(P, [rows], [y_tea], cfg)
                return total
            worst[name] = grad_check(f, model.params[name])
        assert max(worst.values()) < 1e-4, worst


# ---------------------------------------------------------------------------
# 3. Gumbel top-k draws follow the Plackett-Luce distribution


class TestPlackettLuce:
    def test_subset_frequencies_within_001(self):
        probs = np.array([0.42, 0.28, 0.18, 0.12])
        logits = np.log(probs)
        n, k, draws = 4, 2, 200_000
        rng = np.random.default_rng(SEED + 3)
        u = rng.random((draws, n))
        pert = logits + cce.gumbel_noise(u)
        top2 = np.argsort(-pert, axis=1)[:, :2]
        keys = np.min(top2, axis=1) * n + np.max(top2, axis=1)

        for a, b in itertools.combinations(range(n), 2):
            expected = probs[a] * probs[b] / (1 - probs[a]) \
                + probs[b] * probs[a] / (1 - probs[b])
            observed = np.mean(keys == a * n + b)
            assert observed == pytest.approx(expected, abs=0.01), (a, b)

    def test_ordered_sequences_match_sequential_sampling(self):
        probs = np.array([0.5, 0.3, 0.2])
        logits = np.log(probs)
        draws = 200_000
        rng = np.random.default_rng(SEED + 4)
        pert = logits + cce.gumbel_noise(rng.random((draws, 3)))
        top2 = np.argsort(-pert, axis=1)[:, :2]
        for a, b in itertools.permutations(range(3), 2):
            expected = probs[a] * probs[b] / (1 - probs[a])
            observed = np.mean((top2[:, 0] == a) & (top2[:, 1] == b))
            assert observed == pytest.approx(expected, abs=0.01), (a, b)


# ---------------------------------------------------------------------------
# 4. distillation quality on the default synthetic set


class TestDistillationQuality:
    def test_training_finishes_within_ten_minutes(self, full_run):
        _, _, _, duration = full_run
        assert duration < 600.0

    def test_heldout_auc_at_least_080(self, full_run):
        model, _, eval_ds, _ = full_run
        y_stu, y_tea = [], []
        for req in eval_ds.requests:
            lab = teach.mmr_select(req, model, model.config.lam,
                                   model.config.K_teacher)
            y_stu.append(model.win_probabilities(req))
            y_tea.append(lab.y_tea)
        auc = ev.auc_score(np.concatenate(y_tea), np.concatenate(y_stu))
        assert auc >= 0.80, auc


# ---------------------------------------------------------------------------
# 5. the fusion weight buys diversity at evaluation time


GAMMAS = [0.0, 0.05, 0.10, 0.15, 0.20, 0.25]


class TestFusionSweep:
    @pytest.fixture(scope="class")
    def sweep_table(self, sweep_runs):
        ilad = np.zeros((len(sweep_runs), len(GAMMAS)))
        cc = np.zeros_like(ilad)
        recall = np.zeros_like(ilad)
        for i, (model, eval_ds) in enumerate(sweep_runs):
            reports = ev.evaluate_model(model, eval_ds, Ks=[20],
                                        gammas=GAMMAS)
            for j, rep in enumerate(reports):
                assert rep.gamma == GAMMAS[j]
                ilad[i, j] = rep.ilad
                cc[i, j] = rep.cc
                recall[i, j] = rep.recall
        return ilad.mean(axis=0), cc.mean(axis=0), recall.mean(axis=0)

    def test_mean_ilad_nondecreasing_and_improves(self, sweep_table):
        ilad, _, _ = sweep_table
        assert np.all(np.diff(ilad) >= -1e-12), ilad
        assert ilad[-1] > ilad[0], ilad

    def test_mean_cc_nondecreasing_and_improves(self, sweep_table):
        _, cc, _ = sweep_table
        assert np.all(np.diff(cc) >= -1e-12), cc
        assert cc[-1] > cc[0], cc

    def test_recall_recorded_no_direction_asserted(self, sweep_table):
        # accuracy cost of the diversity knob is tracked, not bounded
        _, _, recall = sweep_table
        assert np.all((recall >= 0.0) & (recall <= 1.0)), recall
        print("mean recall@20 over gamma grid:", recall.round(4).tolist())


# ---------------------------------------------------------------------------
# 6. serving cost: wall clock and operation-count scaling


class TestServingCost:
    def test_bench_completes_within_two_minutes(self, bench_result):
        assert bench_result["wall_s"] < 120.0

    def test_teacher_similarity_work_quadruples_with_list_size(
            self, bench_result):
        assert bench_result["sim_eval_ratio"] == pytest.approx(4.0, rel=0.1)

    def test_student_heap_comparisons_double_with_pool_size(
            self, bench_result):
        assert bench_result["heap_comparison_ratio"] == \
            pytest.approx(2.0, rel=0.1)

    def test_student_at_least_20x_faster_than_teacher(self, bench_result):
        assert bench_result["speedup"] >= 20.0, bench_result


# ---------------------------------------------------------------------------
# 7. metric hand cases, exact to 1e-12


class TestMetricHandCases:
    def test_ilad(self):
        assert ev.ilad_at_k(np.eye(4)) == pytest.approx(1.0, abs=1e-12)
        assert ev.ilad_at_k(np.tile([2.0, 1.0], (3, 1))) == \
            pytest.approx(0.0, abs=1e-12)
        E = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert ev.ilad_at_k(E) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_category_coverage(self):
        assert ev.cc_at_k([["a"], ["a", "b"], []], 4) == \
            pytest.approx(0.5, abs=1e-12)

    def test_recall(self):
        assert ev.recall_at_k([1, 0, 1, 0], 4) == \
            pytest.approx(0.5, abs=1e-12)

    def test_mrr(self):
        assert ev.mrr_at_k([0, 0, 0, 1]) == pytest.approx(0.25, abs=1e-12)
        assert ev.mrr_at_k([0, 0]) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# 8. reproducibility and checkpoint integrity


class TestReproducibility:
    def test_same_seed_bitwise_identical_runs(self):
        spec = data.SyntheticSpec(seed=4, num_users=20, num_requests=120,
                                  catalog_size=300, num_categories=6,
                                  candidates_per_request=60, latent_dim=8)
        cfg = bb.TrainConfig(d=8, k=4, K_teacher=12, warm_epochs=1,
                             joint_epochs=3, max_context_pool=64, seed=4)
        results = []
        for _ in range(2):
            ds = data.generate_synthetic(spec)
            model, history = distill.train(ds, cfg)
            results.append((model, history))
        (m1, h1), (m2, h2) = results
        assert h1 == h2
        for name in m1.params.names():
            assert m1.params[name].tobytes() == m2.params[name].tobytes()

    def test_checkpoint_roundtrip_bit_exact(self, full_run, tmp_path):
        model, history, eval_ds, _ = full_run
        path = tmp_path / "ckpt"
        distill.save_checkpoint(model, path, history)
        again = distill.load_checkpoint(path)
        for name in model.params.names():
            assert again.params[name].tobytes() == \
                model.params[name].tobytes()
        req = eval_ds.requests[0]
        np.testing.assert_array_equal(again.win_probabilities(req),
                                      model.win_probabilities(req))
        ranked_a = ev.fused_rank(model, req, K=20, gamma=0.1)
        ranked_b = ev.fused_rank(again, req, K=20, gamma=0.1)
        assert ranked_a.item_ids == ranked_b.item_ids
