"""Student model: loss composition, two-phase training behaviour,
serving-path agreement and checkpoint persistence.
"""

import dataclasses
import gc
import json
import math
import os

import numpy as np
import pytest
from scipy.special import expit

from divrank import autodiff as ad
from divrank import backbone as bb
from divrank import cce
from divrank import data
from divrank import distill
from divrank import teacher as teach
from divrank.autodiff import Tensor
from divrank.backbone import TrainConfig, VocabError
from divrank.distill import (CheckpointError, TrainingDiverged,
                             load_checkpoint, save_checkpoint, train,
                             win_probabilities_detached)

import loop_oracle
import serving_oracle
from gradcheck import grad_check


def kd_loss(y_stu, y_tea):
    """Mean binary cross-entropy of student probabilities vs hard labels."""
    return bb.bce_loss(y_stu, y_tea)


def total_loss(model, request):
    """Eval-mode loss of a Request against fresh teacher labels."""
    config = model.config
    item_idx, cat_idx, labels = model.request_arrays(request)
    K = config.K_teacher or math.ceil(0.2 * len(item_idx))
    y_tea = teach.mmr_select(request, model, config.lam, K).y_tea
    P = {name: Tensor(arr) for name, arr in model.params.items()}
    pool = distill.context_pool(len(item_idx), config, 0)
    return distill.batch_loss(
        P, [(model.user_index(request.user_id), item_idx, cat_idx, labels,
             pool)], [y_tea], config)


class TestModelVocab:
    def test_unknown_ids_raise(self, small_model_and_data):
        model, _ = small_model_and_data
        with pytest.raises(VocabError):
            model.user_index("nobody")

    def test_request_arrays_match_dataset(self, small_model_and_data):
        model, ds = small_model_and_data
        for req in ds.requests[:5]:
            item_idx, cat_idx, labels = model.request_arrays(req)
            assert item_idx.tolist() == [ds.item_vocab[iid]
                                         for iid in req.item_ids]
            assert cat_idx.tolist() == [
                ds.category_vocab[ds.items[iid]]
                for iid in req.item_ids]
            assert labels.tolist() == list(req.labels)


class TestLosses:
    def test_kd_loss_hand_case(self):
        p = np.array([0.8, 0.3])
        y = np.array([1.0, 0.0])
        expected = -0.5 * (math.log(0.8) + math.log(0.7))
        assert kd_loss(Tensor(p), y).item() == pytest.approx(expected,
                                                             abs=1e-12)

    def test_logit_form_matches_probability_form(self):
        z = np.random.default_rng(0).standard_normal(20)
        y = (np.random.default_rng(1).random(20) < 0.4).astype(float)
        a = distill._kd_from_logits(Tensor(z), y).item()
        b = kd_loss(Tensor(expit(z)), y).item()
        assert a == pytest.approx(b, abs=1e-9)

    def test_total_is_weighted_sum_of_components(self, small_model_and_data):
        model, ds = small_model_and_data
        cfg = model.config
        total, comps = total_loss(model, ds.requests[0])
        expected = comps["bce"].item() + cfg.beta1 * comps["kd"].item() \
            + cfg.beta2 * comps["infonce"].item()
        assert total.item() == pytest.approx(expected, abs=1e-12)

    def test_loss_gradient_reaches_every_parameter(self, small_model_and_data):
        model, ds = small_model_and_data
        req = ds.requests[0]
        tape = ad.Tape()
        P = model.params.leaves(tape)
        item_idx, cat_idx, labels = model.request_arrays(req)
        y_tea = teach.mmr_select(req, model, model.config.lam, 5).y_tea
        total, _ = distill.batch_loss(
            P, [(model.user_index(req.user_id), item_idx, cat_idx, labels,
                 distill.context_pool(len(item_idx), model.config, 0))],
            [y_tea], model.config, rng=np.random.default_rng(0),
            training=True)
        tape.backward(total)
        for name in distill.ALL_PARAM_NAMES:
            assert np.abs(P[name].grad).max() > 0.0, name

    def test_eval_mode_loss_is_deterministic(self, small_model_and_data):
        model, ds = small_model_and_data
        a, _ = total_loss(model, ds.requests[2])
        b, _ = total_loss(model, ds.requests[2])
        assert a.item() == b.item()


class TestContextPool:
    """Training and serving attend over the same seeded context pool."""

    @staticmethod
    def pooled(config, pool=10):
        return dataclasses.replace(config, max_context_pool=pool).validate()

    def test_pool_is_all_candidates_up_to_the_cap(self, small_config):
        np.testing.assert_array_equal(
            distill.context_pool(32, small_config, 5), np.arange(32))

    def test_pool_beyond_the_cap_is_a_seeded_sorted_subsample(
            self, small_config):
        a = distill.context_pool(100, small_config, 5)
        assert len(a) == 32 and np.all(np.diff(a) > 0)
        assert 0 <= a[0] and a[-1] < 100
        np.testing.assert_array_equal(
            a, distill.context_pool(100, small_config, 5))
        assert not np.array_equal(
            a, distill.context_pool(100, small_config, 6))

    def test_eval_loss_matches_serving_beyond_the_cap(self, trained_small):
        model, _, ds = trained_small
        config = self.pooled(model.config)
        P = {n: Tensor(v) for n, v in model.params.items()}
        for req in ds.requests[:8]:
            item_idx, cat_idx, labels = model.request_arrays(req)
            seed = distill.request_pool_seed(config.seed, req.request_id)
            pool = distill.context_pool(len(item_idx), config, seed)
            assert len(pool) < len(item_idx)
            u_idx = model.user_index(req.user_id)
            _, comps = distill.batch_loss(
                P, [(u_idx, item_idx, cat_idx, labels, pool)],
                [np.zeros(len(item_idx))], config)
            served = win_probabilities_detached(model.params, u_idx, item_idx,
                                                config, pool_seed=seed)
            np.testing.assert_allclose(expit(comps["z_stu"].data), served,
                                       rtol=0.0, atol=1e-12)

    def test_train_attends_over_the_serving_pool(self, small_dataset,
                                                 small_config, monkeypatch):
        config = dataclasses.replace(self.pooled(small_config),
                                     warm_epochs=0, joint_epochs=1)
        seen = {}
        real = distill.batch_loss

        def spy(P, batch, y_teas, *args, **kwargs):
            if y_teas is not None:
                for _, item_idx, _, _, pool in batch:
                    seen[tuple(item_idx)] = pool
            return real(P, batch, y_teas, *args, **kwargs)

        monkeypatch.setattr(distill, "batch_loss", spy)
        model, _ = train(small_dataset, config)
        assert len(seen) == len(small_dataset.requests)
        for req in small_dataset.requests:
            item_idx, _, _ = model.request_arrays(req)
            np.testing.assert_array_equal(
                seen[tuple(item_idx)],
                distill.context_pool(len(item_idx), config,
                                     distill.request_pool_seed(
                                         config.seed, req.request_id)))

    def test_repeat_run_bitwise_identical_beyond_the_cap(self, small_dataset,
                                                         small_config):
        config = self.pooled(small_config)
        m1, h1 = train(small_dataset, config)
        m2, h2 = train(small_dataset, config)
        assert h1 == h2
        for name in m1.params.names():
            np.testing.assert_array_equal(m1.params[name], m2.params[name])

    def test_pool_path_gradients(self):
        n, d = 12, 4
        config = TrainConfig(d=d, k=2, max_context_pool=7).validate()
        rng = np.random.default_rng(3)
        params = ad.ParamStore()
        bb.init_backbone(params, 15, 3, 2, d, rng, emb_scale=0.5)
        cce.init_cce(params, d, rng)
        item_idx = rng.permutation(15)[:n]
        cat_idx = rng.integers(0, 3, size=n)
        labels = np.where(rng.random(n) < 0.5, rng.integers(0, 2, size=n), -1)
        y_tea = (rng.random(n) < 0.3).astype(float)
        pool = distill.context_pool(n, config, 9)
        assert len(pool) == 7

        for name in distill.ALL_PARAM_NAMES:
            def f(leaf, name=name):
                P = {k: Tensor(v) for k, v in params.items()}
                P[name] = leaf
                total, _ = distill.batch_loss(
                    P, [(1, item_idx, cat_idx, labels, pool)], [y_tea],
                    config)
                return total

            assert grad_check(f, params[name]) < 1e-4, name


class TestBatchedStep:
    """batch_loss against the per-request loop it replaced, on a ragged
    batch: pools below and above max_context_pool and a request with no
    shown labels. The loop selects contexts by argsort and pools gathered
    value rows; batch_loss pools through dense weights."""

    SIZES = (12, 35, 25, 18, 9)

    @staticmethod
    def config():
        return TrainConfig(d=4, k=2, max_context_pool=16, batch_size=5,
                           lr=0.3, seed=2).validate()

    @classmethod
    def ragged_batch(cls, config, seed=0):
        rng = np.random.default_rng(seed)
        params = ad.ParamStore()
        bb.init_backbone(params, 50, 4, 3, config.d, rng, emb_scale=0.5)
        cce.init_cce(params, config.d, rng)
        batch, y_teas = [], []
        for r, n in enumerate(cls.SIZES):
            item_idx = rng.permutation(50)[:n]
            cat_idx = rng.integers(0, 4, size=n)
            labels = np.where(rng.random(n) < 0.4,
                              rng.integers(0, 2, size=n), -1)
            if r == 2:
                labels[:] = -1  # no shown labels
            pool = distill.context_pool(n, config, 100 + r)
            batch.append((r % 3, item_idx, cat_idx, labels, pool))
            y_teas.append((rng.random(n) < 0.3).astype(float))
        return params, batch, y_teas

    def test_eval_loss_is_mean_of_per_request_losses(self):
        config = self.config()
        params, batch, y_teas = self.ragged_batch(config)
        capped = [len(pool) < len(item_idx)
                  for _, item_idx, _, _, pool in batch]
        assert any(capped) and not all(capped)
        P = {n: Tensor(v) for n, v in params.items()}
        total, comps = distill.batch_loss(P, batch, y_teas, config)
        per_request = [loop_oracle.request_loss(P, *req[:4], y, config, req[4])
                       for req, y in zip(batch, y_teas)]
        one_batch = [distill.batch_loss(P, [req], [y], config)
                     for req, y in zip(batch, y_teas)]
        for losses in (per_request, one_batch):
            assert total.item() == pytest.approx(
                np.mean([t.item() for t, _ in losses]), abs=1e-12)
            for key in ("bce", "kd", "infonce"):
                assert comps[key].item() == pytest.approx(
                    np.mean([c[key].item() for _, c in losses]), abs=1e-12)
            np.testing.assert_allclose(
                comps["z_stu"].data,
                np.concatenate([c["z_stu"].data for _, c in losses]),
                rtol=0.0, atol=1e-12)

    def test_training_step_matches_per_request_loop(self):
        config = self.config()
        params, batch, y_teas = self.ragged_batch(config)
        oracle, batched = params.copy(), params.copy()
        rng_o, rng_b = np.random.default_rng(7), np.random.default_rng(7)
        for _ in range(2):
            shown = [req for req in batch if np.any(req[3] >= 0)]
            want = loop_oracle.warmup_step(oracle, shown, config, rng_o)
            tape = ad.Tape()
            P = batched.leaves(tape)
            loss, _ = distill.batch_loss(P, shown, None, config, rng=rng_b,
                                         training=True)
            tape.backward(loss)
            batched.sgd_step(P, config.lr)
            assert loss.item() == pytest.approx(want, abs=1e-12)

            want = loop_oracle.joint_step(oracle, batch, y_teas, config, rng_o)
            tape = ad.Tape()
            P = batched.leaves(tape)
            loss, _ = distill.batch_loss(P, batch, y_teas, config, rng=rng_b,
                                         training=True)
            tape.backward(loss)
            batched.sgd_step(P, config.lr)
            assert loss.item() == pytest.approx(want, abs=1e-12)
            for name in distill.ALL_PARAM_NAMES:
                np.testing.assert_allclose(batched[name], oracle[name],
                                           rtol=0.0, atol=1e-12, err_msg=name)
        # both consumed the same random numbers
        assert rng_o.random() == rng_b.random()

    def test_gradient_on_ragged_batch(self):
        config = self.config()
        params, batch, y_teas = self.ragged_batch(config)
        for name in distill.ALL_PARAM_NAMES:
            def f(leaf, name=name):
                P = {k: Tensor(v) for k, v in params.items()}
                P[name] = leaf
                total, _ = distill.batch_loss(P, batch, y_teas, config)
                return total

            assert grad_check(f, params[name]) < 1e-4, name

    def test_pool_below_2k_plus_1_refused(self):
        config = self.config()
        params, batch, y_teas = self.ragged_batch(config)
        P = {n: Tensor(v) for n, v in params.items()}
        u_idx, item_idx, cat_idx, labels, _ = batch[0]
        short = (u_idx, item_idx[:4], cat_idx[:4], labels[:4], np.arange(4))
        with pytest.raises(ad.DomainError):
            distill.batch_loss(P, batch + [short], y_teas + [y_teas[0][:4]],
                               config)

    def test_repeat_run_bitwise_identical_on_ragged_requests(
            self, small_dataset):
        rng = np.random.default_rng(4)
        requests = []
        for req in small_dataset.requests:
            n = int(rng.integers(9, len(req.item_ids) + 1))
            labels = req.labels[:n] if rng.random() < 0.8 else (-1,) * n
            requests.append(dataclasses.replace(
                req, item_ids=req.item_ids[:n], labels=labels))
        ds = data.Dataset(requests, small_dataset.items)
        config = TrainConfig(d=8, k=3, K_teacher=5, warm_epochs=1,
                             joint_epochs=2, batch_size=4,
                             max_context_pool=16, seed=3).validate()
        m1, h1 = train(ds, config)
        m2, h2 = train(ds, config)
        assert h1 == h2
        for name in m1.params.names():
            assert m1.params[name].tobytes() == m2.params[name].tobytes()


class TestServingPath:
    def test_matches_tape_eval_forward(self, trained_small):
        model, _, ds = trained_small
        for req in ds.requests[:6]:
            item_idx, cat_idx, labels = model.request_arrays(req)
            y_tea = np.zeros(len(item_idx))
            y_tea[:5] = 1.0
            P = {n: Tensor(v) for n, v in model.params.items()}
            _, comps = distill.batch_loss(
                P, [(model.user_index(req.user_id), item_idx, cat_idx,
                     labels,
                     distill.context_pool(len(item_idx), model.config, 0))],
                [y_tea], model.config)
            fast = model.win_probabilities(req)
            np.testing.assert_allclose(fast, expit(comps["z_stu"].data),
                                       atol=1e-9)

    @pytest.mark.parametrize("cap", [32, 10])
    def test_matches_gather_oracle_on_ragged_requests(self, trained_small,
                                                      cap):
        # cap 32: every request fits its pool (n <= cap); cap 10: the
        # larger requests attend over a subsample. Items repeat, so pools
        # hold duplicated items and tied scores.
        model, _, _ = trained_small
        config = dataclasses.replace(model.config,
                                     max_context_pool=cap).validate()
        rng = np.random.default_rng(cap)
        for n in (2 * config.k + 1, 9, 16, 25, 32, 33, 57, 120):
            item_idx = rng.integers(0, len(model.item_ids), size=n)
            u_idx = int(rng.integers(len(model.user_ids)))
            got = win_probabilities_detached(model.params, u_idx, item_idx,
                                             config, pool_seed=n)
            want = serving_oracle.win_probabilities(
                model.params, u_idx, item_idx, config, pool_seed=n)
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    def test_fused_rank_lists_match_gather_oracle(self, trained_small):
        from divrank.evaluation import fused_rank, top_k_fused
        model, _, ds = trained_small
        for req in ds.requests:
            item_idx, cat_idx, _ = model.request_arrays(req)
            u_idx = model.user_index(req.user_id)
            y = serving_oracle.win_probabilities(
                model.params, u_idx, item_idx, model.config,
                pool_seed=distill.request_pool_seed(model.config.seed,
                                                    req.request_id))
            want = top_k_fused(
                model.acc_scores(u_idx, item_idx, cat_idx) + 0.3 * y, 10)
            ranked = fused_rank(model, req, K=10, gamma=0.3)
            assert ranked.item_idx.tolist() == want.tolist()

    def test_softmax_rows_shift_each_row(self):
        # one scalar shift of 900 would give exp(-899) = 0 in the second row
        out = serving_oracle.softmax_rows(
            np.array([[900.0, 899.0], [1.0, 0.5]]))
        p = expit(1.0)
        p_half = expit(0.5)
        np.testing.assert_allclose(out, [[p, 1 - p], [p_half, 1 - p_half]],
                                   rtol=1e-12)

    def test_widely_spread_attention_rows_stay_finite(self,
                                                      small_model_and_data):
        model, ds = small_model_and_data
        params = model.params.copy()
        # row maxima of the attention scores now differ by far more than
        # the ~745 that exp can span
        params["cce_w1"][...] *= 1e5
        item_idx, _, _ = model.request_arrays(ds.requests[0])
        probs = win_probabilities_detached(params, 0, item_idx, model.config)
        assert np.all(np.isfinite(probs))

    def test_pool_subsample_is_deterministic(self, trained_small):
        model, _, _ = trained_small
        rng = np.random.default_rng(8)
        item_idx = rng.integers(0, len(model.item_ids),
                                size=3 * model.config.max_context_pool)
        a = win_probabilities_detached(model.params, 0, item_idx,
                                       model.config, pool_seed=4)
        b = win_probabilities_detached(model.params, 0, item_idx,
                                       model.config, pool_seed=4)
        c = win_probabilities_detached(model.params, 0, item_idx,
                                       model.config, pool_seed=5)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_pool_too_small_for_contexts(self, trained_small):
        model, _, _ = trained_small
        k = model.config.k
        with pytest.raises(ad.DomainError):
            win_probabilities_detached(model.params, 0,
                                       np.zeros(2 * k, dtype=np.int64),
                                       model.config)


class TestContextWeights:
    """distill._context_weights: threshold picks off one value sort."""

    @staticmethod
    def reference_picks(w, pool, k):
        """Per row, the k highest and k lowest columns other than its own
        (target pool[j] owns column j), ties to the lowest column."""
        own = {int(r): j for j, r in enumerate(pool)}
        pos, neg = [], []
        for i, row in enumerate(w):
            cols = [j for j in range(len(row)) if own.get(i) != j]
            pos.append(sorted(cols, key=lambda j: (-row[j], j))[:k])
            neg.append(sorted(cols, key=lambda j: (row[j], j))[:k])
        return pos, neg

    @pytest.mark.parametrize("n", [7, 12])
    def test_picks_follow_the_tie_rule(self, n):
        # integer scores in a narrow range: most thresholds are ties
        m, k = 7, 3
        pool = np.arange(m) if n == m else np.array([0, 2, 3, 5, 8, 9, 11])
        for trial in range(50):
            w = np.random.default_rng(trial).integers(0, 4, (n, m)) * 0.5
            a = distill._context_weights(w.copy(), pool, k)
            for side, want in zip(a, self.reference_picks(w, pool, k)):
                got = [np.flatnonzero(row).tolist() for row in side]
                assert got == [sorted(cols) for cols in want]
                for i, cols in enumerate(want):
                    e = np.exp(w[i, cols] - w[i, cols].max())
                    np.testing.assert_allclose(side[i, cols], e / e.sum(),
                                               rtol=1e-12)

    def test_pool_of_duplicated_items(self, trained_small):
        model, _, _ = trained_small
        k = model.config.k
        # each item twice: every score has an equal twin in another column
        item_idx = np.repeat(np.arange(10), 2)
        n = len(item_idx)
        E = model.params["item_emb"][item_idx]
        q = E @ model.params["cce_w1"]
        w = (q / math.sqrt(model.config.d)) @ (E @ model.params["cce_w2"]).T
        pool = np.arange(n)
        a = distill._context_weights(w.copy(), pool, k)
        for side, want in zip(a, self.reference_picks(w, pool, k)):
            assert np.all(np.count_nonzero(side, axis=1) == k)
            assert np.all(side[pool, pool] == 0.0)
            np.testing.assert_allclose(side.sum(axis=1), 1.0, rtol=1e-12)
            assert [np.flatnonzero(row).tolist() for row in side] == \
                [sorted(cols) for cols in want]
        probs = win_probabilities_detached(model.params, 0, item_idx,
                                           model.config)
        assert np.all(np.isfinite(probs))
        assert np.all((probs > 0.0) & (probs < 1.0))


class TestTraining:
    def test_history_structure(self, trained_small):
        _, history, _ = trained_small
        warm = [h for h in history if h["phase"] == "warmup"]
        joint = [h for h in history if h["phase"] == "joint"]
        assert len(warm) == 1 and len(joint) == 2
        for h in joint:
            for key in ("train_total", "train_bce", "train_kd",
                        "train_infonce", "val_total"):
                assert np.isfinite(h[key])

    def test_repeat_run_bitwise_identical(self, small_dataset, small_config):
        m1, h1 = train(small_dataset, small_config)
        m2, h2 = train(small_dataset, small_config)
        assert h1 == h2
        for name in m1.params.names():
            np.testing.assert_array_equal(m1.params[name], m2.params[name])

    def test_leaves_no_unreachable_graph(self, small_dataset, small_config):
        # every step's graph is freed by reference counting, so with the
        # cyclic collector off no Tape or Tensor is left for it to find
        enabled, flags = gc.isenabled(), gc.get_debug()
        gc.collect()
        gc.disable()
        start = len(gc.garbage)
        try:
            train(small_dataset, small_config)
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            leaked = [type(o).__name__ for o in gc.garbage[start:]
                      if isinstance(o, (ad.Tape, ad.Tensor))]
        finally:
            gc.set_debug(flags)
            del gc.garbage[start:]
            if enabled:
                gc.enable()
        assert leaked == []

    def test_warmup_improves_accuracy_loss(self, small_dataset):
        cfg = TrainConfig(d=8, k=3, K_teacher=5, warm_epochs=4,
                          joint_epochs=0, batch_size=4, lr=0.2,
                          max_context_pool=32, seed=0)
        _, history = train(small_dataset, cfg)
        assert history[-1]["train_bce"] < history[0]["train_bce"]

    # the large step diverges on purpose
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_early_stop_after_patience_epochs(self, small_dataset):
        # a huge learning rate stops improving immediately
        cfg = TrainConfig(d=8, k=3, K_teacher=5, warm_epochs=0,
                          joint_epochs=30, batch_size=4, lr=80.0,
                          patience=3, max_context_pool=32, seed=0)
        try:
            _, history = train(small_dataset, cfg)
        except TrainingDiverged:
            return  # also acceptable at this learning rate
        joint = [h for h in history if h["phase"] == "joint"]
        assert len(joint) < 30
        assert joint[-1].get("early_stop") is True
        best_epoch = int(np.argmin([h["val_total"] for h in joint]))
        assert len(joint) == best_epoch + cfg.patience + 1

    def test_divergence_aborts(self, small_dataset):
        cfg = TrainConfig(d=8, k=3, K_teacher=5, warm_epochs=0,
                          joint_epochs=5, batch_size=4, lr=1e8,
                          max_context_pool=32, seed=0)
        with pytest.raises(TrainingDiverged):
            with np.errstate(all="ignore"):
                train(small_dataset, cfg)

    def test_best_weights_restored(self, small_dataset):
        base = dict(d=8, k=3, K_teacher=5, warm_epochs=0, batch_size=4,
                    lr=5.0, max_context_pool=32, seed=0)
        long_run, history = train(small_dataset,
                                  TrainConfig(joint_epochs=6, patience=2,
                                              **base))
        joint = [h for h in history if h["phase"] == "joint"]
        best_epoch = int(np.argmin([h["val_total"] for h in joint]))
        assert best_epoch < len(joint) - 1  # run kept going past the best
        # a run truncated right after the best epoch ends on those weights
        short_run, _ = train(small_dataset,
                             TrainConfig(joint_epochs=best_epoch + 1,
                                         patience=10, **base))
        for name in long_run.params.names():
            np.testing.assert_array_equal(long_run.params[name],
                                          short_run.params[name])


class TestCheckpoint:
    def test_bitwise_roundtrip(self, trained_small, tmp_path):
        model, history, ds = trained_small
        path = tmp_path / "ckpt"
        save_checkpoint(model, path, history)
        again = load_checkpoint(path)
        assert set(again.params.names()) == set(model.params.names())
        for name in model.params.names():
            assert again.params[name].tobytes() == \
                model.params[name].tobytes()
        assert again.config == model.config
        assert again.item_ids == model.item_ids
        req = ds.requests[0]
        np.testing.assert_array_equal(again.win_probabilities(req),
                                      model.win_probabilities(req))

    @staticmethod
    def fail_on_vocab(monkeypatch):
        dump = json.dump

        def failing(obj, fh, *args, **kwargs):
            if os.path.basename(fh.name) == "vocab.json":
                raise OSError("disk full")
            return dump(obj, fh, *args, **kwargs)

        monkeypatch.setattr(json, "dump", failing)

    def test_failed_write_leaves_no_checkpoint(self, trained_small, tmp_path,
                                               monkeypatch):
        model, history, _ = trained_small
        self.fail_on_vocab(monkeypatch)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(model, tmp_path / "ckpt", history)
        assert os.listdir(tmp_path) == []

    def test_failed_write_keeps_existing_checkpoint(self, trained_small,
                                                    tmp_path, monkeypatch):
        model, history, _ = trained_small
        path = tmp_path / "ckpt"
        save_checkpoint(model, path, history)
        before = {f.name: f.read_bytes() for f in path.iterdir()}
        other = model.copy()
        other.params["item_emb"][:] += 1.0
        self.fail_on_vocab(monkeypatch)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(other, path)
        assert {f.name: f.read_bytes() for f in path.iterdir()} == before
        assert os.listdir(tmp_path) == ["ckpt"]

    def test_overwrite_replaces_files_and_keeps_others(self, trained_small,
                                                       tmp_path):
        model, history, _ = trained_small
        path = tmp_path / "ckpt"
        save_checkpoint(model, path, history)
        (path / "run_manifest.json").write_text("{}")
        other = model.copy()
        other.params["item_emb"][:] += 1.0
        save_checkpoint(other, path)
        np.testing.assert_array_equal(load_checkpoint(path).params["item_emb"],
                                      other.params["item_emb"])
        assert (path / "run_manifest.json").read_text() == "{}"
        # the earlier model's history does not describe this one
        assert not (path / "history.json").exists()
        assert sorted(os.listdir(tmp_path)) == ["ckpt"]

    def test_new_path_can_be_renamed_into_place(self, trained_small,
                                                tmp_path):
        model, _, _ = trained_small
        tmp = tmp_path / "ckpt.tmp"
        save_checkpoint(model, tmp)
        os.replace(tmp, tmp_path / "ckpt")
        again = load_checkpoint(tmp_path / "ckpt")
        assert again.item_ids == model.item_ids

    def test_unknown_tensor_name_rejected(self, trained_small, tmp_path):
        model, _, _ = trained_small
        path = tmp_path / "ckpt"
        save_checkpoint(model, path)
        mf = json.loads((path / "manifest.json").read_text())
        mf["tensors"][0]["name"] = "mystery"
        (path / "manifest.json").write_text(json.dumps(mf))
        with pytest.raises(CheckpointError, match="unknown tensor"):
            load_checkpoint(path)

    def test_truncated_weights_rejected(self, trained_small, tmp_path):
        model, _, _ = trained_small
        path = tmp_path / "ckpt"
        save_checkpoint(model, path)
        blob = (path / "weights.bin").read_bytes()
        (path / "weights.bin").write_bytes(blob[:-16])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_missing_tensor_rejected(self, trained_small, tmp_path):
        model, _, _ = trained_small
        path = tmp_path / "ckpt"
        save_checkpoint(model, path)
        mf = json.loads((path / "manifest.json").read_text())
        dropped = mf["tensors"].pop()
        mf["total_bytes"] -= dropped["nbytes"]
        (path / "manifest.json").write_text(json.dumps(mf))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_offset_gap_rejected(self, trained_small, tmp_path):
        model, _, _ = trained_small
        path = tmp_path / "ckpt"
        save_checkpoint(model, path)
        mf = json.loads((path / "manifest.json").read_text())
        mf["tensors"][1]["offset"] += 8
        (path / "manifest.json").write_text(json.dumps(mf))
        with pytest.raises(CheckpointError, match="overlap or leave gaps"):
            load_checkpoint(path)
