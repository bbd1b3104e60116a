"""Student model: loss composition, two-phase training behaviour,
serving-path agreement and checkpoint persistence.
"""

import dataclasses
import gc
import json
import math
import os
import re

import numpy as np
import pytest

from divrank import autodiff as ad
from divrank import backbone as bb
from divrank import cce
from divrank import data
from divrank import distill
from divrank import teacher as teach
from divrank.autodiff import Tensor
from divrank.backbone import TrainConfig, VocabError
from divrank.distill import (CDMModel, CheckpointError, TrainingDiverged,
                             load_checkpoint, save_checkpoint, train,
                             win_probabilities_detached)

import loop_oracle
import serving_oracle
from gradcheck import grad_check
from logistic import logit, sigmoid


def total_loss(model, request):
    """Eval-mode loss of a Request against fresh teacher labels."""
    config = model.config
    rows = model.request_arrays(request)
    K = config.K_teacher or math.ceil(0.2 * len(rows.item_idx))
    y_tea = teach.mmr_select(request, model, config.lam, K).y_tea
    P = {name: Tensor(arr) for name, arr in model.params.items()}
    return distill.batch_loss(P, [rows], [y_tea], config)


def sampled_rows(model, item_idx, u_idx=0, pool_seed=0, config=None):
    """A decoded request over the given item rows with no label shown."""
    item_idx = np.asarray(item_idx, dtype=np.int64)
    return distill.RequestRows(u_idx, item_idx, model._item_cat_row[item_idx],
                               np.full(len(item_idx), -1, dtype=np.int64),
                               pool_seed, config or model.config)


class TestModelVocab:
    def test_unknown_ids_raise(self, small_model_and_data):
        model, ds = small_model_and_data
        stranger = dataclasses.replace(ds.requests[0], user_id="nobody")
        with pytest.raises(VocabError, match="unknown user id: 'nobody'"):
            model.request_arrays(stranger)
        # an unknown item is reported before an unknown user
        both = dataclasses.replace(stranger, item_ids=("mystery",)
                                   + stranger.item_ids[1:])
        with pytest.raises(VocabError, match="unknown item id: 'mystery'"):
            model.request_arrays(both)

    def test_request_arrays_match_dataset(self, small_model_and_data):
        model, ds = small_model_and_data
        for req in ds.requests[:5]:
            rows = model.request_arrays(req)
            assert rows.u_idx == ds.user_vocab[req.user_id]
            assert rows.item_idx.tolist() == [ds.item_vocab[iid]
                                              for iid in req.item_ids]
            assert rows.cat_idx.tolist() == [
                ds.category_vocab[ds.items[iid]]
                for iid in req.item_ids]
            assert rows.labels.tolist() == list(req.labels)


class TestLosses:
    def test_kd_loss_hand_case(self):
        p = np.array([0.8, 0.3])
        y = np.array([1.0, 0.0])
        expected = -0.5 * (math.log(0.8) + math.log(0.7))
        assert bb.bce_loss(Tensor(logit(p)), y,
                           [0.5, 0.5]).item() == pytest.approx(
            expected, abs=1e-12)

    def test_logit_form_matches_probability_form(self):
        z = np.random.default_rng(0).standard_normal(20)
        y = (np.random.default_rng(1).random(20) < 0.4).astype(float)
        a = bb.bce_loss(Tensor(z), y, np.full(20, 1 / 20)).item()
        p = sigmoid(z)
        b = -np.mean(y * np.log(p) + (1 - y) * np.log(1 - p))
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
        y_tea = teach.mmr_select(req, model, model.config.lam, 5).y_tea
        total, _ = distill.batch_loss(
            P, [model.request_arrays(req)], [y_tea], model.config,
            rng=np.random.default_rng(0))
        tape.backward(total)
        for name in model.params.names():
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
            rows = dataclasses.replace(model.request_arrays(req),
                                       config=config)
            assert len(rows.pool) < len(rows.item_idx)
            _, comps = distill.batch_loss(
                P, [rows], [np.zeros(len(rows.item_idx))], config)
            served = win_probabilities_detached(model.params, rows, config)
            np.testing.assert_allclose(sigmoid(comps["z_stu"].data), served,
                                       rtol=0.0, atol=1e-12)

    def test_train_attends_over_the_serving_pool(self, small_dataset,
                                                 small_config, monkeypatch):
        config = dataclasses.replace(self.pooled(small_config),
                                     warm_epochs=0, joint_epochs=1)
        seen = {}
        real = distill.batch_loss

        def spy(P, batch, y_teas, *args, **kwargs):
            if y_teas is not None:
                for rows in batch:
                    seen[tuple(rows.item_idx)] = rows.pool
            return real(P, batch, y_teas, *args, **kwargs)

        monkeypatch.setattr(distill, "batch_loss", spy)
        model, _ = train(small_dataset, config)
        assert len(seen) == len(small_dataset.requests)
        for req in small_dataset.requests:
            served = model.request_arrays(req)
            assert len(served.pool) < len(served.item_idx)
            np.testing.assert_array_equal(seen[tuple(served.item_idx)],
                                          served.pool)

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
        rows = distill.RequestRows(1, item_idx, cat_idx, labels, 9, config)
        assert len(rows.pool) == 7

        for name in params.names():
            def f(leaf, name=name):
                P = {k: Tensor(v) for k, v in params.items()}
                P[name] = leaf
                total, _ = distill.batch_loss(P, [rows], [y_tea], config)
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
            batch.append(distill.RequestRows(r % 3, item_idx, cat_idx, labels,
                                             100 + r, config))
            y_teas.append((rng.random(n) < 0.3).astype(float))
        return params, batch, y_teas

    # the warm-up passes no teacher labels and computes only the BCE
    @pytest.mark.parametrize("phase", ["joint", "warmup"])
    def test_eval_loss_is_mean_of_per_request_losses(self, phase):
        config = self.config()
        params, batch, y_teas = self.ragged_batch(config)
        capped = [len(rows.pool) < len(rows.item_idx) for rows in batch]
        assert any(capped) and not all(capped)
        joint = phase == "joint"
        if not joint:
            y_teas = [None] * len(batch)
        P = {n: Tensor(v) for n, v in params.items()}
        total, comps = distill.batch_loss(P, batch, y_teas if joint else None,
                                          config)
        per_request = [loop_oracle.request_loss(P, rows, y, config)
                       for rows, y in zip(batch, y_teas)]
        one_batch = [distill.batch_loss(P, [req], [y] if joint else None,
                                        config)
                     for req, y in zip(batch, y_teas)]
        for losses in (per_request, one_batch):
            assert total.item() == pytest.approx(
                np.mean([t.item() for t, _ in losses]), abs=1e-12)
            for key in ("bce", "kd", "infonce") if joint else ("bce",):
                assert comps[key].item() == pytest.approx(
                    np.mean([c[key].item() for _, c in losses]), abs=1e-12)
            if joint:
                np.testing.assert_allclose(
                    comps["z_stu"].data,
                    np.concatenate([c["z_stu"].data for _, c in losses]),
                    rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("dropout", [0.25, 0.0])
    def test_training_step_matches_per_request_loop(self, dropout):
        config = dataclasses.replace(self.config(), dropout=dropout)
        params, batch, y_teas = self.ragged_batch(config)
        oracle, batched = params.copy(), params.copy()
        rng_o, rng_b = np.random.default_rng(7), np.random.default_rng(7)
        for _ in range(2):
            shown = [rows for rows in batch if np.any(rows.labels >= 0)]
            want = loop_oracle.warmup_step(oracle, shown, config, rng_o)
            tape = ad.Tape()
            P = batched.leaves(tape)
            loss, _ = distill.batch_loss(P, shown, None, config, rng=rng_b)
            tape.backward(loss)
            batched.sgd_step(P, config.lr)
            assert loss.item() == pytest.approx(want, abs=1e-12)

            want = loop_oracle.joint_step(oracle, batch, y_teas, config, rng_o)
            tape = ad.Tape()
            P = batched.leaves(tape)
            loss, _ = distill.batch_loss(P, batch, y_teas, config, rng=rng_b)
            tape.backward(loss)
            batched.sgd_step(P, config.lr)
            assert loss.item() == pytest.approx(want, abs=1e-12)
            for name in batched.names():
                np.testing.assert_allclose(batched[name], oracle[name],
                                           rtol=0.0, atol=1e-12, err_msg=name)
        # both consumed the same random numbers
        assert rng_o.random() == rng_b.random()

    def test_gradient_on_ragged_batch(self):
        config = self.config()
        params, batch, y_teas = self.ragged_batch(config)
        for name in params.names():
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
        first = batch[0]
        short = distill.RequestRows(first.u_idx, first.item_idx[:4],
                                    first.cat_idx[:4], first.labels[:4], 0,
                                    config)
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


class TestDropout:
    """Dropout is data: _draw_noise turns uniforms into the keep
    multipliers (u >= p) / (1 - p) that batch_loss hands to the scorer
    and the fusion head."""

    @staticmethod
    def draw(dropout, n=2500, m=20):
        config = TrainConfig(d=4, dropout=dropout)
        return distill._draw_noise(np.random.default_rng(0), np.array([0, n]),
                                   np.array([n]), np.array([m]), config)

    def test_eval_mode_is_identity(self):
        # at dropout 0 no keep multipliers are drawn, so the scorer and
        # the fusion head run unmasked; the Gumbel uniforms still are
        mlp, gumbel, ffn = self.draw(0.0, n=30)
        assert mlp is None and ffn is None
        assert gumbel.shape == (2, 30, 20)

    def test_training_scales_kept_units(self):
        mlp, _, ffn = self.draw(0.25)
        assert [keep.shape for keep in (*mlp, ffn)] == [
            (2500, 16), (2500, 8), (2500, 8)]
        for keep in (*mlp, ffn):
            kept = keep != 0.0
            np.testing.assert_allclose(keep[kept], 1.0 / 0.75)
            assert abs(kept.mean() - 0.75) < 0.02


class TestServingPath:
    def test_matches_tape_eval_forward(self, trained_small):
        model, _, ds = trained_small
        for req in ds.requests[:6]:
            rows = model.request_arrays(req)
            y_tea = np.zeros(len(rows.item_idx))
            y_tea[:5] = 1.0
            P = {n: Tensor(v) for n, v in model.params.items()}
            _, comps = distill.batch_loss(P, [rows], [y_tea], model.config)
            fast = model.win_probabilities(req)
            np.testing.assert_allclose(fast, sigmoid(comps["z_stu"].data),
                                       rtol=0.0, atol=1e-12)

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
            got = win_probabilities_detached(
                model.params, sampled_rows(model, item_idx, u_idx, n, config),
                config)
            want = serving_oracle.win_probabilities(
                model.params, u_idx, item_idx, config, pool_seed=n)
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    def test_fused_rank_lists_match_gather_oracle(self, trained_small):
        from divrank.evaluation import fused_rank, top_k_fused
        model, _, ds = trained_small
        for req in ds.requests:
            rows = model.request_arrays(req)
            y = serving_oracle.win_probabilities(
                model.params, rows.u_idx, rows.item_idx, model.config,
                pool_seed=rows.pool_seed)
            want = top_k_fused(model.acc_scores(rows) + 0.3 * y, 10)
            ranked = fused_rank(model, req, K=10, gamma=0.3)
            assert ranked.item_idx.tolist() == want.tolist()

    def test_softmax_rows_shift_each_row(self):
        # one scalar shift of 900 would give exp(-899) = 0 in the second row
        out = serving_oracle.softmax_rows(
            np.array([[900.0, 899.0], [1.0, 0.5]]))
        p = sigmoid(1.0)
        p_half = sigmoid(0.5)
        np.testing.assert_allclose(out, [[p, 1 - p], [p_half, 1 - p_half]],
                                   rtol=1e-12)

    def test_widely_spread_attention_rows_stay_finite(self,
                                                      small_model_and_data):
        model, ds = small_model_and_data
        params = model.params.copy()
        # row maxima of the attention scores now differ by far more than
        # the ~745 that exp can span
        params["cce_w1"][...] *= 1e5
        probs = win_probabilities_detached(
            params, model.request_arrays(ds.requests[0]), model.config)
        assert np.all(np.isfinite(probs))

    def test_pool_subsample_is_deterministic(self, trained_small):
        model, _, _ = trained_small
        rng = np.random.default_rng(8)
        item_idx = rng.integers(0, len(model.item_ids),
                                size=3 * model.config.max_context_pool)
        a, b, c = (model.student_scores(sampled_rows(model, item_idx,
                                                     pool_seed=seed))
                   for seed in (4, 4, 5))
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_pool_too_small_for_contexts(self, trained_small):
        model, _, _ = trained_small
        k = model.config.k
        with pytest.raises(ad.DomainError):
            model.student_scores(sampled_rows(model, np.zeros(2 * k)))


class TestRowBlocks:
    """win_probabilities_detached runs its targets in row blocks; the
    output is bitwise that of one block over all rows."""

    B = 16

    @staticmethod
    def block_spy(monkeypatch, blocks):
        """Record, per block, its row count and whether some row's k-th
        and (k+1)-th score from either end are equal: exactly when the tie
        branch runs."""
        real = distill._context_weights

        def spy(w, own_rows, own_cols, k):
            v = w.copy()
            v[own_rows, own_cols] = np.nan    # sorts last
            lo, hi = np.sort(v, axis=1), np.sort(-v, axis=1)
            blocks.append((len(w), bool(np.any(lo[:, k - 1] == lo[:, k])
                                        or np.any(hi[:, k - 1] == hi[:, k]))))
            return real(w, own_rows, own_cols, k)

        monkeypatch.setattr(distill, "_context_weights", spy)

    @pytest.mark.parametrize("extra", [-1, 0, 1, 2 * B + 17])
    @pytest.mark.parametrize("cap", [32, 10])
    def test_blocked_equals_one_block_and_the_oracle(self, trained_small,
                                                     monkeypatch, extra,
                                                     cap):
        # cap 32 keeps every candidate of the smaller requests in the
        # pool, cap 10 subsamples it; 12 distinct items in up to 65 rows
        # put duplicated items, and so tied scores, in every block
        model, _, _ = trained_small
        config = dataclasses.replace(model.config,
                                     max_context_pool=cap).validate()
        n = self.B + extra
        rng = np.random.default_rng(n)
        item_idx = rng.integers(0, 12, size=n)
        rows = sampled_rows(model, item_idx, 2, n, config)
        monkeypatch.setattr(distill, "ROW_BLOCK", n)
        whole = win_probabilities_detached(model.params, rows, config)
        monkeypatch.setattr(distill, "ROW_BLOCK", self.B)
        blocks = []
        self.block_spy(monkeypatch, blocks)
        blocked = win_probabilities_detached(model.params, rows, config)
        sizes, tied = zip(*blocks)
        # as few blocks as ROW_BLOCK allows, split as evenly as possible
        assert len(sizes) == -(-n // self.B) and sum(sizes) == n
        assert max(sizes) - min(sizes) <= 1
        if len(sizes) > 1:
            edges = np.cumsum((0,) + sizes)
            owning = np.diff(np.searchsorted(rows.pool, edges))
            assert np.count_nonzero(owning) > 1   # pool rows in two blocks
            assert sum(tied) > 1
        np.testing.assert_array_equal(blocked, whole)
        want = serving_oracle.win_probabilities(
            model.params, 2, item_idx, config, pool_seed=n)
        np.testing.assert_allclose(blocked, want, rtol=0.0, atol=1e-12)


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
            a = distill._context_weights(w.copy(), pool, np.arange(m), k)
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
        n = m = len(item_idx)
        E = model.params["item_emb"][item_idx]
        q = E @ model.params["cce_w1"]
        w = (q / math.sqrt(model.config.d)) @ (E @ model.params["cce_w2"]).T
        pool = np.arange(n)
        a = distill._context_weights(w.copy(), pool, np.arange(m), k)
        for side, want in zip(a, self.reference_picks(w, pool, k)):
            assert np.all(np.count_nonzero(side, axis=1) == k)
            assert np.all(side[pool, pool] == 0.0)
            np.testing.assert_allclose(side.sum(axis=1), 1.0, rtol=1e-12)
            assert [np.flatnonzero(row).tolist() for row in side] == \
                [sorted(cols) for cols in want]
        probs = model.student_scores(sampled_rows(model, item_idx))
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

    def test_warmup_divergence_aborts(self, small_dataset):
        # one warm-up step over all 20 training requests: only the
        # validation loss sees the weights it leaves behind
        cfg = TrainConfig(d=8, k=3, K_teacher=5, warm_epochs=1,
                          joint_epochs=0, batch_size=20, lr=1e300,
                          max_context_pool=32, seed=0)
        with pytest.raises(TrainingDiverged, match="validation"):
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


class TestRefuseUntrainable:
    @pytest.mark.parametrize("field, value, error, message", [
        ("K_teacher", 31, ValueError, "K=31 exceeds candidate count 30"),
        ("k", 15, ad.DomainError, "2k=30 exceeds usable pool 29")])
    def test_refused_before_the_warmup(self, monkeypatch, field, value,
                                       error, message):
        ds = data.generate_synthetic(data.SyntheticSpec(
            seed=1, num_requests=30, candidates_per_request=30,
            catalog_size=300))
        cfg = TrainConfig(**{field: value})
        train_ds, _ = data.split_train_eval(ds, cfg.eval_fraction, cfg.seed)
        epochs = []
        run = distill._epoch
        monkeypatch.setattr(distill, "_epoch",
                            lambda *args: epochs.append(args[-1]) or run(*args))
        first = train_ds.requests[0].request_id
        with pytest.raises(error, match=re.escape(f"request {first!r}: "
                                                  f"{message}")):
            train(ds, cfg)
        assert epochs == []

    def test_validation_split_checked(self, small_dataset, small_config):
        # a validation request cut to 6 candidates leaves a pool of 5,
        # short of 2k = 6 contexts; every training request is fine
        tr, va = data.split_train_eval(small_dataset, 0.25, 0)
        short = dataclasses.replace(va.requests[1],
                                    item_ids=va.requests[1].item_ids[:6],
                                    labels=va.requests[1].labels[:6])
        va = data.Dataset([va.requests[0], short, *va.requests[2:]],
                          va.items, vocab_from=va)
        with pytest.raises(ad.DomainError, match=re.escape(
                f"request {short.request_id!r}: 2k=6 exceeds usable pool 5")):
            train(tr, small_config, va)

    def test_warmup_only_run_is_not_checked(self, small_dataset):
        # with no joint epoch no teacher labels or contexts are needed
        cfg = TrainConfig(d=8, k=12, K_teacher=30, max_context_pool=32,
                          warm_epochs=1, joint_epochs=0, seed=0)
        _, history = train(small_dataset, cfg)
        assert [h["phase"] for h in history] == ["warmup"]


class TestRefreshLabels:
    @pytest.mark.parametrize("K_teacher", [None, 5])
    def test_matches_per_request_loop_on_ragged_split(
            self, small_model_and_data, K_teacher):
        model, _ = small_model_and_data
        config = dataclasses.replace(model.config, K_teacher=K_teacher,
                                     lam=0.5)
        rng = np.random.default_rng(3)
        # 70 requests of 12 candidates (stacked chunks of 64 and 6), 3 of
        # 7 and one each of 9 and 25 (singleton groups), interleaved;
        # items drawn with repeats give similarity ties
        sizes = rng.permutation([12] * 70 + [7] * 3 + [9, 25])
        split = [sampled_rows(model, rng.integers(len(model.item_ids),
                                                  size=n),
                              u_idx=int(rng.integers(len(model.user_ids))),
                              config=config)
                 for n in sizes]
        got = distill._refresh_labels(model, split, config)
        assert len(got) == len(split)
        for rows, y_tea in zip(split, got):
            K = K_teacher or math.ceil(0.2 * len(rows.item_idx))
            want = np.zeros(len(rows.item_idx))
            want[teach.mmr_greedy(*teach.mmr_inputs(model, rows),
                                  config.lam, K)[0]] = 1.0
            assert y_tea.dtype == want.dtype
            assert np.array_equal(y_tea, want)


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

    def test_on_disk_layout(self, trained_small, tmp_path):
        # perfbench reads weights.bin through the manifest on its own, so
        # the layout is pinned here, not only by a round trip
        model, history, _ = trained_small
        path = tmp_path / "ckpt"
        save_checkpoint(model, path, history)
        names = sorted(model.params.names())
        blob = (path / "weights.bin").read_bytes()
        assert blob == b"".join(
            model.params[name].astype("<f8").tobytes() for name in names)
        manifest = json.loads((path / "manifest.json").read_text())
        tensors = manifest["tensors"]
        assert [t["name"] for t in tensors] == names
        assert [t["shape"] for t in tensors] == \
            [list(model.params[name].shape) for name in names]
        nbytes = [t["nbytes"] for t in tensors]
        assert nbytes == [model.params[name].size * 8 for name in names]
        assert [t["offset"] for t in tensors] == \
            [sum(nbytes[:i]) for i in range(len(nbytes))]
        assert manifest["total_bytes"] == len(blob) == sum(nbytes)

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
        other = CDMModel(model.config, model.item_category,
                         model.category_ids, model.user_ids,
                         params=model.params.copy())
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
        other = CDMModel(model.config, model.item_category,
                         model.category_ids, model.user_ids,
                         params=model.params.copy())
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

    @pytest.mark.parametrize("field", ["items", "users"])
    def test_vocabulary_larger_than_tables_rejected(self, trained_small,
                                                    tmp_path, field):
        model, _, _ = trained_small
        path = tmp_path / "ckpt"
        save_checkpoint(model, path)
        vocab = json.loads((path / "vocab.json").read_text())
        vocab[field].append(["i-new", vocab["categories"][0]]
                            if field == "items" else "u-new")
        (path / "vocab.json").write_text(json.dumps(vocab))
        table = {"items": "item_emb", "users": "user_emb"}[field]
        with pytest.raises(CheckpointError, match=f"'{table}' has shape"):
            load_checkpoint(path)

    @pytest.mark.parametrize("field, name", [
        ("items", "item"), ("categories", "category"), ("users", "user")])
    def test_id_listed_twice_rejected(self, trained_small, tmp_path, field,
                                      name):
        # the sizes still fit the tables, but row 2's id names row 1
        model, _, _ = trained_small
        path = tmp_path / "ckpt"
        save_checkpoint(model, path)
        vocab = json.loads((path / "vocab.json").read_text())
        vocab[field][2] = vocab[field][1]
        (path / "vocab.json").write_text(json.dumps(vocab))
        twice = vocab[field][1][0] if field == "items" else vocab[field][1]
        with pytest.raises(CheckpointError, match=f"{name} ids more than "
                           f"once: \\['{twice}'\\]"):
            load_checkpoint(path)

    def test_item_of_unknown_category_rejected(self, trained_small,
                                               tmp_path):
        model, _, _ = trained_small
        path = tmp_path / "ckpt"
        save_checkpoint(model, path)
        vocab = json.loads((path / "vocab.json").read_text())
        vocab["items"][0][1] = "no-such-category"
        (path / "vocab.json").write_text(json.dumps(vocab))
        with pytest.raises(CheckpointError, match="unknown categories: "
                           r"\['no-such-category'\]"):
            load_checkpoint(path)

    def test_width_other_than_d_rejected(self, trained_small, tmp_path):
        model, _, _ = trained_small
        path = tmp_path / "ckpt"
        save_checkpoint(model, path)
        config = json.loads((path / "config.json").read_text())
        config["d"] += 1
        (path / "config.json").write_text(json.dumps(config))
        with pytest.raises(CheckpointError, match=r"d=9 need"):
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
