"""Context encoder: Gumbel noise, attention scores, self-masking,
positive/negative sampling into dense pooling weights, the two-term
InfoNCE and the fusion head.
"""

import math

import numpy as np
import pytest

from divrank import autodiff as ad
from divrank import cce
from divrank.autodiff import DomainError, ParamStore, Tape, Tensor
from divrank.cce import (_top_k, attention_scores_all, fuse_context,
                         gumbel_noise, infonce_loss, init_cce,
                         sample_contexts)

from gradcheck import grad_check
from loop_oracle import hard_topk

RNG = np.random.default_rng(31)


def self_mask(n, pool):
    """MASK_VALUE at (pool[j], j): each target's own context-pool column."""
    mask = np.zeros((n, len(pool)))
    mask[pool, np.arange(len(pool))] = cce.MASK_VALUE
    return mask


def make_P(d=6, seed=0, tape=None):
    params = ParamStore()
    init_cce(params, d, np.random.default_rng(seed))
    if tape is None:
        return params, {n: Tensor(v) for n, v in params.items()}
    return params, params.leaves(tape)


class TestGumbelNoise:
    def test_transform_matches_definition(self):
        u = np.array([0.1, 0.5, 0.9])
        np.testing.assert_allclose(gumbel_noise(u), -np.log(-np.log(u)))

    def test_extreme_uniforms_stay_finite(self):
        g = gumbel_noise(np.array([0.0, 1.0, 1e-300]))
        assert np.all(np.isfinite(g))

    def test_moments_match_gumbel(self):
        g = gumbel_noise(np.random.default_rng(0).random(200_000))
        euler = 0.5772156649
        assert abs(g.mean() - euler) < 0.01
        assert abs(g.var() - np.pi ** 2 / 6) < 0.02


class TestHardTopk:
    """The reference argsort picks (loop_oracle.hard_topk) and the
    threshold picks training makes (cce._top_k) select the same columns."""

    def test_ordered_by_value(self):
        v = np.array([0.1, 0.9, 0.5, 0.7])
        assert hard_topk(v, 3).tolist() == [1, 3, 2]
        picks, _ = _top_k(v[None], 3)
        assert np.flatnonzero(picks[0]).tolist() == [1, 2, 3]

    def test_k_equals_n(self):
        v = RNG.standard_normal(6)
        assert hard_topk(v, 6).tolist() == np.argsort(-v).tolist()
        picks, _ = _top_k(v[None], 6)
        assert picks.all()

    def test_batched_rows_independent(self):
        v = RNG.standard_normal((10, 8))
        idx = hard_topk(v, 3)
        picks, s = _top_k(v, 3)
        np.testing.assert_array_equal(s, np.sort(v, axis=1))
        for r in range(10):
            assert idx[r].tolist() == np.argsort(-v[r])[:3].tolist()
            assert np.flatnonzero(picks[r]).tolist() == sorted(idx[r])

    def test_k_too_large(self):
        with pytest.raises(DomainError):
            hard_topk(np.ones(3), 4)


class TestSampleFrequencies:
    def test_top1_matches_softmax_probabilities(self):
        # Gumbel argmax draws follow the softmax of the logits
        logits = np.log(np.array([0.5, 0.3, 0.2]))
        draws = 50_000
        u = np.random.default_rng(5).random((draws, 3))
        top1 = np.argmax(logits + gumbel_noise(u), axis=1)
        np.testing.assert_allclose(np.bincount(top1, minlength=3) / draws,
                                   [0.5, 0.3, 0.2], atol=0.01)


class TestAttentionScores:
    def test_matches_scaled_dot_product(self):
        d = 6
        params, P = make_P(d)
        E = RNG.standard_normal((5, d))
        pool = [0, 2, 3]
        q = E @ params["cce_w1"]
        w = attention_scores_all(P, Tensor(q), Tensor(E[pool]),
                                 ((0, 5), (0, 3))).data
        keys = E[pool] @ params["cce_w2"]
        assert w.shape == (5, 3)
        np.testing.assert_allclose(w, q @ keys.T / math.sqrt(d), atol=1e-12)

    def test_segments_score_only_their_own_pool(self):
        d = 6
        params, P = make_P(d)
        E = RNG.standard_normal((9, d))
        q = E @ params["cce_w1"]
        pools = [E[[0, 2]], E[[3, 4, 5, 8]]]  # requests of 3 and 6 rows
        w = attention_scores_all(P, Tensor(q), Tensor(np.concatenate(pools)),
                                 ([0, 3, 9], [0, 2, 6])).data
        assert w.shape == (9, 4)
        for rows, pool in ((slice(0, 3), pools[0]), (slice(3, 9), pools[1])):
            m = len(pool)
            np.testing.assert_allclose(
                w[rows, :m], q[rows] @ (pool @ params["cce_w2"]).T
                / math.sqrt(d), atol=1e-12)
            np.testing.assert_array_equal(w[rows, m:], 0.0)


class TestSampleContexts:
    def test_k_picks_per_side_never_self_or_padding(self):
        # two requests of 5 and 9 rows: the first attends over a 4-row
        # pool padded to the second's 9, the second over all its rows
        d, k = 6, 2
        _, P = make_P(d)
        E = RNG.standard_normal((14, d))
        pool_rows = np.concatenate([[0, 1, 3, 4], 5 + np.arange(9)])
        segments = ([0, 5, 14], [0, 4, 13])
        w = attention_scores_all(P, ad.matmul(Tensor(E), P["cce_w1"]),
                                 Tensor(E[pool_rows]), segments)
        mask = np.zeros((14, 9))
        mask[:5, 4:] = cce.MASK_VALUE
        mask[pool_rows, np.concatenate([np.arange(4), np.arange(9)])] = \
            cce.MASK_VALUE
        rng = np.random.default_rng(0)
        for _ in range(30):
            for a in sample_contexts(w, mask, k, rng.random((2, 14, 9))):
                assert a.data.shape == (14, 9)
                np.testing.assert_array_equal(
                    np.count_nonzero(a.data, axis=1), k)
                np.testing.assert_array_equal(a.data[mask != 0.0], 0.0)
                np.testing.assert_allclose(a.data.sum(axis=1), 1.0,
                                           rtol=0.0, atol=1e-12)

    def test_self_never_in_either_context(self):
        d, n, k = 6, 12, 3
        _, P = make_P(d)
        E = RNG.standard_normal((n, d))
        pool = np.array([0, 2, 3, 5, 7, 8, 10, 11])
        w = attention_scores_all(P, ad.matmul(Tensor(E), P["cce_w1"]),
                                 Tensor(E[pool]), ((0, n), (0, len(pool))))
        rng = np.random.default_rng(0)
        for _ in range(30):
            for a in sample_contexts(w, self_mask(n, pool), k,
                                     rng.random((2, n, len(pool)))):
                for i in range(n):
                    assert i not in pool[a.data[i] != 0.0]

    def test_each_side_is_softmax_over_its_perturbed_picks(self):
        # positive: softmax(w + g) over the k largest of w + g; negative:
        # softmax(w - g') over the k largest of -w + g', so it favours
        # low scores
        n, k = 7, 3
        w = RNG.standard_normal((n, n))
        mask = self_mask(n, np.arange(n))
        u = np.random.default_rng(4).random((2, n, n))
        a_pos, a_neg = sample_contexts(Tensor(w), mask, k, u)
        for a, x, sign, side in ((a_pos, w, 1.0, u[0]),
                                 (a_neg, -w, -1.0, u[1])):
            x = x + gumbel_noise(side)
            for i in range(n):
                picks = np.argsort(x[i] + mask[i])[-k:]
                e = np.exp(sign * x[i, picks])
                want = np.zeros(n)
                want[picks] = e / e.sum()
                np.testing.assert_allclose(a.data[i], want, rtol=0.0,
                                           atol=1e-12)

    def test_no_uniforms_is_noise_free(self):
        # u=None: each side is the softmax of w over its k largest (or
        # smallest) scores
        n, k = 7, 3
        w = RNG.standard_normal((n, n))
        mask = self_mask(n, np.arange(n))
        a_pos, a_neg = sample_contexts(Tensor(w), mask, k)
        for a, x in ((a_pos, w), (a_neg, -w)):
            for i in range(n):
                picks = np.argsort(x[i] + mask[i])[-k:]
                e = np.exp(w[i, picks])
                want = np.zeros(n)
                want[picks] = e / e.sum()
                np.testing.assert_allclose(a.data[i], want, rtol=0.0,
                                           atol=1e-12)

    def test_sides_match_softmax_computing_its_own_shift(self):
        # each side's shift is read off the top-k sort; the weights must
        # equal, bit for bit, the softmax that finds its own largest pick
        n, k = 9, 3
        w = RNG.standard_normal((n, n))
        mask = self_mask(n, np.arange(n))
        mask[:4, 6:] = cce.MASK_VALUE
        u = np.random.default_rng(8).random((2, n, n))
        a_pos, a_neg = sample_contexts(Tensor(w), mask, k, u)
        x_pos = w + gumbel_noise(u[0])
        x_neg = -w + gumbel_noise(u[1])
        for a, x, sign in ((a_pos, x_pos, 1.0), (a_neg, x_neg, -1.0)):
            keep, _ = _top_k(x + mask, k)
            shift = np.where(keep, sign * x, -np.inf).max(-1)
            want = ad.softmax(Tensor(sign * x), keep, shift).data
            np.testing.assert_array_equal(a.data, want)

    def test_noise_added_and_grad_passes_through(self):
        # the noise is a constant shift: the noisy weights, and their
        # gradient, are those of noise-free sampling at w + g (positive
        # side) and w - g' (negative side)
        n, k = 8, 2
        mask = self_mask(n, np.arange(n))
        w0 = RNG.standard_normal((n, n))
        u = np.random.default_rng(6).random((2, n, n))
        m = RNG.standard_normal((n, n))
        shifted = (w0 + gumbel_noise(u[0]), w0 - gumbel_noise(u[1]))
        for side in (0, 1):
            tape, ref_tape = Tape(), Tape()
            w, x = tape.leaf(w0), ref_tape.leaf(shifted[side])
            a = sample_contexts(w, mask, k, u)[side]
            ref = sample_contexts(x, mask, k)[side]
            assert not np.allclose(
                a.data, sample_contexts(Tensor(w0), mask, k)[side].data)
            np.testing.assert_allclose(a.data, ref.data, rtol=0.0,
                                       atol=1e-12)
            tape.backward(ad.tsum(ad.mul(a, m)))
            ref_tape.backward(ad.tsum(ad.mul(ref, m)))
            np.testing.assert_allclose(w.grad, x.grad, rtol=0.0, atol=1e-12)

    def test_zero_noise_picks_extremes(self):
        w = Tensor(np.array([[0.0, 3.0, 1.0, -2.0],
                             [5.0, 0.0, -1.0, 2.0]]))
        a_pos, a_neg = sample_contexts(w, np.zeros((2, 4)), 1)
        np.testing.assert_array_equal(a_pos.data, [[0, 1, 0, 0],
                                                   [1, 0, 0, 0]])
        np.testing.assert_array_equal(a_neg.data, [[0, 0, 0, 1],
                                                   [0, 0, 1, 0]])

    def test_masked_column_never_drawn(self):
        w = Tensor(np.array([[4.0, 1.0, -3.0, 2.0]]))
        mask = np.array([[cce.MASK_VALUE, 0.0, 0.0, 0.0]])  # column 0 = self
        a_pos, a_neg = sample_contexts(w, mask, 1)
        np.testing.assert_array_equal(a_pos.data, [[0, 0, 0, 1]])
        np.testing.assert_array_equal(a_neg.data, [[0, 0, 1, 0]])

    def test_pool_too_small_rejected(self):
        _, P = make_P(4)
        E = Tensor(RNG.standard_normal((5, 4)))
        w = attention_scores_all(P, ad.matmul(E, P["cce_w1"]), E,
                                 ((0, 5), (0, 5)))
        with pytest.raises(DomainError):
            sample_contexts(w, self_mask(5, np.arange(5)), 3)

    def test_weights_grad_check(self):
        mask = self_mask(6, np.arange(6))
        m = RNG.standard_normal((2, 6, 6))

        def f(leaf):
            a_pos, a_neg = sample_contexts(
                leaf, mask, 2, np.random.default_rng(3).random((2, 6, 6)))
            return ad.add(ad.tsum(ad.mul(a_pos, m[0])),
                          ad.tsum(ad.mul(a_neg, m[1])))

        assert grad_check(f, RNG.standard_normal((6, 6))) < 1e-6

    def test_gradient_flows_to_encoder_weights(self):
        tape = Tape()
        params, P = make_P(6, tape=tape)
        E = Tensor(RNG.standard_normal((10, 6)))
        w = attention_scores_all(P, ad.matmul(E, P["cce_w1"]), E,
                                 ((0, 10), (0, 10)))
        a_pos, a_neg = sample_contexts(
            w, self_mask(10, np.arange(10)), 2,
            np.random.default_rng(1).random((2, 10, 10)))
        m = RNG.standard_normal((10, 10))
        tape.backward(ad.tsum(ad.mul(ad.add(a_pos, a_neg), m)))
        assert np.abs(P["cce_w1"].grad).max() > 0.0
        assert np.abs(P["cce_w2"].grad).max() > 0.0


class TestPooling:
    """Each side's context is its dense weights times the pool's value
    rows, one segment_matmul per side, as distill.batch_loss pools."""

    def test_positive_context_is_softmax_average(self):
        w = np.array([[1.0, 2.0, 0.5, -1.0, 0.0, -3.0]])
        V = RNG.standard_normal((6, 4))
        a_pos, _ = sample_contexts(Tensor(w), np.zeros((1, 6)), 2)
        out = ad.segment_matmul(a_pos, Tensor(V), [0, 1], [0, 6]).data
        picks = [1, 0]
        e = np.exp(w[0, picks] - w[0, picks].max())
        np.testing.assert_allclose(out[0], (e / e.sum()) @ V[picks],
                                   rtol=0.0, atol=1e-12)

    def test_negative_context_prefers_low_scores(self):
        w = np.array([[5.0, -5.0, 4.0, 3.0, -4.0]])
        _, a_neg = sample_contexts(Tensor(w), np.zeros((1, 5)), 2)
        out = ad.segment_matmul(a_neg, Tensor(np.eye(5)), [0, 1],
                                [0, 5]).data
        # all mass on the two lowest scores, weighted by softmax(w) there
        np.testing.assert_array_equal(out[0, [0, 2, 3]], 0.0)
        e = np.exp(w[0, [1, 4]] - w[0, [1, 4]].max())
        np.testing.assert_allclose(out[0, [1, 4]], e / e.sum(), rtol=0.0,
                                   atol=1e-15)

    def test_segments_pool_only_their_own_values(self):
        # rows 0:2 pool over value rows 0:3, padded to width 5; rows 2:5
        # over value rows 3:8
        w = RNG.standard_normal((5, 5))
        mask = np.zeros((5, 5))
        mask[:2, 3:] = cce.MASK_VALUE
        V = RNG.standard_normal((8, 4))
        segments = ([0, 2, 5], [0, 3, 8])
        for a in sample_contexts(Tensor(w), mask, 2,
                                 np.random.default_rng(2).random((2, 5, 5))):
            np.testing.assert_array_equal(a.data[:2, 3:], 0.0)
            out = ad.segment_matmul(a, Tensor(V), *segments).data
            np.testing.assert_allclose(out[:2], a.data[:2, :3] @ V[:3],
                                       rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(out[2:], a.data[2:] @ V[3:],
                                       rtol=0.0, atol=1e-12)

    def test_pooling_grad_check(self):
        mask = self_mask(6, np.arange(6))
        V = RNG.standard_normal((6, 4))
        m = RNG.standard_normal((6, 4))
        segments = ([0, 6], [0, 6])

        def f(leaf):
            a_pos, _ = sample_contexts(
                leaf, mask, 2, np.random.default_rng(3).random((2, 6, 6)))
            return ad.tsum(ad.mul(
                ad.segment_matmul(a_pos, Tensor(V), *segments), m))

        assert grad_check(f, RNG.standard_normal((6, 6))) < 1e-6
        _, a_neg = sample_contexts(Tensor(RNG.standard_normal((6, 6))), mask,
                                   2, np.random.default_rng(3).random(
                                       (2, 6, 6)))
        assert grad_check(lambda leaf: ad.tsum(ad.mul(
            ad.segment_matmul(a_neg, leaf, *segments), m)), V) < 1e-6


class TestInfoNCE:
    def test_matches_softplus_of_margin(self):
        q = RNG.standard_normal((4, 6))
        cp = RNG.standard_normal((4, 6))
        cn = RNG.standard_normal((4, 6))
        t = 0.3
        expected = np.mean(np.logaddexp(
            0.0, ((q * cn).sum(1) - (q * cp).sum(1)) / t))
        got = infonce_loss(Tensor(q), Tensor(cp), Tensor(cn), t,
                           np.full(4, 0.25)).item()
        assert got == pytest.approx(expected, abs=1e-12)

    def test_separated_contexts_give_low_loss(self):
        q = np.ones((1, 4))
        loss_good = infonce_loss(Tensor(q), Tensor(q * 3), Tensor(-q * 3),
                                 0.2, [1.0]).item()
        loss_bad = infonce_loss(Tensor(q), Tensor(-q * 3), Tensor(q * 3),
                                0.2, [1.0]).item()
        assert loss_good < 1e-8 < loss_bad

    def test_bad_temperature(self):
        q = Tensor(np.ones((1, 2)))
        with pytest.raises(DomainError):
            infonce_loss(q, q, q, 0.0, [1.0])

    def test_row_weights_sum_the_row_losses(self):
        q, cp, cn = (RNG.standard_normal((4, 6)) for _ in range(3))
        per_row = np.logaddexp(0.0, ((q * cn).sum(1) - (q * cp).sum(1)) / 0.3)
        weights = np.array([0.5, 0.5, 0.25, 0.25]) / 2
        got = infonce_loss(Tensor(q), Tensor(cp), Tensor(cn), 0.3,
                           weights).item()
        assert got == pytest.approx(weights @ per_row, abs=1e-12)

    def test_grad_check_through_both_terms(self):
        cp = RNG.standard_normal((3, 4))
        cn = RNG.standard_normal((3, 4))

        def f(leaf):
            return infonce_loss(leaf, Tensor(cp), Tensor(cn), 0.5,
                                np.full(3, 1 / 3))

        assert grad_check(f, RNG.standard_normal((3, 4))) < 1e-6


class TestFusion:
    def test_output_shape_and_determinism(self):
        d = 6
        _, P = make_P(d)
        u = Tensor(RNG.standard_normal((1, d)))
        cp = Tensor(RNG.standard_normal((7, d)))
        cn = Tensor(RNG.standard_normal((7, d)))
        a = fuse_context(u, cp, cn, P).data
        b = fuse_context(u, cp, cn, P).data
        assert a.shape == (7, d)
        np.testing.assert_array_equal(a, b)

    def test_user_gate_zeroes_context(self):
        # a user with zero interests erases both context halves
        d = 4
        _, P = make_P(d)
        u = Tensor(np.zeros((1, d)))
        cp = Tensor(RNG.standard_normal((3, d)))
        cn = Tensor(RNG.standard_normal((3, d)))
        out = fuse_context(u, cp, cn, P).data
        ref = fuse_context(u, Tensor(np.zeros((3, d))),
                           Tensor(np.zeros((3, d))), P).data
        np.testing.assert_allclose(out, ref, atol=1e-12)

    def test_dropout_only_in_training(self):
        # evaluation passes no keep multipliers; training's multiply the
        # hidden layer
        d = 6
        params, P = make_P(d)
        u = RNG.standard_normal((1, d))
        cp = RNG.standard_normal((5, d))
        cn = RNG.standard_normal((5, d))
        keep = (np.random.default_rng(0).random((5, 2 * d)) >= 0.5) / 0.5
        eval_out = fuse_context(Tensor(u), Tensor(cp), Tensor(cn), P).data
        train_out = fuse_context(Tensor(u), Tensor(cp), Tensor(cn), P,
                                 keep).data
        h = np.maximum(np.concatenate([u * cp, u * cn], axis=1)
                       @ params["ffn_w1"] + params["ffn_b1"], 0.0)
        np.testing.assert_allclose(
            eval_out, h @ params["ffn_w2"] + params["ffn_b2"], atol=1e-12)
        np.testing.assert_allclose(
            train_out, (h * keep) @ params["ffn_w2"] + params["ffn_b2"],
            atol=1e-12)
        assert not np.allclose(eval_out, train_out)

    def test_grad_reaches_all_ffn_params(self):
        tape = Tape()
        params, P = make_P(6, tape=tape)
        u = Tensor(RNG.standard_normal((1, 6)))
        cp = Tensor(RNG.standard_normal((4, 6)))
        cn = Tensor(RNG.standard_normal((4, 6)))
        tape.backward(ad.tsum(fuse_context(u, cp, cn, P)))
        for name in ("ffn_w1", "ffn_b1", "ffn_w2", "ffn_b2"):
            assert np.abs(P[name].grad).max() > 0.0, name
