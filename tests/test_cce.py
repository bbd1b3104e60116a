"""Context encoder: attention scores, self-masking, positive/negative
sampling, pooling, the two-term InfoNCE and the fusion head.
"""

import math

import numpy as np
import pytest

from divrank import autodiff as ad
from divrank import cce
from divrank.autodiff import DomainError, ParamStore, Tape, Tensor
from divrank.cce import (attention_scores_all, fuse_context, infonce_loss,
                         init_cce, negative_context, positive_context,
                         sample_contexts)

from gradcheck import grad_check

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


class TestAttentionScores:
    def test_matches_scaled_dot_product(self):
        d = 6
        params, P = make_P(d)
        E = RNG.standard_normal((5, d))
        pool = [0, 2, 3]
        q = E @ params["cce_w1"]
        w = attention_scores_all(P, Tensor(q), Tensor(E[pool])).data
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
    def test_self_never_in_either_context(self):
        d, n, k = 6, 12, 3
        _, P = make_P(d)
        E = RNG.standard_normal((n, d))
        pool = np.array([0, 2, 3, 5, 7, 8, 10, 11])
        w = attention_scores_all(P, ad.matmul(Tensor(E), P["cce_w1"]),
                                 Tensor(E[pool]))
        rng = np.random.default_rng(0)
        for _ in range(30):
            s = sample_contexts(w, self_mask(n, pool), k, rng)
            for i in range(n):
                assert i not in pool[s.pos_idx[i]]
                assert i not in pool[s.neg_idx[i]]

    def test_zero_noise_picks_extremes(self):
        w = Tensor(np.array([[0.0, 3.0, 1.0, -2.0],
                             [5.0, 0.0, -1.0, 2.0]]))
        s = sample_contexts(w, np.zeros((2, 4)), 1)
        assert s.pos_idx.tolist() == [[1], [0]]
        assert s.neg_idx.tolist() == [[3], [2]]

    def test_masked_column_never_drawn(self):
        w = Tensor(np.array([[4.0, 1.0, -3.0, 2.0]]))
        mask = np.array([[cce.MASK_VALUE, 0.0, 0.0, 0.0]])  # column 0 = self
        s = sample_contexts(w, mask, 1)
        assert s.pos_idx.tolist() == [[3]]
        assert s.neg_idx.tolist() == [[2]]

    def test_pool_too_small_rejected(self):
        _, P = make_P(4)
        E = Tensor(RNG.standard_normal((5, 4)))
        w = attention_scores_all(P, ad.matmul(E, P["cce_w1"]), E)
        with pytest.raises(DomainError):
            sample_contexts(w, self_mask(5, np.arange(5)), 3)

    def test_gradient_flows_to_encoder_weights(self):
        tape = Tape()
        params, P = make_P(6, tape=tape)
        E = Tensor(RNG.standard_normal((10, 6)))
        w = attention_scores_all(P, ad.matmul(E, P["cce_w1"]), E)
        s = sample_contexts(w, self_mask(10, np.arange(10)), 2,
                            np.random.default_rng(1))
        tape.backward(ad.add(ad.tsum(s.w_pos), ad.tsum(s.w_neg)))
        assert np.abs(P["cce_w1"].grad).max() > 0.0
        assert np.abs(P["cce_w2"].grad).max() > 0.0


class TestPooling:
    def test_positive_context_is_softmax_average(self):
        w = Tensor(np.array([[1.0, 2.0, 0.5]]))
        V = RNG.standard_normal((5, 4))
        idx = np.array([[4, 0, 2]])
        out = positive_context(w, idx, Tensor(V)).data
        a = np.exp(w.data[0] - w.data[0].max())
        a = a / a.sum()
        np.testing.assert_allclose(out[0], a @ V[idx[0]], atol=1e-12)

    def test_negative_context_prefers_low_scores(self):
        w = Tensor(np.array([[5.0, -5.0]]))
        V = np.array([[1.0, 0.0], [0.0, 1.0]])
        out = negative_context(w, np.array([[0, 1]]), Tensor(V)).data
        assert out[0, 1] > out[0, 0]  # mass on the low-score row

    def test_segments_pool_only_their_own_values(self):
        w = RNG.standard_normal((3, 2))
        idx = np.array([[1, 0], [0, 2], [2, 1]])
        V = RNG.standard_normal((5, 4))  # pools of 2 and 3 value rows
        out = positive_context(Tensor(w), idx, Tensor(V),
                               ([0, 1, 3], [0, 2, 5])).data
        a = np.exp(w) / np.exp(w).sum(axis=1, keepdims=True)
        np.testing.assert_allclose(out[0], a[0] @ V[0:2][idx[0]], atol=1e-12)
        for i in (1, 2):
            np.testing.assert_allclose(out[i], a[i] @ V[2:5][idx[i]],
                                       atol=1e-12)

    def test_pooling_grad_check(self):
        idx = np.array([[0, 3, 1], [4, 2, 0]])
        V = RNG.standard_normal((5, 4))
        m = RNG.standard_normal((2, 4))

        def f(leaf):
            return ad.tsum(ad.mul(positive_context(leaf, idx, Tensor(V)), m))

        assert grad_check(f, RNG.standard_normal((2, 3))) < 1e-6
        w = Tensor(RNG.standard_normal((2, 3)))
        assert grad_check(lambda leaf: ad.tsum(ad.mul(
            negative_context(w, idx, leaf), m)), V) < 1e-6


class TestInfoNCE:
    def test_matches_softplus_of_margin(self):
        q = RNG.standard_normal((4, 6))
        cp = RNG.standard_normal((4, 6))
        cn = RNG.standard_normal((4, 6))
        t = 0.3
        expected = np.mean(np.logaddexp(
            0.0, ((q * cn).sum(1) - (q * cp).sum(1)) / t))
        got = infonce_loss(Tensor(q), Tensor(cp), Tensor(cn), t).item()
        assert got == pytest.approx(expected, abs=1e-12)

    def test_separated_contexts_give_low_loss(self):
        q = np.ones((1, 4))
        loss_good = infonce_loss(Tensor(q), Tensor(q * 3), Tensor(-q * 3),
                                 0.2).item()
        loss_bad = infonce_loss(Tensor(q), Tensor(-q * 3), Tensor(q * 3),
                                0.2).item()
        assert loss_good < 1e-8 < loss_bad

    def test_bad_temperature(self):
        q = Tensor(np.ones((1, 2)))
        with pytest.raises(DomainError):
            infonce_loss(q, q, q, 0.0)

    def test_row_weights_replace_the_mean(self):
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
            return infonce_loss(leaf, Tensor(cp), Tensor(cn), 0.5)

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
        d = 6
        _, P = make_P(d)
        u = Tensor(RNG.standard_normal((1, d)))
        cp = Tensor(RNG.standard_normal((5, d)))
        cn = Tensor(RNG.standard_normal((5, d)))
        eval_out = fuse_context(u, cp, cn, P, training=False, dropout=0.5,
                                rng=np.random.default_rng(0)).data
        train_out = fuse_context(u, cp, cn, P, training=True, dropout=0.5,
                                 rng=np.random.default_rng(0)).data
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
