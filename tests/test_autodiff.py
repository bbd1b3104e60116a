"""Tape engine unit tests: every op family against the finite-difference
oracle, plus tape lifecycle and error behaviour.
"""

import gc
import warnings
import weakref

import numpy as np
import pytest

from divrank import autodiff as ad
from divrank.autodiff import (DomainError, ParamStore, ShapeError, Tape,
                              TapeStateError, Tensor)

from gradcheck import grad_check
from loop_oracle import take_per_row, transpose

RNG = np.random.default_rng(20240811)


def exp(a):
    """Elementwise e^a; the package has no caller for it, so it lives here."""
    a = ad._coerce(a)
    out = np.exp(a.data)
    return ad._record(a.tape, out, (a,), lambda g: (g * out,))


def check(f, x, tol=1e-6, h=1e-5):
    assert grad_check(f, x, h=h) < tol


class TestArithmetic:
    def test_add_sub_mul_chain(self):
        y = RNG.standard_normal((3, 4))
        check(lambda t: ad.tsum(ad.mul(ad.add(t, y), ad.sub(t, 2.0))),
              RNG.standard_normal((3, 4)))

    def test_broadcast_row_vector(self):
        row = RNG.standard_normal(4)
        check(lambda t: ad.tsum(ad.mul(ad.add(t, row), 1.5)),
              RNG.standard_normal((5, 4)))

    def test_broadcast_grad_shape(self):
        tape = Tape()
        bias = tape.leaf(RNG.standard_normal(4))
        out = ad.tsum(ad.add(Tensor(RNG.standard_normal((6, 4))), bias))
        tape.backward(out)
        assert bias.grad.shape == (4,)
        np.testing.assert_allclose(bias.grad, np.full(4, 6.0))

    def test_neg_and_scale(self):
        check(lambda t: ad.tsum(ad.scale(ad.neg(t), 0.3)),
              RNG.standard_normal(7))


class TestMatmul:
    @pytest.mark.parametrize("sa,sb", [((3, 4), (4, 2))])
    def test_all_rank_combinations_left(self, sa, sb):
        b = RNG.standard_normal(sb)
        check(lambda t: ad.tsum(ad.matmul(t, b)), RNG.standard_normal(sa))

    @pytest.mark.parametrize("sa,sb", [((3, 4), (4, 2))])
    def test_all_rank_combinations_right(self, sa, sb):
        a = RNG.standard_normal(sa)
        check(lambda t: ad.tsum(ad.matmul(a, t)), RNG.standard_normal(sb))

    def test_inner_dim_mismatch(self):
        with pytest.raises(ShapeError):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))

    def test_3d_rejected(self):
        with pytest.raises(ShapeError):
            ad.matmul(Tensor(np.ones((2, 2, 2))), Tensor(np.ones((2, 2))))

    @pytest.mark.parametrize("sa,sb", [((4,), (4, 2)), ((3, 4), (4,)),
                                       ((4,), (4,))])
    def test_1d_rejected(self, sa, sb):
        with pytest.raises(ShapeError, match="2-D operands only"):
            ad.matmul(Tensor(np.ones(sa)), Tensor(np.ones(sb)))


class TestSegmentMatmul:
    A_OFF, B_OFF = [0, 2, 5, 6], [0, 3, 4, 6]

    def test_transposed_blocks_left_aligned_and_zero_padded(self):
        a = RNG.standard_normal((6, 4))
        b = RNG.standard_normal((6, 4))
        out = ad.segment_matmul(Tensor(a), Tensor(b), self.A_OFF, self.B_OFF,
                                transpose_b=True).data
        expected = np.zeros((6, 3))
        expected[0:2, :3] = a[0:2] @ b[0:3].T
        expected[2:5, :1] = a[2:5] @ b[3:4].T
        expected[5:6, :2] = a[5:6] @ b[4:6].T
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_blocks_read_only_their_columns(self):
        a = RNG.standard_normal((6, 3))
        b = RNG.standard_normal((6, 4))
        out = ad.segment_matmul(Tensor(a), Tensor(b), self.A_OFF,
                                self.B_OFF).data
        expected = np.concatenate([a[0:2, :3] @ b[0:3], a[2:5, :1] @ b[3:4],
                                   a[5:6, :2] @ b[4:6]])
        np.testing.assert_allclose(out, expected, atol=1e-12)

    @pytest.mark.parametrize("transpose_b,a_cols", [(True, 4), (False, 3)])
    def test_grad_both_operands(self, transpose_b, a_cols):
        a = RNG.standard_normal((6, a_cols))
        b = RNG.standard_normal((6, 4))
        m = RNG.standard_normal((6, 3 if transpose_b else 4))

        def loss(x, y):
            return ad.tsum(ad.mul(ad.segment_matmul(
                x, y, self.A_OFF, self.B_OFF, transpose_b), m))

        check(lambda t: loss(t, b), a)
        check(lambda t: loss(a, t), b)


class TestElementwise:
    def test_relu(self):
        x = RNG.standard_normal(20)
        x[np.abs(x) < 0.05] += 0.2  # keep away from the kink
        check(lambda t: ad.tsum(ad.relu(t)), x)

    def test_sigmoid(self):
        check(lambda t: ad.tsum(ad.sigmoid(t)), RNG.standard_normal(10))

    def test_exp_log_roundtrip_grad(self):
        x = RNG.uniform(0.1, 3.0, size=8)
        check(lambda t: ad.tsum(ad.log(exp(t))), x)

    def test_log_clamps_small_arguments(self):
        out = ad.log(Tensor([1e-30, 0.0, -1.0]))
        np.testing.assert_allclose(out.data, np.log(1e-12))

    def test_log_clamp_zero_gradient(self):
        tape = Tape()
        x = tape.leaf(np.array([1e-30, 0.5]))
        tape.backward(ad.tsum(ad.log(x)))
        assert x.grad[0] == 0.0
        assert x.grad[1] == pytest.approx(2.0)

    def test_softplus_matches_reference_and_survives_overflow(self):
        x = np.array([-800.0, -5.0, 0.0, 5.0, 800.0])
        out = ad.softplus(Tensor(x))
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data[1:4],
                                   np.log1p(np.exp(x[1:4])), rtol=1e-12)
        assert out.data[4] == pytest.approx(800.0)

    def test_softplus_grad(self):
        check(lambda t: ad.tsum(ad.softplus(t)), RNG.standard_normal(9))


class TestReductionsShaping:
    def test_sum_axis_keepdims(self):
        check(lambda t: ad.tsum(ad.mul(ad.tsum(t, axis=1, keepdims=True), t)),
              RNG.standard_normal((4, 3)))

    def test_weighted_mean(self):
        w = RNG.random(5)
        check(lambda t: ad.weighted_mean(t, w), RNG.standard_normal(5))
        x = RNG.standard_normal(5)
        assert ad.weighted_mean(Tensor(x), w).item() == \
            pytest.approx(w @ x, abs=1e-12)
        assert ad.weighted_mean(Tensor(x)).item() == \
            pytest.approx(x.mean(), abs=1e-12)

    def test_mean(self):
        tape = Tape()
        x = tape.leaf(RNG.standard_normal(10))
        tape.backward(ad.tmean(x))
        np.testing.assert_allclose(x.grad, np.full(10, 0.1))

    def test_concat(self):
        b = RNG.standard_normal((3, 2))
        v = RNG.standard_normal((3, 6))
        check(lambda t: ad.tsum(ad.mul(ad.concat([t, b], axis=1), v)),
              RNG.standard_normal((3, 4)))

    def test_transpose(self):
        m = RNG.standard_normal((4, 3))
        check(lambda t: ad.tsum(ad.mul(transpose(t), m)),
              RNG.standard_normal((3, 4)))

    def test_transpose_rejects_1d(self):
        with pytest.raises(ShapeError):
            transpose(Tensor(np.ones(3)))

    def test_reshape(self):
        v = RNG.standard_normal((2, 6))
        check(lambda t: ad.tsum(ad.mul(ad.reshape(t, (2, 6)), v)),
              RNG.standard_normal((3, 4)))


class TestSoftmaxFamily:
    def test_softmax_rows_sum_to_one(self):
        out = ad.softmax(Tensor(RNG.standard_normal((5, 7))))
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(5))

    KEEP = np.array([[1, 0, 1, 1, 0, 1],
                     [0, 1, 0, 0, 0, 0],
                     [1, 1, 0, 1, 1, 0]], dtype=bool)

    @pytest.mark.parametrize("tau", [0.2, 1.0, 3.0])
    def test_softmax_grad(self, tau):
        # softmax(x / tau): sharp, unit and flat distributions
        v = RNG.standard_normal(6)
        check(lambda t: ad.tsum(ad.mul(ad.softmax(ad.scale(t, 1.0 / tau)), v)),
              RNG.standard_normal(6), tol=1e-5)

    @pytest.mark.parametrize("tau", [0.2, 1.0, 3.0])
    def test_softmax_keep_grad(self, tau):
        # softmax(x / tau) over each row's kept entries; row 0's dropped
        # entries lie 1e30 above its kept ones and must not overflow or warn
        x = RNG.standard_normal((3, 6))
        x[0, ~self.KEEP[0]] += 1e30
        v = RNG.standard_normal((3, 6))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            check(lambda t: ad.tsum(ad.mul(
                ad.softmax(ad.scale(t, 1.0 / tau), keep=self.KEEP), v)), x,
                tol=1e-5)

    def test_softmax_keep_is_softmax_of_kept_entries(self):
        x = RNG.standard_normal((3, 6))
        x[0, ~self.KEEP[0]] += 1e30
        out = ad.softmax(Tensor(x), keep=self.KEEP).data
        for row, keep, got in zip(x, self.KEEP, out):
            e = np.exp(row[keep] - row[keep].max())
            np.testing.assert_allclose(got[keep], e / e.sum(), rtol=0.0,
                                       atol=1e-15)
            np.testing.assert_array_equal(got[~keep], 0.0)


class TestGathers:
    def test_gather_rows_accumulates_repeats(self):
        tape = Tape()
        table = tape.leaf(RNG.standard_normal((5, 3)))
        out = ad.tsum(ad.gather_rows(table, np.array([1, 1, 4])))
        tape.backward(out)
        np.testing.assert_allclose(table.grad[1], np.full(3, 2.0))
        np.testing.assert_allclose(table.grad[0], np.zeros(3))

    def test_gather_rows_nd_index(self):
        idx = np.array([[0, 2], [3, 3]])
        check(lambda t: ad.tsum(ad.gather_rows(t, idx)),
              RNG.standard_normal((4, 3)))

    def test_gather_rows_scatter_matches_add_at(self):
        idx = np.array([[4, 1, 4], [0, 4, 1]])
        weights = RNG.standard_normal(idx.shape + (3,))
        tape = Tape()
        table = tape.leaf(RNG.standard_normal((6, 3)))
        tape.backward(ad.tsum(ad.mul(ad.gather_rows(table, idx), weights)))
        ref = np.zeros((6, 3))
        np.add.at(ref, idx.reshape(-1), weights.reshape(-1, 3))
        np.testing.assert_array_equal(table.grad, ref)
        check(lambda t: ad.tsum(ad.mul(ad.gather_rows(t, idx), weights)),
              RNG.standard_normal((6, 3)))

    def test_take_per_row(self):
        # the taped per-row gather of the reference selection in loop_oracle
        idx = np.array([[0, 2], [1, 1], [3, 0]])
        check(lambda t: ad.tsum(take_per_row(t, idx)),
              RNG.standard_normal((3, 4)))

    def test_take_per_row_scatter_matches_add_at(self):
        idx = np.array([[2, 2, 0], [1, 3, 1], [0, 0, 0]])
        weights = RNG.standard_normal(idx.shape)
        tape = Tape()
        a = tape.leaf(RNG.standard_normal((3, 4)))
        tape.backward(ad.tsum(ad.mul(take_per_row(a, idx), weights)))
        ref = np.zeros((3, 4))
        np.add.at(ref, (np.arange(3)[:, None], idx), weights)
        np.testing.assert_array_equal(a.grad, ref)
        check(lambda t: ad.tsum(ad.mul(take_per_row(t, idx), weights)),
              RNG.standard_normal((3, 4)))

    def test_add_constant_passes_grad_through(self):
        tape = Tape()
        x = tape.leaf(np.zeros(4))
        tape.backward(ad.tsum(ad.add_constant(x, np.arange(4.0))))
        np.testing.assert_allclose(x.grad, np.ones(4))


class TestDropout:
    def test_eval_mode_is_identity(self):
        x = Tensor(RNG.standard_normal(10))
        assert ad.dropout(x, 0.5, None, training=False) is x

    def test_training_scales_kept_units(self):
        tape = Tape()
        x = tape.leaf(np.ones(10000))
        out = ad.dropout(x, 0.25, np.random.default_rng(0), training=True)
        kept = out.data != 0.0
        np.testing.assert_allclose(out.data[kept], 1.0 / 0.75)
        assert abs(kept.mean() - 0.75) < 0.02


class TestTapeLifecycle:
    def test_backward_twice_fails(self):
        tape = Tape()
        x = tape.leaf(np.ones(3))
        loss = ad.tsum(x)
        tape.backward(loss)
        with pytest.raises(TapeStateError):
            tape.backward(loss)

    def test_nonscalar_loss_rejected(self):
        tape = Tape()
        x = tape.leaf(np.ones(3))
        with pytest.raises(ShapeError):
            tape.backward(ad.mul(x, 2.0))

    def test_foreign_loss_rejected(self):
        tape = Tape()
        tape.leaf(np.ones(3))
        other = Tape()
        loss = ad.tsum(other.leaf(np.ones(2)))
        with pytest.raises(TapeStateError):
            tape.backward(loss)

    def test_mixed_tapes_rejected(self):
        a = Tape().leaf(np.ones(3))
        b = Tape().leaf(np.ones(3))
        with pytest.raises(TapeStateError):
            ad.add(a, b)

    def test_unused_leaf_gets_zero_grad(self):
        tape = Tape()
        x = tape.leaf(np.ones(3))
        y = tape.leaf(np.ones(2))
        tape.backward(ad.tsum(x))
        np.testing.assert_allclose(y.grad, np.zeros(2))

    def test_step_graph_freed_without_collector(self):
        # the graph holds no reference cycle: with the cyclic collector
        # off, dropping a step's tape and tensors frees what its ops saved
        params = ParamStore()
        params.add("w", RNG.standard_normal((4, 3)))
        params.add("b", RNG.standard_normal(3))
        enabled = gc.isenabled()
        gc.disable()
        try:
            tape = Tape()
            P = params.leaves(tape)
            x = Tensor(RNG.standard_normal((5, 4)))
            h = ad.add(ad.matmul(x, P["w"]), P["b"])
            z = ad.concat([ad.mul(h, h), ad.sub(h, P["b"])], axis=1)
            loss = ad.tsum(ad.segment_matmul(z, z, [0, 2, 5], [0, 2, 5],
                                             transpose_b=True))
            tape.backward(loss)
            params.sgd_step(P, 0.1)
            # the old weights (saved by matmul) and h (saved by mul)
            saved = [weakref.ref(P["w"].data), weakref.ref(h.data)]
            del tape, P, x, h, z, loss
            assert [ref() for ref in saved] == [None, None]
        finally:
            if enabled:
                gc.enable()


class TestParamStore:
    def test_duplicate_name_rejected(self):
        store = ParamStore()
        store.add("w", np.ones(2))
        with pytest.raises(KeyError):
            store.add("w", np.ones(2))

    def test_sgd_step_moves_against_gradient(self):
        store = ParamStore()
        store.add("w", np.array([2.0]))
        tape = Tape()
        leaves = store.leaves(tape)
        tape.backward(ad.tsum(ad.mul(leaves["w"], leaves["w"])))
        store.sgd_step(leaves, lr=0.25)
        np.testing.assert_allclose(store["w"], [1.0])

    def test_sgd_without_backward_fails(self):
        store = ParamStore()
        store.add("w", np.ones(2))
        leaves = store.leaves(Tape())
        with pytest.raises(TapeStateError):
            store.sgd_step(leaves, 0.1)

    def test_copy_is_deep(self):
        store = ParamStore()
        store.add("w", np.ones(2))
        other = store.copy()
        other["w"][:] = 0.0
        np.testing.assert_allclose(store["w"], np.ones(2))


class TestGradCheckOracle:
    def test_reports_small_error_for_correct_grads(self):
        x = RNG.standard_normal(5)
        err = grad_check(lambda t: ad.tsum(ad.mul(t, t)), x)
        assert err < 1e-9

    def test_step_size_bounds(self):
        for h in (1e-8, 1e-2):
            with pytest.raises(DomainError):
                grad_check(lambda t: ad.tsum(t), np.ones(2), h=h)

    # the forward overflows on purpose
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_forward_detected(self):
        def f(t):
            return ad.tsum(ad.log(exp(ad.scale(t, 1e6))))
        with pytest.raises(FloatingPointError):
            grad_check(f, np.array([1.0]))
