"""Point-wise scorer: config validation, init shapes, scoring paths and
the BCE loss against a hand-rolled reference.
"""

import numpy as np
import pytest

from divrank import backbone as bb
from divrank.autodiff import ParamStore, Tape, Tensor
from divrank.backbone import ConfigError, TrainConfig

import serving_oracle
from gradcheck import grad_check
from logistic import logit, sigmoid

RNG = np.random.default_rng(7)


def make_params(n_items=9, n_cats=3, n_users=4, d=6, seed=0):
    params = ParamStore()
    bb.init_backbone(params, n_items, n_cats, n_users, d,
                     np.random.default_rng(seed), emb_scale=0.1)
    return params


class TestTrainConfig:
    def test_defaults_validate(self):
        TrainConfig().validate()

    @pytest.mark.parametrize("field,value", [
        ("d", 0), ("lr", 0.0), ("batch_size", 0), ("lam", -0.1),
        ("gamma", -1.0), ("k", 0), ("infonce_t", 0.0), ("dropout", 1.0),
        ("patience", 0), ("joint_epochs", -1), ("eval_fraction", 1.0),
        ("max_context_pool", 3), ("seed", -1), ("K_teacher", 0),
        ("K_teacher", -3),
    ])
    def test_invalid_field_rejected(self, field, value):
        cfg = TrainConfig(**{field: value})
        with pytest.raises(ConfigError):
            cfg.validate()

    # a float where an int belongs, a bool, a string or a non-finite float
    # must not reach the range checks or training
    @pytest.mark.parametrize("field,value", [
        ("k", 8.5), ("d", 8.0), ("batch_size", 2.5), ("K_teacher", 2.5),
        ("k", True), ("lr", "0.1"), ("lam", float("nan")),
        ("gamma", float("inf")), ("dropout", False), ("seed", None),
    ])
    def test_wrong_type_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TrainConfig.from_dict({field: value})

    @pytest.mark.parametrize("obj", [[], "d", 4, None])
    def test_non_object_rejected(self, obj):
        with pytest.raises(ConfigError, match="JSON object"):
            TrainConfig.from_dict(obj)

    def test_dict_roundtrip(self):
        cfg = TrainConfig(d=4, lr=0.1, k=2, max_context_pool=32)
        again = TrainConfig.from_dict(cfg.to_dict())
        assert again == cfg

    # tau_start is a retired field: configs that still carry it are refused
    @pytest.mark.parametrize("field", ["momentum", "tau_start"])
    def test_unknown_field_rejected(self, field):
        with pytest.raises(ConfigError, match=f"unknown.*{field}"):
            TrainConfig.from_dict({"d": 4, field: 0.9})


class TestInit:
    def test_shapes(self):
        params = make_params(d=6)
        h1, h2 = bb.hidden_sizes(6)
        assert params["item_emb"].shape == (9, 6)
        assert params["cat_emb"].shape == (3, 6)
        assert params["user_emb"].shape == (4, 6)
        assert params["mlp_w1"].shape == (30, h1)
        assert params["mlp_w2"].shape == (h1, h2)
        assert params["mlp_w3"].shape == (h2, 1)
        assert set(params.names()) == {
            "item_emb", "cat_emb", "user_emb", "mlp_w1", "mlp_b1", "mlp_w2",
            "mlp_b2", "mlp_w3", "mlp_b3"}

    def test_deterministic_under_seed(self):
        a, b = make_params(seed=5), make_params(seed=5)
        for name in a.names():
            np.testing.assert_array_equal(a[name], b[name])


class TestScoring:
    def test_probabilities_in_unit_interval(self):
        params = make_params()
        P = {n: Tensor(v) for n, v in params.items()}
        out = sigmoid(bb.score_logits(P, 1, [0, 3, 7], [0, 1, 2]).data)
        assert out.shape == (3,)
        assert np.all((out > 0) & (out < 1))

    def test_detached_matches_tape_eval_mode(self):
        params = make_params()
        P = {n: Tensor(v) for n, v in params.items()}
        item_idx, cat_idx = [0, 3, 7, 8], [0, 1, 2, 0]
        tape_out = sigmoid(bb.score_logits(P, 2, item_idx, cat_idx).data)
        fast_out = bb.score_all_detached(params, 2, item_idx, cat_idx)
        np.testing.assert_allclose(fast_out, tape_out, atol=1e-12)

    @pytest.mark.parametrize("zero_user", [False, True])
    def test_folded_scorer_matches_concat_oracle(self, zero_user):
        params = make_params(n_items=40, n_cats=5, n_users=4, d=6, seed=3)
        if zero_user:
            params["user_emb"][1] = 0.0
        P = {n: Tensor(v) for n, v in params.items()}
        rng = np.random.default_rng(11)
        # repeated items and categories, every category present
        item_idx = rng.integers(40, size=30)
        cat_idx = np.concatenate([np.arange(5), rng.integers(5, size=25)])
        fast = bb.score_all_detached(params, 1, item_idx, cat_idx)
        oracle = serving_oracle.accuracy_scores(params, 1, item_idx, cat_idx)
        tape = sigmoid(bb.score_logits(P, 1, item_idx, cat_idx).data)
        assert np.max(np.abs(fast - oracle)) <= 1e-12
        assert np.max(np.abs(fast - tape)) <= 1e-12

    def test_keep_multiplies_both_hidden_layers(self):
        params = make_params()
        P = {n: Tensor(v) for n, v in params.items()}
        item_idx, cat_idx = [0, 3, 7, 8], [0, 1, 2, 0]
        rng = np.random.default_rng(3)
        keep = [(rng.random((4, h)) >= 0.5) / 0.5
                for h in bb.hidden_sizes(6)]
        eu = params["user_emb"][[2] * 4]
        ei = params["item_emb"][item_idx]
        ec = params["cat_emb"][cat_idx]
        h = np.concatenate([eu, ei, ec, eu * ei, eu * ec], axis=1)
        for layer in (1, 2):
            h = np.maximum(h @ params[f"mlp_w{layer}"]
                           + params[f"mlp_b{layer}"], 0.0) * keep[layer - 1]
        want = (h @ params["mlp_w3"] + params["mlp_b3"])[:, 0]
        np.testing.assert_allclose(
            bb.score_logits(P, 2, item_idx, cat_idx, keep).data, want,
            rtol=0.0, atol=1e-12)

    def test_gradient_reaches_all_parameters(self):
        params = make_params()
        tape = Tape()
        P = params.leaves(tape)
        logits = bb.score_logits(P, 0, [1, 2], [0, 1])
        tape.backward(bb.bce_loss(logits, [1, 0], [0.5, 0.5]))
        for name in ("item_emb", "cat_emb", "user_emb", "mlp_w1", "mlp_w3"):
            assert np.abs(P[name].grad).max() > 0.0, name

    def test_untouched_rows_get_zero_grad(self):
        params = make_params()
        tape = Tape()
        P = params.leaves(tape)
        logits = bb.score_logits(P, 0, [1], [0])
        tape.backward(bb.bce_loss(logits, [1], [1.0]))
        np.testing.assert_allclose(P["item_emb"].grad[5], 0.0)

    def test_full_scorer_grad_check(self):
        params = make_params(d=4)
        item_idx, cat_idx, labels = [0, 2, 5], [0, 1, 2], [1, 0, 1]
        flat = params["mlp_w1"].copy()

        def f(leaf):
            P = {n: Tensor(v) for n, v in params.items()}
            P["mlp_w1"] = leaf
            logits = bb.score_logits(P, 1, item_idx, cat_idx)
            return bb.bce_loss(logits, labels, np.full(3, 1 / 3))

        assert grad_check(f, flat) < 1e-6


class TestBceLoss:
    def test_matches_hand_reference(self):
        p = np.array([0.9, 0.2, 0.6])
        y = np.array([1, 0, 1])
        expected = -np.mean(y * np.log(p) + (1 - y) * np.log(1 - p))
        got = bb.bce_loss(Tensor(logit(p)), y, np.full(3, 1 / 3)).item()
        assert got == pytest.approx(expected, abs=1e-12)

    def test_weights_sum_the_entry_losses(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal(5)
        y = np.array([1, 0, 0, 1, 1])
        w = rng.random(5)
        entries = np.logaddexp(0.0, z) - y * z
        got = bb.bce_loss(Tensor(z), y, w).item()
        assert got == pytest.approx(w @ entries, abs=1e-12)
        assert grad_check(lambda t: bb.bce_loss(t, y, w), z) < 1e-6

    def test_saturated_logits_keep_their_gradient(self):
        # sigma(-40) is about 4e-18: a loss on clamped log-probabilities
        # would give these entries no gradient at all
        z, y = np.meshgrid([-40.0, -5.0, 0.0, 5.0, 40.0], [0.0, 1.0])
        tape = Tape()
        leaf = tape.leaf(z.ravel())
        tape.backward(bb.bce_loss(leaf, y.ravel(), np.full(z.size,
                                                           1 / z.size)))
        np.testing.assert_allclose(leaf.grad, (sigmoid(leaf.data) - y.ravel())
                                   / leaf.data.size, rtol=0.0, atol=1e-12)

    def test_empty_labels_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            bb.bce_loss(Tensor(np.ones(0)), np.ones(0), np.ones(0))

    def test_nonbinary_labels_rejected(self):
        with pytest.raises(ValueError):
            bb.bce_loss(Tensor(np.array([0.5])), np.array([0.3]), [1.0])
