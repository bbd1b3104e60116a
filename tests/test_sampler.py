"""Gumbel-Top-k sampling: noise distribution, perturbation, hard
selection and draw frequencies.
"""

import numpy as np
import pytest

from divrank import autodiff as ad
from divrank.autodiff import DomainError, Tape, Tensor
from divrank.sampler import gumbel_noise, hard_topk, perturb

RNG = np.random.default_rng(99)


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


class TestPerturb:
    def test_no_rng_is_identity(self):
        logp = Tensor(np.log([0.2, 0.3, 0.5]))
        assert perturb(logp, None) is logp

    def test_noise_added_and_grad_passes_through(self):
        tape = Tape()
        x = tape.leaf(np.zeros(5))
        out = perturb(x, np.random.default_rng(0))
        assert np.any(out.data != 0.0)
        tape.backward(ad.tsum(out))
        np.testing.assert_allclose(x.grad, np.ones(5))


class TestHardTopk:
    def test_ordered_by_value(self):
        v = np.array([0.1, 0.9, 0.5, 0.7])
        assert hard_topk(v, 3).tolist() == [1, 3, 2]

    def test_k_equals_n(self):
        v = RNG.standard_normal(6)
        assert hard_topk(v, 6).tolist() == np.argsort(-v).tolist()

    def test_batched_rows_independent(self):
        v = RNG.standard_normal((10, 8))
        idx = hard_topk(v, 3)
        for r in range(10):
            assert idx[r].tolist() == np.argsort(-v[r])[:3].tolist()

    def test_k_too_large(self):
        with pytest.raises(DomainError):
            hard_topk(np.ones(3), 4)


class TestSampleFrequencies:
    def test_top1_matches_softmax_probabilities(self):
        # Gumbel argmax draws follow the softmax of the logits
        logits = np.log(np.array([0.5, 0.3, 0.2]))
        rng = np.random.default_rng(5)
        counts = np.zeros(3)
        draws = 50_000
        for _ in range(draws):
            pert = perturb(Tensor(logits), rng)
            counts[int(np.argmax(pert.data))] += 1
        np.testing.assert_allclose(counts / draws, [0.5, 0.3, 0.2], atol=0.01)

