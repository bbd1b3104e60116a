"""Finite-difference oracle for the tape engine's gradients."""

import numpy as np

from divrank.autodiff import DomainError, Tape


def grad_check(f, x, h=1e-5):
    """Max relative error between analytic and central-difference gradient.

    f takes a Tensor leaf and returns a scalar Tensor on the leaf's tape.
    """
    if not (1e-7 <= h <= 1e-3):
        raise DomainError(f"step h={h} outside [1e-7, 1e-3]")
    tape = Tape()
    leaf = tape.leaf(np.asarray(x, dtype=np.float64).copy())
    loss = f(leaf)
    tape.backward(loss)
    analytic = leaf.grad.reshape(-1)

    base = np.asarray(x, dtype=np.float64).copy()
    flat = base.reshape(-1)
    worst = 0.0
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(Tape().leaf(base)).item()
        flat[i] = orig - h
        fm = f(Tape().leaf(base)).item()
        flat[i] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise FloatingPointError(
                f"non-finite forward value at coordinate {i}")
        numeric = (fp - fm) / (2.0 * h)
        err = abs(analytic[i] - numeric) / max(1.0, abs(analytic[i]))
        worst = max(worst, err)
    return worst
