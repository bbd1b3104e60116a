"""Reference logistic functions for the test oracles.

Written apart from divrank.autodiff.sigmoid, and in another form, so that
an oracle built on them does not share the package's arithmetic: sigmoid
goes through exp(-|z|), which never overflows.
"""

import numpy as np


def sigmoid(z):
    """1 / (1 + exp(-z)), elementwise."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def logit(p):
    """log(p / (1 - p)), the inverse of sigmoid on (0, 1)."""
    p = np.asarray(p, dtype=np.float64)
    return np.log(p) - np.log1p(-p)
