"""Minimal reverse-mode autodiff engine on float64 numpy arrays.

The engine is define-by-run: every training step builds a fresh Tape,
records forward ops on it, and backward() walks the records in reverse.
Ops are batched numpy calls with closed-form backward rules, which keeps
the per-step op count low enough for pure-Python training loops.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

EPS_LOG = 1e-12          # lower clamp for log arguments


class ShapeError(ValueError):
    pass


class DomainError(ValueError):
    pass


class TapeStateError(RuntimeError):
    pass


def _as_array(values):
    arr = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
    return arr


class Tape:
    """Ordered record of forward ops; parents always precede children.

    The graph holds no reference cycle: backward closures keep operand
    arrays and needs-grad flags, never Tensors, and backward() drops the
    leaf list once it has written the grads. A step's saved arrays are
    therefore freed by reference counting as soon as its tape and tensors
    go out of scope, without waiting for the cyclic collector.
    """

    def __init__(self):
        self._parents = []   # per node: tuple of parent node ids
        self._backs = []     # per node: callable(grad) -> tuple of parent grads
        self._leaves = []    # (node_id, Tensor) for requires_grad leaves
        self._consumed = False

    def __len__(self):
        return len(self._parents)

    def _push(self, parents, back):
        self._parents.append(parents)
        self._backs.append(back)
        return len(self._parents) - 1

    def leaf(self, values, requires_grad=True):
        t = Tensor(values, tape=self if requires_grad else None,
                   requires_grad=requires_grad)
        if requires_grad:
            t.node = self._push((), None)
            self._leaves.append((t.node, t))
        return t

    def backward(self, loss: "Tensor"):
        """Populate .grad on every requires_grad leaf of this tape."""
        if self._consumed:
            raise TapeStateError("backward() already ran on this tape")
        if loss.tape is not self:
            raise TapeStateError("loss is not recorded on this tape")
        if loss.data.size != 1:
            raise ShapeError(f"loss must be scalar, got shape {loss.data.shape}")
        self._consumed = True
        grads = [None] * len(self._parents)
        grads[loss.node] = np.ones_like(loss.data)
        for nid in range(loss.node, -1, -1):
            g = grads[nid]
            if g is None:
                continue
            back = self._backs[nid]
            if back is None:
                continue
            pgrads = back(g)
            for pid, pg in zip(self._parents[nid], pgrads):
                if pid is None or pg is None:
                    continue
                if grads[pid] is None:
                    grads[pid] = pg
                else:
                    grads[pid] = grads[pid] + pg
            grads[nid] = None  # free early
        for nid, t in self._leaves:
            g = grads[nid]
            t.grad = np.zeros_like(t.data) if g is None else g
        # each leaf points back at this tape: break that cycle
        self._leaves = []


class Tensor:
    """Dense row-major float64 array, optionally recorded on a tape."""

    __slots__ = ("data", "tape", "node", "requires_grad", "grad")

    def __init__(self, values, tape=None, requires_grad=False):
        self.data = _as_array(values)
        self.tape = tape
        self.node = None
        self.requires_grad = requires_grad
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, tape={'yes' if self.tape else 'no'})"


def _coerce(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _tape_of(*tensors):
    tape = None
    for t in tensors:
        if t.tape is not None:
            if tape is not None and tape is not t.tape:
                raise TapeStateError("operands recorded on different tapes")
            tape = t.tape
    return tape


def _record(tape, out_data, parent_tensors, back) -> Tensor:
    out = Tensor(out_data)
    if tape is not None:
        parents = tuple(t.node for t in parent_tensors)
        out.tape = tape
        out.node = tape._push(parents, back)
    return out


def _unbroadcast(grad, shape):
    """Sum grad down to the given operand shape (inverse of broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# elementwise / arithmetic


def add(a, b):
    a, b = _coerce(a), _coerce(b)
    tape = _tape_of(a, b)
    out = a.data + b.data
    a_shape, b_shape = a.data.shape, b.data.shape
    need_a, need_b = a.node is not None, b.node is not None

    def back(g):
        return (_unbroadcast(g, a_shape) if need_a else None,
                _unbroadcast(g, b_shape) if need_b else None)

    return _record(tape, out, (a, b), back)


def sub(a, b):
    a, b = _coerce(a), _coerce(b)
    tape = _tape_of(a, b)
    out = a.data - b.data
    a_shape, b_shape = a.data.shape, b.data.shape
    need_a, need_b = a.node is not None, b.node is not None

    def back(g):
        return (_unbroadcast(g, a_shape) if need_a else None,
                _unbroadcast(-g, b_shape) if need_b else None)

    return _record(tape, out, (a, b), back)


def mul(a, b):
    a, b = _coerce(a), _coerce(b)
    tape = _tape_of(a, b)
    out = a.data * b.data
    ad, bd = a.data, b.data
    need_a, need_b = a.node is not None, b.node is not None

    def back(g):
        return (_unbroadcast(g * bd, ad.shape) if need_a else None,
                _unbroadcast(g * ad, bd.shape) if need_b else None)

    return _record(tape, out, (a, b), back)


def neg(a):
    a = _coerce(a)
    return _record(a.tape, -a.data, (a,), lambda g: (-g,))


def scale(a, s: float):
    a = _coerce(a)
    s = float(s)
    return _record(a.tape, a.data * s, (a,), lambda g: (g * s,))


def matmul(a, b):
    a, b = _coerce(a), _coerce(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError("matmul supports 2-D operands only")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(
            f"matmul inner dims disagree: {a.data.shape} x {b.data.shape}")
    tape = _tape_of(a, b)
    ad, bd = a.data, b.data
    need_a, need_b = a.node is not None, b.node is not None

    def back(g):
        return (g @ bd.T if need_a else None,
                ad.T @ g if need_b else None)

    return _record(tape, ad @ bd, (a, b), back)


def segment_matmul(a, b, a_offsets, b_offsets, transpose_b=False):
    """Block-diagonal matrix product over matching row segments.

    Rows a_offsets[r]:a_offsets[r+1] of a meet only the m_r rows
    b_offsets[r]:b_offsets[r+1] of b. With transpose_b each block is
    a_r @ b_r.T, written left-aligned into an (len(a), max m_r) output
    that is 0 elsewhere; without it each block is a_r[:, :m_r] @ b_r, and
    a's columns past m_r are not read.
    """
    a, b = _coerce(a), _coerce(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError("segment_matmul supports 2-D operands only")
    tape = _tape_of(a, b)
    ad, bd = a.data, b.data
    blocks = [(slice(a0, a1), slice(b0, b1), b1 - b0) for a0, a1, b0, b1 in
              zip(a_offsets[:-1], a_offsets[1:], b_offsets[:-1], b_offsets[1:])]
    if transpose_b:
        out = np.zeros((ad.shape[0], max(m for _, _, m in blocks)))
        for ra, rb, m in blocks:
            out[ra, :m] = ad[ra] @ bd[rb].T
    else:
        out = np.empty((ad.shape[0], bd.shape[1]))
        for ra, rb, m in blocks:
            out[ra] = ad[ra, :m] @ bd[rb]
    need_a, need_b = a.node is not None, b.node is not None

    def back(g):
        ga = np.zeros_like(ad) if need_a else None
        gb = np.zeros_like(bd) if need_b else None
        for ra, rb, m in blocks:
            if transpose_b:
                gr = g[ra, :m]
                if ga is not None:
                    ga[ra] += gr @ bd[rb]
                if gb is not None:
                    gb[rb] += gr.T @ ad[ra]
            else:
                if ga is not None:
                    ga[ra, :m] += g[ra] @ bd[rb].T
                if gb is not None:
                    gb[rb] += ad[ra, :m].T @ g[ra]
        return ga, gb

    return _record(tape, out, (a, b), back)


def relu(a):
    a = _coerce(a)
    mask = a.data > 0.0
    return _record(a.tape, np.where(mask, a.data, 0.0), (a,),
                   lambda g: (np.where(mask, g, 0.0),))


def sigmoid(a):
    a = _coerce(a)
    out = expit(a.data)

    def back(g):
        return (g * out * (1.0 - out),)

    return _record(a.tape, out, (a,), back)


def log(a):
    """Natural log with the argument clamped to >= 1e-12."""
    a = _coerce(a)
    clamped = np.maximum(a.data, EPS_LOG)
    out = np.log(clamped)
    active = a.data >= EPS_LOG

    def back(g):
        return (np.where(active, g / clamped, 0.0),)

    return _record(a.tape, out, (a,), back)


def softplus(a):
    """log(1 + e^x), overflow-safe."""
    a = _coerce(a)
    ad = a.data
    out = np.maximum(ad, 0.0) + np.log1p(np.exp(-np.abs(ad)))
    sig = expit(ad)
    return _record(a.tape, out, (a,), lambda g: (g * sig,))


# ---------------------------------------------------------------------------
# reductions / shaping


def tsum(a, axis=None, keepdims=False):
    a = _coerce(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)
    shape = a.data.shape

    def back(g):
        if axis is None:
            return (np.broadcast_to(g, shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, shape).copy(),)

    return _record(a.tape, out, (a,), back)


def tmean(a, axis=None, keepdims=False):
    a = _coerce(a)
    n = a.data.size if axis is None else a.data.shape[axis]
    return scale(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def weighted_mean(a, weights=None):
    """sum(weights * a) over all entries; weights=None is the plain mean."""
    if weights is None:
        return tmean(a)
    return tsum(mul(np.asarray(weights, dtype=np.float64), a))


def concat(tensors, axis=-1):
    tensors = [_coerce(t) for t in tensors]
    tape = _tape_of(*tensors)
    datas = [t.data for t in tensors]
    out = np.concatenate(datas, axis=axis)
    sizes = [d.shape[axis] for d in datas]
    splits = np.cumsum(sizes)[:-1]
    needs = [t.node is not None for t in tensors]

    def back(g):
        parts = np.split(g, splits, axis=axis)
        return tuple(p if need else None for p, need in zip(parts, needs))

    return _record(tape, out, tensors, back)


def reshape(a, shape):
    a = _coerce(a)
    old = a.data.shape
    return _record(a.tape, a.data.reshape(shape), (a,),
                   lambda g: (g.reshape(old),))


# ---------------------------------------------------------------------------
# softmax family


def softmax(a, keep=None):
    """Softmax over the last axis with max-subtraction; rows sum to 1.

    With a boolean keep mask of a's shape, each row is the softmax over
    its kept entries only, shifted by its largest kept entry, and the
    dropped entries get weight 0; every row must keep at least one entry.
    Dropped entries may lie anywhere, far above the kept ones included.
    """
    a = _coerce(a)
    top = a.data if keep is None else np.where(keep, a.data, -np.inf)
    out = a.data - top.max(axis=-1, keepdims=True)
    if keep is not None:
        # only dropped entries lie above the shift: clamping them at 0
        # keeps exp finite before keep zeroes them
        np.minimum(out, 0.0, out=out)
    np.exp(out, out=out)
    if keep is not None:
        out *= keep
    # a matrix-vector product sums short rows faster than sum(axis=-1)
    ones = np.ones(out.shape[-1])
    out *= 1.0 / (out @ ones)[..., None]

    def back(g):
        return ((g - ((g * out) @ ones)[..., None]) * out,)

    return _record(a.tape, out, (a,), back)


# ---------------------------------------------------------------------------
# gathers (embedding lookups)


def gather_rows(table, idx):
    """Select rows of a 2-D table; idx may be any integer array shape, and
    its row numbers must be non-negative (the backward pass bincounts)."""
    table = _coerce(table)
    idx = np.asarray(idx)
    out = table.data[idx]
    shape = table.data.shape

    def back(g):
        # repeated rows accumulate in order, as np.add.at would, in one
        # bincount over flat positions
        cols = shape[1]
        flat = idx.reshape(-1, 1) * cols + np.arange(cols)
        return (np.bincount(flat.ravel(), weights=g.ravel(),
                            minlength=shape[0] * cols).reshape(shape),)

    return _record(table.tape, out, (table,), back)


def add_constant(a, c):
    """Add a non-differentiable numpy array (e.g. noise, masks)."""
    a = _coerce(a)
    return _record(a.tape, a.data + np.asarray(c, dtype=np.float64), (a,),
                   lambda g: (g,))


def dropout(a, p: float, rng, training: bool):
    if not training or p <= 0.0:
        return a
    a = _coerce(a)
    keep = (rng.random(a.data.shape) >= p) / (1.0 - p)
    return mul(a, Tensor(keep))


# ---------------------------------------------------------------------------
# parameters


class ParamStore:
    """Named trainable leaves (raw float64 arrays between steps)."""

    def __init__(self):
        self._params = {}

    def add(self, name: str, values) -> np.ndarray:
        if name in self._params:
            raise KeyError(f"duplicate parameter name: {name}")
        self._params[name] = _as_array(values)
        return self._params[name]

    def __getitem__(self, name) -> np.ndarray:
        return self._params[name]

    def items(self):
        return self._params.items()

    def names(self):
        return list(self._params)

    def leaves(self, tape: Tape) -> dict:
        return {name: tape.leaf(arr) for name, arr in self._params.items()}

    def sgd_step(self, leaves: dict, lr: float):
        """Fixed-step gradient descent using grads populated by backward()."""
        for name, leaf in leaves.items():
            if leaf.grad is None:
                raise TapeStateError(f"no gradient for {name}; run backward first")
            self._params[name] = self._params[name] - lr * leaf.grad

    def copy(self) -> "ParamStore":
        out = ParamStore()
        for name, arr in self._params.items():
            out.add(name, arr.copy())
        return out
