"""Dense real arrays with broadcasting, two-operand index contraction,
reductions, and reverse-mode differentiation on an explicit tape.

The op set is deliberately closed: elementwise {add, sub, mul, div, neg,
exp, log, square, logistic, softplus, swish}, two-operand ``contract``,
reductions {sum, max, mean, logsumexp}, ``softmax``, and ``reshape``.
Everything differentiable in this package is built from these. Ops are
called as functions, ``add(a, b)`` and not ``a + b``: a :class:`Tensor`
defines no arithmetic operators.

A contraction signature names each index in the output or on both
operands, and a shared index has equal extents on both; ``contract``
neither broadcasts nor sums an index that only one operand carries.
A contraction, forward or in either gradient, runs as one batched BLAS
``np.matmul`` when it is a matrix product (a summed shared index and a
kept index on each operand) and as ``np.einsum`` otherwise; the choice
reads the signature alone, and results are C-contiguous.

Values are immutable once wrapped in a :class:`Tensor`; a :class:`Tape` is
single-threaded and append-only, so replaying the same graph on the same
inputs is bit-identical.

Dtypes follow one rule, decided here and nowhere else:

* wrapping a value (:func:`tensor`, :func:`as_tensor`, :meth:`Tape.leaf`,
  :func:`float_array`) keeps a float32 array float32 and makes anything
  else float64;
* a Python scalar or plain array combined with a Tensor takes that
  Tensor's dtype, so constants never widen a float32 computation;
* two Tensors combine by numpy promotion: float32 with float64 gives
  float64.

Float32 runs therefore need nothing but float32 parameters and inputs.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import expit
from scipy.special import logsumexp as _stable_logsumexp

from .errors import DomainError, ShapeError


def float_array(data) -> np.ndarray:
    """``data`` as float32 if it already is, else as float64."""
    arr = np.asarray(data)
    return arr if arr.dtype == np.float32 else arr.astype(np.float64, copy=False)


class Tape:
    """Append-only record of operations for one reverse-mode pass.

    Each node stores the node ids of its inputs (-1 marks an untracked
    input) and a vector-Jacobian closure. Append order is topological by
    construction, so ``backward`` can walk the list once, in reverse.
    """

    __slots__ = ("_nodes",)

    def __init__(self) -> None:
        self._nodes: list[tuple[tuple[int, ...], Callable | None]] = []

    def __len__(self) -> int:
        return len(self._nodes)

    def _push(self, inputs: tuple[int, ...], vjp: Callable | None) -> int:
        self._nodes.append((inputs, vjp))
        return len(self._nodes) - 1

    def leaf(self, data) -> "Tensor":
        """Wrap ``data`` as a tracked leaf (a gradient target)."""
        return Tensor(float_array(data), self, self._push((), None))


class Tensor:
    """An immutable ndarray, optionally tracked on a tape."""

    __slots__ = ("data", "tape", "node")

    # safety guard: with no operators defined, `ndarray + Tensor` raises
    # TypeError instead of numpy building an object array without gradients
    __array_ufunc__ = None

    def __init__(self, data: np.ndarray, tape: Tape | None = None,
                 node: int | None = None):
        self.data = data
        self.tape = tape
        self.node = node

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        tag = f", node={self.node}" if self.tape is not None else ""
        return f"Tensor(shape={self.shape}{tag})"


def tensor(data) -> Tensor:
    """Wrap ``data`` as an untracked constant."""
    return Tensor(float_array(data))


def as_tensor(x, like: Tensor | None = None) -> Tensor:
    """``x`` itself if it is a Tensor, else an untracked constant, in
    ``like``'s dtype when given."""
    if isinstance(x, Tensor):
        return x
    if like is None:
        return tensor(x)
    return Tensor(np.asarray(x, dtype=like.data.dtype))


def asarray(x) -> np.ndarray:
    """The plain ndarray behind ``x``, whether tensor or array-like."""
    return x.data if isinstance(x, Tensor) else np.asarray(x)


def _result_tape(srcs: Sequence[Tensor]) -> Tape | None:
    tape = None
    for s in srcs:
        if s.tape is None:
            continue
        if tape is None:
            tape = s.tape
        elif tape is not s.tape:
            raise ValueError("operands tracked on different tapes")
    return tape


def _record(out_data: np.ndarray, srcs: Sequence[Tensor],
            vjp: Callable | None) -> Tensor:
    tape = _result_tape(srcs)
    if tape is None:
        return Tensor(out_data)
    inputs = tuple(-1 if s.node is None else s.node for s in srcs)
    return Tensor(out_data, tape, tape._push(inputs, vjp))


def backward(tape: Tape, loss: Tensor) -> dict[int, np.ndarray]:
    """Reverse-mode pass from a scalar ``loss``; returns node id -> gradient.

    Fan-out accumulates by summation; every node on the path from a tracked
    leaf to the loss gets an entry, untracked operands get none.
    """
    if loss.tape is not tape or loss.node is None:
        raise ValueError("loss is not tracked on this tape")
    if loss.data.shape != ():
        raise ValueError(f"loss must be a scalar, got shape {loss.data.shape}")
    grads: dict[int, np.ndarray] = {
        loss.node: np.ones((), dtype=loss.data.dtype)
    }
    for nid in range(loss.node, -1, -1):
        g = grads.get(nid)
        if g is None:
            continue
        inputs, vjp = tape._nodes[nid]
        if vjp is None:
            continue
        for src, gsrc in zip(inputs, vjp(g)):
            if src < 0 or gsrc is None:
                continue
            acc = grads.get(src)
            grads[src] = gsrc if acc is None else acc + gsrc
    return grads


# ---------------------------------------------------------------------------
# elementwise ops


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _check_broadcast(a: Tensor, b: Tensor) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(
            f"shapes {a.shape} and {b.shape} are not broadcast-compatible"
        ) from None


def _coerce_pair(a, b) -> tuple[Tensor, Tensor]:
    if isinstance(a, Tensor):
        return a, as_tensor(b, like=a)
    if isinstance(b, Tensor):
        return as_tensor(a, like=b), b
    return as_tensor(a), as_tensor(b)


def add(a, b) -> Tensor:
    a, b = _coerce_pair(a, b)
    _check_broadcast(a, b)
    ash, bsh = a.shape, b.shape
    return _record(a.data + b.data, (a, b),
                   lambda g: (_unbroadcast(g, ash), _unbroadcast(g, bsh)))


def sub(a, b) -> Tensor:
    a, b = _coerce_pair(a, b)
    _check_broadcast(a, b)
    ash, bsh = a.shape, b.shape
    return _record(a.data - b.data, (a, b),
                   lambda g: (_unbroadcast(g, ash), _unbroadcast(-g, bsh)))


def mul(a, b) -> Tensor:
    a, b = _coerce_pair(a, b)
    _check_broadcast(a, b)
    ad, bd = a.data, b.data
    return _record(ad * bd, (a, b),
                   lambda g: (_unbroadcast(g * bd, ad.shape),
                              _unbroadcast(g * ad, bd.shape)))


def div(a, b) -> Tensor:
    a, b = _coerce_pair(a, b)
    _check_broadcast(a, b)
    if np.any(b.data == 0):
        raise DomainError("division by zero")
    ad, bd = a.data, b.data
    out = ad / bd
    return _record(out, (a, b),
                   lambda g: (_unbroadcast(g / bd, ad.shape),
                              _unbroadcast(-g * out / bd, bd.shape)))


def neg(a) -> Tensor:
    a = as_tensor(a)
    return _record(-a.data, (a,), lambda g: (-g,))


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = np.exp(a.data)
    return _record(out, (a,), lambda g: (g * out,))


def log(a) -> Tensor:
    a = as_tensor(a)
    if np.any(a.data <= 0):
        raise DomainError("log of a non-positive value")
    ad = a.data
    return _record(np.log(ad), (a,), lambda g: (g / ad,))


def square(a) -> Tensor:
    a = as_tensor(a)
    ad = a.data
    return _record(ad * ad, (a,), lambda g: (2.0 * ad * g,))


def logistic(a) -> Tensor:
    a = as_tensor(a)
    out = expit(a.data)
    return _record(out, (a,), lambda g: (g * out * (1.0 - out),))


def softplus(a) -> Tensor:
    """log(1 + e^x), saturation-safe for large |x|."""
    a = as_tensor(a)
    ad = a.data
    out = np.logaddexp(np.zeros((), dtype=ad.dtype), ad)
    return _record(out, (a,), lambda g: (g * expit(ad),))


def swish(a) -> Tensor:
    """x * logistic(x)."""
    a = as_tensor(a)
    ad = a.data
    s = expit(ad)
    return _record(ad * s, (a,),
                   lambda g: (g * (s + ad * s * (1.0 - s)),))


# ---------------------------------------------------------------------------
# contraction


def _parse_contract_spec(spec: str) -> tuple[str, str, str]:
    try:
        lhs, out = spec.split("->")
        a_spec, b_spec = lhs.split(",")
    except ValueError:
        raise ShapeError(
            f"bad contraction signature {spec!r}; expected 'ab,bc->ac' form"
        ) from None
    for part in (a_spec, b_spec, out):
        if not all(ch.isalpha() for ch in part):
            raise ShapeError(f"bad index letter in signature {spec!r}")
    if len(set(a_spec)) != len(a_spec) or len(set(b_spec)) != len(b_spec):
        raise ShapeError(f"repeated index within one operand in {spec!r}")
    if len(set(out)) != len(out):
        raise ShapeError(f"repeated output index in {spec!r}")
    unknown = set(out) - set(a_spec) - set(b_spec)
    if unknown:
        raise ShapeError(
            f"output index {sorted(unknown)} not present in operands ({spec!r})"
        )
    for name in a_spec + b_spec:
        if name not in out and not (name in a_spec and name in b_spec):
            raise ShapeError(f"index '{name}' is on one operand only and "
                             f"not in the output of {spec!r}")
    return a_spec, b_spec, out


def _product(x: np.ndarray, x_spec: str, y: np.ndarray, y_spec: str,
             out: str) -> np.ndarray:
    """``np.einsum(f"{x_spec},{y_spec}->{out}", x, y)`` for a signature
    that :func:`contract` accepts.

    A matrix product, one with a summed shared index and a kept index on
    each side, runs as one batched ``np.matmul``: shared kept indexes
    form the batch, and each operand is laid out as (batch, M, K) or
    (batch, K, N). Any other product stays on ``np.einsum``. Either way
    the result is C-contiguous in ``out``'s order.
    """
    summed = [i for i in x_spec if i in y_spec and i not in out]
    x_kept = [i for i in out if i in x_spec and i not in y_spec]
    y_kept = [i for i in out if i in y_spec and i not in x_spec]
    if not (summed and x_kept and y_kept):
        res = np.einsum(f"{x_spec},{y_spec}->{out}", x, y)
        return res if res.flags.c_contiguous else res.copy()
    extents = dict(zip(x_spec, x.shape)) | dict(zip(y_spec, y.shape))
    batch = [i for i in out if i in x_spec and i in y_spec]

    def as_matrices(arr, spec, rows, cols):
        arr = arr.transpose([spec.index(i) for i in batch + rows + cols])
        return arr.reshape([extents[i] for i in batch]
                           + [math.prod(extents[i] for i in rows),
                              math.prod(extents[i] for i in cols)])

    prod = np.matmul(as_matrices(x, x_spec, x_kept, summed),
                     as_matrices(y, y_spec, summed, y_kept))
    order = batch + x_kept + y_kept
    prod = prod.reshape([extents[i] for i in order])
    return np.ascontiguousarray(prod.transpose([order.index(i) for i in out]))


def contract(a, b, spec: str) -> Tensor:
    """Two-operand product, e.g. ``contract(A, B, "ij,jk->ik")``.

    Every index is in the output or on both operands: output indexes are
    kept, shared indexes missing from the output are summed over, and a
    shared index has the same extent on both operands. Any other
    signature is a ``ShapeError`` that names the offending index.

    The forward product and both gradient products run as one batched
    ``np.matmul`` when they are matrix products (a summed shared index and
    a kept index on each side) and through ``np.einsum`` otherwise.
    """
    a, b = _coerce_pair(a, b)
    a_spec, b_spec, out = _parse_contract_spec(spec)
    if len(a_spec) != a.ndim or len(b_spec) != b.ndim:
        raise ShapeError(
            f"signature {spec!r} names {len(a_spec)},{len(b_spec)} axes but "
            f"operands have shapes {a.shape},{b.shape}"
        )
    a_extents = dict(zip(a_spec, a.shape))
    for name, n in zip(b_spec, b.shape):
        m = a_extents.get(name, n)
        if m != n:
            raise ShapeError(f"shared index '{name}' has extents {m} and {n}")

    ad, bd = a.data, b.data
    return _record(_product(ad, a_spec, bd, b_spec, out), (a, b),
                   lambda g: (_product(g, out, bd, b_spec, a_spec),
                              _product(g, out, ad, a_spec, b_spec)))


# ---------------------------------------------------------------------------
# reductions


def _norm_axes(axes, ndim: int) -> tuple[int, ...]:
    if axes is None:
        return tuple(range(ndim))
    if isinstance(axes, (int, np.integer)):
        axes = (int(axes),)
    normed = []
    for ax in axes:
        if not -ndim <= ax < ndim:
            raise ShapeError(f"axis {ax} out of range for ndim {ndim}")
        normed.append(ax % ndim)
    if len(set(normed)) != len(normed):
        raise ShapeError(f"duplicate axes in {axes}")
    return tuple(sorted(normed))


def _expand_reduced(g: np.ndarray, shape: tuple[int, ...],
                    axes: tuple[int, ...], keepdims: bool) -> np.ndarray:
    if not keepdims:
        for ax in axes:
            g = np.expand_dims(g, ax)
    return np.broadcast_to(g, shape)


def reduce_sum(a, axes=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    ax = _norm_axes(axes, a.ndim)
    shape = a.shape
    out = np.sum(a.data, axis=ax, keepdims=keepdims)
    return _record(out, (a,),
                   lambda g: (_expand_reduced(g, shape, ax, keepdims).copy(),))


def reduce_mean(a, axes=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    ax = _norm_axes(axes, a.ndim)
    shape = a.shape
    count = int(np.prod([shape[i] for i in ax])) if ax else 1
    out = np.mean(a.data, axis=ax, keepdims=keepdims)
    return _record(
        out, (a,),
        lambda g: (_expand_reduced(g, shape, ax, keepdims) / count,))


def reduce_max(a, axes=None, keepdims: bool = False) -> Tensor:
    """Max over ``axes``; ties share the gradient equally."""
    a = as_tensor(a)
    ax = _norm_axes(axes, a.ndim)
    ad = a.data
    kept = np.max(ad, axis=ax, keepdims=True)
    out = kept if keepdims else np.squeeze(kept, axis=ax)

    def vjp(g):
        mask = (ad == kept).astype(ad.dtype)
        mask /= mask.sum(axis=ax, keepdims=True)
        return (mask * _expand_reduced(g, ad.shape, ax, keepdims),)

    return _record(out, (a,), vjp)


def logsumexp(a, axes=None, keepdims: bool = False) -> Tensor:
    """Max-shifted log-sum-exp; finite for any finite input."""
    a = as_tensor(a)
    ax = _norm_axes(axes, a.ndim)
    ad = a.data
    out = _stable_logsumexp(ad, axis=ax, keepdims=keepdims)
    out = np.asarray(out, dtype=ad.dtype)
    kept = out if keepdims else np.expand_dims(out, ax)

    def vjp(g):
        w = np.exp(ad - kept)
        return (w * _expand_reduced(g, ad.shape, ax, keepdims),)

    return _record(out, (a,), vjp)


def softmax(a, axis: int = -1) -> Tensor:
    """Softmax along one axis, computed by logsumexp subtraction."""
    a = as_tensor(a)
    lse = logsumexp(a, axes=axis, keepdims=True)
    return exp(sub(a, lse))


# ---------------------------------------------------------------------------
# structure


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    shape = tuple(int(s) for s in (shape if isinstance(shape, Iterable) else (shape,)))
    try:
        out = np.reshape(a.data, shape)
    except ValueError:
        raise ShapeError(f"cannot reshape {a.shape} into {shape}") from None
    old = a.shape
    return _record(out, (a,), lambda g: (np.reshape(g, old),))


# ---------------------------------------------------------------------------
# gradient checking


def grad_check(f: Callable[[Tensor], Tensor], x, step: float = 1e-5) -> float:
    """Max relative error of reverse-mode gradients of scalar ``f`` at ``x``.

    Central differences with the given step, compared per coordinate as
    |analytic - numeric| / max(1, |analytic|). Runs in float64 whatever
    the dtype of ``x``.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    x0 = np.asarray(x, dtype=np.float64)
    tape = Tape()
    xt = tape.leaf(x0)
    y = f(xt)
    if y.data.shape != ():
        raise ValueError(f"f must be scalar-valued, got shape {y.data.shape}")
    if y.tape is tape and y.node is not None:
        analytic = backward(tape, y).get(xt.node, np.zeros_like(x0))
    else:
        analytic = np.zeros_like(x0)

    numeric = np.zeros_like(x0)
    flat = x0.reshape(-1)
    nflat = numeric.reshape(-1)
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + step
        hi = f(Tensor(x0.copy())).item()
        flat[i] = saved - step
        lo = f(Tensor(x0.copy())).item()
        flat[i] = saved
        nflat[i] = (hi - lo) / (2.0 * step)

    denom = np.maximum(1.0, np.abs(analytic))
    err = np.abs(analytic - numeric) / denom
    return float(err.max()) if err.size else 0.0
