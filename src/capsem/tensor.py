"""Dense real arrays with broadcasting, two-operand index contraction,
reductions, and reverse-mode differentiation on an explicit tape.

The generic ops are elementwise {add, sub, mul, div, neg, exp, log,
square, logistic, softplus, swish}, two-operand ``contract``, reductions
{sum, max, mean, logsumexp}, ``softmax``, and ``reshape``. Their logistic
is :func:`expit`, on plain arrays: finite for every finite input, it is
exactly 0 where e^-x overflows, and numpy alone computes it. The set is
open: :func:`record` is the one extension point. Every op, here or in
another module, computes its result with numpy and records one tape node
with its own vector-Jacobian product; a fused op, such as the routing
E-step's log-density, records one node where its composition from
generic ops would record many. Ops are called as functions,
``add(a, b)`` and not ``a + b``: a :class:`Tensor` defines no arithmetic
operators.

A contraction signature names each index in the output or on both
operands, and a shared index has equal extents on both; ``contract``
neither broadcasts nor sums an index that only one operand carries.
A contraction, forward or in either gradient, runs as one batched BLAS
``np.matmul``: an index group the signature lacks (no summed index, or
no kept index on one operand) has extent 1, so dot, elementwise and
outer products take the same path. Results are C-contiguous.

Values are immutable once wrapped in a :class:`Tensor`, and
:func:`backward` writes only into the gradient sums it allocated itself;
a :class:`Tape` is single-threaded and append-only, so replaying the same
graph on the same inputs is bit-identical.

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

import functools
import itertools
import math
import sys
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DomainError, ShapeError


def float_array(data) -> np.ndarray:
    """``data`` as float32 if it already is, else as float64."""
    arr = np.asarray(data)
    return arr if arr.dtype == np.float32 else arr.astype(np.float64, copy=False)


_POOL: list[list] = []  # [flat buffer, last request that found it in use]
_POOL_LOCK = threading.Lock()
_REQUESTS = itertools.count()


def _buffer(shape, dtype) -> np.ndarray:
    """An uninitialised C-contiguous array; from 128 KiB, glibc's default
    mmap threshold, a view of a flat buffer from a process-wide pool.

    The pool reuses a buffer only once it alone holds it: numpy keeps the
    buffer as ``.base`` of every view, reshape and slice, so a live array,
    Tensor or tape closure over it blocks reuse. Of the free buffers that
    fit, it takes the one last seen in use, likeliest still in cache; if
    none fits, it drops its free ones of ``dtype`` first, so it never
    holds more than were live at once.
    """
    dtype, size = np.dtype(dtype), math.prod(shape)
    if size * dtype.itemsize < 128 * 1024:
        return np.empty(shape, dtype)
    with _POOL_LOCK:
        now, pick = next(_REQUESTS), None
        for entry in _POOL:
            # in use: more references than the entry's and the argument
            if sys.getrefcount(entry[0]) > 2:
                entry[1] = now
            elif (entry[0].dtype == dtype and entry[0].size >= size
                  and (pick is None or entry[1] >= pick[1])):
                pick = entry
        if pick is None:
            _POOL[:] = [e for e in _POOL if e[0].dtype != dtype or e[1] == now]
            pick = [np.empty(size, dtype), now]
            _POOL.append(pick)
        pick[1] = now
        return pick[0][:size].reshape(shape)


class Tape:
    """Append-only record of operations for one reverse-mode pass.

    Each node stores the node ids of its inputs (-1 marks an untracked
    input) and a vector-Jacobian closure, None exactly for a leaf. Append
    order is topological, so ``backward`` walks the list once, in reverse.
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


def record(out_data: np.ndarray, srcs: Sequence[Tensor],
           vjp: Callable) -> Tensor:
    """Wrap ``out_data``, an op's result computed from ``srcs``, and
    record it on the operands' tape if any of them is tracked.

    ``vjp(g)`` maps the output gradient ``g`` (shaped like ``out_data``)
    to one gradient array per source, in ``srcs`` order and that source's
    shape, or None for an untracked source. Every op here is built on
    this, and so is any fused op defined outside this module.
    """
    tape = _result_tape(srcs)
    if tape is None:
        return Tensor(out_data)
    inputs = tuple(-1 if s.node is None else s.node for s in srcs)
    return Tensor(out_data, tape, tape._push(inputs, vjp))


def backward(tape: Tape, loss: Tensor) -> dict[int, np.ndarray]:
    """Reverse-mode pass from a scalar ``loss``; returns leaf node id ->
    gradient, exactly for the tracked leaves on the path to the loss.

    Fan-out sums, in arrival order, each into a new array: a VJP may
    hand one array to several sources, so VJP outputs are never written.
    A large sum takes a pooled buffer, which :func:`_buffer` reuses only
    once no array holds it. VJP outputs may be None for an untracked
    source. Each interior gradient is dropped after its VJP.
    """
    if loss.tape is not tape or loss.node is None:
        raise ValueError("loss is not tracked on this tape")
    if loss.data.shape != ():
        raise ValueError(f"loss must be a scalar, got shape {loss.data.shape}")
    grads: dict[int, np.ndarray] = {
        loss.node: np.ones((), dtype=loss.data.dtype)
    }
    for nid in range(loss.node, -1, -1):
        inputs, vjp = tape._nodes[nid]
        if vjp is None or nid not in grads:
            continue
        for src, gsrc in zip(inputs, vjp(grads.pop(nid))):
            if src < 0:
                continue
            acc = grads.get(src)
            grads[src] = gsrc if acc is None else np.add(
                acc, gsrc, out=_buffer(acc.shape, np.result_type(acc, gsrc)))
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
    return record(a.data + b.data, (a, b),
                  lambda g: (_unbroadcast(g, ash), _unbroadcast(g, bsh)))


def sub(a, b) -> Tensor:
    a, b = _coerce_pair(a, b)
    _check_broadcast(a, b)
    ash, bsh = a.shape, b.shape
    return record(a.data - b.data, (a, b),
                  lambda g: (_unbroadcast(g, ash), _unbroadcast(-g, bsh)))


def mul(a, b) -> Tensor:
    a, b = _coerce_pair(a, b)
    _check_broadcast(a, b)
    ad, bd = a.data, b.data
    return record(ad * bd, (a, b),
                  lambda g: (_unbroadcast(g * bd, ad.shape),
                             _unbroadcast(g * ad, bd.shape)))


def div(a, b) -> Tensor:
    a, b = _coerce_pair(a, b)
    _check_broadcast(a, b)
    if np.any(b.data == 0):
        raise DomainError("division by zero")
    ad, bd = a.data, b.data
    out = ad / bd
    return record(out, (a, b),
                  lambda g: (_unbroadcast(g / bd, ad.shape),
                             _unbroadcast(-g * out / bd, bd.shape)))


def neg(a) -> Tensor:
    a = as_tensor(a)
    return record(-a.data, (a,), lambda g: (-g,))


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = np.exp(a.data)
    return record(out, (a,), lambda g: (g * out,))


def log(a) -> Tensor:
    a = as_tensor(a)
    if np.any(a.data <= 0):
        raise DomainError("log of a non-positive value")
    ad = a.data
    return record(np.log(ad), (a,), lambda g: (g / ad,))


def square(a) -> Tensor:
    a = as_tensor(a)
    ad = a.data
    return record(ad * ad, (a,), lambda g: (2.0 * ad * g,))


def expit(x) -> np.ndarray:
    """logistic(x) = 1 / (1 + e^-x) of an array, in its dtype."""
    with np.errstate(over="ignore"):  # e^-x = inf gives exactly 0
        return 1 / (1 + np.exp(-x))


def logistic(a) -> Tensor:
    a = as_tensor(a)
    out = expit(a.data)
    return record(out, (a,), lambda g: (g * out * (1.0 - out),))


def softplus(a) -> Tensor:
    """log(1 + e^x), saturation-safe for large |x|."""
    a = as_tensor(a)
    ad = a.data
    out = np.logaddexp(np.zeros((), dtype=ad.dtype), ad)
    return record(out, (a,), lambda g: (g * expit(ad),))


def swish(a) -> Tensor:
    """x * logistic(x)."""
    a = as_tensor(a)
    ad = a.data
    s = expit(ad)
    return record(ad * s, (a,),
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


@functools.lru_cache(maxsize=512)
def _plan(x_spec: str, x_shape: tuple, y_spec: str, y_shape: tuple,
          out: str) -> tuple:
    """:func:`_product`'s matmul plan for these specs and shapes."""
    summed = [i for i in x_spec if i in y_spec and i not in out]
    x_kept = [i for i in out if i in x_spec and i not in y_spec]
    y_kept = [i for i in out if i in y_spec and i not in x_spec]
    extents = dict(zip(x_spec, x_shape)) | dict(zip(y_spec, y_shape))
    batch = [i for i in out if i in x_spec and i in y_spec]
    order = batch + x_kept + y_kept

    def sizes(*groups):  # the extent of each group of indexes
        return tuple(math.prod(extents[i] for i in g) for g in groups)

    def live(group):  # its indexes of extent > 1
        return "".join(i for i in group if extents[i] != 1)

    # M's axes adjacent in out's order and N's at its end: the view's M
    # and N merge without a copy, and its rows are contiguous
    in_place = live(x_kept) in live(out) and live(out).endswith(live(y_kept))
    # the axes and shape that view the result in matmul order, or else
    # copy the product into out's order
    axes, mat = ((tuple(out.index(i) for i in order),
                  sizes(*batch, x_kept, y_kept)) if in_place
                 else (tuple(order.index(i) for i in out), sizes(*order)))
    return (tuple(x_spec.index(i) for i in batch + x_kept + summed),
            sizes(*batch, x_kept, summed),
            tuple(y_spec.index(i) for i in batch + summed + y_kept),
            sizes(*batch, summed, y_kept), sizes(*out), in_place, axes, mat)


def _product(x: np.ndarray, x_spec: str, y: np.ndarray, y_spec: str,
             out: str, into: np.ndarray | None = None) -> np.ndarray:
    """``np.einsum(f"{x_spec},{y_spec}->{out}", x, y)`` for a signature
    that :func:`contract` accepts, as one batched ``np.matmul``.

    Shared kept indexes form the batch, and each operand is laid out as
    (batch, M, K) or (batch, K, N), with M, K and N the products of its
    kept and summed extents; a group the signature lacks has extent 1.
    The result is C-contiguous in ``out``'s order: ``into``, if given,
    else a new array. The matmul writes it in place through a transposed
    view where that view reshapes to (batch, M, N) without a copy and its
    rows have unit stride or length 1, as BLAS writes a fresh result;
    else the product is copied in. The plan of transposes and shapes is
    worked out once per specs and shapes, and the 512 latest are kept.
    """
    x_axes, x_mat, y_axes, y_mat, shape, in_place, axes, mat_shape = _plan(
        x_spec, x.shape, y_spec, y.shape, out)
    xm = x.transpose(x_axes).reshape(x_mat)
    ym = y.transpose(y_axes).reshape(y_mat)
    into = np.empty(shape, np.result_type(x, y)) if into is None else into
    if in_place:
        np.matmul(xm, ym, out=into.transpose(axes).reshape(mat_shape))
    else:
        into[...] = np.matmul(xm, ym).reshape(mat_shape).transpose(axes)
    return into


def contract(a, b, spec: str) -> Tensor:
    """Two-operand product, e.g. ``contract(A, B, "ij,jk->ik")``.

    Every index is in the output or on both operands: output indexes are
    kept, shared indexes missing from the output are summed over, and a
    shared index has the same extent on both operands. Any other
    signature is a ``ShapeError`` that names the offending index.

    The forward product and both gradient products each run as one
    batched ``np.matmul``; an index group a signature lacks has extent 1.
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
    return record(_product(ad, a_spec, bd, b_spec, out), (a, b),
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
    return record(out, (a,),
                  lambda g: (_expand_reduced(g, shape, ax, keepdims).copy(),))


def reduce_mean(a, axes=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    ax = _norm_axes(axes, a.ndim)
    shape = a.shape
    count = int(np.prod([shape[i] for i in ax])) if ax else 1
    out = np.mean(a.data, axis=ax, keepdims=keepdims)
    return record(
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

    return record(out, (a,), vjp)


def logsumexp(a, axes=None, keepdims: bool = False) -> Tensor:
    """log(sum(exp(a - m))) + m over ``axes``, with m the maximum: finite
    for any finite input, in ``a``'s dtype."""
    a = as_tensor(a)
    ax = _norm_axes(axes, a.ndim)
    ad = a.data
    kept = np.max(ad, axis=ax, keepdims=True)
    kept = np.log(np.exp(ad - kept).sum(axis=ax, keepdims=True)) + kept
    out = kept if keepdims else np.squeeze(kept, axis=ax)

    def vjp(g):
        w = np.exp(ad - kept)
        return (w * _expand_reduced(g, ad.shape, ax, keepdims),)

    return record(out, (a,), vjp)


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
    return record(out, (a,), lambda g: (np.reshape(g, old),))


# ---------------------------------------------------------------------------
# gradient checking


def grad_check(f: Callable[[Tensor], Tensor], x) -> float:
    """Max relative error of reverse-mode gradients of scalar ``f`` at ``x``.

    Central differences with step 1e-5, compared per coordinate as
    |analytic - numeric| / max(1, |analytic|). Runs in float64 whatever
    the dtype of ``x``.
    """
    step = 1e-5
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
