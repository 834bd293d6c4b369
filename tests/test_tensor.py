import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from capsem import tensor as T
from capsem.errors import DomainError, ShapeError


def test_contract_dot_product():
    out = T.contract(T.tensor([1.0, 2.0]), T.tensor([3.0, 4.0]), "i,i->")
    assert out.item() == 11.0


def test_contract_elementwise_product():
    out = T.contract(T.tensor([1.0, 2.0]), T.tensor([3.0, 4.0]), "i,i->i")
    np.testing.assert_array_equal(out.data, [3.0, 8.0])


def test_contract_matches_nested_loop_oracle():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 2, 4))
    b = rng.normal(size=(3, 4, 5))
    out = T.contract(T.tensor(a), T.tensor(b), "icd,idh->ich")

    expected = np.zeros((3, 2, 5))
    for i in range(3):
        for c in range(2):
            for h in range(5):
                for d in range(4):
                    expected[i, c, h] += a[i, c, d] * b[i, d, h]
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_contract_equals_unsqueeze_multiply_sum():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(4, 3))
    b = rng.normal(size=(4, 3, 5))
    out = T.contract(T.tensor(a), T.tensor(b), "ij,ijk->jk")
    expected = (a[:, :, None] * b).sum(axis=0)
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_contract_extent_mismatch_names_index():
    a = T.tensor(np.ones((2, 3)))
    b = T.tensor(np.ones((4, 5)))
    with pytest.raises(ShapeError, match="'i'"):
        T.contract(a, b, "ij,ik->jk")


# signatures outside the rule "each index is in the output or on both
# operands, with equal extents", and the index each rejection names
_REJECTED = [
    ("ij,ijk->ik", (1, 3), (5, 3, 2), "i"),     # kept index of extent 1 on A
    ("ijk,ik->ij", (4, 3, 2), (1, 2), "i"),     # kept index of extent 1 on B
    ("bij,bjk->bik", (1, 2, 4), (3, 4, 5), "b"),
    ("ibj,jbk->kib", (2, 3, 4), (4, 1, 5), "b"),
    ("ij,jk->", (3, 4), (4, 2), "i"),           # summed on A alone
    ("ijk,kl->il", (3, 2, 4), (4, 5), "j"),
    ("ij,j->j", (3, 4), (4,), "i"),
    ("ij,k->ik", (2, 3), (5,), "j"),
    ("jd,ijk->di", (4, 2), (3, 4, 5), "k"),     # summed on B alone
    ("ij,jkl->ik", (3, 4), (4, 2, 5), "l"),
]


@pytest.mark.parametrize("spec,a_shape,b_shape,index", _REJECTED,
                         ids=[case[0] for case in _REJECTED])
def test_contract_rejects_unsupported_signature(spec, a_shape, b_shape,
                                                index):
    with pytest.raises(ShapeError, match=f"'{index}'"):
        T.contract(T.tensor(np.ones(a_shape)), T.tensor(np.ones(b_shape)),
                   spec)


def test_tensor_has_no_arithmetic_operators():
    with pytest.raises(TypeError):
        T.tensor(1.0) + 1.0
    with pytest.raises(TypeError):
        np.ones(2) + T.tensor(np.ones(2))


def test_add_broadcasts():
    out = T.add(T.tensor([[1.0], [2.0]]), T.tensor([10.0, 20.0]))
    np.testing.assert_array_equal(out.data, [[11.0, 21.0], [12.0, 22.0]])


def test_add_rejects_incompatible_shapes():
    with pytest.raises(ShapeError):
        T.add(T.tensor(np.ones(3)), T.tensor(np.ones(4)))


def test_logistic_and_swish_at_zero():
    assert T.logistic(T.tensor(0.0)).item() == 0.5
    assert T.swish(T.tensor(0.0)).item() == 0.0


def test_softplus_saturates_without_overflow():
    assert T.softplus(T.tensor(1000.0)).item() == 1000.0
    assert T.softplus(T.tensor(-1000.0)).item() == 0.0


def test_div_by_zero_is_domain_error():
    with pytest.raises(DomainError):
        T.div(T.tensor(1.0), T.tensor(0.0))


def test_log_of_nonpositive_is_domain_error():
    with pytest.raises(DomainError):
        T.log(T.tensor([1.0, 0.0]))


def test_logsumexp_of_two_zeros():
    out = T.logsumexp(T.tensor([0.0, 0.0]))
    assert out.item() == pytest.approx(math.log(2.0), abs=1e-12)


def test_logsumexp_large_inputs_stay_finite():
    out = T.logsumexp(T.tensor([1000.0, 1000.0]))
    assert np.isfinite(out.item())
    assert out.item() == pytest.approx(1000.0 + math.log(2.0), abs=1e-9)


def test_logsumexp_finite_for_finite_inputs():
    rng = np.random.default_rng(3)
    for scale in (1.0, 100.0, 700.0):
        x = rng.normal(scale=scale, size=(6, 7))
        out = T.logsumexp(T.tensor(x), axes=1)
        assert np.all(np.isfinite(out.data))


@pytest.mark.parametrize("scale", [1.0, 100.0, 700.0])
def test_logsumexp_matches_scipy(scale):
    from scipy.special import logsumexp as reference
    x = np.random.default_rng(5).normal(scale=scale, size=(6, 7, 5))
    for axes in (1, (0, 2), None):
        for keepdims in (False, True):
            out = T.logsumexp(T.tensor(x), axes=axes, keepdims=keepdims)
            np.testing.assert_allclose(
                out.data, reference(x, axis=axes, keepdims=keepdims),
                rtol=1e-13, atol=0, err_msg=f"axes={axes}")


@pytest.mark.parametrize("dtype, big, bound", [
    (np.float64, 1e300, 745.0), (np.float32, 1e30, 104.0)])
def test_expit_matches_scipy(dtype, big, bound):
    from scipy.special import expit as reference
    top = np.finfo(dtype).max
    x = np.array([0.0, big, top, -big, -top], dtype=dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = T.expit(x)
    assert out.dtype == dtype
    assert out.tolist() == [0.5, 1.0, 1.0, 0.0, 0.0]
    # numpy's exp and the libm exp scipy uses differ in the last bits; on a
    # 2,000,001-point grid the largest gap measured was 4 ulp in each dtype
    grid = np.linspace(-bound, bound, 200_001, dtype=dtype)
    out, ref = T.expit(grid), reference(grid)
    assert out.dtype == dtype and ref.dtype == dtype
    bits = np.int64 if dtype == np.float64 else np.int32
    ulps = np.abs(out.view(bits).astype(np.int64) - ref.view(bits))
    assert ulps.max() <= 4  # both are >= 0, so ordered as their bits


def test_logsumexp_keeps_float32():
    tape = T.Tape()
    x = tape.leaf(np.random.default_rng(6).normal(size=(4, 5))
                  .astype(np.float32))
    out = T.logsumexp(x, axes=1)
    assert out.dtype == np.float32
    assert T.backward(tape, T.reduce_sum(out))[x.node].dtype == np.float32


def test_reduce_sum_matches_loop_oracle():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(4, 5))
    out = T.reduce_sum(T.tensor(x), axes=1)
    expected = np.zeros(4)
    for i in range(4):
        for j in range(5):
            expected[i] += x[i, j]
    np.testing.assert_allclose(out.data, expected, atol=1e-14)


def test_softmax_symmetry():
    out = T.softmax(T.tensor([0.0, 0.0]), axis=0)
    np.testing.assert_array_equal(out.data, [0.5, 0.5])


def test_softmax_shift_invariance():
    rng = np.random.default_rng(5)
    x = rng.normal(size=7)
    a = T.softmax(T.tensor(x), axis=0).data
    b = T.softmax(T.tensor(x + 123.4), axis=0).data
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_softmax_matches_direct_formula_oracle():
    x = np.array([1.0, 2.0, 3.0])
    out = T.softmax(T.tensor(x), axis=0).data
    expected = np.exp(x) / np.exp(x).sum()
    np.testing.assert_allclose(out, expected, atol=1e-12)
    assert out.sum() == pytest.approx(1.0, abs=1e-12)


def test_backward_square():
    tape = T.Tape()
    x = tape.leaf(3.0)
    y = T.square(x)
    grads = T.backward(tape, y)
    assert grads[x.node] == pytest.approx(6.0)


def test_backward_logistic():
    tape = T.Tape()
    x = tape.leaf(0.0)
    grads = T.backward(tape, T.logistic(x))
    assert grads[x.node] == pytest.approx(0.25)


def test_backward_fanout_accumulates():
    tape = T.Tape()
    x = tape.leaf(2.0)
    y = T.add(T.mul(x, x), x)  # d/dx (x^2 + x) = 2x + 1
    grads = T.backward(tape, y)
    assert grads[x.node] == pytest.approx(5.0)


def _reference_backward(tape, loss):
    """``T.backward`` with every fan-in summed into a fresh array."""
    grads = {loss.node: np.ones((), dtype=loss.data.dtype)}
    for nid in range(loss.node, -1, -1):
        inputs, vjp = tape._nodes[nid]
        if vjp is None or nid not in grads:
            continue
        for src, gsrc in zip(inputs, vjp(grads.pop(nid))):
            if src >= 0:
                acc = grads.get(src)
                grads[src] = gsrc if acc is None else acc + gsrc
    return grads


def _assert_same_gradients(tape, loss):
    expected = _reference_backward(tape, loss)
    got = T.backward(tape, loss)
    assert set(got) == set(expected)
    for node, want in expected.items():
        assert np.asarray(got[node]).dtype == np.asarray(want).dtype
        assert np.array_equal(got[node], want)


def test_backward_fan_in_of_four_ops_on_one_leaf():
    # add(x, w) is recorded last, so x's first gradient is the array that
    # add's VJP also hands to w: summing into it would change w's gradient
    tape = T.Tape()
    x = tape.leaf([[0.3, -1.2, 2.5], [0.7, 1.1, -0.4]])
    w = tape.leaf([[1.5, 0.2, -0.9], [-2.0, 0.6, 0.8]])
    uses = [T.mul(x, w), T.exp(x), T.square(x), T.add(x, w)]
    total = uses[0]
    for use in uses[1:]:
        total = T.add(total, use)
    _assert_same_gradients(tape, T.reduce_sum(total))


def test_backward_fan_in_on_a_0d_leaf():
    # 0-d gradients arrive as numpy scalars, and two of them sum to a
    # numpy scalar, which cannot be summed into in place
    tape = T.Tape()
    x = tape.leaf(0.7)
    _assert_same_gradients(tape, T.add(T.mul(x, x), T.exp(x)))


def test_backward_never_writes_a_gradient_two_sources_share():
    # add's VJP hands one array to h and to x, and h's VJP hands that
    # same array to x and y
    tape = T.Tape()
    x = tape.leaf([1.0, -2.0, 0.5])
    y = tape.leaf([0.25, 3.0, -1.5])
    h = T.add(x, y)
    loss = T.reduce_sum(T.add(h, x))
    _assert_same_gradients(tape, loss)
    grads = T.backward(tape, loss)
    np.testing.assert_array_equal(grads[y.node], [1.0, 1.0, 1.0])
    np.testing.assert_array_equal(grads[x.node], [2.0, 2.0, 2.0])


def test_backward_fan_in_widens_to_float64():
    # two float32 gradients, then a float64 one: the float64 use is
    # recorded first, so its gradient arrives last and the sum must widen
    tape = T.Tape()
    x = tape.leaf([0.1, 0.2, 0.3])
    wide = T.record(x.data, (x,), lambda g: (g,))
    narrow = [T.record(x.data.astype(np.float32), (x,),
                       lambda g: (g.astype(np.float32),)) for _ in range(2)]
    loss = T.reduce_sum(T.add(T.add(narrow[0], narrow[1]), wide))
    _assert_same_gradients(tape, loss)
    assert T.backward(tape, loss)[x.node].dtype == np.float64


def _cast(a):
    """``a`` in the other float dtype; its VJP returns ``a``'s dtype, so
    gradients of both dtypes can meet at one node."""
    wide = np.float64 if a.dtype == np.float32 else np.float32
    return T.record(a.data.astype(wide), (a,),
                    lambda g, dtype=a.dtype: (g.astype(dtype),))


@st.composite
def _random_graphs(draw):
    """A tape of add, mul, reshape, reduce_sum, contract and casts over a
    few 0-d or 2-D leaves of either dtype, each leaf and result used any
    number of times; the loss sums every result no op consumed."""
    tape = T.Tape()
    n_leaves = draw(st.integers(1, 3))
    nodes = []
    for _ in range(n_leaves):
        shape = draw(st.sampled_from([(2, 3), (), (3, 2)]))
        values = draw(st.lists(st.floats(-2, 2, width=32),
                               min_size=math.prod(shape),
                               max_size=math.prod(shape)))
        dtype = draw(st.sampled_from([np.float64, np.float32]))
        nodes.append(tape.leaf(np.array(values, dtype=dtype).reshape(shape)))
    for _ in range(draw(st.integers(1, 10))):
        op = draw(st.sampled_from(["add", "mul", "reshape", "reduce_sum",
                                   "contract", "cast"]))
        a = draw(st.sampled_from(nodes[:n_leaves] if draw(st.booleans())
                                 else nodes))
        if op == "cast":
            nodes.append(_cast(a))
        elif op == "reshape":
            shape = draw(st.sampled_from(
                [s for s in [a.shape[::-1], (a.data.size,), (), (2, 3)]
                 if math.prod(s) == a.data.size]))
            nodes.append(T.reshape(a, shape))
        elif op == "reduce_sum":
            axes = draw(st.sampled_from([None] + list(range(a.ndim))))
            nodes.append(T.reduce_sum(a, axes=axes,
                                      keepdims=draw(st.booleans())))
        elif op == "contract":
            # a second operand of the same shape or transposed; each
            # index is kept or summed
            if not a.ndim:
                continue
            b = draw(st.sampled_from([n for n in nodes if n.shape
                                      in (a.shape, a.shape[::-1])]))
            letters = "ijk"[:a.ndim]
            b_spec = letters if b.shape == a.shape else letters[::-1]
            out = "".join(i for i in letters if draw(st.booleans()))
            nodes.append(T.contract(a, b, f"{letters},{b_spec}->{out}"))
        else:
            b = draw(st.sampled_from([n for n in nodes if n.shape == a.shape
                                      or not n.ndim or not a.ndim]))
            nodes.append((T.add if op == "add" else T.mul)(a, b))
    consumed = {i for n in nodes for i in tape._nodes[n.node][0]}
    sinks = [n for n in nodes if n.node not in consumed]
    loss = T.reduce_sum(sinks[0])
    for sink in sinks[1:]:
        loss = T.add(loss, T.reduce_sum(sink))
    return tape, loss


@settings(max_examples=300)
@given(_random_graphs())
def test_backward_matches_fresh_array_fan_in(graph):
    _assert_same_gradients(*graph)


def test_backward_requires_scalar_loss():
    tape = T.Tape()
    x = tape.leaf([1.0, 2.0])
    with pytest.raises(ValueError, match="scalar"):
        T.backward(tape, T.square(x))


def test_backward_returns_exactly_the_leaves_on_the_loss_path():
    tape = T.Tape()
    x = tape.leaf([1.0, 2.0])
    w = tape.leaf([3.0, 4.0])
    off = tape.leaf(5.0)
    T.square(off)  # recorded, but never reaches the loss
    loss = T.reduce_sum(T.add(T.mul(x, w), 1.0))
    grads = T.backward(tape, loss)
    assert set(grads) == {x.node, w.node}
    np.testing.assert_array_equal(grads[x.node], [3.0, 4.0])
    np.testing.assert_array_equal(grads[w.node], [1.0, 2.0])
    # a loss that is itself a leaf
    assert T.backward(tape, off) == {off.node: 1.0}


def test_backward_takes_none_for_an_untracked_source():
    tape = T.Tape()
    x = tape.leaf([1.0, 2.0])
    data = T.tensor([3.0, 4.0])
    y = T.record(x.data * data.data, (x, data),
                 lambda g: (g * np.array([3.0, 4.0]), None))
    grads = T.backward(tape, T.reduce_sum(y))
    assert set(grads) == {x.node}
    np.testing.assert_array_equal(grads[x.node], [3.0, 4.0])


def test_backward_drops_interior_gradients():
    # 20 chained negations of a 1 MB leaf: keeping every interior
    # gradient would hold about 20 MB until the pass ends
    tape = T.Tape()
    x = tape.leaf(np.ones(1 << 17))
    y = x
    for _ in range(20):
        y = T.neg(y)
    loss = T.reduce_sum(y)
    tracemalloc.start()
    try:
        grads = T.backward(tape, loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(grads[x.node], np.ones(1 << 17))
    assert peak < 4 << 20


def test_backward_composite_matches_finite_differences():
    # mixes contract, elementwise, and reductions in one graph
    rng = np.random.default_rng(6)
    w = rng.normal(size=(3, 4))

    def f(wt):
        x = T.tensor(rng_x)
        h = T.contract(x, wt, "bi,ij->bj")
        h = T.swish(h)
        z = T.logsumexp(h, axes=1)
        return T.reduce_mean(T.square(z))

    rng_x = rng.normal(size=(5, 3))
    err = T.grad_check(f, w)
    assert err <= 1e-5


def test_grad_check_sum_of_squares():
    err = T.grad_check(lambda x: T.reduce_sum(T.square(x)),
                       np.array([1.0, -2.0, 3.0]))
    assert err <= 1e-9


def test_grad_check_constant_function():
    err = T.grad_check(lambda x: T.tensor(7.0), np.array([1.0, 2.0]))
    assert err == 0.0


def test_grad_check_rejects_nonscalar():
    with pytest.raises(ValueError, match="scalar"):
        T.grad_check(lambda x: T.square(x), np.array([1.0, 2.0]))


def test_contract_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    b = rng.normal(size=(3, 4, 5))

    # gradient w.r.t. the first operand
    a = rng.normal(size=(3, 4))

    def f(at):
        out = T.contract(at, T.tensor(b), "ij,ijk->ik")
        return T.reduce_sum(T.mul(out, out))

    assert T.grad_check(f, a) <= 1e-6

    # gradient w.r.t. the second operand
    a_fixed = rng.normal(size=(3, 4))

    def g(bt):
        out = T.contract(T.tensor(a_fixed), bt, "ij,ijk->k")
        return T.reduce_sum(T.square(out))

    assert T.grad_check(g, b) <= 1e-6


# ---------------------------------------------------------------------------
# the buffer pool

_BIG = (128, 128)  # 128 KiB of float64, the smallest request pooled


def test_buffer_pools_only_requests_of_128_kib_or_more():
    T._POOL.clear()
    small = T._buffer((_BIG[0] - 1, _BIG[1]), np.float64)
    assert small.shape == (127, 128) and small.flags.c_contiguous
    assert not T._POOL
    big = T._buffer(_BIG, np.float64)
    assert big.shape == _BIG and big.flags.c_contiguous
    assert len(T._POOL) == 1 and big.base is T._POOL[0][0]


def test_buffer_reuses_only_what_the_pool_alone_holds():
    T._POOL.clear()
    first = T._buffer(_BIG, np.float64)
    view = first[1:].T  # numpy keeps the pooled buffer as its base
    del first
    second = T._buffer(_BIG, np.float64)
    assert not np.shares_memory(view, second)
    del view
    third = T._buffer((64, 256), np.float64)
    assert third.base is T._POOL[0][0] and len(T._POOL) == 2
    assert not np.shares_memory(third, second)


def test_buffer_takes_the_free_buffer_last_seen_in_use():
    # ids, since a reference would block reuse
    T._POOL.clear()
    held = [T._buffer(_BIG, np.float64) for _ in range(2)]
    ids = [id(x.base) for x in held]
    del held[0]
    again = T._buffer(_BIG, np.float64)  # the first buffer, handed out
    assert id(again.base) == ids[0]     # last, is free again below
    del again
    other = T._buffer((2,) + _BIG, np.float32)  # sees the second in use
    del held[0]
    assert id(T._buffer(_BIG, np.float64).base) == ids[1]


def test_buffer_drops_free_buffers_too_small_before_it_makes_one():
    # the pool never holds more buffers of a dtype than were live at once
    T._POOL.clear()
    busy = T._buffer(_BIG, np.float64)
    free = [T._buffer(_BIG, np.float64) for _ in range(2)]
    other = T._buffer((2,) + _BIG, np.float32)
    del free[:], other
    big = T._buffer((2,) + _BIG, np.float64)
    assert len(T._POOL) == 3
    assert [e[0].dtype for e in T._POOL] == [np.float64, np.float32,
                                             np.float64]
    assert busy.base is T._POOL[0][0] and big.base is T._POOL[2][0]


def test_backward_sums_fan_in_in_a_pooled_buffer():
    tape = T.Tape()
    x = tape.leaf(np.full(_BIG, 2.0))
    loss = T.reduce_sum(T.add(T.add(x, x), x))
    T._POOL.clear()
    grad = T.backward(tape, loss)[x.node]
    np.testing.assert_array_equal(grad, np.full(_BIG, 3.0))
    assert grad.base is T._POOL[-1][0]


# ---------------------------------------------------------------------------
# contract against np.einsum: forward and both VJPs

# extents of the routing indexes: batch b, inputs i, outputs j, pose rows c,
# input columns d, output columns h
_DESK_LAYER0 = dict(b=20, i=10, j=32, c=4, d=4, h=4)
_DESK_LAYER1 = dict(b=20, i=32, j=5, c=4, d=4, h=4)
_WIDE = dict(b=8, i=64, j=16, c=4, d=4, h=4)
_ROUTING_SPECS = ["bicd,ijdh->bijch", "bicd,jdh->bijch", "bicd,dh->bich",
                  "bij,bijch->bjch"]


def _einsum_vjps(a, a_spec, b, b_spec, out, g):
    """Gradients of sum(g * einsum(a, b)), one einsum each."""
    return (np.einsum(f"{out},{b_spec}->{a_spec}", g, b),
            np.einsum(f"{out},{a_spec}->{b_spec}", g, a))


def _check_against_einsum(spec, a, b, rng):
    lhs, out = spec.split("->")
    a_spec, b_spec = lhs.split(",")
    tape = T.Tape()
    at, bt = tape.leaf(a), tape.leaf(b)
    res = T.contract(at, bt, spec)
    expected = np.einsum(spec, a, b)
    assert res.shape == expected.shape, spec
    assert res.data.flags.c_contiguous, spec
    np.testing.assert_allclose(res.data, expected, rtol=0, atol=1e-12,
                               err_msg=spec)

    g = rng.normal(size=expected.shape)
    grads = T.backward(tape, T.reduce_sum(T.mul(res, g)))
    ga, gb = _einsum_vjps(a, a_spec, b, b_spec, out, g)
    np.testing.assert_allclose(grads[at.node], ga, rtol=0, atol=1e-12,
                               err_msg=f"{spec} wrt A")
    np.testing.assert_allclose(grads[bt.node], gb, rtol=0, atol=1e-12,
                               err_msg=f"{spec} wrt B")
    return grads[at.node], grads[bt.node]


@pytest.mark.parametrize("extents", [_DESK_LAYER0, _DESK_LAYER1, _WIDE],
                         ids=["desk_layer0", "desk_layer1", "wide"])
@pytest.mark.parametrize("spec", _ROUTING_SPECS)
def test_contract_matches_einsum_on_routing_specs(spec, extents):
    rng = np.random.default_rng(31)
    a_spec, b_spec = spec.split("->")[0].split(",")
    a = rng.normal(size=[extents[i] for i in a_spec])
    b = rng.normal(size=[extents[i] for i in b_spec])
    ga, gb = _check_against_einsum(spec, a, b, rng)
    assert ga.flags.c_contiguous and gb.flags.c_contiguous


@pytest.mark.parametrize("spec,a_shape,b_shape", [
    ("bij,bjk->bik", (3, 2, 4), (3, 4, 5)),        # batch and contraction
    ("bi,bi->b", (3, 4), (3, 4)),                  # batch indexes only
    ("bi,bj->bij", (3, 4), (3, 2)),                # batched outer product
    ("ij,ij->", (3, 4), (3, 4)),                   # contraction only
])
def test_contract_matches_einsum_on_special_products(spec, a_shape, b_shape):
    rng = np.random.default_rng(32)
    _check_against_einsum(spec, rng.normal(size=a_shape),
                          rng.normal(size=b_shape), rng)


def test_contract_matches_einsum_on_random_specs():
    # every index plays one role: batch (shared, kept), summed (shared, not
    # kept), or kept on one side; a shared index has one extent
    rng = np.random.default_rng(33)
    roles = ("batch", "summed", "a_kept", "b_kept")
    for _ in range(60):
        letters = iter("abcdefghijklmnop")
        named = {r: [next(letters) for _ in range(rng.integers(0, 3))]
                 for r in roles}
        a_idx = named["batch"] + named["summed"] + named["a_kept"]
        b_idx = named["batch"] + named["summed"] + named["b_kept"]
        out = named["batch"] + named["a_kept"] + named["b_kept"]
        if not a_idx or not b_idx:
            continue
        for idx in (a_idx, b_idx, out):
            rng.shuffle(idx)
        ext = {i: int(rng.integers(1, 5)) for i in a_idx + b_idx}
        spec = f"{''.join(a_idx)},{''.join(b_idx)}->{''.join(out)}"
        _check_against_einsum(spec, rng.normal(size=[ext[i] for i in a_idx]),
                              rng.normal(size=[ext[i] for i in b_idx]), rng)


def test_contract_matches_einsum_when_output_ends_in_row_and_column():
    # out = leading indexes (batch, or kept on one operand only) in an
    # order that differs from batch + a-kept + b-kept, then (row of a,
    # column of b) around one summed index, as in bicd,jdh->bijch: a
    # matrix product that is transposed into output order
    rng = np.random.default_rng(35)
    roles = ("batch", "a_lead", "b_lead")
    checked = 0
    while checked < 40:
        letters = iter("abcdefghijklmnop")
        named = {r: [next(letters) for _ in range(rng.integers(0, 3))]
                 for r in roles}
        s, r, k = next(letters), next(letters), next(letters)
        lead = named["batch"] + named["a_lead"] + named["b_lead"]
        rng.shuffle(lead)
        out = lead + [r, k]
        a_kept = [i for i in out if i in named["a_lead"] or i == r]
        b_kept = [i for i in out if i in named["b_lead"] or i == k]
        if named["batch"] + a_kept + b_kept == out:
            continue  # already in matmul order: nothing to transpose
        a_idx = named["batch"] + named["a_lead"] + [r, s]
        b_idx = named["batch"] + named["b_lead"] + [s, k]
        for idx in (a_idx, b_idx):
            rng.shuffle(idx)
        ext = {i: int(rng.integers(1, 5)) for i in a_idx + b_idx}
        spec = f"{''.join(a_idx)},{''.join(b_idx)}->{''.join(out)}"
        ga, gb = _check_against_einsum(
            spec, rng.normal(size=[ext[i] for i in a_idx]),
            rng.normal(size=[ext[i] for i in b_idx]), rng)
        assert ga.flags.c_contiguous and gb.flags.c_contiguous, spec
        checked += 1


def _in_matmul_order(spec):
    """The output of ``spec`` with its indexes in ``_product``'s matmul
    order: batch, then kept on the left only, then on the right only."""
    lhs, out = spec.split("->")
    a, b = lhs.split(",")
    return ("".join(i for i in out if i in a and i in b)
            + "".join(i for i in out if i in a and i not in b)
            + "".join(i for i in out if i in b and i not in a))


# products whose matmul writes in place, and ones copied into the result
PRODUCT_CASES = [
    ("bijch,bjch->bij", dict(b=50, i=10, j=32, c=4, h=4)),
    ("bijch,bjch->bij", dict(b=50, i=32, j=5, c=4, h=4)),
    ("bijch,bjch->bij", dict(b=8, i=64, j=16, c=4, h=4)),
    ("bijch,bjch->bij", dict(b=8, i=1, j=16, c=4, h=4)),
    ("bijch,bicd->jdh", dict(b=8, i=10, j=6, c=4, h=3, d=2)),
    ("bijch,ijdh->bicd", dict(b=8, i=10, j=6, c=4, h=3, d=2)),
    ("ij,jk->ki", dict(i=5, j=7, k=3)),
    ("abc,cd->bda", dict(a=3, b=1, c=4, d=5)),
    ("ij,ij->", dict(i=5, j=7)),
]


def _product_operands(spec, extents, dtype, seed):
    """a_spec, b_spec, out and random operands of ``spec``."""
    rng = np.random.default_rng(seed)
    (a_spec, b_spec), out = spec.split("->")[0].split(","), spec.split("->")[1]
    a, b = (rng.normal(size=[extents[i] for i in s]).astype(dtype)
            for s in (a_spec, b_spec))
    return a_spec, b_spec, out, a, b


@pytest.mark.parametrize("dtype", ["f8", "f4"])
@pytest.mark.parametrize("spec, extents", PRODUCT_CASES)
def test_product_in_any_order_equals_the_matmul_order_transposed(
        spec, extents, dtype):
    # whether the matmul writes straight into the result through a
    # transposed view or its product is copied in, every bit and the
    # dtype match the product in matmul order, transposed; ``into`` is
    # filled and returned
    a_spec, b_spec, out, a, b = _product_operands(spec, extents, dtype, 36)
    order = _in_matmul_order(spec)
    want = np.asarray(T._product(a, a_spec, b, b_spec, order)
                      .transpose([order.index(i) for i in out]), order="C")
    got = T._product(a, a_spec, b, b_spec, out)
    assert got.dtype == want.dtype == np.dtype(dtype)
    assert got.flags.c_contiguous and np.array_equal(got, want)
    into = np.empty_like(want)
    assert T._product(a, a_spec, b, b_spec, out, into=into) is into
    assert np.array_equal(into, want)


def test_product_allocates_its_result_once():
    # the E-step's bijch,bjch->bij at desk layer-0 shapes: the matmul
    # writes through a transposed view, so no second result-sized copy
    rng = np.random.default_rng(37)
    sq = rng.random((50, 10, 32, 4, 4))
    w = rng.random((50, 32, 4, 4))
    tracemalloc.start()
    try:
        res = T._product(sq, "bijch", w, "bjch", "bij")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * res.nbytes


@pytest.mark.parametrize("dtype", ["f8", "f4"])
@pytest.mark.parametrize("spec, extents", PRODUCT_CASES)
def test_product_plan_cache_hit_equals_a_miss_bit_for_bit(spec, extents,
                                                          dtype):
    # the first call works the plan out, with or without ``into``; two
    # later calls, one of each, find it and give the same bytes
    a_spec, b_spec, out, a, b = _product_operands(spec, extents, dtype, 38)

    def product(use_into):
        into = (np.full([extents[i] for i in out], np.nan, dtype)
                if use_into else None)
        return T._product(a, a_spec, b, b_spec, out, into=into)

    for first in (False, True):
        T._plan.cache_clear()
        results = [product(first), product(False), product(True)]
        info = T._plan.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        for got in results:
            assert got.dtype == np.dtype(dtype)
            assert got.tobytes() == results[0].tobytes()


def test_product_plan_cache_is_bounded():
    # more shapes than the cache holds: it keeps the most recent ones
    maxsize = T._plan.cache_info().maxsize
    assert maxsize is not None
    for n in range(1, maxsize + 20):
        T._product(np.ones((2, n)), "ij", np.ones((n, 3)), "jk", "ik")
    assert T._plan.cache_info().currsize == maxsize
    T._product(np.ones((2, 1)), "ij", np.ones((1, 3)), "jk", "ik")
    assert T._plan.cache_info().currsize == maxsize


def test_product_plan_cache_is_safe_across_threads():
    # four threads on two or fewer CPUs, switching often, each run every
    # product of more shapes than the cache holds, so that they miss, hit
    # and evict at once; each result equals the one-thread result
    shapes = range(1, T._plan.cache_info().maxsize + 60)
    rng = np.random.default_rng(39)
    operands = [(rng.normal(size=(3, n)), rng.normal(size=(n, 2)))
                for n in shapes]

    def run_all(results):
        for a, b in operands:
            results.append(T._product(a, "ij", b, "jk", "ki").tobytes())

    T._plan.cache_clear()
    want = []
    run_all(want)
    T._plan.cache_clear()
    got = [[] for _ in range(4)]
    threads = [threading.Thread(target=run_all, args=(r,)) for r in got]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [want] * 4
    assert T._plan.cache_info().currsize <= T._plan.cache_info().maxsize


@pytest.mark.parametrize("spec", ["bicd,jdh->bijch", "bij,bijch->bjch"])
def test_contract_keeps_float32(spec):
    rng = np.random.default_rng(34)
    a_spec, b_spec = spec.split("->")[0].split(",")
    tape = T.Tape()
    a = tape.leaf(rng.normal(size=[_WIDE[i] for i in a_spec])
                  .astype(np.float32))
    b = tape.leaf(rng.normal(size=[_WIDE[i] for i in b_spec])
                  .astype(np.float32))
    res = T.contract(a, b, spec)
    assert res.dtype == np.float32 and res.data.flags.c_contiguous
    grads = T.backward(tape, T.reduce_sum(res))
    assert grads[a.node].dtype == np.float32
    assert grads[b.node].dtype == np.float32


def test_reduce_max_keepdims_gradient():
    def f(x):
        kept = T.reduce_max(x, axes=1, keepdims=True)
        return T.reduce_sum(T.square(T.sub(x, kept)))

    x = np.array([[1.0, 5.0, 2.0], [4.0, -1.0, 0.0]])
    assert T.grad_check(f, x) <= 1e-6


def test_reduce_max_gradient_splits_ties():
    tape = T.Tape()
    x = tape.leaf([1.0, 3.0, 3.0])
    grads = T.backward(tape, T.reduce_max(x))
    np.testing.assert_allclose(grads[x.node], [0.0, 0.5, 0.5])


def test_reshape_round_trip_gradient():
    def f(x):
        y = T.reshape(x, (3, 2))
        return T.reduce_sum(T.square(y))

    assert T.grad_check(f, np.arange(6.0)) <= 1e-8


def test_tape_replay_is_bit_identical():
    rng = np.random.default_rng(8)
    x0 = rng.normal(size=(4, 3))
    w0 = rng.normal(size=(3, 3))

    def run():
        tape = T.Tape()
        w = tape.leaf(w0)
        h = T.contract(T.tensor(x0), w, "bi,ij->bj")
        loss = T.reduce_mean(T.square(T.logistic(h)))
        grads = T.backward(tape, loss)
        return loss.item(), grads[w.node].copy()

    l1, g1 = run()
    l2, g2 = run()
    assert l1 == l2
    np.testing.assert_array_equal(g1, g2)


def test_float32_mode_is_opt_in():
    # float32 comes only from float32 data; constants take the dtype of
    # the tensor they meet, and everything else is float64
    x = T.tensor(np.array([1.0, 2.0], dtype=np.float32))
    assert x.dtype == np.float32
    assert T.Tape().leaf(x.data).dtype == np.float32
    assert T.add(x, 1.0).dtype == np.float32
    assert T.mul(np.array([2.0, 3.0]), x).dtype == np.float32
    assert T.tensor([1.0]).dtype == np.float64
    assert T.tensor(np.array([1, 2])).dtype == np.float64
    assert T.Tape().leaf(np.float16(1.0)).dtype == np.float64
    # two tensors promote: float32 with float64 gives float64
    assert T.add(x, T.tensor([1.0, 1.0])).dtype == np.float64


def test_float32_gradients_stay_float32():
    tape = T.Tape()
    x = tape.leaf(np.array([[0.5, -1.0], [2.0, 0.25]], dtype=np.float32))
    w = tape.leaf(np.array([1.5, -0.5], dtype=np.float32))
    h = T.contract(x, w, "ij,j->i")
    loss = T.reduce_mean(T.square(T.softplus(T.add(T.mul(0.5, h), 1.0))))
    grads = T.backward(tape, loss)
    assert loss.dtype == np.float32
    assert grads[x.node].dtype == np.float32
    assert grads[w.node].dtype == np.float32


def test_mixing_tapes_is_an_error():
    t1, t2 = T.Tape(), T.Tape()
    a = t1.leaf(1.0)
    b = t2.leaf(2.0)
    with pytest.raises(ValueError, match="tapes"):
        T.add(a, b)
