import math

import numpy as np
import pytest

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


def test_backward_requires_scalar_loss():
    tape = T.Tape()
    x = tape.leaf([1.0, 2.0])
    with pytest.raises(ValueError, match="scalar"):
        T.backward(tape, T.square(x))


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
    err = T.grad_check(f, w, step=1e-5)
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
