import dataclasses
import functools
import itertools
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import expit

from capsem import tensor as T
from capsem import routing as R
from capsem.errors import ConfigError, DomainError, ShapeError
from capsem.routing import (CapsuleBatch, LOGIT_MAX, RoutingConfig,
                            RoutingParams, compute_votes, d_step, e_step,
                            init_params, m_step, param_count, param_shapes,
                            route, route_reference)
from conftest import (random_caps, random_config, random_instance,
                      random_out_bias, random_params)


def small_fixed_config(**over):
    base = dict(n_out=2, n_in=3, d_cov=2, d_in=2, d_out=3, n_iters=3)
    base.update(over)
    return RoutingConfig(**base)


# ---------------------------------------------------------------------------
# init_params


def test_init_zeroes_biases_and_betas():
    cfg = small_fixed_config()
    p = init_params(cfg, seed=0)
    assert np.all(p.biases == 0.0)
    assert np.all(p.beta_use == 0.0)
    assert np.all(p.beta_ign == 0.0)


def test_init_weight_scale():
    cfg = RoutingConfig(n_out=50, n_in=50, d_cov=1, d_in=4, d_out=2)
    p = init_params(cfg, seed=1)
    assert p.weights.size >= 10_000
    sd = p.weights.std()
    assert 0.8 * 0.25 <= sd <= 1.2 * 0.25


def test_init_is_deterministic():
    cfg = small_fixed_config()
    a = init_params(cfg, seed=7)
    b = init_params(cfg, seed=7)
    np.testing.assert_array_equal(a.weights, b.weights)


def test_init_tied_betas_share_storage():
    cfg = small_fixed_config(tie_betas=True)
    p = init_params(cfg, seed=0)
    assert p.beta_ign is p.beta_use
    assert p.tied


def test_param_shapes_lists_exactly_the_fields_items_yields():
    dims = dict(d_cov=2, d_in=3, d_out=4)
    fixed = RoutingConfig(n_out=5, n_in=2, **dims)
    assert list(param_shapes(fixed).items()) == [
        ("weights", (2, 5, 3, 4)), ("biases", (2, 5, 2, 4)),
        ("beta_use", (2, 5)), ("beta_ign", (2, 5))]
    tied_out = RoutingConfig(n_out="variable", tie_betas=True, **dims)
    assert param_shapes(tied_out) == {"weights": (3, 4), "beta_use": ()}
    for cfg in (fixed, tied_out, RoutingConfig(n_out=5, **dims)):
        assert [(name, np.shape(value)) for name, value
                in init_params(cfg, 0).items()] \
            == list(param_shapes(cfg).items())


# ---------------------------------------------------------------------------
# compute_votes


def test_votes_zero_params_give_zero_votes():
    cfg = small_fixed_config()
    p = init_params(cfg, seed=0)
    p.weights[:] = 0.0
    caps = CapsuleBatch(np.zeros((1, 3)), np.ones((1, 3, 2, 2)))
    v = compute_votes(p, caps, cfg)
    assert v.shape == (1, 3, 2, 2, 3)
    np.testing.assert_array_equal(v.data, 0.0)


def test_votes_scalar_affine():
    cfg = RoutingConfig(n_out=1, n_in=1, d_cov=1, d_in=1, d_out=1)
    p = RoutingParams(
        weights=np.full((1, 1, 1, 1), 2.0),
        biases=np.full((1, 1, 1, 1), 0.5),
        beta_use=np.zeros((1, 1)),
        beta_ign=np.zeros((1, 1)),
    )
    caps = CapsuleBatch(np.zeros((1, 1)), np.full((1, 1, 1, 1), 3.0))
    v = compute_votes(p, caps, cfg)
    assert v.data.reshape(()) == pytest.approx(6.5)


def test_votes_match_nested_loop_oracle():
    rng = np.random.default_rng(0)
    cfg = RoutingConfig(n_out=2, n_in=3, d_cov=2, d_in=2, d_out=3)
    p = random_params(rng, cfg)
    caps = random_caps(rng, cfg, batch=2)
    v = compute_votes(p, caps, cfg).data

    expected = np.zeros((2, 3, 2, 2, 3))
    for b in range(2):
        for i in range(3):
            for j in range(2):
                for c in range(2):
                    for h in range(3):
                        acc = 0.0
                        for d in range(2):
                            acc += p.weights[i, j, d, h] * caps.poses[b, i, c, d]
                        expected[b, i, j, c, h] = acc + p.biases[i, j, c, h]
    np.testing.assert_allclose(v, expected, atol=1e-12)


def test_votes_variable_output_requires_bias():
    cfg = RoutingConfig(n_out="variable", d_cov=2, d_in=2, d_out=2)
    p = init_params(cfg, seed=0)
    caps = CapsuleBatch(np.zeros((1, 4)), np.zeros((1, 4, 2, 2)))
    with pytest.raises(ConfigError):
        compute_votes(p, caps, cfg)
    bias = np.zeros((3, 2, 2))
    v = compute_votes(p, caps, cfg, out_bias=bias)
    assert v.shape == (1, 4, 3, 2, 2)


@pytest.mark.parametrize("mode", R.MODES)
def test_votes_are_one_node_equal_to_their_generic_composition(mode):
    # d_cov and d_out above 1: a pose product with one row or one column
    # is a matrix-vector product in numpy, whose rounding may differ from
    # the matrix product that contract runs
    rng = np.random.default_rng(36)
    cfg = R.mode_config(mode, 3, 4, d_cov=2, d_in=3, d_out=2)
    p = random_params(rng, cfg)
    caps = random_caps(rng, cfg, batch=3)
    out_bias = random_out_bias(rng, cfg, n_out=4) \
        if mode == "variable_output" else None

    def composed(params, batch, bias):
        if mode == "variable_output":
            b, n = batch.poses.shape[:2]
            base = T.contract(batch.poses, params.weights, "bicd,dh->bich")
            base = T.reshape(base, (b, n, 1, cfg.d_cov, cfg.d_out))
            return T.add(base, bias)
        pair = "ij" if mode == "fixed" else "j"
        return T.add(T.contract(batch.poses, params.weights,
                                f"bicd,{pair}dh->bijch"), bias)

    def run(votes_of):
        tape = T.Tape()
        params, batch = p.tracked(tape), caps.tracked(tape)
        bias = params.biases if out_bias is None else tape.leaf(out_bias)
        before = len(tape)
        votes = votes_of(params, batch, bias)
        nodes = len(tape) - before
        g = np.random.default_rng(37).normal(size=votes.shape)
        grads = T.backward(tape, T.reduce_sum(T.mul(votes, g)))
        return nodes, [votes.data] + [grads[x.node] for x in
                                      (batch.poses, params.weights, bias)]

    nodes, fused = run(lambda params, batch, bias: compute_votes(
        params, batch, cfg, out_bias=None if out_bias is None else bias))
    assert nodes == 1
    for a, b in zip(fused, run(composed)[1], strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_votes_reject_params_of_another_layout():
    cfg = small_fixed_config()
    p = init_params(small_fixed_config(n_in=4), seed=0)
    caps = CapsuleBatch(np.zeros((1, 3)), np.zeros((1, 3, 2, 2)))
    with pytest.raises(ShapeError, match="weights"):
        compute_votes(p, caps, cfg)


@pytest.mark.parametrize("tie", [False, True], ids=["untied", "tied"])
@pytest.mark.parametrize("shape", [(2,), (4, 3, 2)],
                         ids=["per_output", "per_sample"])
def test_route_rejects_betas_of_another_layout(shape, tie):
    # fixed-mode betas are (n_in, n_out) = (3, 2); numpy alone would
    # broadcast (n_out,) betas over the inputs, and (batch, n_in, n_out)
    # betas would give each sample its own
    cfg = small_fixed_config(tie_betas=tie)
    p = init_params(cfg, seed=0)
    caps = random_caps(np.random.default_rng(0), cfg, batch=4)
    wrong = np.zeros(shape)
    for beta_use, beta_ign, name in ((wrong, wrong, "beta_use"),
                                     (wrong, p.beta_ign, "beta_use"),
                                     (p.beta_use, wrong, "beta_ign")):
        params = RoutingParams(p.weights, p.biases, beta_use, beta_ign)
        with pytest.raises(ShapeError, match=name):
            route(params, caps, cfg)


# ---------------------------------------------------------------------------
# e_step


def test_e_step_first_iteration_is_exactly_uniform():
    votes = T.tensor(np.random.default_rng(1).normal(size=(2, 5, 4, 1, 1)))
    probs = e_step(votes, None, first_iter=True)
    assert np.all(probs.data == 0.25)


def test_e_step_single_output_is_one():
    rng = np.random.default_rng(2)
    votes = T.tensor(rng.normal(size=(1, 4, 1, 2, 2)))
    state = R.RoutingOutput(
        T.tensor(rng.normal(size=(1, 1))),
        T.tensor(rng.normal(size=(1, 1, 2, 2))),
        T.tensor(rng.uniform(0.5, 1.5, size=(1, 1, 2, 2))),
    )
    probs = e_step(votes, state, first_iter=False)
    np.testing.assert_allclose(probs.data, 1.0, atol=1e-12)


def test_e_step_rejects_nonpositive_variance():
    from capsem.errors import DomainError
    rng = np.random.default_rng(99)
    votes = T.tensor(rng.normal(size=(1, 3, 2, 1, 1)))
    state = R.RoutingOutput(
        T.tensor(np.zeros((1, 2))),
        T.tensor(rng.normal(size=(1, 2, 1, 1))),
        T.tensor(np.array([[[[1.0]], [[0.0]]]])),
    )
    with pytest.raises(DomainError, match="positive"):
        e_step(votes, state, first_iter=False)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_e_step_refuses_variances_it_cannot_invert(dtype):
    # 0.5 / var overflows the variances' own dtype at its bound and
    # below: 1e-40 is refused in float32, yet inverts in float64
    votes = T.tensor(np.zeros((1, 3, 2, 1, 1), dtype))
    bound = 0.5 / np.finfo(dtype).max

    def probs_at(var):
        variances = np.full((1, 2, 1, 1), var, dtype)
        return e_step(votes, R.RoutingOutput(
            T.tensor(np.zeros((1, 2), dtype)),
            T.tensor(np.zeros((1, 2, 1, 1), dtype)),
            T.tensor(variances)), first_iter=False).data

    for var in (bound, bound / 2, 1e-40 if dtype == "float32" else 1e-310):
        with pytest.raises(DomainError, match="var_floor"):
            probs_at(var)
    for var in (np.nextafter(bound, np.inf, dtype=dtype), 1e-38):
        np.testing.assert_allclose(probs_at(var), 0.5, rtol=1e-5)


def test_e_step_matches_direct_density_formula():
    rng = np.random.default_rng(3)
    for _ in range(20):
        b, n_in, n_out, c, h = 2, 4, 3, 2, 2
        votes = rng.normal(size=(b, n_in, n_out, c, h))
        mu = rng.normal(size=(b, n_out, c, h))
        var = rng.uniform(0.01, 2.0, size=(b, n_out, c, h))
        a_out = rng.uniform(-3, 3, size=(b, n_out))

        state = R.RoutingOutput(T.tensor(a_out), T.tensor(mu), T.tensor(var))
        probs = e_step(T.tensor(votes), state, first_iter=False).data

        # direct transcription of the weighted-density ratio
        dens = (1.0 / np.sqrt(np.prod(2 * np.pi * var, axis=(2, 3)))[:, None, :]
                * np.exp(-((votes - mu[:, None]) ** 2
                           / (2 * var[:, None])).sum(axis=(3, 4))))
        weighted = expit(a_out)[:, None, :] * dens
        expected = weighted / weighted.sum(axis=2, keepdims=True)

        rel = np.abs(probs - expected) / np.maximum(np.abs(expected), 1e-300)
        assert rel.max() <= 1e-6


# ---------------------------------------------------------------------------
# d_step


def test_d_step_gate_fully_open():
    rng = np.random.default_rng(4)
    probs = T.softmax(T.tensor(rng.normal(size=(1, 3, 4))), axis=2)
    scores = np.full((1, 3), LOGIT_MAX)
    used, ignored = d_step(scores, probs)
    np.testing.assert_allclose(used.data, probs.data, atol=1e-9)
    np.testing.assert_allclose(ignored.data, 1.0 - probs.data, atol=1e-9)


def test_d_step_gate_closed():
    rng = np.random.default_rng(5)
    probs = T.softmax(T.tensor(rng.normal(size=(1, 3, 4))), axis=2)
    scores = np.full((1, 3), -LOGIT_MAX)
    used, ignored = d_step(scores, probs)
    np.testing.assert_allclose(used.data, 0.0, atol=1e-9)
    np.testing.assert_allclose(ignored.data, 0.0, atol=1e-9)


def test_d_step_neutral_gate_halves_probs():
    rng = np.random.default_rng(6)
    probs = T.softmax(T.tensor(rng.normal(size=(2, 3, 4))), axis=2)
    used, ignored = d_step(np.zeros((2, 3)), probs)
    np.testing.assert_array_equal(used.data, probs.data / 2.0)
    np.testing.assert_array_equal(ignored.data, 0.5 - used.data)


def test_d_step_accounting_identity():
    rng = np.random.default_rng(7)
    probs = T.softmax(T.tensor(rng.normal(size=(2, 5, 3))), axis=2)
    scores = rng.uniform(-6, 6, size=(2, 5))
    used, ignored = d_step(scores, probs)
    gated_off = 1.0 - expit(scores)[:, :, None]
    total = used.data + ignored.data + gated_off
    np.testing.assert_allclose(total, 1.0, atol=1e-9)


# ---------------------------------------------------------------------------
# m_step


def _uniform_probs(b, i, j):
    return T.tensor(np.full((b, i, j), 1.0 / j))


def test_m_step_zero_betas_zero_scores():
    rng = np.random.default_rng(8)
    cfg = small_fixed_config()
    p = init_params(cfg, seed=0)  # betas zero
    caps = random_caps(rng, cfg)
    votes = compute_votes(p, caps, cfg)
    used, ignored = d_step(caps.scores, _uniform_probs(2, 3, 2))
    out = m_step(votes, used, ignored, p, cfg)
    np.testing.assert_array_equal(out.scores.data, 0.0)


def test_m_step_identical_votes_collapse_to_floor():
    cfg = small_fixed_config(var_floor=1e-8)
    p = init_params(cfg, seed=0)
    votes = T.tensor(np.full((1, 3, 2, 2, 3), 1.25))
    used, ignored = d_step(np.zeros((1, 3)), _uniform_probs(1, 3, 2))
    out = m_step(votes, used, ignored, p, cfg)
    np.testing.assert_allclose(out.poses.data, 1.25, atol=1e-9)
    np.testing.assert_allclose(out.variances.data, 1e-8, atol=1e-9)


def test_m_step_unit_benefit_sums_used_share():
    rng = np.random.default_rng(9)
    cfg = small_fixed_config()
    p = init_params(cfg, seed=0)
    p.beta_use[:] = 1.0
    caps = random_caps(rng, cfg)
    votes = compute_votes(p, caps, cfg)
    probs = T.softmax(T.tensor(rng.normal(size=(2, 3, 2))), axis=2)
    used, ignored = d_step(caps.scores, probs)
    out = m_step(votes, used, ignored, p, cfg)
    np.testing.assert_allclose(out.scores.data, used.data.sum(axis=1),
                               atol=1e-12)


def test_m_step_moments_match_loop_oracle():
    rng = np.random.default_rng(10)
    cfg = small_fixed_config()
    p = random_params(rng, cfg)
    caps = random_caps(rng, cfg)
    votes = compute_votes(p, caps, cfg)
    probs = T.softmax(T.tensor(rng.normal(size=(2, 3, 2))), axis=2)
    used, ignored = d_step(caps.scores, probs)
    out = m_step(votes, used, ignored, p, cfg)

    v, u = votes.data, used.data
    for b in range(2):
        for j in range(2):
            den = u[b, :, j].sum() + cfg.denom_eps
            for c in range(cfg.d_cov):
                for h in range(cfg.d_out):
                    mean = (u[b, :, j] * v[b, :, j, c, h]).sum() / den
                    var = (u[b, :, j]
                           * (v[b, :, j, c, h] - mean) ** 2).sum() / den
                    assert out.poses.data[b, j, c, h] == pytest.approx(
                        mean, abs=1e-12)
                    assert out.variances.data[b, j, c, h] == pytest.approx(
                        var + cfg.var_floor, abs=1e-12)


# ---------------------------------------------------------------------------
# fused E- and M-step ops


def _composed_log_density(x):
    b, i, j, c, h = x["votes"].shape
    mu = T.reshape(x["mean"], (b, 1, j, c, h))
    var = T.reshape(x["var"], (b, 1, j, c, h))
    per_component = T.sub(
        T.mul(-0.5, T.log(T.mul(2.0 * math.pi, var))),
        T.div(T.square(T.sub(x["votes"], mu)), T.mul(2.0, var)))
    return T.reduce_sum(per_component, axes=(3, 4))


def _composed_mean(used, values, denom):
    b, j = denom.shape
    return T.div(T.contract(used, values, "bij,bijch->bjch"),
                 T.reshape(denom, (b, j, 1, 1)))


# the M-step cases' denom_eps: large enough that the variance gradient's
# closed-form mean term, -2 eps Gvar mu / D, shows at the 1e-12 tolerance
MOMENTS_EPS = 1e-3


def _composed_moments(x):
    b, i, j, c, h = x["votes"].shape
    denom = T.add(T.reduce_sum(x["used"], axes=1), MOMENTS_EPS)
    mean = _composed_mean(x["used"], x["votes"], denom)
    diff = T.sub(x["votes"], T.reshape(mean, (b, 1, j, c, h)))
    return mean, T.add(_composed_mean(x["used"], T.square(diff), denom),
                       0.01)


def _fused_moments(x):
    return R._moments(x["used"], x["votes"], MOMENTS_EPS, 0.01)


def _moments_case(half):
    return (lambda x: _fused_moments(x)[half],
            lambda x: _composed_moments(x)[half], ("used", "votes"))


def _fused_boundary(x):
    # an M-step's fit hands the log-density node the M-step's inputs
    mean, var, _, fit = _fused_moments(x)
    return R._log_density(x["votes"], R.RoutingOutput(None, mean, var, fit))


def _composed_boundary(x):
    mean, var = _composed_moments(x)
    return _composed_log_density(x | dict(mean=mean, var=var))


# the generic-op chains that the E-step assignment, the D-step split and
# the M-step net scores replace


def _composed_assignment(x):
    b, i, j = x["log_dens"].shape
    log_gate = T.neg(T.softplus(T.neg(x["out_scores"])))
    logits = T.add(T.reshape(log_gate, (b, 1, j)), x["log_dens"])
    return T.softmax(logits, axis=2)


def _composed_split(x):
    b, i = x["in_scores"].shape
    gate = T.reshape(T.logistic(x["in_scores"]), (b, i, 1))
    used = T.mul(gate, x["probs"])
    return used, T.sub(gate, used)


def _composed_net_scores(x, beta_use, beta_ign):
    contrib = T.sub(T.mul(x["used"], x[beta_use]),
                    T.mul(x["ignored"], x[beta_ign]))
    return T.reduce_sum(contrib, axes=1)


def _net_scores_case(beta_use, beta_ign):
    return (lambda x: R._net_scores(x["used"], x["ignored"], x[beta_use],
                                    x[beta_ign]),
            lambda x: _composed_net_scores(x, beta_use, beta_ign),
            tuple(dict.fromkeys(("used", "ignored", beta_use, beta_ign))))


# op name -> (fused op, the same formula from generic tape ops, its inputs)
FUSED_OPS = {
    "log_density": (
        lambda x: R._log_density(
            x["votes"], R.RoutingOutput(None, x["mean"], x["var"])),
        _composed_log_density, ("votes", "mean", "var")),
    # the M-step's mean and variance with both on the loss path, then
    # each alone, so that the other's half of the node's gradient is zero
    "moments": _moments_case(slice(2)),
    "weighted_mean": _moments_case(0),
    "weighted_variance": _moments_case(1),
    # the next E-step's log-density of that mean and variance, as one node
    # over the M-step's inputs
    "log_density_of_moments": (_fused_boundary, _composed_boundary,
                               ("used", "votes")),
    "assignment_probs": (
        lambda x: R._assignment_probs(x["log_dens"], x["out_scores"]),
        _composed_assignment, ("log_dens", "out_scores")),
    "d_step_used": (
        lambda x: d_step(x["in_scores"], x["probs"])[0],
        lambda x: _composed_split(x)[0], ("in_scores", "probs")),
    "d_step_ignored": (
        lambda x: d_step(x["in_scores"], x["probs"])[1],
        lambda x: _composed_split(x)[1], ("in_scores", "probs")),
    # the beta layouts of the fixed, variable_input and variable_output
    # modes, and tied betas: one leaf passed twice
    "net_scores_fixed": _net_scores_case("beta_use_ij", "beta_ign_ij"),
    "net_scores_variable_input": _net_scores_case("beta_use_j", "beta_ign_j"),
    "net_scores_variable_output": _net_scores_case("beta_use", "beta_ign"),
    "net_scores_tied": _net_scores_case("beta_use_ij", "beta_use_ij"),
}


def _fused_operands(seed, shape=(2, 3, 2, 2, 3), dtype=np.float64,
                    saturated=False):
    """Random operands off the routing fixed point: the means are not the
    used-weighted means of the votes. ``shape`` is (batch, n_in, n_out,
    d_cov, d_out). ``saturated`` puts every score at +-LOGIT_MAX."""
    rng = np.random.default_rng(seed)
    b, i, j, c, h = shape
    x = dict(votes=rng.normal(size=(b, i, j, c, h)),
             mean=rng.normal(size=(b, j, c, h)),
             var=rng.uniform(0.3, 2.0, size=(b, j, c, h)),
             used=rng.uniform(0.05, 1.0, size=(b, i, j)))
    x.update(log_dens=rng.normal(0.0, 3.0, size=(b, i, j)),
             out_scores=rng.uniform(-4.0, 4.0, size=(b, j)),
             in_scores=rng.uniform(-4.0, 4.0, size=(b, i)),
             probs=rng.uniform(0.05, 1.0, size=(b, i, j)),
             ignored=rng.uniform(0.05, 1.0, size=(b, i, j)))
    for layout, beta_shape in (("_ij", (i, j)), ("_j", (j,)), ("", ())):
        for name in ("beta_use", "beta_ign"):
            x[name + layout] = rng.normal(size=beta_shape)
    if saturated:
        for name in ("out_scores", "in_scores"):
            x[name] = np.where(x[name] < 0, -LOGIT_MAX, LOGIT_MAX)
    return {k: v.astype(dtype) for k, v in x.items()}


def _weighted_sum(outs, seed):
    """The sum of each output of an op, one tensor or a tuple of them,
    weighted by its own random weights."""
    rng = np.random.default_rng(seed)
    terms = [T.reduce_sum(T.mul(out, rng.normal(size=out.shape).astype(
        out.dtype))) for out in (outs if isinstance(outs, tuple) else (outs,))]
    return functools.reduce(T.add, terms)


def _fused_results(fn, x, names):
    """fn's outputs on tape leaves of x, as a list, and the gradients of
    their random weighted sum with respect to ``names``."""
    tape = T.Tape()
    leaves = {k: tape.leaf(v) for k, v in x.items()}
    outs = fn(leaves)
    grads = T.backward(tape, _weighted_sum(outs, 33))
    outs = outs if isinstance(outs, tuple) else (outs,)
    return [out.data for out in outs], [grads[leaves[k].node] for k in names]


@pytest.mark.parametrize("op,wrt,saturated", [
    pytest.param(op, name, saturated,
                 id=f"{op}-{name}" + ("-saturated" if saturated else ""))
    for op, (_, _, names) in FUSED_OPS.items() for name in names
    for saturated in (False, True)
    if not saturated or {"out_scores", "in_scores"} & set(names)])
def test_fused_op_vjp_matches_central_differences(op, wrt, saturated):
    fused = FUSED_OPS[op][0]
    x = _fused_operands(30, saturated=saturated)
    consts = {k: T.tensor(v) for k, v in x.items()}

    def f(t):
        return _weighted_sum(fused(consts | {wrt: t}), 31)

    assert T.grad_check(f, x[wrt]) <= 1e-6


# (batch, n_in, n_out, d_cov, d_out): a general case, then the extents
# that the batched matmuls fold to 1 or that make them empty
FUSED_SHAPES = {"": (2, 3, 2, 2, 3), "-empty_batch": (0, 3, 2, 2, 3),
                "-one_input": (2, 1, 2, 2, 3), "-one_output": (2, 3, 1, 2, 3),
                "-scalar_poses": (2, 3, 2, 1, 1)}


@pytest.mark.parametrize("op,shape,saturated", [
    pytest.param(op, shape, False, id=op + suffix)
    for op in FUSED_OPS for suffix, shape in FUSED_SHAPES.items()] + [
    pytest.param(op, FUSED_SHAPES[""], True, id=op + "-saturated")
    for op in FUSED_OPS])
def test_fused_op_matches_composition(op, shape, saturated):
    fused, composed, names = FUSED_OPS[op]
    x = _fused_operands(32, shape, saturated=saturated)
    outs_f, grads_f = _fused_results(fused, x, names)
    outs_c, grads_c = _fused_results(composed, x, names)
    for out_f, out_c in zip(outs_f, outs_c, strict=True):
        np.testing.assert_allclose(out_f, out_c, rtol=0, atol=1e-12)
    for name, gf, gc in zip(names, grads_f, grads_c):
        np.testing.assert_allclose(gf, gc, rtol=0, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("op", FUSED_OPS)
def test_fused_op_keeps_float32(op):
    fused, _, names = FUSED_OPS[op]
    outs, grads = _fused_results(fused, _fused_operands(34, dtype=np.float32),
                                 names)
    for out in outs:
        assert out.dtype == np.float32
    for name, g in zip(names, grads):
        assert g.dtype == np.float32, name


def test_desk_route_tape_length_is_pinned():
    # one node for the votes, then per iteration: the log-density and the
    # assignment (E), used and ignored (D), and net scores, the moments
    # node and its mean and variance slices (M), 8 nodes; on the first
    # iteration, whose uniform assignment is a constant, untracked input
    # scores leave used and ignored unrecorded: 1 + 4 + 2 * 8 = 21, and
    # 1 + 6 + 2 * 8 = 23 with tracked inputs. The generic-op chains these
    # nodes replace recorded 45 and 55
    from capsem.classifier import build_constellation_classifier
    model = build_constellation_classifier(d_cov=4, d_in=4, n_classes=5)
    (p0, cfg0), (p1, cfg1) = model.layers
    rng = np.random.default_rng(34)
    for params, cfg, n, tracked_caps, nodes in ((p0, cfg0, 10, False, 21),
                                                (p1, cfg1, 32, True, 23)):
        tape = T.Tape()
        pt = params.tracked(tape)
        caps = random_caps(rng, cfg, batch=20, n=n)
        if tracked_caps:
            caps = caps.tracked(tape)
        before = len(tape)
        route(pt, caps, cfg)
        assert len(tape) - before == nodes


def _traced_backward(tape, loss):
    """backward's result, and each (source node, gradient) that a VJP
    returned on the way; -1 marks an untracked source."""
    returned = []

    def traced(vjp, inputs):
        def run(g):
            grads = tuple(vjp(g))
            returned.extend(zip(inputs, grads))
            return grads
        return run

    tape._nodes[:] = [(inputs, vjp and traced(vjp, inputs))
                      for inputs, vjp in tape._nodes]
    return T.backward(tape, loss), returned


@pytest.mark.parametrize("mode", R.MODES)
def test_votes_take_three_gradients_per_layer(mode):
    # the last M-step's, and one from each E/M boundary node, which
    # replaces the log-density's and the previous M-step's: 3, not 5
    cfg, p, caps, out_bias = random_instance(np.random.default_rng(6),
                                             mode=mode, n_iters=3)
    tape = T.Tape()
    params, caps = p.tracked(tape), caps.tracked(tape)
    votes = len(tape)
    out = route(params, caps, cfg, out_bias=out_bias)
    loss = T.add(T.reduce_sum(T.square(out.scores)),
                 T.reduce_sum(T.mul(out.poses, out.variances)))
    _, returned = _traced_backward(tape, loss)
    assert sum(src == votes for src, _ in returned) == 3


@pytest.mark.parametrize("mode", R.MODES)
def test_untracked_sources_get_no_gradient(mode):
    # data poses and scores: the votes node forms no poses gradient, nor
    # the first E/M boundary the gradient of its constant used shares
    cfg, p, caps, out_bias = random_instance(np.random.default_rng(7),
                                             mode=mode, n_iters=3)
    tape = T.Tape()
    params = p.tracked(tape)
    leaves = [leaf for _, leaf in params.items()]
    if out_bias is not None:
        out_bias = tape.leaf(out_bias)
        leaves.append(out_bias)
    out = route(params, caps, cfg, out_bias=out_bias)
    loss = T.add(T.reduce_sum(T.square(out.scores)),
                 T.reduce_sum(T.mul(out.poses, out.variances)))
    grads, returned = _traced_backward(tape, loss)
    untracked = [g for src, g in returned if src < 0]
    assert untracked and all(g is None for g in untracked)
    assert set(grads) == {leaf.node for leaf in leaves}
    # hand-built E-step inputs, each of the votes, the output scores,
    # poses and variances tracked or not: the log-density's generic node
    # and the assignment form no gradient for an untracked one either
    v = compute_votes(p, caps, cfg, out_bias).data
    rng = np.random.default_rng(8)
    values = dict(votes=v, scores=rng.normal(size=v.shape[:1] + v.shape[2:3]),
                  poses=v.mean(axis=1), variances=v.var(axis=1) + 0.5)
    for tracked in itertools.product((False, True), repeat=len(values)):
        tape = T.Tape()
        x = {name: tape.leaf(value) if t else T.tensor(value)
             for (name, value), t in zip(values.items(), tracked)}
        probs = e_step(x["votes"], R.RoutingOutput(
            x["scores"], x["poses"], x["variances"]), first_iter=False)
        if not any(tracked):
            assert probs.tape is None
            continue
        grads, returned = _traced_backward(
            tape, T.reduce_sum(T.square(probs)))
        assert all(g is None for src, g in returned if src < 0), tracked
        assert set(grads) == {t.node for t in x.values() if t.tape}, tracked


# ---------------------------------------------------------------------------
# route


def test_route_single_iteration_equals_m_step_of_uniform():
    rng = np.random.default_rng(11)
    cfg = small_fixed_config(n_iters=1)
    p = random_params(rng, cfg)
    caps = random_caps(rng, cfg)
    out = route(p, caps, cfg)

    votes = compute_votes(p, caps, cfg)
    used, ignored = d_step(caps.scores, _uniform_probs(2, 3, 2))
    expected = m_step(votes, used, ignored, p, cfg)
    np.testing.assert_array_equal(out.scores.data, expected.scores.data)
    np.testing.assert_array_equal(out.poses.data, expected.poses.data)


@pytest.mark.parametrize("tracked", [False, True],
                         ids=["untracked", "tracked"])
@pytest.mark.parametrize("tie", [False, True], ids=["untied", "tied"])
@pytest.mark.parametrize("mode", R.MODES)
def test_route_equals_its_public_phases_bit_for_bit(mode, tie, tracked):
    # route() hands each M-step's squared deviations to the next E-step;
    # the public phases compute them afresh and must give the same bits
    rng = np.random.default_rng(17)
    cfg, p, caps, out_bias = random_instance(rng, mode=mode, tie=tie,
                                             batch=3, n_iters=3)

    def run(fn):
        tape = T.Tape()
        params, batch = (p.tracked(tape), caps.tracked(tape)) if tracked \
            else (p, caps)
        out = fn(params, batch)
        values = [getattr(out, name).data
                  for name in ("scores", "poses", "variances")]
        if tracked:
            loss = T.add(T.reduce_sum(T.square(out.scores)),
                         T.reduce_sum(T.mul(out.poses, out.variances)))
            values += [g for _, g in sorted(T.backward(tape, loss).items())]
        return values

    def phases(params, batch):
        votes = compute_votes(params, batch, cfg, out_bias=out_bias)
        state = None
        for it in range(cfg.n_iters):
            probs = e_step(votes, state, first_iter=(it == 0))
            used, ignored = d_step(batch.scores, probs)
            state = m_step(votes, used, ignored, params, cfg)
        return state

    routed = run(lambda params, batch: route(params, batch, cfg,
                                             out_bias=out_bias))
    composed = run(phases)
    leaves = len(list(p.items())) + 2 if tracked else 0
    assert len(routed) == len(composed) == 3 + leaves
    for a, b in zip(routed, composed):
        assert np.array_equal(a, b)


def test_route_is_deterministic():
    rng = np.random.default_rng(12)
    cfg, p, caps, _ = random_instance(rng, mode="fixed")
    a = route(p, caps, cfg)
    b = route(p, caps, cfg)
    np.testing.assert_array_equal(a.scores.data, b.scores.data)
    np.testing.assert_array_equal(a.poses.data, b.poses.data)
    np.testing.assert_array_equal(a.variances.data, b.variances.data)


@pytest.mark.parametrize("mode", ["fixed", "variable_input",
                                  "variable_output"])
def test_route_is_batch_independent_and_repeatable(mode):
    # matrix-product blocking may follow the batch extent; no sample's
    # outputs may depend on which other samples share its batch
    rng = np.random.default_rng(15)
    cfg = RoutingConfig(n_out="variable" if mode == "variable_output" else 32,
                        n_in=10 if mode == "fixed" else None,
                        d_cov=4, d_in=4, d_out=4)
    p = random_params(rng, cfg)
    caps = random_caps(rng, cfg, batch=30, n=10)
    out_bias = (random_out_bias(rng, cfg, n_out=32)
                if mode == "variable_output" else None)
    whole = route(p, caps, cfg, out_bias=out_bias)
    again = route(p, caps, cfg, out_bias=out_bias)
    halves = [route(p, CapsuleBatch(caps.scores[part], caps.poses[part]), cfg,
                    out_bias=out_bias)
              for part in (slice(0, 15), slice(15, 30))]
    for name in ("scores", "poses", "variances"):
        np.testing.assert_array_equal(getattr(again, name).data,
                                      getattr(whole, name).data)
        joined = np.concatenate([getattr(h, name).data for h in halves])
        np.testing.assert_allclose(joined, getattr(whole, name).data,
                                   rtol=0, atol=1e-12, err_msg=name)


def test_route_permutation_invariance_variable_input():
    rng = np.random.default_rng(13)
    cfg = RoutingConfig(n_out=3, d_cov=2, d_in=2, d_out=2, n_iters=3)
    p = random_params(rng, cfg)
    caps = random_caps(rng, cfg, batch=2, n=6)
    out = route(p, caps, cfg)

    perm = rng.permutation(6)
    caps_p = CapsuleBatch(caps.scores[:, perm], caps.poses[:, perm])
    out_p = route(p, caps_p, cfg)
    np.testing.assert_allclose(out.scores.data, out_p.scores.data, atol=1e-9)
    np.testing.assert_allclose(out.poses.data, out_p.poses.data, atol=1e-9)
    np.testing.assert_allclose(out.variances.data, out_p.variances.data,
                               atol=1e-9)


def test_route_gated_off_capsule_is_inert():
    rng = np.random.default_rng(14)
    cfg = RoutingConfig(n_out=3, d_cov=2, d_in=2, d_out=2, n_iters=3)
    p = random_params(rng, cfg)
    scores = rng.uniform(-2, 2, size=(1, 5))
    poses = rng.normal(size=(1, 5, 2, 2))

    gated = scores.copy()
    gated[0, -1] = -LOGIT_MAX
    out_gated = route(p, CapsuleBatch(gated, poses), cfg)
    out_dropped = route(p, CapsuleBatch(scores[:, :-1], poses[:, :-1]), cfg)

    np.testing.assert_allclose(out_gated.scores.data, out_dropped.scores.data,
                               atol=1e-6)
    np.testing.assert_allclose(out_gated.poses.data, out_dropped.poses.data,
                               atol=1e-6)
    np.testing.assert_allclose(out_gated.variances.data,
                               out_dropped.variances.data, atol=1e-6)


def test_route_trace_invariants():
    rng = np.random.default_rng(15)
    for mode in ("fixed", "variable_input", "variable_output"):
        cfg, p, caps, out_bias = random_instance(rng, mode=mode, n_iters=3)
        _, trace = route(p, caps, cfg, out_bias=out_bias, want_trace=True)
        assert len(trace.iterations) == 3
        gate = expit(np.asarray(caps.scores))
        for step in trace.iterations:
            rows = step.probs.sum(axis=2)
            np.testing.assert_allclose(rows, 1.0, atol=1e-6)
            total = step.used + step.ignored + (1.0 - gate)[:, :, None]
            np.testing.assert_allclose(total, 1.0, atol=1e-9)
            assert np.all(step.used >= 0)
            assert np.all(step.used <= gate[:, :, None] + 1e-12)


def test_route_unbatched_caps_are_lifted():
    rng = np.random.default_rng(16)
    cfg = small_fixed_config()
    p = random_params(rng, cfg)
    scores = rng.normal(size=3)
    poses = rng.normal(size=(3, 2, 2))
    caps = CapsuleBatch(scores, poses)
    # a single sample is stored as a batch of one
    assert np.asarray(caps.scores).shape == (1, 3)
    assert np.asarray(caps.poses).shape == (1, 3, 2, 2)
    assert caps.n == 3 and caps.batched() is caps
    out = route(p, caps, cfg)
    assert out.scores.shape == (1, 2)

    batched = route(p, CapsuleBatch(scores[None], poses[None]), cfg)
    np.testing.assert_array_equal(out.scores.data, batched.scores.data)

    # tracked tensors are lifted on their tape, so gradients reach the
    # unbatched leaves
    tape = T.Tape()
    s_leaf, p_leaf = tape.leaf(scores), tape.leaf(poses)
    tracked = CapsuleBatch(s_leaf, p_leaf)
    assert tracked.scores.shape == (1, 3)
    assert tracked.poses.shape == (1, 3, 2, 2)
    assert tracked.scores.tape is tape and tracked.poses.tape is tape
    out = route(p, tracked, cfg)
    np.testing.assert_array_equal(out.scores.data, batched.scores.data)
    grads = T.backward(tape, T.reduce_sum(out.scores))
    assert grads[s_leaf.node].shape == (3,)
    assert grads[p_leaf.node].shape == (3, 2, 2)


# ---------------------------------------------------------------------------
# reference oracle


def test_route_matches_reference_on_random_small_instances():
    rng = np.random.default_rng(17)
    worst = 0.0
    for k in range(100):
        mode = ("fixed", "variable_input", "variable_output")[k % 3]
        cfg, p, caps, out_bias = random_instance(rng, mode=mode, small=True,
                                                 batch=1, n_iters=3)
        out = route(p, caps, cfg, out_bias=out_bias)
        ref = route_reference(p, caps, cfg, out_bias=out_bias)
        worst = max(
            worst,
            np.abs(out.scores.data - ref.scores.data).max(),
            np.abs(out.poses.data - ref.poses.data).max(),
            np.abs(out.variances.data - ref.variances.data).max(),
        )
    assert worst <= 1e-10


def test_reference_first_iteration_probs_are_uniform():
    # observable through a single-iteration run: the M-step sees 1/n_out
    rng = np.random.default_rng(18)
    cfg = small_fixed_config(n_iters=1)
    p = random_params(rng, cfg)
    p.beta_use[:] = 1.0
    p.beta_ign[:] = 0.0
    caps = random_caps(rng, cfg, batch=1)
    ref = route_reference(p, caps, cfg)
    expected = expit(np.asarray(caps.scores)).sum(axis=1) / cfg.n_out
    np.testing.assert_allclose(
        ref.scores.data, np.repeat(expected[:, None], cfg.n_out, axis=1),
        atol=1e-12)


def test_reference_symmetric_outputs_for_zero_weights():
    rng = np.random.default_rng(19)
    cfg = small_fixed_config(n_iters=2)
    p = init_params(cfg, seed=0)
    p.weights[:] = 0.0  # biases and betas are already zero
    caps = random_caps(rng, cfg, batch=1)
    ref = route_reference(p, caps, cfg)
    for j in range(1, cfg.n_out):
        np.testing.assert_allclose(ref.poses.data[:, j], ref.poses.data[:, 0],
                                   atol=1e-12)
        np.testing.assert_allclose(ref.scores.data[:, j],
                                   ref.scores.data[:, 0], atol=1e-12)


def test_reference_refuses_large_instances():
    cfg = RoutingConfig(n_out=16, n_in=32, d_cov=2, d_in=2, d_out=2)
    p = init_params(cfg, seed=0)
    caps = CapsuleBatch(np.zeros((1, 32)), np.zeros((1, 32, 2, 2)))
    with pytest.raises(ValueError, match="ceiling"):
        route_reference(p, caps, cfg)


# ---------------------------------------------------------------------------
# gradients


def _flatten_params(p, caps, cfg, out_bias=None):
    """Pack every differentiable input into one vector for grad_check."""
    parts = [np.asarray(p.weights).ravel()]
    shapes = [("weights", np.asarray(p.weights).shape)]
    if p.biases is not None:
        parts.append(np.asarray(p.biases).ravel())
        shapes.append(("biases", np.asarray(p.biases).shape))
    parts.append(np.atleast_1d(np.asarray(p.beta_use)).ravel())
    shapes.append(("beta_use", np.asarray(p.beta_use).shape))
    if not p.tied:
        parts.append(np.atleast_1d(np.asarray(p.beta_ign)).ravel())
        shapes.append(("beta_ign", np.asarray(p.beta_ign).shape))
    parts.append(np.asarray(caps.scores).ravel())
    shapes.append(("scores", np.asarray(caps.scores).shape))
    parts.append(np.asarray(caps.poses).ravel())
    shapes.append(("poses", np.asarray(caps.poses).shape))
    return np.concatenate(parts), shapes


def _route_loss_from_vector(vec_t, shapes, cfg, tied, out_bias=None):
    offset = 0
    tracked = {}
    for name, shape in shapes:
        size = int(np.prod(shape)) if shape else 1
        # select [offset:offset+size] via contraction with a 0/1 matrix
        sel = np.zeros((size, vec_t.shape[0]))
        sel[np.arange(size), offset + np.arange(size)] = 1.0
        piece = T.contract(T.tensor(sel), vec_t, "sv,v->s")
        tracked[name] = T.reshape(piece, shape)
        offset += size
    beta_ign = tracked["beta_use"] if tied else tracked["beta_ign"]
    params = RoutingParams(tracked["weights"], tracked.get("biases"),
                           tracked["beta_use"], beta_ign)
    caps = CapsuleBatch(tracked["scores"], tracked["poses"])
    out = route(params, caps, cfg, out_bias=out_bias)
    return T.reduce_sum(T.add(
        T.add(T.reduce_sum(T.square(out.scores)),
              T.reduce_sum(T.mul(out.poses, out.poses))),
        T.reduce_sum(out.variances),
    ))


@pytest.mark.parametrize("mode,tie", [("fixed", False), ("fixed", True),
                                      ("variable_input", False),
                                      ("variable_output", False)])
def test_route_gradients_match_finite_differences(mode, tie):
    rng = np.random.default_rng(20)
    cfg, p, caps, out_bias = random_instance(rng, mode=mode, tie=tie,
                                             small=True, batch=1, n_iters=3)
    vec, shapes = _flatten_params(p, caps, cfg)

    def f(v):
        return _route_loss_from_vector(v, shapes, cfg, tie, out_bias=out_bias)

    err = T.grad_check(f, vec)
    assert err <= 1e-4, f"{mode} tie={tie}: rel err {err}"


def test_grad_check_through_small_route_instance():
    # a 3-input / 2-output instance, differentiated w.r.t. the weights only
    rng = np.random.default_rng(21)
    cfg = RoutingConfig(n_out=2, n_in=3, d_cov=1, d_in=2, d_out=2, n_iters=3)
    p = random_params(rng, cfg)
    caps = random_caps(rng, cfg, batch=1)

    def f(w):
        params = RoutingParams(w, T.tensor(p.biases), T.tensor(p.beta_use),
                               T.tensor(p.beta_ign))
        out = route(params, caps, cfg)
        return T.reduce_sum(T.square(out.scores))

    assert T.grad_check(f, np.asarray(p.weights)) <= 1e-4


def test_tied_betas_share_gradient():
    rng = np.random.default_rng(22)
    cfg = small_fixed_config(tie_betas=True)
    p = init_params(cfg, seed=3)
    p.weights[:] = rng.normal(0, 0.5, size=p.weights.shape)
    caps = random_caps(rng, cfg)

    tape = T.Tape()
    pt = p.tracked(tape)
    assert pt.beta_ign is pt.beta_use
    out = route(pt, caps, cfg)
    loss = T.reduce_sum(T.square(out.scores))
    grads = T.backward(tape, loss)
    g_tied = grads[pt.beta_use.node]

    # untied twin: gradient of the shared parameter equals the sum of parts
    tape2 = T.Tape()
    w = tape2.leaf(p.weights)
    b = tape2.leaf(p.biases)
    bu = tape2.leaf(p.beta_use)
    bi = tape2.leaf(np.array(p.beta_ign, copy=True))
    out2 = route(RoutingParams(w, b, bu, bi), caps, cfg)
    grads2 = T.backward(tape2, T.reduce_sum(T.square(out2.scores)))
    np.testing.assert_allclose(g_tied, grads2[bu.node] + grads2[bi.node],
                               atol=1e-12)


# ---------------------------------------------------------------------------
# param_count


def test_param_count_fixed_mode_arithmetic():
    cfg = RoutingConfig(n_out=3, n_in=2, d_cov=1, d_in=2, d_out=2)
    c = param_count(cfg)
    assert c.weights == 24
    assert c.biases == 12
    assert c.betas == 12
    assert c.total == 48


def test_param_count_variable_input_divides_by_n_in():
    fixed = RoutingConfig(n_out=3, n_in=2, d_cov=1, d_in=2, d_out=2)
    shared = RoutingConfig(n_out=3, n_in=None, d_cov=1, d_in=2, d_out=2)
    cf, cs = param_count(fixed), param_count(shared)
    assert cs.weights == 12
    assert cs.biases == 6
    assert cs.betas == 6
    assert cf.weights == cs.weights * fixed.n_in
    assert cf.total == cs.total * fixed.n_in


def test_param_count_variable_output_weight_factor():
    fixed = RoutingConfig(n_out=3, n_in=2, d_cov=1, d_in=2, d_out=2)
    var_out = RoutingConfig(n_out="variable", d_cov=1, d_in=2, d_out=2)
    assert param_count(fixed).weights == param_count(var_out).weights * 2 * 3
    assert param_count(var_out).biases == 0


def test_param_count_tied_betas_halved():
    untied = RoutingConfig(n_out=3, n_in=2, d_cov=1, d_in=2, d_out=2)
    tied = RoutingConfig(n_out=3, n_in=2, d_cov=1, d_in=2, d_out=2,
                         tie_betas=True)
    assert param_count(tied).betas * 2 == param_count(untied).betas


# ---------------------------------------------------------------------------
# config validation


def test_config_variable_output_implies_variable_input():
    with pytest.raises(ConfigError):
        RoutingConfig(n_out="variable", n_in=4, d_cov=1, d_in=2, d_out=2)


def test_config_rejects_bad_dims():
    base = dict(n_out=2, d_cov=1, d_in=2, d_out=2)
    for bad in (dict(d_cov=0), dict(n_iters=0), dict(n_iters=1.5),
                dict(d_in=True), dict(d_out=2.0), dict(n_out=True),
                dict(n_in=3.0), dict(tie_betas="no"),
                dict(var_floor=float("nan")), dict(var_floor="0"),
                dict(var_floor=10 ** 400), dict(denom_eps=float("inf"))):
        with pytest.raises(ConfigError):
            RoutingConfig(**{**base, **bad})


@pytest.mark.parametrize("tie", [False, True])
@pytest.mark.parametrize("mode", R.MODES)
def test_mode_config_rebuilds_each_mode(mode, tie):
    cfg = random_config(np.random.default_rng(3), mode=mode, tie=tie)
    # a dim the mode does not use is ignored, as a stored 0 is
    n_in = cfg.n_in or 7
    n_out = 5 if cfg.n_out == "variable" else cfg.n_out
    rebuilt = R.mode_config(cfg.mode, n_in, n_out, d_cov=cfg.d_cov,
                            d_in=cfg.d_in, d_out=cfg.d_out,
                            n_iters=cfg.n_iters, tie_betas=cfg.tie_betas,
                            var_floor=cfg.var_floor, denom_eps=cfg.denom_eps)
    assert rebuilt == cfg
    assert rebuilt.mode == mode


def test_mode_config_rejects_unknown_mode():
    with pytest.raises(ConfigError, match="'bogus'"):
        R.mode_config("bogus", 3, 2, d_cov=1, d_in=2, d_out=2)


def test_caps_batch_validates_shapes():
    with pytest.raises(ShapeError):
        CapsuleBatch(np.zeros((2, 3)), np.zeros((2, 4, 1, 1)))
    with pytest.raises(ShapeError):
        CapsuleBatch(np.zeros(3), np.zeros((2, 3, 1, 1)))


def test_caps_batch_rejects_nonfinite():
    from capsem.errors import DomainError
    with pytest.raises(DomainError):
        CapsuleBatch(np.array([[np.inf]]), np.zeros((1, 1, 1, 1)))


def test_votes_dim_mismatch_reports_expected_and_found():
    cfg = small_fixed_config()
    p = init_params(cfg, seed=0)
    caps = CapsuleBatch(np.zeros((1, 3)), np.zeros((1, 3, 2, 4)))
    with pytest.raises(ShapeError, match="d_in"):
        compute_votes(p, caps, cfg)


def test_route_with_all_inputs_gated_off_stays_finite():
    # the documented degeneracy: sum of used shares near zero is handled
    # by the denominator epsilon; outputs collapse to (0, 0, floor)
    rng = np.random.default_rng(101)
    cfg = small_fixed_config(var_floor=1e-8)
    p = random_params(rng, cfg)
    caps = CapsuleBatch(np.full((1, 3), -LOGIT_MAX),
                        rng.normal(size=(1, 3, 2, 2)))
    out = route(p, caps, cfg)
    assert np.all(np.isfinite(out.scores.data))
    assert np.all(np.isfinite(out.poses.data))
    np.testing.assert_allclose(out.scores.data, 0.0, atol=1e-10)
    assert np.all(out.variances.data >= cfg.var_floor)


def test_zero_var_floor_with_zero_variance_is_a_domain_error():
    # all-zero poses give all-zero votes, hence zero output variances;
    # with no floor the second E-step must refuse them, not take log(0)
    cfg = small_fixed_config(var_floor=0.0)
    caps = CapsuleBatch(np.zeros((2, 3)), np.zeros((2, 3, 2, 2)))
    with pytest.raises(DomainError, match="strictly positive"):
        route(init_params(cfg, seed=0), caps, cfg)


def test_votes_too_close_to_invert_their_variance_are_a_domain_error():
    # votes about 1e-156 apart give variances near 1e-312, below the
    # float64 range of 0.5 / var; with no floor the E-step must refuse
    # them and name the floor, not overflow
    cfg = small_fixed_config(var_floor=0.0)
    rng = np.random.default_rng(5)
    caps = CapsuleBatch(np.zeros((2, 3)),
                        1e-156 * rng.normal(size=(2, 3, 2, 2)))
    with pytest.raises(DomainError, match="var_floor"):
        route(init_params(cfg, seed=0), caps, cfg)


@pytest.mark.parametrize("mode", R.MODES)
@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1),
       # log10 of how far apart the votes are
       spread_exponent=st.floats(-175, -8),
       offset=st.sampled_from([0.0, 1.0]))
@example(seed=0, spread_exponent=-150.0, offset=0.0)
def test_near_zero_variances_without_a_floor_are_finite_or_a_domain_error(
        mode, seed, spread_exponent, offset):
    # votes offset + spread * (P W + B), so the output variances are near
    # spread^2, or exactly zero once offset + spread rounds to offset;
    # with no floor the loop must stay finite or refuse, never give NaN
    rng = np.random.default_rng(seed)
    cfg, p, caps, out_bias = random_instance(rng, mode=mode, small=True)
    cfg = dataclasses.replace(cfg, var_floor=0.0)
    spread = 10.0 ** spread_exponent
    p = RoutingParams.from_items(
        (name, spread * value if name == "weights"
         else offset + spread * value if name == "biases" else value)
        for name, value in p.items())
    if out_bias is not None:
        out_bias = offset + spread * out_bias
    try:
        out = route(p, caps, cfg, out_bias=out_bias)
    except DomainError:
        return
    for value in (out.scores, out.poses, out.variances):
        assert np.all(np.isfinite(value.data))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_route_overflow_is_a_domain_error():
    # finite poses whose squares overflow must not route to NaN silently
    rng = np.random.default_rng(104)
    cfg = small_fixed_config()
    p = random_params(rng, cfg)
    poses = rng.normal(size=(2, 3, 2, 2))
    scores = rng.uniform(-2, 2, size=(2, 3))
    ok = route(p, CapsuleBatch(scores, 1e100 * poses), cfg)
    assert np.all(np.isfinite(ok.scores.data))
    with pytest.raises(DomainError, match="non-finite"):
        route(p, CapsuleBatch(scores, 1e200 * poses), cfg)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("mode", ["fixed", "variable_input",
                                  "variable_output"])
@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1),
       # log10 of the pose scale; squares overflow from about 154 on
       pose_exponent=st.integers(-3, 200) | st.integers(140, 200),
       scores=st.lists(st.sampled_from([-LOGIT_MAX, LOGIT_MAX])
                       | st.floats(-LOGIT_MAX, LOGIT_MAX),
                       min_size=1, max_size=8))
@example(seed=0, pose_exponent=200, scores=[LOGIT_MAX, -LOGIT_MAX])
def test_route_finite_in_gives_finite_out_or_domain_error(
        mode, seed, pose_exponent, scores):
    # poses across the finite range and scores at the clamp: either every
    # output is finite or the overflow is reported, never a NaN
    rng = np.random.default_rng(seed)
    cfg, p, caps, out_bias = random_instance(rng, mode=mode, small=True)
    caps = CapsuleBatch(np.resize(scores, caps.scores.shape),
                        10.0 ** pose_exponent * caps.poses)
    try:
        out = route(p, caps, cfg, out_bias=out_bias)
    except DomainError:
        return
    for value in (out.scores, out.poses, out.variances):
        assert np.all(np.isfinite(value.data))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("mode", R.MODES)
@settings(max_examples=50)
@given(seed=st.integers(0, 2**32 - 1),
       # log10 of the pose scale, up to 1e40; from about 1e147 the
       # forward stays finite but the backward overflows
       pose_exponent=st.integers(-3, 40) | st.integers(30, 40),
       scores=st.lists(st.sampled_from([-LOGIT_MAX, LOGIT_MAX])
                       | st.floats(-LOGIT_MAX, LOGIT_MAX),
                       min_size=1, max_size=8))
@example(seed=0, pose_exponent=40, scores=[LOGIT_MAX, -LOGIT_MAX])
def test_route_gradients_are_finite_or_a_domain_error(
        mode, seed, pose_exponent, scores):
    # saturated gates and assignments must not turn a finite forward into
    # a NaN or infinite gradient for any leaf
    rng = np.random.default_rng(seed)
    cfg, p, caps, out_bias = random_instance(rng, mode=mode, small=True)
    caps = CapsuleBatch(np.resize(scores, caps.scores.shape),
                        10.0 ** pose_exponent * caps.poses)
    tape = T.Tape()
    params, batch = p.tracked(tape), caps.tracked(tape)
    leaves = [*dict(params.items()).values(), batch.scores, batch.poses]
    if out_bias is not None:
        out_bias = tape.leaf(out_bias)
        leaves.append(out_bias)
    try:
        out = route(params, batch, cfg, out_bias=out_bias)
    except DomainError:
        return
    loss = T.add(T.reduce_sum(T.mul(out.scores, 0.5)),
                 T.reduce_sum(T.add(out.poses, out.variances)))
    grads = T.backward(tape, loss)
    for leaf in leaves:
        assert np.all(np.isfinite(grads[leaf.node]))


def test_route_in_float32_mode():
    # 32-bit runs by passing float32 params and capsules; the loop stays
    # finite and close to the 64-bit result
    rng = np.random.default_rng(100)
    cfg = small_fixed_config()
    p64 = random_params(rng, cfg)
    caps64 = random_caps(rng, cfg)
    out64 = route(p64, caps64, cfg)

    p32 = _as_float32(p64)
    caps32 = CapsuleBatch(np.asarray(caps64.scores, dtype=np.float32),
                          np.asarray(caps64.poses, dtype=np.float32))
    out32 = route(p32, caps32, cfg)
    assert out32.scores.dtype == np.float32
    assert np.all(np.isfinite(out32.scores.data))
    np.testing.assert_allclose(out32.scores.data, out64.scores.data,
                               atol=1e-3)
    np.testing.assert_allclose(out32.poses.data, out64.poses.data, atol=1e-3)
    # float32 capsules with float64 params promote to float64
    mixed = route(p64, caps32, cfg)
    for value in (mixed.scores, mixed.poses, mixed.variances):
        assert value.dtype == np.float64


def _as_float32(params):
    return RoutingParams.from_items(
        (name, np.asarray(value, dtype=np.float32))
        for name, value in params.items())


@pytest.mark.parametrize("mode", ["fixed", "variable_input",
                                  "variable_output"])
def test_float32_stays_float32_through_backward(mode):
    rng = np.random.default_rng(102)
    cfg, p64, caps, out_bias = random_instance(rng, mode=mode)
    tape = T.Tape()
    params = _as_float32(p64).tracked(tape)
    caps = CapsuleBatch(np.asarray(caps.scores, dtype=np.float32),
                        np.asarray(caps.poses, dtype=np.float32)).tracked(tape)
    if out_bias is not None:
        out_bias = tape.leaf(out_bias.astype(np.float32))
    out = route(params, caps, cfg, out_bias=out_bias)
    for value in (out.scores, out.poses, out.variances):
        assert value.dtype == np.float32
    loss = T.add(T.add(T.reduce_sum(T.square(out.scores)),
                       T.reduce_sum(T.square(out.poses))),
                 T.reduce_sum(out.variances))
    grads = T.backward(tape, loss)
    leaves = dict(params.items(), scores=caps.scores, poses=caps.poses)
    for name, leaf in leaves.items():
        assert grads[leaf.node].dtype == np.float32, name


# ---------------------------------------------------------------------------
# the pooled 5-D buffers, routing's workspace

# (weights and betas, biases or out_bias, capsules): in the last case the
# votes matmul is float32 and the votes float64, so the matmul does not
# write into the votes' pooled buffer
WORKSPACE_DTYPES = {"float64": ("f8", "f8", "f8"),
                    "float32": ("f4", "f4", "f4"),
                    "float32_params_float64_caps": ("f4", "f4", "f8"),
                    "float64_bias": ("f4", "f8", "f4")}


def _workspace_case(mode, dtypes, seed=31):
    """Config, params, out_bias and batches of 1, 100, 50 and 0 samples
    at the desk model's layer-0 shapes, in the given dtypes."""
    rng = np.random.default_rng(seed)
    w, b, c = dtypes
    cfg = RoutingConfig(n_out="variable" if mode == "variable_output" else 32,
                        n_in=10 if mode == "fixed" else None,
                        d_cov=4, d_in=4, d_out=4)
    p = RoutingParams.from_items(
        (name, value.astype(b if name == "biases" else w))
        for name, value in random_params(rng, cfg).items())
    out_bias = (random_out_bias(rng, cfg, n_out=32).astype(b)
                if mode == "variable_output" else None)
    caps = random_caps(rng, cfg, batch=100, n=10)
    scores, poses = (np.asarray(x, dtype=c) for x in (caps.scores, caps.poses))
    return cfg, p, out_bias, [CapsuleBatch(scores[:k], poses[:k])
                              for k in (1, 100, 50, 0)]


def _routed_arrays(result):
    """Every array a route() call returns, outputs then trace, by name."""
    out, trace = result if isinstance(result, tuple) else (result, None)
    arrays = {name: getattr(out, name).data
              for name in ("scores", "poses", "variances")}
    for k, step in enumerate(trace.iterations if trace else ()):
        arrays.update((f"{name}{k}", value)
                      for name, value in vars(step).items())
    return arrays


def _free_buffers():
    """The pooled buffers that the pool alone holds."""
    # 2 references: the pool entry's and getrefcount's argument
    return [T._POOL[k][0] for k in range(len(T._POOL))
            if sys.getrefcount(T._POOL[k][0]) == 2]


def test_workspace_changes_no_bit():
    # each call routes first in the pool that the calls before it left,
    # across modes, dtypes and batch sizes that grow its buffers and then
    # reuse them in part, and then in an empty pool; both results must be
    # equal, dtype included
    pooled = False
    for mode in R.MODES:
        for dtypes in WORKSPACE_DTYPES.values():
            cfg, p, out_bias, batches = _workspace_case(mode, dtypes)
            for k, caps in enumerate(batches):
                kw = dict(out_bias=out_bias, want_trace=k == 2)
                got = _routed_arrays(route(p, caps, cfg, **kw))
                T._POOL.clear()
                want = _routed_arrays(route(p, caps, cfg, **kw))
                pooled |= bool(T._POOL)
                assert got.keys() == want.keys()
                for name, value in want.items():
                    where = (mode, dtypes, len(T.asarray(caps.scores)), name)
                    assert got[name].dtype == value.dtype, where
                    assert np.array_equal(got[name], value), where
    assert pooled


@pytest.mark.parametrize("mode", R.MODES)
def test_nothing_returned_aliases_the_workspace(mode):
    # an untracked route leaves every buffer it took free for reuse, and
    # no array it returns or traces shares memory with one
    cfg, p, out_bias, batches = _workspace_case(mode,
                                                WORKSPACE_DTYPES["float64"])
    T._POOL.clear()
    for caps in batches[1:3]:
        result = route(p, caps, cfg, out_bias=out_bias, want_trace=True)
        assert result[0].fit is None
        routed = _routed_arrays(result)
        free = _free_buffers()
        assert free and len(free) == len(T._POOL)
        for name, value in routed.items():
            assert not any(np.shares_memory(value, buf) for buf in free), name
        del free  # else the next call could not reuse them


def test_a_tracked_route_makes_one_squared_deviations_buffer(monkeypatch):
    # no VJP reads (v - mu)^2, so each M-step of a tracked route writes
    # one pooled buffer; no later request takes the votes that a live
    # tape reads. Only addresses are kept, which hold no buffer; with no
    # backward run, every v - mu formed is an M-step's (v - mu)^2
    cfg, p, _, batches = _workspace_case("fixed", WORKSPACE_DTYPES["float64"])
    seen = {"votes": [], "sq": []}

    def spy(name, real):
        def call(*args):
            out = real(*args)
            seen[name].append(T.asarray(out).ctypes.data)
            return out
        return call

    monkeypatch.setattr(R, "compute_votes", spy("votes", R.compute_votes))
    monkeypatch.setattr(R, "_deviations", spy("sq", R._deviations))
    tape = T.Tape()
    for _ in range(2):
        route(p.tracked(tape), batches[1].tracked(tape), cfg)
    first, second = seen["sq"][:3], seen["sq"][3:]
    assert len(first) == len(second) == 3
    assert len(set(first)) == len(set(second)) == 1
    # the second call's votes may take the first call's free (v - mu)^2
    votes = seen["votes"]
    assert len(set(votes)) == 2
    assert first[0] != votes[0] and second[0] not in votes


def _gradients_of_a_tracked_route(p, caps, cfg, out_bias, between=None):
    """Every leaf gradient of one tracked route, after ``between()`` ran
    between its forward and its backward."""
    tape = T.Tape()
    params, caps = p.tracked(tape), caps.tracked(tape)
    leaves = dict(params.items(), scores=caps.scores, poses=caps.poses)
    if out_bias is not None:
        out_bias = leaves["out_bias"] = tape.leaf(out_bias)
    out = route(params, caps, cfg, out_bias=out_bias)
    loss = T.add(T.reduce_sum(T.square(out.scores)),
                 T.reduce_sum(T.mul(out.poses, out.variances)))
    if between is not None:
        between()
    grads = T.backward(tape, loss)
    return {name: grads[leaf.node] for name, leaf in leaves.items()}


@pytest.mark.parametrize("mode", R.MODES)
def test_routes_between_forward_and_backward_change_no_gradient(mode):
    # a recorded tape's votes and the buffers its backward sums into stay
    # its own while tracked and untracked routes of the same shapes, and
    # their backward, run on other inputs
    cfg, p, out_bias, batches = _workspace_case(mode,
                                                WORKSPACE_DTYPES["float64"])
    caps = batches[1]
    other = CapsuleBatch(caps.scores[::-1] * 0.5, caps.poses[::-1] * 2.0)

    def between():
        route(p, other, cfg, out_bias=out_bias, want_trace=True)
        _gradients_of_a_tracked_route(p, other, cfg, out_bias)
        route(p, other, cfg, out_bias=out_bias)

    want = _gradients_of_a_tracked_route(p, caps, cfg, out_bias)
    got = _gradients_of_a_tracked_route(p, caps, cfg, out_bias, between)
    assert got.keys() == want.keys()
    for name, value in want.items():
        assert got[name].dtype == value.dtype, name
        assert np.array_equal(got[name], value), name


def _agree_across_threads(run, inputs, serial):
    """One thread per input ``run``s it four times, with the interpreter
    switching threads as often as it can; every result must equal that
    input's entry of ``serial``, dtype included."""
    results = [[] for _ in inputs]

    def work(k):
        for _ in range(4):
            results[k].append(run(inputs[k]))

    threads = [threading.Thread(target=work, args=(k,))
               for k in range(len(inputs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for k, runs in enumerate(results):
        assert len(runs) == 4
        for got in runs:
            for want_part, got_part in zip(serial[k], got):
                for name, value in want_part.items():
                    assert got_part[name].dtype == value.dtype, (k, name)
                    assert np.array_equal(got_part[name], value), (k, name)


def test_threads_routing_different_inputs_get_the_serial_results(
        monkeypatch):
    # four threads, each routing its own input tracked and untracked in
    # turn; then each routing a larger input untracked, split into more
    # parts than there are cores, against unsplit results
    cfg, p, out_bias, batches = _workspace_case("variable_output",
                                                WORKSPACE_DTYPES["float64"])
    caps = batches[1]
    inputs = [CapsuleBatch(caps.scores[::-1] * 0.5 ** k,
                           caps.poses[::-1] * 2.0 ** k) for k in range(4)]

    def run(c):
        return (_routed_arrays(route(p, c, cfg, out_bias=out_bias,
                                     want_trace=True)),
                _gradients_of_a_tracked_route(p, c, cfg, out_bias))

    _agree_across_threads(run, inputs, [run(c) for c in inputs])

    wide = [CapsuleBatch(np.concatenate([c.scores, c.scores[::-1]]),
                         np.concatenate([c.poses, c.poses[::-1]]))
            for c in inputs]

    def run_untracked(c):
        return (_routed_arrays(route(p, c, cfg, out_bias=out_bias,
                                     want_trace=True)),)

    monkeypatch.setattr(R, "_cpu_count", lambda: 1)
    serial = [run_untracked(c) for c in wide]
    monkeypatch.setattr(R, "_cpu_count", lambda: 8)
    assert 2 * len(caps.scores) // R.SPLIT_MIN > 2  # parts per route
    _agree_across_threads(run_untracked, wide, serial)


# ---------------------------------------------------------------------------
# untracked routes split into per-CPU parts


def _split_case(mode, dtype, batch):
    """Config, params, out_bias and ``batch`` capsules at the desk
    model's layer-0 shapes, all in ``dtype``."""
    cfg, p, out_bias, _ = _workspace_case(mode, (dtype,) * 3)
    caps = random_caps(np.random.default_rng(batch), cfg, batch=batch, n=10)
    return cfg, p, out_bias, CapsuleBatch(
        *(np.asarray(x, dtype=dtype) for x in (caps.scores, caps.poses)))


def _part_sizes(monkeypatch):
    """A list that gets the batch size of each part later routes run."""
    sizes = []
    real = R._iterate

    def spy(params, caps, *args):
        sizes.append(len(caps.scores))
        return real(params, caps, *args)

    monkeypatch.setattr(R, "_iterate", spy)
    return sizes


@pytest.mark.parametrize("dtype", ["f8", "f4"])
@pytest.mark.parametrize("mode", R.MODES)
def test_split_route_equals_the_unsplit_route_bit_for_bit(
        monkeypatch, mode, dtype):
    sizes = _part_sizes(monkeypatch)
    for batch in (100, 101, 150):
        cfg, p, out_bias, caps = _split_case(mode, dtype, batch)
        for want_trace in (False, True):
            kw = dict(out_bias=out_bias, want_trace=want_trace)
            monkeypatch.setattr(R, "_cpu_count", lambda: 1)
            want = _routed_arrays(route(p, caps, cfg, **kw))
            for cpus in (2, 4):
                monkeypatch.setattr(R, "_cpu_count", lambda: cpus)
                sizes.clear()
                threads = threading.active_count()
                got = _routed_arrays(route(p, caps, cfg, **kw))
                # every worker has been joined
                assert threading.active_count() == threads
                n = min(cpus, batch // R.SPLIT_MIN)
                assert n >= 2 and sorted(sizes) == sorted(
                    batch * (k + 1) // n - batch * k // n for k in range(n))
                assert got.keys() == want.keys()
                for name, value in want.items():
                    where = (batch, want_trace, cpus, name)
                    assert got[name].dtype == value.dtype == np.dtype(dtype)
                    assert np.array_equal(got[name], value), where


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("scale, var_floor, match", [
    (0.0, 0.0, "strictly positive"),  # zero variances, in an E-step
    (1e200, 1e-8, "non-finite"),  # overflow, in the joined outputs
])
def test_an_error_in_a_later_part_propagates(monkeypatch, scale, var_floor,
                                             match):
    # the first part routes cleanly; the second part's capsules all give
    # zero votes (zero poses, zero biases) or overflow once squared
    cfg, p, _, caps = _split_case("variable_input", "f8", 2 * R.SPLIT_MIN)
    cfg = dataclasses.replace(cfg, var_floor=var_floor)
    p = dataclasses.replace(p, biases=np.zeros_like(p.biases))
    poses = caps.poses.copy()
    poses[R.SPLIT_MIN:] *= scale
    bad = CapsuleBatch(caps.scores, poses)
    first = CapsuleBatch(caps.scores[:R.SPLIT_MIN], poses[:R.SPLIT_MIN])
    monkeypatch.setattr(R, "_cpu_count", lambda: 1)
    assert np.all(np.isfinite(route(p, first, cfg).poses.data))
    with pytest.raises(DomainError, match=match) as serial:
        route(p, bad, cfg)
    monkeypatch.setattr(R, "_cpu_count", lambda: 2)
    sizes = _part_sizes(monkeypatch)
    with pytest.raises(DomainError, match=match) as split:
        route(p, bad, cfg)
    assert sizes == [R.SPLIT_MIN, R.SPLIT_MIN]
    assert str(split.value) == str(serial.value)


@pytest.mark.parametrize("tracked", ["params", "scores", "poses", "out_bias",
                                     None])
def test_tracked_and_small_routes_start_no_thread(monkeypatch, tracked):
    def refuse(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr(R, "ThreadPoolExecutor", refuse)
    monkeypatch.setattr(R, "_cpu_count", lambda: 4)
    batch = 2 * R.SPLIT_MIN - (tracked is None)
    cfg, p, out_bias, caps = _split_case("variable_output", "f8", batch)
    tape = T.Tape()
    if tracked == "params":
        p = p.tracked(tape)
    elif tracked == "out_bias":
        out_bias = tape.leaf(out_bias)
    elif tracked is not None:
        caps = CapsuleBatch(*(tape.leaf(x) if name == tracked else x
                              for name, x in (("scores", caps.scores),
                                              ("poses", caps.poses))))
    out = route(p, caps, cfg, out_bias=out_bias)
    assert (out.scores.tape is None) == (tracked is None)


def test_importing_capsem_starts_no_thread():
    src = os.path.dirname(os.path.dirname(os.path.abspath(R.__file__)))
    code = "import threading, capsem.cli; assert threading.active_count() == 1"
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                   env={**os.environ, "PYTHONPATH": src})
