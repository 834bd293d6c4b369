"""EM routing by agreement between capsule layers.

One routing layer turns ``n_in`` input capsules (a pose matrix of shape
d_cov x d_in plus a pre-activation score each) into ``n_out`` output
capsules (pose d_cov x d_out, score, and per-component variance).
:func:`route` is :func:`compute_votes` once per call, then n_iters rounds
of the public :func:`e_step`, :func:`d_step` and :func:`m_step`:

  E-step  assign each input a probability distribution over outputs,
          from the outputs' Gaussian models and activations;
  D-step  split each input's activated mass into a share used and a
          share ignored by every output;
  M-step  refit each output's score, mean, and variance from the
          shares it uses.

Every phase records tape ops, so gradients flow through every iteration
of the loop. Each op is fused, built on :func:`capsem.tensor.record`: it
computes its formula in numpy and records one tape node with a
closed-form VJP, where a composition of generic ops would record many
(and keep a 5-D (batch, n_in, n_out, d_cov, d_out) temporary for some).
The nodes are the votes, once per call, then per iteration the E-step's
Gaussian log-density and assignment, the D-step's used and ignored
shares, and the M-step's net scores, its mean and variance as one node,
and a slice node for each. The first assignment is a uniform constant,
so a layer records 8 n_iters - 1 nodes (23 at n_iters = 3), and 21 when
the input scores are untracked too, as the first D-step is then
constant. After any M-step, the next log-density scores the votes with
that M-step's (v - mu)^2; after a tracked M-step, it is one node over
that M-step's votes and used shares, whose VJP forms v - mu once for
both, so the votes take 3 gradients per layer at n_iters = 3, not 5. No
fused VJP forms a gradient for an untracked source. Most sums over
inputs and pose components run as batched matmuls (``T._product``).
The 5-D arrays (the votes, (v - mu)^2, the VJPs' v - mu) are pooled by
:func:`capsem.tensor._buffer`, reused only once no array, Tensor or tape
closure holds them.

Routing never mixes samples. So :func:`route` splits an untracked call
(no tracked parameter, capsule or ``out_bias``) of ``batch`` samples
into ``min(CPUs, batch // SPLIT_MIN)`` contiguous parts when that is at
least 2, routes them on parallel threads (numpy releases the GIL in the
5-D passes), and joins their outputs and traces along the batch. The
result equals the whole batch's bit for bit, so it does not depend on
the CPU count. Tracked calls, and smaller batches, run on one thread.

Three parameter-sharing modes exist:

  fixed           n_in and n_out known; weights indexed per (input, output);
  variable_input  n_in unknown; weights shared across inputs;
  variable_output n_in and n_out unknown; one weight matrix shared across
                  all pairs, symmetry broken by a caller-supplied per-output
                  bias (no learned per-output parameters exist).

``mode_config`` is the one mapping from a mode name and dims to a
RoutingConfig; the file container and the CLI build their configs with it.
"""

from __future__ import annotations

import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Literal, Union

import numpy as np

from . import tensor as T
from .errors import ConfigError, DomainError, ShapeError
from .tensor import Tensor

# Scores are clamped to this range at data-ingestion boundaries so the
# logistic gate can fully saturate without +-inf arithmetic.
LOGIT_MAX = 30.0

_TWO_PI = 2.0 * math.pi

# The fewest samples per part of a split untracked route (see route()).
# The desk model's two-layer untracked forward, one BLAS thread, 2-CPU
# VM, median of five 3-s processes per side: split in two parts of 35,
# 40, 50 and 100 samples it ran 1.15x, 1.26x, 1.21x and 1.20x as fast as
# unsplit; parts of 25 and 30 broke even, and parts of 20 ran 0.79x as
# fast (thread hand-offs outweigh the parts' work).
SPLIT_MIN = 40


def clamp_scores(scores: np.ndarray) -> np.ndarray:
    return np.clip(scores, -LOGIT_MAX, LOGIT_MAX)


def is_count(value, least: int = 1) -> bool:
    """An int, not a bool, of at least ``least``."""
    return type(value) is int and value >= least


def is_finite_number(value) -> bool:
    """An int or float, not a bool, in the finite float range."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and abs(value) <= sys.float_info.max


@dataclass(frozen=True)
class RoutingConfig:
    """Dimensions and knobs of one routing layer.

    ``n_in=None`` selects variable-input weight sharing; ``n_out="variable"``
    additionally drops the per-output parameters (and implies variable
    input). ``var_floor`` is added to every output variance, ``denom_eps``
    to every M-step denominator, so degenerate instances (all votes equal,
    or all inputs gated off) stay finite.
    """

    n_out: Union[int, Literal["variable"]]
    d_cov: int
    d_in: int
    d_out: int
    n_in: int | None = None
    n_iters: int = 3
    tie_betas: bool = False
    var_floor: float = 1e-8
    denom_eps: float = 1e-12

    def __post_init__(self):
        for name in ("d_cov", "d_in", "d_out", "n_iters"):
            if not is_count(getattr(self, name)):
                raise ConfigError(f"{name} must be an int >= 1")
        if self.n_out == "variable":
            if self.n_in is not None:
                raise ConfigError("variable n_out requires variable n_in")
        elif not is_count(self.n_out):
            raise ConfigError("n_out must be a positive int or 'variable'")
        if self.n_in is not None and not is_count(self.n_in):
            raise ConfigError("n_in must be a positive int when given")
        if not isinstance(self.tie_betas, bool):
            raise ConfigError("tie_betas must be a bool")
        if not (is_finite_number(self.var_floor) and self.var_floor >= 0):
            raise ConfigError("var_floor must be a finite number >= 0")
        if not (is_finite_number(self.denom_eps) and self.denom_eps > 0):
            raise ConfigError("denom_eps must be a finite number > 0")

    @property
    def mode(self) -> str:
        if self.n_out == "variable":
            return "variable_output"
        return "fixed" if self.n_in is not None else "variable_input"


MODES = ("fixed", "variable_input", "variable_output")


def mode_config(mode: str, n_in, n_out, **fields) -> RoutingConfig:
    """The config of a ``mode`` layer: ``n_in`` is read only in fixed mode,
    ``n_out`` in every mode but variable_output."""
    if mode not in MODES:
        raise ConfigError(f"unknown sharing mode {mode!r}")
    return RoutingConfig(
        n_out="variable" if mode == "variable_output" else n_out,
        n_in=n_in if mode == "fixed" else None, **fields)


@dataclass
class RoutingParams:
    """Learnable state of one layer; fields are ndarrays or tracked tensors.

    :func:`param_shapes` gives the shape of each field :meth:`items`
    yields, per sharing mode. ``biases`` is None in variable_output mode,
    and ``beta_ign`` is the identical object as ``beta_use`` when betas
    are tied.
    """

    weights: Union[np.ndarray, Tensor]
    biases: Union[np.ndarray, Tensor, None]
    beta_use: Union[np.ndarray, Tensor]
    beta_ign: Union[np.ndarray, Tensor]

    @property
    def tied(self) -> bool:
        return self.beta_ign is self.beta_use

    def items(self):
        """Yield (name, value) for each independent learned field, in
        field order: absent biases and a tied beta_ign are skipped."""
        yield "weights", self.weights
        if self.biases is not None:
            yield "biases", self.biases
        yield "beta_use", self.beta_use
        if not self.tied:
            yield "beta_ign", self.beta_ign

    @classmethod
    def from_items(cls, items) -> "RoutingParams":
        """Inverse of :meth:`items`: a missing ``biases`` is None, a
        missing ``beta_ign`` ties it to ``beta_use``."""
        fields = dict(items)
        beta_use = fields["beta_use"]
        return cls(fields["weights"], fields.get("biases"), beta_use,
                   fields.get("beta_ign", beta_use))

    def tracked(self, tape: T.Tape) -> "RoutingParams":
        """Re-wrap every field as a tracked leaf on ``tape``."""
        return RoutingParams.from_items(
            (name, tape.leaf(value)) for name, value in self.items())


@dataclass(frozen=True)
class ParamCount:
    weights: int
    biases: int
    betas: int

    @property
    def total(self) -> int:
        return self.weights + self.biases + self.betas


class CapsuleBatch:
    """Input scores and capsules of a batch of samples.

    ``scores`` has shape (batch, n) and ``poses`` (batch, n, d_cov, d_in);
    a single sample, scores (n,) with poses (n, d_cov, d_in), is stored
    as a batch of one. Scores are pre-activation logits; absent (padded)
    capsules are marked with a score of -LOGIT_MAX, never -inf. All
    values must be finite.
    """

    def __init__(self, scores, poses):
        sdata, pdata = T.asarray(scores), T.asarray(poses)
        if pdata.ndim not in (3, 4) or sdata.ndim != pdata.ndim - 2:
            raise ShapeError(
                f"expected scores (batch, n) with poses (batch, n, d_cov, d_in) "
                f"or unbatched equivalents, got {sdata.shape} and {pdata.shape}"
            )
        if sdata.shape != pdata.shape[:-2]:
            raise ShapeError(
                f"scores {sdata.shape} do not match poses {pdata.shape}"
            )
        if not (np.all(np.isfinite(sdata)) and np.all(np.isfinite(pdata))):
            raise DomainError("capsule scores and poses must be finite")
        if pdata.ndim == 3:
            scores, poses = (
                T.reshape(x, (1,) + x.shape) if isinstance(x, Tensor)
                else np.asarray(x)[None] for x in (scores, poses))
        self.scores = scores
        self.poses = poses

    @property
    def n(self) -> int:
        return T.asarray(self.poses).shape[1]

    def batched(self) -> "CapsuleBatch":
        # an identity, kept because perfbench/tracing.py calls it
        return self

    def tracked(self, tape: T.Tape) -> "CapsuleBatch":
        return CapsuleBatch(tape.leaf(self.scores), tape.leaf(self.poses))


@dataclass
class RoutingOutput:
    """Output scores, poses, and variances; tensors during a tracked pass.
    ``fit`` is :func:`m_step`'s hand-off to the next :func:`e_step`."""

    scores: Tensor    # (batch, n_out)
    poses: Tensor     # (batch, n_out, d_cov, d_out)
    variances: Tensor  # same shape as poses, >= var_floor
    fit: tuple | None = field(default=None, compare=False, repr=False)


@dataclass
class IterationTrace:
    probs: np.ndarray    # (batch, n_in, n_out), rows sum to 1
    used: np.ndarray     # share of each input used per output
    ignored: np.ndarray  # share activated but not used
    scores: np.ndarray   # output scores after this M-step


@dataclass
class RoutingTrace:
    iterations: list[IterationTrace]


# ---------------------------------------------------------------------------
# parameter setup


def param_shapes(config: RoutingConfig) -> dict[str, tuple[int, ...]]:
    """The shape of each field :meth:`RoutingParams.items` yields for
    parameters of ``config``, in the same order.

    Weights, biases and betas are indexed per (input, output) pair in
    fixed mode, per output in variable_input mode, and shared by every
    pair in variable_output mode, whose symmetry-breaking bias is
    supplied per call, not learned (no ``biases``). Tied betas store no
    ``beta_ign``.
    """
    mode = config.mode
    if mode == "fixed":
        pair = (config.n_in, config.n_out)
    elif mode == "variable_input":
        pair = (config.n_out,)
    else:
        pair = ()
    shapes = {"weights": pair + (config.d_in, config.d_out)}
    if mode != "variable_output":
        shapes["biases"] = pair + (config.d_cov, config.d_out)
    shapes["beta_use"] = pair
    if not config.tie_betas:
        shapes["beta_ign"] = pair
    return shapes


def init_params(config: RoutingConfig, seed: int) -> RoutingParams:
    """Fresh float64 parameters: weights ~ Normal(0, (1/d_in)^2), all
    else zero."""
    rng = np.random.default_rng(seed)
    std = 1.0 / config.d_in
    return RoutingParams.from_items(
        (name, rng.normal(0.0, std, size=shape) if name == "weights"
         else np.zeros(shape))
        for name, shape in param_shapes(config).items())


def param_count(config: RoutingConfig) -> ParamCount:
    """Exact learned-parameter counts for the configured sharing mode."""
    sizes = {name: math.prod(shape)
             for name, shape in param_shapes(config).items()}
    return ParamCount(weights=sizes["weights"], biases=sizes.get("biases", 0),
                      betas=sizes["beta_use"] + sizes.get("beta_ign", 0))


def _check_layout(params: RoutingParams, config: RoutingConfig) -> None:
    """ShapeError unless every field of ``params`` has the layout
    :func:`param_shapes` gives for ``config``: ``beta_ign`` has
    ``beta_use``'s whether or not the betas are tied, and ``biases`` is
    None exactly in variable_output mode."""
    shapes = param_shapes(config)
    shapes.setdefault("biases", None)
    shapes["beta_ign"] = shapes["beta_use"]
    for name, shape in shapes.items():
        value = getattr(params, name)
        found = None if value is None else np.shape(T.asarray(value))
        if found != shape:
            raise ShapeError(f"{name} have shape {found}, not the "
                             f"{config.mode} layout {shape}")


# ---------------------------------------------------------------------------
# the four phases


def compute_votes(params: RoutingParams, caps: CapsuleBatch,
                  config: RoutingConfig, out_bias=None) -> Tensor:
    """Per-pair predictions V of shape (batch, n_in, n_out, d_cov, d_out).

    Poses times weights over the input-property axis, plus the bias, as
    one tape node; weights/biases broadcast over whichever of the pair
    indexes the sharing mode drops. Variable-output mode has no learned
    bias and requires ``out_bias`` of shape (n_out, d_cov, d_out). The
    votes are pooled: no call reuses them while they or their tape live.
    Every vote is a (d_cov x d_in) @ (d_in x d_out) product of one shape,
    then the bias, so under any BLAS kernel its bytes ignore the batch.
    """
    poses = T.as_tensor(caps.poses)
    _, n, c, d = poses.shape
    if (c, d) != (config.d_cov, config.d_in):
        raise ShapeError(f"poses have (d_cov, d_in)={(c, d)}; config "
                         f"expects {(config.d_cov, config.d_in)}")
    if config.n_in not in (None, n):
        raise ShapeError(f"expected n_in={config.n_in} capsules, found {n}")
    _check_layout(params, config)
    weights = T.as_tensor(params.weights)
    pd, wd = poses.data, weights.data
    if config.mode != "variable_output":
        bias = T.as_tensor(params.biases)
    elif out_bias is None:
        raise ConfigError(
            "variable-output mode needs a per-output symmetry-breaking bias"
        )
    else:
        bias = T.as_tensor(out_bias)
        if bias.ndim != 3 or bias.shape[1:] != (c, config.d_out):
            raise ShapeError(
                f"out_bias must have shape (n_out, {c}, {config.d_out}),"
                f" got {bias.shape}"
            )
        wd = wd[None]  # an output axis of length 1
    mm_dtype = np.result_type(pd, wd)
    out = T._buffer((len(pd), n) + bias.shape[-3:],
                    np.result_type(mm_dtype, bias.data))
    # the product goes there only in its own shape and dtype, so the
    # buffer never decides which loop numpy computes it with
    fits = out.dtype == mm_dtype and config.mode != "variable_output"
    base = np.matmul(pd[:, :, None], wd, out=out if fits else None)
    w_spec = "ijdh" if config.mode == "fixed" else "jdh"
    base_shape, bias_shape, w_shape = base.shape, bias.shape, weights.shape
    # a VJP holds no Tensor, which would tie the tape into a cycle
    const_poses = poses.node is None

    def vjp(g):
        g_base = T._unbroadcast(g, base_shape)
        return (None if const_poses
                else T._product(g_base, "bijch", wd, w_spec, "bicd"),
                T._product(g_base, "bijch", pd, "bicd", w_spec)
                .reshape(w_shape), T._unbroadcast(g, bias_shape))

    return T.record(np.add(base, bias.data, out=out), (poses, weights, bias),
                    vjp)


def _deviations(v: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """v - mu of 5-D votes about 4-D output means, in a pooled buffer."""
    return np.subtract(v, mu[:, None],
                       out=T._buffer(v.shape, np.result_type(v, mu)))


def _log_density(votes: Tensor, state: RoutingOutput) -> Tensor:
    """Log of each output's Gaussian density at each input's votes,
    summed over the d_cov x d_out components: shape (batch, n_in, n_out).

    One tape node. With d = v - mu, the VJPs of an output gradient g are
    dv = -g d / var, dmu = -sum_i dv and dvar = (sum_i g d^2 / var -
    sum_i g) / (2 var). If ``state`` is an M-step's fit of these votes,
    the node reads that M-step's (v - mu)^2 and is over its inputs, votes
    then used shares, and runs dmu and dvar through the M-step's VJP with
    the same d; else it is over the votes, means and variances. The
    backward recomputes d instead of keeping it, and the quadratic stays
    in the (v - mu)^2 form, which does not cancel.
    """
    v, mu, var = votes.data, state.poses.data, state.variances.data
    fit = state.fit  # Tensors compare by identity
    if fit is not None and fit[:3] == (state.poses, state.variances, votes):
        srcs, backprop, sq = (votes, fit[3]), fit[4], fit[5]
    else:
        srcs, backprop = (votes, state.poses, state.variances), None
        sq = _deviations(v, mu)
        sq *= sq
    log_norm = np.log(_TWO_PI * var).sum(axis=(2, 3))
    quad = T._product(sq, "bijch", 0.5 / var, "bjch", "bij")
    out = -0.5 * log_norm[:, None] - quad
    const = [s.node is None for s in srcs]  # a VJP holds no Tensor

    def vjp(g):
        d = _deviations(v, mu)
        g_d = np.divide(d, var[:, None],
                        out=T._buffer(d.shape, np.result_type(d, var)))
        g_d *= g[..., None, None]
        g_mv = np.stack((g_d.sum(axis=1),
                         np.einsum("bijch,bijch->bjch", g_d, d)))
        g_mv[1] -= g.sum(axis=1)[..., None, None]
        g_mv[1] *= 0.5 / var
        if backprop is None:
            return [None if c else x for c, x in
                    zip(const, (np.negative(g_d, out=g_d), *g_mv))]
        g_u, g_v = backprop(d, g_mv)
        return None if g_v is None else np.subtract(g_v, g_d, out=g_v), g_u

    return T.record(out, srcs, vjp)


def _assignment_probs(log_dens: Tensor, out_scores: Tensor) -> Tensor:
    """softmax over outputs of log logistic(score_j) + log_dens_ij, as one
    tape node; with p the result, the VJPs of g are dl = p (g - sum_j g p)
    and dscore = sum_i dl expit(-score)."""
    s = out_scores.data
    log_gate = -np.logaddexp(np.zeros((), dtype=s.dtype), -s)
    logits = log_gate[:, None] + log_dens.data
    lse = np.max(logits, axis=2, keepdims=True)
    lse = np.log(np.exp(logits - lse).sum(axis=2, keepdims=True)) + lse
    p = np.exp(logits - lse)
    const_l, const_s = log_dens.node is None, out_scores.node is None

    def vjp(g):
        dl = g * p
        dl -= p * dl.sum(axis=2, keepdims=True)
        return (None if const_l else dl,
                None if const_s else dl.sum(axis=1) * T.expit(-s))

    return T.record(p, (log_dens, out_scores), vjp)


def e_step(votes: Tensor, state: RoutingOutput | None,
           first_iter: bool) -> Tensor:
    """Routing probabilities (batch, n_in, n_out); uniform on iteration one.

    After the first iteration each row is a softmax over outputs of
    log logistic(score_j) + log density of input i's votes under output
    j's Gaussian, the log-space form of the activation-weighted density
    ratio (see :func:`_log_density`). A variance whose 0.5 / var
    overflows its dtype is a DomainError.
    """
    b, i, j = votes.shape[:3]
    if first_iter:
        return T.tensor(np.full((b, i, j), 1.0 / j, dtype=votes.dtype))
    if state is None:
        raise ValueError("state is required after the first iteration")
    var = state.variances.data
    bound = 0.5 / np.finfo(var.dtype).max  # 0.5 / var overflows up to it
    if np.any(var <= bound):
        raise DomainError(f"output variances must be strictly positive, and "
                          f"above {bound:.3g} in {var.dtype} so that 0.5 / "
                          f"var is finite; raise var_floor")
    return _assignment_probs(_log_density(votes, state), state.scores)


def d_step(in_scores, probs: Tensor) -> tuple[Tensor, Tensor]:
    """Split each input's activated mass: used = logistic(score) * probs,
    ignored = logistic(score) - used. Together with the gated-off remainder
    1 - logistic(score) the three parts account for the whole capsule."""
    scores = T.as_tensor(in_scores)
    probs = T.as_tensor(probs, like=scores)
    out = T.expit(scores.data)
    gate, p, slope = out[..., None], probs.data, out * (1.0 - out)
    const_scores = scores.node is None
    used = T.record(gate * p, (scores, probs), lambda g: (
        None if const_scores else (g * p).sum(axis=2) * slope, g * gate))
    ignored = T.record(gate - used.data, (scores, used), lambda g: (
        None if const_scores else g.sum(axis=2) * slope, -g))
    return used, ignored


def _net_scores(used: Tensor, ignored: Tensor, beta_use: Tensor,
                beta_ign: Tensor) -> Tensor:
    """sum_i (u_ij beta_use - ig_ij beta_ign), shape (batch, n_out), as one
    tape node; each beta's gradient is summed back to its mode's layout."""
    u, ig, bu, bi = used.data, ignored.data, beta_use.data, beta_ign.data
    const_u, const_ig = used.node is None, ignored.node is None

    def vjp(g):
        g = np.broadcast_to(g[:, None], u.shape)
        return (None if const_u else g * bu, None if const_ig else -g * bi,
                T._unbroadcast(g * u, bu.shape),
                T._unbroadcast(-g * ig, bi.shape))

    return T.record((u * bu - ig * bi).sum(axis=1),
                    (used, ignored, beta_use, beta_ign), vjp)


def _moments(used: Tensor, votes: Tensor, eps: float, floor: float) -> tuple:
    """The used-share-weighted mean and variance of the votes, and their
    ``fit`` (mean, variance, votes, used, VJP body if tracked, and the
    (v - mu)^2 the variance is fitted from).

    With D = sum_i u + eps, mu = sum_i u v / D and var = sum_i u
    (v - mu)^2 / D + floor fill the halves of one array, recorded as one
    tape node, and each is a slice node of it. With d = v - mu, G = g / D
    and s = var - floor, the VJPs are du = sum_ch (Gmu + Gvar d) d -
    sum_ch Gvar s and dv = u (Gmu + 2 Gvar d); Gmu carries the variance's
    mean term, -2 eps Gvar mu / D, as sum_i u d = eps mu at this mean.
    Where Gvar is all zero, as in a last M-step whose variances reach no
    loss, the body skips its terms: du = sum_ch Gmu d and dv = u Gmu.
    The VJP's body, shared with the next log-density, returns dv in d.
    """
    u, v = used.data, votes.data
    dn = (u.sum(axis=1) + np.asarray(eps, dtype=u.dtype))[..., None, None]
    both = np.empty((2,) + dn.shape[:2] + v.shape[3:], np.result_type(u, v))
    mean, var = both
    T._product(u, "bij", v, "bijch", "bjch", into=mean)
    mean /= dn
    sq = _deviations(v, mean)
    sq *= sq
    T._product(u, "bij", sq, "bijch", "bjch", into=var)
    var /= dn
    var += floor
    const_u, const_v = used.node is None, votes.node is None

    def backprop(d, g):  # overwrites both
        g_mu, g_var = np.divide(g, dn, out=g)
        full = g_var.any()  # else only the mean reaches a loss
        if full:
            g_mu -= (2.0 * eps) * g_var * mean / dn
        g_u = None
        if not const_u:
            # the einsums measured faster (one BLAS thread, 2-core VM, desk
            # layer 0 and wide_route): 120 and 179 us, not 148 and 281 with
            # a g_var d temporary; 7 and 5 us, not 17 and 19 as a _product
            g_u = T._product(d, "bijch", g_mu, "bjch", "bij")
            if full:
                g_u += np.einsum("bijch,bjch,bijch->bij", d, g_var, d)
                g_u -= np.einsum("bjch,bjch->bj", g_var, var - floor)[:, None]
        if const_v:  # no dv
            return g_u, None
        if not full:  # dv = u g_mu
            return g_u, np.multiply(u[..., None, None], g_mu[:, None], out=d)
        d *= np.multiply(g_var, 2.0, out=g_var)[:, None]
        d += g_mu[:, None]
        d *= u[..., None, None]
        return g_u, d

    node = T.record(both, (used, votes),
                    lambda g: backprop(_deviations(v, mean), g.copy()))
    mean_t = T.record(mean, (node,),
                      lambda g: (np.stack((g, np.zeros_like(g))),))
    var_t = T.record(var, (node,),
                     lambda g: (np.stack((np.zeros_like(g), g)),))
    body = None if node.tape is None else backprop  # which holds dn
    return mean_t, var_t, (mean_t, var_t, votes, used, body, sq)


def m_step(votes: Tensor, used: Tensor, ignored: Tensor,
           params: RoutingParams, config: RoutingConfig) -> RoutingOutput:
    """Refit output scores and Gaussian models from the used shares.

    Output scores credit each used share with beta_use and debit each
    ignored share with beta_ign, summed over inputs. Means and variances
    are the used-share-weighted moments of the votes; ``fit`` keeps their
    pooled (v - mu)^2 for the next :func:`e_step` while the state lives.
    """
    scores = _net_scores(used, ignored, T.as_tensor(params.beta_use),
                         T.as_tensor(params.beta_ign))
    return RoutingOutput(scores, *_moments(used, votes, config.denom_eps,
                                           config.var_floor))


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def route(params: RoutingParams, caps: CapsuleBatch, config: RoutingConfig,
          out_bias=None, want_trace: bool = False):
    """Votes once, then n_iters rounds of the public E-, D- and M-steps.

    The whole computation lives on one tape, so gradients flow through
    every iteration. Returns the final RoutingOutput, plus a RoutingTrace
    of detached per-iteration arrays when ``want_trace`` is set. Raises
    DomainError when the final outputs are not finite.

    The votes and (v - mu)^2 are pooled (:func:`capsem.tensor._buffer`):
    reused only once no array, Tensor or tape holds them. Each state is
    dropped once the next E-step has read it, and the result has no
    ``fit``, so every iteration writes one (v - mu)^2 buffer.

    Routing never mixes samples, so an untracked call (no tracked
    parameter, capsule or ``out_bias``) of ``batch`` samples routes as
    ``min(CPUs, batch // SPLIT_MIN)`` contiguous parts when that is at
    least 2: the first in the caller, the others on threads of a per-call
    pool, joined before it returns. The parts' outputs and traces, joined
    along the batch, equal the whole batch's bit for bit, so no result
    depends on the CPU count.
    """
    batch = len(T.asarray(caps.scores))
    n_parts = min(_cpu_count(), batch // SPLIT_MIN)
    sources = [value for _, value in params.items()]
    sources += [caps.scores, caps.poses, out_bias]
    if n_parts < 2 or any(isinstance(x, Tensor) and x.tape is not None
                          for x in sources):
        state, steps = _iterate(params, caps, config, out_bias, want_trace)
    else:
        scores, poses = T.asarray(caps.scores), T.asarray(caps.poses)
        bounds = [batch * k // n_parts for k in range(n_parts + 1)]
        parts = [(params, CapsuleBatch(scores[lo:hi], poses[lo:hi]), config,
                  out_bias, want_trace) for lo, hi in zip(bounds, bounds[1:])]
        # the pool joins its threads on exit; then the first part to fail,
        # in batch order, raises its error
        with ThreadPoolExecutor(n_parts - 1) as pool:
            futures = [pool.submit(_iterate, *part) for part in parts[1:]]
            done = [_iterate(*parts[0])]
        done += [future.result() for future in futures]

        def join(items, name):  # one field of every part, along the batch
            return np.concatenate([T.asarray(getattr(x, name)) for x in items])

        outs, traces = zip(*done)
        state = RoutingOutput(*(Tensor(join(outs, name))
                                for name in ("scores", "poses", "variances")))
        steps = [IterationTrace(**{name: join(its, name)
                                   for name in vars(its[0])})
                 for its in zip(*traces)]
    if not all(np.all(np.isfinite(t.data))
               for t in (state.scores, state.poses, state.variances)):
        raise DomainError(
            "routing gave non-finite output scores, poses or variances from "
            "finite capsules: pose magnitudes overflow the dtype once "
            "squared, or the parameters are not finite"
        )
    if want_trace:
        return state, RoutingTrace(steps)
    return state


def _iterate(params: RoutingParams, caps: CapsuleBatch, config: RoutingConfig,
             out_bias, want_trace: bool) -> tuple:
    """:func:`route`'s loop on one thread: the final RoutingOutput and,
    if ``want_trace``, the IterationTrace list (else empty)."""
    votes = compute_votes(params, caps, config, out_bias)
    state = None
    steps: list[IterationTrace] = []
    for it in range(config.n_iters):
        probs = e_step(votes, state, it == 0)
        state = None  # its (v - mu)^2 is free for this M-step's
        used, ignored = d_step(caps.scores, probs)
        state = m_step(votes, used, ignored, params, config)
        if want_trace:
            steps.append(IterationTrace(
                probs=np.array(probs.data, copy=True),
                used=np.array(used.data, copy=True),
                ignored=np.array(ignored.data, copy=True),
                scores=np.array(state.scores.data, copy=True),
            ))
    return RoutingOutput(state.scores, state.poses, state.variances), steps


# ---------------------------------------------------------------------------
# scalar-loop reference (test oracle)

_REFERENCE_CEILING = dict(n_in=8, n_out=4, dims=4)


def _logistic_scalar(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


def route_reference(params: RoutingParams, caps: CapsuleBatch,
                    config: RoutingConfig, out_bias=None):
    """Forward-only transliteration of the routing loop with plain scalar
    loops and the direct (non-log-space) density formula. Small instances
    only: n_in <= 8, n_out <= 4, all dims <= 4.
    """
    def arr(x):
        return np.asarray(T.asarray(x), dtype=np.float64)

    scores_in = arr(caps.scores)
    poses_in = arr(caps.poses)
    batch, n_in, d_cov, d_in = poses_in.shape
    mode = config.mode
    if mode == "variable_output":
        if out_bias is None:
            raise ConfigError("variable-output mode needs out_bias")
        bias = arr(out_bias)
        n_out = bias.shape[0]
    else:
        n_out = config.n_out
    d_out = config.d_out
    if (n_in > _REFERENCE_CEILING["n_in"] or n_out > _REFERENCE_CEILING["n_out"]
            or max(d_cov, d_in, d_out) > _REFERENCE_CEILING["dims"]):
        raise ValueError(
            f"instance exceeds the reference ceiling {_REFERENCE_CEILING}"
        )

    w = arr(params.weights)
    beta_use = arr(params.beta_use)
    beta_ign = arr(params.beta_ign)
    biases = None if params.biases is None else arr(params.biases)

    def w_at(i, j, d, h):
        if mode == "fixed":
            return w[i, j, d, h]
        if mode == "variable_input":
            return w[j, d, h]
        return w[d, h]

    def b_at(i, j, c, h):
        if mode == "fixed":
            return biases[i, j, c, h]
        if mode == "variable_input":
            return biases[j, c, h]
        return bias[j, c, h]

    def beta_at(b_arr, i, j):
        if mode == "fixed":
            return b_arr[i, j]
        if mode == "variable_input":
            return b_arr[j]
        return float(b_arr)

    out_scores = np.zeros((batch, n_out))
    out_poses = np.zeros((batch, n_out, d_cov, d_out))
    out_vars = np.zeros((batch, n_out, d_cov, d_out))

    for b in range(batch):
        votes = np.zeros((n_in, n_out, d_cov, d_out))
        for i in range(n_in):
            for j in range(n_out):
                for c in range(d_cov):
                    for h in range(d_out):
                        acc = 0.0
                        for d in range(d_in):
                            acc += w_at(i, j, d, h) * poses_in[b, i, c, d]
                        votes[i, j, c, h] = acc + b_at(i, j, c, h)

        a_j = [0.0] * n_out
        mu = [[[0.0] * d_out for _ in range(d_cov)] for _ in range(n_out)]
        var = [[[0.0] * d_out for _ in range(d_cov)] for _ in range(n_out)]
        probs = [[0.0] * n_out for _ in range(n_in)]

        for it in range(config.n_iters):
            # E-step
            if it == 0:
                for i in range(n_in):
                    for j in range(n_out):
                        probs[i][j] = 1.0 / n_out
            else:
                for i in range(n_in):
                    weighted = [0.0] * n_out
                    for j in range(n_out):
                        dens = 1.0
                        quad = 0.0
                        for c in range(d_cov):
                            for h in range(d_out):
                                dens *= _TWO_PI * var[j][c][h]
                                diff = votes[i, j, c, h] - mu[j][c][h]
                                quad += diff * diff / (2.0 * var[j][c][h])
                        p = math.exp(-quad) / math.sqrt(dens)
                        weighted[j] = _logistic_scalar(a_j[j]) * p
                    total = sum(weighted)
                    for j in range(n_out):
                        probs[i][j] = weighted[j] / total
            # D-step
            used = [[0.0] * n_out for _ in range(n_in)]
            ignored = [[0.0] * n_out for _ in range(n_in)]
            for i in range(n_in):
                gate = _logistic_scalar(scores_in[b, i])
                for j in range(n_out):
                    used[i][j] = gate * probs[i][j]
                    ignored[i][j] = gate - used[i][j]
            # M-step
            for j in range(n_out):
                acc = 0.0
                for i in range(n_in):
                    acc += (used[i][j] * beta_at(beta_use, i, j)
                            - ignored[i][j] * beta_at(beta_ign, i, j))
                a_j[j] = acc
                total_used = 0.0
                for i in range(n_in):
                    total_used += used[i][j]
                denom = total_used + config.denom_eps
                for c in range(d_cov):
                    for h in range(d_out):
                        m_acc = 0.0
                        for i in range(n_in):
                            m_acc += used[i][j] * votes[i, j, c, h]
                        mu[j][c][h] = m_acc / denom
                        v_acc = 0.0
                        for i in range(n_in):
                            diff = votes[i, j, c, h] - mu[j][c][h]
                            v_acc += used[i][j] * diff * diff
                        var[j][c][h] = v_acc / denom + config.var_floor

        out_scores[b] = a_j
        for j in range(n_out):
            for c in range(d_cov):
                for h in range(d_out):
                    out_poses[b, j, c, h] = mu[j][c][h]
                    out_vars[b, j, c, h] = var[j][c][h]

    return RoutingOutput(T.tensor(out_scores), T.tensor(out_poses),
                         T.tensor(out_vars))
