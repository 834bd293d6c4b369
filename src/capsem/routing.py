"""EM routing by agreement between capsule layers.

One routing layer turns ``n_in`` input capsules (a pose matrix of shape
d_cov x d_in plus a pre-activation score each) into ``n_out`` output
capsules (pose d_cov x d_out, score, and per-component variance). Votes
are computed once per call; the loop then alternates three phases:

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
shares, and the M-step's net scores, denominator, weighted mean and
weighted variance. The first assignment is a uniform constant, so a
layer records 8 n_iters - 1 nodes (23 at n_iters = 3), and 20 when the
input scores are untracked too, as the first D-step and denominator are
then constants. The sums over inputs and over pose components run as
batched matmuls (:func:`capsem.tensor._product`).
In :func:`route`, the squared deviations (v - mu)^2 that an M-step fits
its variances from feed the next E-step's log-density, which drops them
once used. Only an untracked :func:`route` takes a workspace, which its
caller keeps across calls: it holds the votes and that one (v - mu)^2
buffer.

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
import sys
from dataclasses import dataclass
from typing import Literal, Union

import numpy as np
from scipy.special import expit

from . import tensor as T
from .errors import ConfigError, DomainError, ShapeError
from .tensor import Tensor

# Scores are clamped to this range at data-ingestion boundaries so the
# logistic gate can fully saturate without +-inf arithmetic.
LOGIT_MAX = 30.0

_TWO_PI = 2.0 * math.pi


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
    """Output scores, poses, and variances; tensors during a tracked pass."""

    scores: Tensor    # (batch, n_out)
    poses: Tensor     # (batch, n_out, d_cov, d_out)
    variances: Tensor  # same shape as poses, >= var_floor


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


def _scratch(workspace: dict, name: str, shape, dtype) -> np.ndarray:
    """A C-contiguous ``shape`` view of the flat buffer ``workspace[name]``,
    replaced when it is too small or of another dtype."""
    size = math.prod(shape)
    buf = workspace.get(name)
    if buf is None or buf.size < size or buf.dtype != dtype:
        buf = workspace[name] = np.empty(size, dtype)
    return buf[:size].reshape(shape)


def compute_votes(params: RoutingParams, caps: CapsuleBatch,
                  config: RoutingConfig, out_bias=None) -> Tensor:
    """Per-pair predictions V of shape (batch, n_in, n_out, d_cov, d_out).

    Poses times weights over the input-property axis, plus the bias, as
    one tape node; weights/biases broadcast over whichever of the pair
    indexes the sharing mode drops. Variable-output mode has no learned
    bias and requires ``out_bias`` of shape (n_out, d_cov, d_out).
    """
    return _compute_votes(params, caps, config, out_bias, None)


def _compute_votes(params, caps, config, out_bias, workspace) -> Tensor:
    """:func:`compute_votes`, in ``workspace``'s votes buffer if given."""
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
    out = None if workspace is None else _scratch(
        workspace, "votes", (len(pd), n) + bias.shape[-3:],
        np.result_type(mm_dtype, bias.data))
    # the product goes there only in its own shape and dtype, so the
    # buffer never decides which loop numpy computes it with
    fits = (out is not None and out.dtype == mm_dtype
            and config.mode != "variable_output")
    base = np.matmul(pd[:, :, None], wd, out=out if fits else None)
    w_spec = "ijdh" if config.mode == "fixed" else "jdh"
    base_shape, bias_shape, w_shape = base.shape, bias.shape, weights.shape

    def vjp(g):
        g_base = T._unbroadcast(g, base_shape)
        return (T._product(g_base, "bijch", wd, w_spec, "bicd"),
                T._product(g_base, "bijch", pd, "bicd", w_spec)
                .reshape(w_shape), T._unbroadcast(g, bias_shape))

    return T.record(np.add(base, bias.data, out=out), (poses, weights, bias),
                    vjp)


def _squared_deviations(v: np.ndarray, mu: np.ndarray,
                        workspace: dict | None = None) -> np.ndarray:
    """(v - mu)^2 of 5-D votes about 4-D output means, in one buffer."""
    sq = np.subtract(v, mu[:, None], out=None if workspace is None else
                     _scratch(workspace, "sq", v.shape, np.result_type(v, mu)))
    sq *= sq
    return sq


def _log_density(votes: Tensor, state: RoutingOutput,
                 sq: np.ndarray | None = None) -> Tensor:
    """Log of each output's Gaussian density at each input's votes,
    summed over the d_cov x d_out components: shape (batch, n_in, n_out).
    ``sq``, if given, is (v - mu)^2 as :func:`_squared_deviations` gives.

    One tape node over the votes, means and variances. With d = v - mu,
    the VJPs of an output gradient g are dv = -g d / var,
    dmu = -sum_i dv and dvar = (sum_i g d^2 / var - sum_i g) / (2 var).
    The backward recomputes d instead of keeping it, and the quadratic
    stays in the (v - mu)^2 form, which does not cancel.
    """
    v, mu, var = votes.data, state.poses.data, state.variances.data
    if sq is None:
        sq = _squared_deviations(v, mu)
    log_norm = np.log(_TWO_PI * var).sum(axis=(2, 3))
    quad = T._product(sq, "bijch", 0.5 / var, "bjch", "bij")
    out = -0.5 * log_norm[:, None] - quad

    def vjp(g):
        d = v - mu[:, None]
        g_d = d / var[:, None]
        g_d *= g[..., None, None]
        d *= g_d
        g_var = d.sum(axis=1)
        g_var -= g.sum(axis=1)[..., None, None]
        g_var *= 0.5 / var
        np.negative(g_d, out=g_d)
        return g_d, -g_d.sum(axis=1), g_var

    return T.record(out, (votes, state.poses, state.variances), vjp)


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

    def vjp(g):
        dl = g * p
        dl -= p * dl.sum(axis=2, keepdims=True)
        return dl, dl.sum(axis=1) * expit(-s)

    return T.record(p, (log_dens, out_scores), vjp)


def e_step(votes: Tensor, state: RoutingOutput | None,
           first_iter: bool) -> Tensor:
    """Routing probabilities (batch, n_in, n_out); uniform on iteration one.

    After the first iteration each row is a softmax over outputs of
    log logistic(score_j) + log density of input i's votes under output
    j's Gaussian, the log-space form of the activation-weighted density
    ratio.
    """
    return _e_step(votes, state, first_iter, None)


def _e_step(votes: Tensor, state: RoutingOutput | None, first_iter: bool,
            sq: np.ndarray | None) -> Tensor:
    """:func:`e_step`, scoring with ``sq`` (see :func:`_log_density`)."""
    b, i, j = votes.shape[:3]
    if first_iter:
        dt = votes.dtype
        return T.tensor(np.full((b, i, j), 1.0 / j, dtype=dt))
    if state is None:
        raise ValueError("state is required after the first iteration")
    if np.any(state.variances.data <= 0):
        raise DomainError("output variances must be strictly positive")
    return _assignment_probs(_log_density(votes, state, sq), state.scores)


def d_step(in_scores, probs: Tensor) -> tuple[Tensor, Tensor]:
    """Split each input's activated mass: used = logistic(score) * probs,
    ignored = logistic(score) - used. Together with the gated-off remainder
    1 - logistic(score) the three parts account for the whole capsule."""
    scores = T.as_tensor(in_scores)
    probs = T.as_tensor(probs, like=scores)
    out = expit(scores.data)
    gate, p, slope = out[..., None], probs.data, out * (1.0 - out)
    used = T.record(gate * p, (scores, probs),
                    lambda g: ((g * p).sum(axis=2) * slope, g * gate))
    ignored = T.record(gate - used.data, (scores, used),
                       lambda g: (g.sum(axis=2) * slope, -g))
    return used, ignored


def _weighted_mean(used: Tensor, votes: Tensor, denom: Tensor) -> Tensor:
    """sum_i u_ij v_ij / denom_j, shape (batch, n_out, d_cov, d_out), as one
    tape node; with G = g / denom its VJPs are du = sum_ch G v,
    dv = u G and ddenom = -sum_ch G mu."""
    u, v, dn = used.data, votes.data, denom.data[..., None, None]
    out = T._product(u, "bij", v, "bijch", "bjch") / dn

    def vjp(g):
        g = g / dn
        return (T._product(v, "bijch", g, "bjch", "bij"),
                u[..., None, None] * g[:, None],
                -np.einsum("bjch,bjch->bj", g, out))

    return T.record(out, (used, votes, denom), vjp)


def _weighted_variance(used: Tensor, votes: Tensor, mean: Tensor,
                       denom: Tensor, floor: float, sq: np.ndarray) -> Tensor:
    """sum_i u_ij (v_ij - mu_j)^2 / denom_j + floor as one tape node, from
    ``sq`` = (v - mu)^2 as :func:`_squared_deviations` gives it.

    With d = v - mu, G = g / denom and s the result less the floor, the
    VJPs are du = sum_ch G d^2, dv = 2 u G d, dmu = -sum_i dv and
    ddenom = -sum_ch G s. The backward recomputes d instead of keeping it.
    """
    u, v, mu = used.data, votes.data, mean.data
    dn = denom.data[..., None, None]
    spread = T._product(u, "bij", sq, "bijch", "bjch") / dn

    def vjp(g):
        g = g / dn
        d = v - mu[:, None]
        g_v = d * g[:, None]
        # these two sums and _weighted_mean's bjch,bjch->bj stay einsum:
        # as batched matmuls they measured slower (one BLAS thread, 2-core
        # VM, route_bulk layer-0 shapes: 251 -> 319 us and 25 -> 40 us)
        g_u = np.einsum("bijch,bijch->bij", g_v, d)
        g_v *= 2.0 * u[..., None, None]
        return (g_u, g_v, -g_v.sum(axis=1),
                -np.einsum("bjch,bjch->bj", g, spread))

    return T.record(spread + floor, (used, votes, mean, denom), vjp)


def _net_scores(used: Tensor, ignored: Tensor, beta_use: Tensor,
                beta_ign: Tensor) -> Tensor:
    """sum_i (u_ij beta_use - ig_ij beta_ign), shape (batch, n_out), as one
    tape node; each beta's gradient is summed back to its mode's layout."""
    u, ig, bu, bi = used.data, ignored.data, beta_use.data, beta_ign.data

    def vjp(g):
        g = np.broadcast_to(g[:, None], u.shape)
        return (g * bu, -g * bi, T._unbroadcast(g * u, bu.shape),
                T._unbroadcast(-g * ig, bi.shape))

    return T.record((u * bu - ig * bi).sum(axis=1),
                    (used, ignored, beta_use, beta_ign), vjp)


def _denominator(used: Tensor, eps: float) -> Tensor:
    """sum_i u_ij + eps, shape (batch, n_out), as one tape node."""
    u = used.data
    return T.record(u.sum(axis=1) + np.asarray(eps, dtype=u.dtype), (used,),
                    lambda g: (np.broadcast_to(g[:, None], u.shape).copy(),))


def m_step(votes: Tensor, used: Tensor, ignored: Tensor,
           params: RoutingParams, config: RoutingConfig) -> RoutingOutput:
    """Refit output scores and Gaussian models from the used shares.

    Output scores credit each used share with beta_use and debit each
    ignored share with beta_ign, summed over inputs. Means and variances
    are the used-share-weighted moments of the votes.
    """
    return _m_step(votes, used, ignored, params, config)[0]


def _m_step(votes: Tensor, used: Tensor, ignored: Tensor,
            params: RoutingParams, config: RoutingConfig,
            workspace: dict | None = None
            ) -> tuple[RoutingOutput, np.ndarray]:
    """:func:`m_step` and its (v - mu)^2, for the next E-step."""
    scores = _net_scores(used, ignored, T.as_tensor(params.beta_use),
                         T.as_tensor(params.beta_ign))
    denom = _denominator(used, config.denom_eps)
    poses = _weighted_mean(used, votes, denom)
    sq = _squared_deviations(votes.data, poses.data, workspace)
    variances = _weighted_variance(used, votes, poses, denom,
                                   config.var_floor, sq)
    return RoutingOutput(scores, poses, variances), sq


def route(params: RoutingParams, caps: CapsuleBatch, config: RoutingConfig,
          out_bias=None, want_trace: bool = False,
          workspace: dict | None = None):
    """Run the full loop: votes once, then n_iters of E-step/D-step/M-step.

    The whole computation lives on one tape, so gradients flow through
    every iteration. Returns the final RoutingOutput, plus a RoutingTrace
    of detached per-iteration arrays when ``want_trace`` is set. Raises
    DomainError when the final outputs are not finite.

    ``workspace``, a dict its caller creates empty and keeps across
    untracked calls only, holds the votes and one (v - mu)^2 buffer;
    with a tracked input it is a ValueError, as the VJPs read the votes.
    """
    if workspace is not None and any(
            getattr(x, "tape", None) is not None for x in (
                *dict(params.items()).values(), caps.scores, caps.poses,
                out_bias)):
        raise ValueError("a routing workspace is for untracked calls only")
    votes = _compute_votes(params, caps, config, out_bias, workspace)
    in_scores = T.as_tensor(caps.scores)
    state, sq = None, None
    steps: list[IterationTrace] = []
    for it in range(config.n_iters):
        probs = _e_step(votes, state, it == 0, sq)
        sq = None  # free it before the M-step allocates the next
        used, ignored = d_step(in_scores, probs)
        state, sq = _m_step(votes, used, ignored, params, config, workspace)
        if want_trace:
            steps.append(IterationTrace(
                probs=np.array(probs.data, copy=True),
                used=np.array(used.data, copy=True),
                ignored=np.array(ignored.data, copy=True),
                scores=np.array(state.scores.data, copy=True),
            ))
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
