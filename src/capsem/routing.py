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

All phases are built from tape ops, so gradients flow through every
iteration of the loop.

Three parameter-sharing modes exist:

  fixed           n_in and n_out known; weights indexed per (input, output);
  variable_input  n_in unknown; weights shared across inputs;
  variable_output n_in and n_out unknown; one weight matrix shared across
                  all pairs, symmetry broken by a caller-supplied per-output
                  bias (no learned per-output parameters exist).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Literal, Union

import numpy as np

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


@dataclass
class RoutingParams:
    """Learnable state of one layer; fields are ndarrays or tracked tensors.

    :func:`param_shapes` gives each field's shape per sharing mode.
    ``biases`` is None in variable_output mode, and ``beta_ign`` is the
    identical object as ``beta_use`` when betas are tied.
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
    """Input scores and capsules, for one sample or a batch.

    ``scores`` has shape (n,) or (batch, n); ``poses`` has shape
    (n, d_cov, d_in) or (batch, n, d_cov, d_in). Scores are pre-activation
    logits; absent (padded) capsules are marked with a score of -LOGIT_MAX,
    never -inf. All values must be finite.
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
        self.scores = scores
        self.poses = poses

    @property
    def is_batched(self) -> bool:
        return T.asarray(self.poses).ndim == 4

    @property
    def n(self) -> int:
        return T.asarray(self.poses).shape[-3]

    def batched(self) -> "CapsuleBatch":
        if self.is_batched:
            return self
        s, p = self.scores, self.poses
        if isinstance(s, Tensor):
            s = T.reshape(s, (1,) + s.shape)
            p = T.reshape(p, (1,) + p.shape)
        else:
            s = np.asarray(s)[None]
            p = np.asarray(p)[None]
        return CapsuleBatch(s, p)

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


def param_shapes(config: RoutingConfig) -> dict[str, tuple[int, ...] | None]:
    """Shape of each RoutingParams field in the configured sharing mode.

    Weights, biases and betas are indexed per (input, output) pair in
    fixed mode, per output in variable_input mode, and shared by every
    pair in variable_output mode, whose symmetry-breaking bias is
    supplied per call, not learned (``biases`` is None).
    """
    mode = config.mode
    if mode == "fixed":
        pair = (config.n_in, config.n_out)
    elif mode == "variable_input":
        pair = (config.n_out,)
    else:
        pair = ()
    return {
        "weights": pair + (config.d_in, config.d_out),
        "biases": None if mode == "variable_output"
        else pair + (config.d_cov, config.d_out),
        "beta_use": pair,
        "beta_ign": pair,
    }


def learned_shapes(config: RoutingConfig) -> dict[str, tuple[int, ...]]:
    """The shapes of the fields :meth:`RoutingParams.items` yields for
    parameters of ``config``, in the same order."""
    return {name: shape for name, shape in param_shapes(config).items()
            if shape is not None
            and not (name == "beta_ign" and config.tie_betas)}


def init_params(config: RoutingConfig, seed: int) -> RoutingParams:
    """Fresh float64 parameters: weights ~ Normal(0, (1/d_in)^2), all
    else zero."""
    rng = np.random.default_rng(seed)
    std = 1.0 / config.d_in
    return RoutingParams.from_items(
        (name, rng.normal(0.0, std, size=shape) if name == "weights"
         else np.zeros(shape))
        for name, shape in learned_shapes(config).items())


def param_count(config: RoutingConfig) -> ParamCount:
    """Exact learned-parameter counts for the configured sharing mode."""
    sizes = {name: math.prod(shape)
             for name, shape in learned_shapes(config).items()}
    return ParamCount(weights=sizes["weights"], biases=sizes.get("biases", 0),
                      betas=sizes["beta_use"] + sizes.get("beta_ign", 0))


# ---------------------------------------------------------------------------
# the four phases


def compute_votes(params: RoutingParams, caps: CapsuleBatch,
                  config: RoutingConfig, out_bias=None) -> Tensor:
    """Per-pair predictions V of shape (batch, n_in, n_out, d_cov, d_out).

    Contracts poses with the weights over the input-property axis and adds
    the bias; weights/biases broadcast over whichever of the pair indexes
    the sharing mode drops. Variable-output mode has no learned bias and
    requires ``out_bias`` of shape (n_out, d_cov, d_out) to break symmetry.
    """
    caps = caps.batched()
    poses = T.as_tensor(caps.poses)
    b, n, c, d = poses.shape
    if c != config.d_cov or d != config.d_in:
        raise ShapeError(
            f"poses have d_cov={c}, d_in={d}; config expects "
            f"d_cov={config.d_cov}, d_in={config.d_in}"
        )
    weights = T.as_tensor(params.weights)
    mode = config.mode
    if mode == "fixed":
        if n != config.n_in:
            raise ShapeError(f"expected n_in={config.n_in} capsules, found {n}")
        votes = T.contract(poses, weights, "bicd,ijdh->bijch")
        return T.add(votes, T.as_tensor(params.biases))
    if mode == "variable_input":
        votes = T.contract(poses, weights, "bicd,jdh->bijch")
        return T.add(votes, T.as_tensor(params.biases))
    if out_bias is None:
        raise ConfigError(
            "variable-output mode needs a per-output symmetry-breaking bias"
        )
    bias = T.as_tensor(out_bias)
    if bias.ndim != 3 or bias.shape[1:] != (config.d_cov, config.d_out):
        raise ShapeError(
            f"out_bias must have shape (n_out, {config.d_cov}, {config.d_out}),"
            f" got {bias.shape}"
        )
    base = T.contract(poses, weights, "bicd,dh->bich")
    base = T.reshape(base, (b, n, 1, config.d_cov, config.d_out))
    return T.add(base, bias)


def _log_density(votes: Tensor, state: RoutingOutput) -> Tensor:
    """Log of each output's Gaussian density at each input's votes,
    summed over the d_cov x d_out components: shape (batch, n_in, n_out)."""
    b, i, j, c, h = votes.shape
    mu = T.reshape(state.poses, (b, 1, j, c, h))
    var = T.reshape(state.variances, (b, 1, j, c, h))
    diff = T.sub(votes, mu)
    per_component = T.sub(
        T.mul(-0.5, T.log(T.mul(_TWO_PI, var))),
        T.div(T.square(diff), T.mul(2.0, var)),
    )
    return T.reduce_sum(per_component, axes=(3, 4))


def _assignment_probs(log_dens: Tensor, out_scores: Tensor) -> Tensor:
    b, i, j = log_dens.shape
    log_gate = T.neg(T.softplus(T.neg(out_scores)))  # log logistic(score)
    logits = T.add(T.reshape(log_gate, (b, 1, j)), log_dens)
    return T.softmax(logits, axis=2)


def e_step(votes: Tensor, state: RoutingOutput | None,
           first_iter: bool) -> Tensor:
    """Routing probabilities (batch, n_in, n_out); uniform on iteration one.

    After the first iteration each row is a softmax over outputs of
    log logistic(score_j) + log density of input i's votes under output
    j's Gaussian, the log-space form of the activation-weighted density
    ratio.
    """
    b, i, j = votes.shape[:3]
    if first_iter:
        dt = votes.dtype
        return T.tensor(np.full((b, i, j), 1.0 / j, dtype=dt))
    if state is None:
        raise ValueError("state is required after the first iteration")
    if np.any(state.variances.data <= 0):
        raise DomainError("output variances must be strictly positive")
    return _assignment_probs(_log_density(votes, state), state.scores)


def d_step(in_scores, probs: Tensor) -> tuple[Tensor, Tensor]:
    """Split each input's activated mass: used = logistic(score) * probs,
    ignored = logistic(score) - used. Together with the gated-off remainder
    1 - logistic(score) the three parts account for the whole capsule."""
    scores = T.as_tensor(in_scores)
    b, i = scores.shape
    gate = T.reshape(T.logistic(scores), (b, i, 1))
    used = T.mul(gate, probs)
    ignored = T.sub(gate, used)
    return used, ignored


def m_step(votes: Tensor, used: Tensor, ignored: Tensor,
           params: RoutingParams, config: RoutingConfig) -> RoutingOutput:
    """Refit output scores and Gaussian models from the used shares.

    Output scores credit each used share with beta_use and debit each
    ignored share with beta_ign, summed over inputs. Means and variances
    are the used-share-weighted moments of the votes.
    """
    b, i, j, c, h = votes.shape
    beta_use = T.as_tensor(params.beta_use)
    beta_ign = T.as_tensor(params.beta_ign)
    contrib = T.sub(T.mul(used, beta_use), T.mul(ignored, beta_ign))
    scores = T.reduce_sum(contrib, axes=1)

    denom = T.add(T.reduce_sum(used, axes=1), config.denom_eps)
    denom4 = T.reshape(denom, (b, j, 1, 1))
    poses = T.div(T.contract(used, votes, "bij,bijch->bjch"), denom4)
    diff = T.sub(votes, T.reshape(poses, (b, 1, j, c, h)))
    variances = T.add(
        T.div(T.contract(used, T.square(diff), "bij,bijch->bjch"), denom4),
        config.var_floor,
    )
    return RoutingOutput(scores, poses, variances)


def route(params: RoutingParams, caps: CapsuleBatch, config: RoutingConfig,
          out_bias=None, want_trace: bool = False):
    """Run the full loop: votes once, then n_iters of E-step/D-step/M-step.

    The whole computation lives on one tape, so gradients flow through
    every iteration. Returns the final RoutingOutput, plus a RoutingTrace
    of detached per-iteration arrays when ``want_trace`` is set. Raises
    DomainError when the final outputs are not finite.
    """
    caps = caps.batched()
    votes = compute_votes(params, caps, config, out_bias=out_bias)
    in_scores = T.as_tensor(caps.scores)
    state: RoutingOutput | None = None
    steps: list[IterationTrace] = []
    for it in range(config.n_iters):
        probs = e_step(votes, state, first_iter=(it == 0))
        used, ignored = d_step(in_scores, probs)
        state = m_step(votes, used, ignored, params, config)
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

    caps = caps.batched()
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
