"""Non-routing layers and training-time transforms.

Everything here is a pure function over the tape ops in
:mod:`capsem.tensor`, except :func:`mask_to_logits` and :func:`mix_batch`,
which operate on plain arrays at the data boundary.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from . import tensor as T
from .errors import DomainError, ShapeError
from .routing import clamp_scores
from .tensor import Tensor

_LN_STABILIZER = 1e-5


def linear(x, weight, bias) -> Tensor:
    """Affine map over the last axis: (…, m) x (m, k) + (k,) -> (…, k)."""
    x = T.as_tensor(x)
    weight = T.as_tensor(weight, like=x)
    bias = T.as_tensor(bias, like=x)
    if weight.ndim != 2 or x.shape[-1] != weight.shape[0]:
        raise ShapeError(
            f"linear expects x (..., {weight.shape[0] if weight.ndim == 2 else '?'}),"
            f" got x {x.shape} and weight {weight.shape}"
        )
    lead = x.shape[:-1]
    flat = T.reshape(x, (-1, x.shape[-1]))
    out = T.add(T.contract(flat, weight, "am,mk->ak"), bias)
    return T.reshape(out, lead + (weight.shape[1],))


def layer_norm(x, gain, shift) -> Tensor:
    """Standardize the last axis (mean 0, variance 1 with a small
    stabilizer), then scale by ``gain`` and offset by ``shift``."""
    x = T.as_tensor(x)
    m = x.shape[-1]
    if m < 2:
        raise ShapeError("layer_norm needs at least 2 features on the last axis")
    gain = T.as_tensor(gain, like=x)
    shift = T.as_tensor(shift, like=x)
    mean = T.reduce_mean(x, axes=-1, keepdims=True)
    centered = T.sub(x, mean)
    var = T.reduce_mean(T.square(centered), axes=-1, keepdims=True)
    # 1/sqrt(v) as exp(-log(v)/2); v >= stabilizer keeps log in domain
    inv_std = T.exp(T.mul(-0.5, T.log(T.add(var, _LN_STABILIZER))))
    return T.add(T.mul(gain, T.mul(centered, inv_std)), shift)


def mask_to_logits(mask: np.ndarray) -> np.ndarray:
    """Log-odds of mask values in [0, 1], clamped to [-LOGIT_MAX, LOGIT_MAX].

    Fully present entries (1) map to +LOGIT_MAX, fully absent (0) to
    -LOGIT_MAX; fractional entries, e.g. produced by mixing two masks,
    map to their exact log-odds. A float32 mask gives float32 logits,
    anything else float64.
    """
    x = T.float_array(mask)
    if np.any(x < 0) or np.any(x > 1) or not np.all(np.isfinite(x)):
        raise DomainError("mask values must lie in [0, 1]")
    with np.errstate(divide="ignore"):
        logits = np.log(x) - np.log1p(-x)
    return clamp_scores(logits)


def cross_entropy(scores, target) -> Tensor:
    """Mean over the batch of -sum(target * log softmax(scores)).

    ``target`` rows are probability vectors; soft rows (from mixing) are
    fine. Computed in log space via logsumexp subtraction.
    """
    scores = T.as_tensor(scores)
    tgt = T.asarray(target)
    if tgt.shape != scores.shape or scores.ndim != 2:
        raise ShapeError(
            f"scores {scores.shape} and target {tgt.shape} must match as (batch, k)"
        )
    if np.any(tgt < -1e-12):
        raise ValueError("target rows must be nonnegative")
    if not np.allclose(tgt.sum(axis=1), 1.0, atol=1e-6):
        raise ValueError("target rows must sum to 1")
    log_probs = T.sub(scores, T.logsumexp(scores, axes=1, keepdims=True))
    per_sample = T.neg(T.reduce_sum(T.mul(tgt, log_probs), axes=1))
    return T.reduce_mean(per_sample)


def mix_batch(scores, poses, targets, lam: float, rng):
    """Mix a batch with a shuffled copy of itself, one weight ``lam`` for
    the whole batch, the shuffle drawn from ``rng``.

    Scores mix in probability space (logistic, mix, clamped log-odds by
    :func:`mask_to_logits`), so fully present and fully absent capsules
    blend the way masks do; poses and target rows mix linearly, so
    targets stay on the simplex. Returns (scores, poses, targets).
    """
    lam = float(lam)  # a numpy scalar would upcast float32 batches
    perm = rng.permutation(len(scores))

    def mix(x):
        return lam * x + (1.0 - lam) * x[perm]

    return mask_to_logits(mix(expit(scores))), mix(poses), mix(targets)


def channel_embedding(table, channels) -> Tensor:
    """Rows of a learned ``table`` selected by integer channel ids.

    Differentiable w.r.t. the table (selection is a constant 0/1
    contraction), so a provenance or depth-of-layer embedding can be
    trained through it. Initialize the table with zeros.
    """
    table = T.as_tensor(table)
    ids = np.asarray(channels)
    if ids.dtype.kind not in "iu":
        raise ShapeError(
            f"channel ids must be integers, got dtype {ids.dtype}")
    if ids.ndim == 0:
        ids = ids[None]
    n_tags = table.shape[0]
    if np.any(ids < 0) or np.any(ids >= n_tags):
        raise ShapeError(f"channel ids must lie in [0, {n_tags})")
    flat = ids.reshape(-1)
    onehot = np.zeros((flat.size, n_tags))
    onehot[np.arange(flat.size), flat] = 1.0
    rows = T.contract(onehot, table, "pt,tm->pm")
    return T.reshape(rows, ids.shape + (table.shape[1],))


def init_channel_table(n_tags: int, width: int) -> np.ndarray:
    return np.zeros((n_tags, width))
