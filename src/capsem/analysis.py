"""Quantitative diagnostics: pose-vector trajectories and routing-trace
summaries, emitted as plot-ready CSV rather than rendered figures.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import DomainError, ShapeError
from .routing import RoutingTrace


@dataclass
class PoseTrajectoryMetrics:
    """Per-step, per-pose-vector curves over a trajectory of capsules.

    For a trajectory of T capsules of shape (d_cov, d), pose vector c is
    row c of the capsule. Arrays are (T, d_cov):

      rel_dist    Euclidean distance to the initial vector / initial norm
      norm_ratio  current norm / initial norm
      cosine      cosine similarity with the initial vector
    """

    rel_dist: np.ndarray
    norm_ratio: np.ndarray
    cosine: np.ndarray


def pose_trajectory_metrics(poses) -> PoseTrajectoryMetrics:
    """Track each pose vector of a capsule across a trajectory.

    ``poses`` is a sequence of (d_cov, d) capsules (or an equivalent
    (T, d_cov, d) array). Step 0 is the reference: rel_dist 0,
    norm_ratio 1, cosine 1. Initial vectors must be nonzero.
    """
    arr = np.asarray([T.asarray(p) for p in poses], dtype=np.float64)
    if arr.ndim != 3 or arr.shape[0] < 1:
        raise ShapeError(
            f"expected a nonempty sequence of (d_cov, d) capsules, got "
            f"shape {arr.shape}"
        )
    initial = arr[0]
    init_norms = np.linalg.norm(initial, axis=1)
    degenerate = np.nonzero(init_norms == 0)[0]
    if degenerate.size:
        raise DomainError(
            f"initial pose vector {int(degenerate[0])} has zero norm"
        )
    diffs = np.linalg.norm(arr - initial[None], axis=2)
    norms = np.linalg.norm(arr, axis=2)
    dots = np.einsum("tcd,cd->tc", arr, initial)
    denom = norms * init_norms[None]
    # a later vector may collapse to zero; its direction is undefined,
    # report cosine 0 rather than a non-finite value
    cosine = np.divide(dots, denom, out=np.zeros_like(dots),
                       where=denom != 0)
    return PoseTrajectoryMetrics(
        rel_dist=diffs / init_norms[None],
        norm_ratio=norms / init_norms[None],
        cosine=cosine,
    )


def write_pose_metrics_csv(path, metrics: PoseTrajectoryMetrics) -> None:
    """One row per trajectory step; columns rel_dist_c / norm_ratio_c /
    cosine_c for each pose vector c."""
    steps, d_cov = metrics.rel_dist.shape
    header = ["step"]
    for name in ("rel_dist", "norm_ratio", "cosine"):
        header += [f"{name}_{c}" for c in range(d_cov)]
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for t in range(steps):
            row = [t]
            row += [repr(float(v)) for v in metrics.rel_dist[t]]
            row += [repr(float(v)) for v in metrics.norm_ratio[t]]
            row += [repr(float(v)) for v in metrics.cosine[t]]
            writer.writerow(row)


def read_pose_metrics_csv(path) -> PoseTrajectoryMetrics:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    header, body = rows[0], rows[1:]
    d_cov = sum(1 for h in header if h.startswith("rel_dist_"))
    data = np.array([[float(v) for v in row[1:]] for row in body])
    return PoseTrajectoryMetrics(
        rel_dist=data[:, :d_cov],
        norm_ratio=data[:, d_cov:2 * d_cov],
        cosine=data[:, 2 * d_cov:],
    )


@dataclass
class IterationSummary:
    probs_entropy: np.ndarray  # (batch, n_in), nats
    mean_used: np.ndarray      # (batch, n_out)
    scores: np.ndarray         # (batch, n_out)


def trace_summary(trace: RoutingTrace) -> list[IterationSummary]:
    """Per-iteration view of a routing trace: the entropy of each input's
    assignment distribution, the mean share used per output, and the
    output scores after that iteration's refit."""
    summaries = []
    for step in trace.iterations:
        p = step.probs
        with np.errstate(divide="ignore", invalid="ignore"):
            plogp = np.where(p > 0, p * np.log(p), 0.0)
        entropy = -plogp.sum(axis=2)
        mean_used = step.used.mean(axis=1)
        summaries.append(IterationSummary(entropy, mean_used,
                                          step.scores.copy()))
    return summaries
