"""Training regime pieces: the rectified-Adam update rule and the
single-cycle (learning rate, first momentum) schedule.

Both hyperparameters warm up linearly from their starting values to a
peak over the first tenth of training, then relax back to the start
along a half cosine. The per-step values are injected into every update,
including the bias corrections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError


@dataclass(frozen=True)
class OneCycleSchedule:
    total_steps: int
    lr_start: float = 1e-5
    lr_peak: float = 5e-4
    beta1_start: float = 0.999
    beta1_peak: float = 0.9 * 0.999
    warm_frac: float = 0.10

    def __post_init__(self):
        if self.total_steps < 1:
            raise ValueError("total_steps must be >= 1")
        if not 0.0 < self.warm_frac < 1.0:
            raise ValueError("warm_frac must lie in (0, 1)")

    @property
    def warm_end(self) -> int:
        return math.floor(self.warm_frac * self.total_steps)


def schedule_at(schedule: OneCycleSchedule, step: int) -> tuple[float, float]:
    """(lr, beta1) at ``step``: linear start->peak on [0, warm_end], then a
    cosine half-wave peak->start on [warm_end, total_steps]."""
    if not 0 <= step <= schedule.total_steps:
        raise ValueError(
            f"step {step} outside [0, {schedule.total_steps}]"
        )
    warm_end = schedule.warm_end

    def leg(start, peak):
        if step <= warm_end:
            if warm_end == 0:
                return peak
            return start + (peak - start) * (step / warm_end)
        u = (step - warm_end) / (schedule.total_steps - warm_end)
        return start + (peak - start) * 0.5 * (1.0 + math.cos(math.pi * u))

    return (leg(schedule.lr_start, schedule.lr_peak),
            leg(schedule.beta1_start, schedule.beta1_peak))


class RAdam:
    """Rectified Adam over a dict of named parameter arrays.

    Moments use the per-step beta1 handed to :meth:`step`; beta2 and eps
    are the fixed constants of the training regime. While the
    rectification term rho_t stays at or below 4 (the first few steps at
    beta2 = 0.999) the update falls back to bias-corrected momentum with
    no division by the second moment.
    """

    beta2 = 0.999
    eps = 1e-8
    rho_inf = 2.0 / (1.0 - beta2) - 1.0

    def __init__(self, params: dict[str, np.ndarray]):
        self.params = params
        self.t = 0
        self.m = {name: np.zeros_like(p) for name, p in params.items()}
        self.v = {name: np.zeros_like(p) for name, p in params.items()}

    def rho_t(self, t: int) -> float:
        b2t = self.beta2 ** t
        return self.rho_inf - 2.0 * t * b2t / (1.0 - b2t)

    def step(self, grads: dict[str, np.ndarray], lr: float,
             beta1: float) -> None:
        """One in-place update of every parameter from its gradient.

        ``lr``, ``beta1``, the gradient names and every gradient are
        checked before anything changes, so a step that raises leaves the
        parameters, both moments and ``t`` as they were.
        """
        if not (math.isfinite(lr) and lr >= 0):
            raise DomainError(f"lr must be a finite number >= 0, got {lr}")
        if not 0 <= beta1 < 1:
            raise DomainError(f"beta1 must lie in [0, 1), got {beta1}")
        if set(grads) != set(self.params):
            raise ShapeError(
                f"gradient names {sorted(grads)} do not match the parameter "
                f"names {sorted(self.params)}")
        grads = {name: np.asarray(grads[name]) for name in sorted(self.params)}
        for name, g in grads.items():
            if g.shape != self.params[name].shape:
                raise ShapeError(
                    f"gradient for {name!r} has shape {g.shape}, expected "
                    f"{self.params[name].shape}"
                )
            if not np.all(np.isfinite(g)):
                raise DomainError(f"non-finite gradient for {name!r}")
        self.t += 1
        t = self.t
        rho = self.rho_t(t)
        rectified = rho > 4.0
        if rectified:
            rect = math.sqrt(
                ((rho - 4.0) * (rho - 2.0) * self.rho_inf)
                / ((self.rho_inf - 4.0) * (self.rho_inf - 2.0) * rho))
        bias1 = 1.0 - beta1 ** t
        bias2 = 1.0 - self.beta2 ** t

        for name, g in grads.items():
            m = self.m[name]
            v = self.v[name]
            m *= beta1
            m += (1.0 - beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            m_hat = m / bias1
            if rectified:
                v_hat = np.sqrt(v / bias2)
                self.params[name] -= lr * rect * m_hat / (v_hat + self.eps)
            else:
                self.params[name] -= lr * m_hat
