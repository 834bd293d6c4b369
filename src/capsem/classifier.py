"""Two-layer routing classifier and its training loop.

The model mirrors the shape used by both reference applications: a first
routing layer with input-shared weights turns however many input
capsules arrive into a fixed set of mid-level capsules, and a second,
fully parameterized layer routes those into one capsule per class.
Class probabilities are the softmax of the final output scores.

Training follows one regime: RAdam with a single-cycle (lr, beta1)
schedule warming up over the first tenth of the steps, batches of 20,
and mixing of sample pairs (poses, score probabilities, and label rows
share one Beta-distributed weight per batch).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import to_one_hot
from .errors import ConfigError, DomainError, ShapeError
from .nn import cross_entropy, mix_batch
from .optim import OneCycleSchedule, RAdam, schedule_at
from .routing import (CapsuleBatch, RoutingConfig, RoutingParams, init_params,
                      is_count, is_finite_number, route)

# samples per untracked forward pass (prediction, evaluation, the route
# trace), so that memory does not grow with the batch
CHUNK_SAMPLES = 100


@dataclass
class CapsuleClassifier:
    layers: list[tuple[RoutingParams, RoutingConfig]]
    n_classes: int

    def forward(self, caps: CapsuleBatch, workspace: dict | None = None):
        """Route through every layer, in ``workspace`` if one is given
        (see :func:`~capsem.routing.route`); returns the per-layer outputs."""
        extra = {} if workspace is None else {"workspace": workspace}
        outs = []
        current = caps
        for params, config in self.layers:
            out = route(params, current, config, **extra)
            outs.append(out)
            current = CapsuleBatch(out.scores, out.poses)
        return outs

    def predict_proba(self, caps: CapsuleBatch) -> np.ndarray:
        """Softmax of the class capsules' scores, one row per sample."""
        return T.softmax(T.tensor(_class_scores(self, caps)), axis=1).data

    def param_dict(self) -> dict[str, np.ndarray]:
        """Flat name -> array view (or tracked tensor) of every parameter."""
        return {f"layer{k}.{name}": value
                for k, (params, _) in enumerate(self.layers)
                for name, value in params.items()}

    def with_zero_betas(self) -> "CapsuleClassifier":
        """Ablated copy: every benefit/cost parameter replaced by zeros."""
        layers = [(RoutingParams.from_items(
            (name, np.zeros_like(value) if name.startswith("beta")
             else np.array(value, copy=True))
            for name, value in params.items()), config)
            for params, config in self.layers]
        return CapsuleClassifier(layers, self.n_classes)


def build_constellation_classifier(d_cov: int, d_in: int, n_classes: int,
                                   n_mid: int = 32, d_mid: int = 4,
                                   d_out: int = 4, n_iters: int = 3,
                                   tie_betas: bool = False,
                                   var_floor: float = 1e-2,
                                   seed: int = 0) -> CapsuleClassifier:
    """Variable-input first layer into ``n_mid`` capsules, then a fixed
    layer into one capsule per class.

    The default variance floor is much larger than the routing layer's
    own default: tightly fitted Gaussians saturate the assignment
    softmax and starve the short desk-scale runs of gradient signal.
    """
    cfg1 = RoutingConfig(n_out=n_mid, d_cov=d_cov, d_in=d_in, d_out=d_mid,
                         n_iters=n_iters, tie_betas=tie_betas,
                         var_floor=var_floor)
    cfg2 = RoutingConfig(n_out=n_classes, n_in=n_mid, d_cov=d_cov,
                         d_in=d_mid, d_out=d_out, n_iters=n_iters,
                         tie_betas=tie_betas, var_floor=var_floor)
    rng = np.random.default_rng(seed)
    return CapsuleClassifier(
        [(init_params(cfg1, int(rng.integers(2 ** 31))), cfg1),
         (init_params(cfg2, int(rng.integers(2 ** 31))), cfg2)],
        n_classes,
    )


@dataclass
class TrainRegime:
    """Knobs of one training run.

    The learning-rate endpoints default to desk-scale values: the
    full-scale endpoints (1e-5 to 5e-4, the defaults of
    :class:`~capsem.optim.OneCycleSchedule`) are tuned for runs of tens
    of thousands of steps and move parameters far too little in the few
    hundred steps a desk run takes. The cycle shape, warmup fraction,
    and momentum endpoints are unchanged.

    ``threads`` accepts only 1: every batch runs on one tape. The field
    stays only because the benchmark harness passes ``threads=1``; it
    goes when the benchmark drops that argument.
    """

    epochs: int = 5
    batch_size: int = 20
    lr_start: float = 2e-4
    lr_peak: float = 1e-2
    beta1_start: float = 0.999
    beta1_peak: float = 0.9 * 0.999
    warm_frac: float = 0.10
    mixup: bool = True
    mixup_alpha: tuple[float, float] = (0.2, 0.2)
    seed: int = 0
    threads: int = 1

    def __post_init__(self):
        for name, least in (("epochs", 1), ("batch_size", 1), ("seed", 0)):
            if not is_count(getattr(self, name), least):
                raise ConfigError(f"{name} must be an int >= {least}")
        if not is_count(self.threads) or self.threads != 1:
            raise ConfigError("threads must be 1")
        for name in ("lr_start", "lr_peak", "beta1_start", "beta1_peak",
                     "warm_frac"):
            if not is_finite_number(getattr(self, name)):
                raise ConfigError(f"{name} must be a finite number")
        if not (self.lr_start >= 0 and self.lr_peak >= 0):
            raise ConfigError("lr_start and lr_peak must be >= 0")
        if not (0 <= self.beta1_start < 1 and 0 <= self.beta1_peak < 1):
            raise ConfigError("beta1_start and beta1_peak must lie in [0, 1)")
        if not 0 < self.warm_frac < 1:
            raise ConfigError("warm_frac must lie in (0, 1)")
        if not isinstance(self.mixup, bool):
            raise ConfigError("mixup must be a bool")
        alpha = self.mixup_alpha
        if not (isinstance(alpha, (tuple, list)) and len(alpha) == 2
                and all(is_finite_number(a) and a > 0 for a in alpha)):
            raise ConfigError("mixup_alpha must be a pair of positive numbers")


@dataclass
class EpochLog:
    epoch: int
    val_loss: float
    val_accuracy: float


def _batch_gradients(model: CapsuleClassifier, scores, poses, targets):
    """Loss and parameter gradients for one (possibly mixed) batch,
    differentiated on one tape."""
    tape = T.Tape()
    tracked = CapsuleClassifier(
        [(params.tracked(tape), cfg) for params, cfg in model.layers],
        model.n_classes)
    out = tracked.forward(CapsuleBatch(scores, poses))[-1]
    loss = cross_entropy(out.scores, targets)
    grads = T.backward(tape, loss)
    named = {}
    for name, value in tracked.param_dict().items():
        grad = grads.get(value.node)
        # a parameter off the loss path gets a zero gradient
        named[name] = np.zeros_like(value.data) if grad is None else grad
    return loss.item(), named


def _class_scores(model: CapsuleClassifier, caps: CapsuleBatch) -> np.ndarray:
    """Class-capsule scores, one row per sample, routed untracked in
    chunks of CHUNK_SAMPLES that share one workspace; a zero-sample batch
    is one empty chunk."""
    scores, poses = T.asarray(caps.scores), T.asarray(caps.poses)
    # a stand-in route() without the keyword, such as the benchmark's
    # wrapper tracer, routes without a workspace
    workspace = {} if "workspace" in inspect.signature(route).parameters \
        else None
    chunks = []
    for lo in range(0, max(len(scores), 1), CHUNK_SAMPLES):
        chunk = CapsuleBatch(scores[lo:lo + CHUNK_SAMPLES],
                             poses[lo:lo + CHUNK_SAMPLES])
        chunks.append(model.forward(chunk, workspace)[-1].scores.data)
    return np.concatenate(chunks)


def evaluate(model: CapsuleClassifier, caps: CapsuleBatch,
             labels) -> tuple[float, float]:
    """Mean cross-entropy and accuracy over a labeled capsule batch."""
    labels = np.asarray(labels)
    if len(labels) == 0:
        return float("nan"), float("nan")
    scores = _class_scores(model, caps)
    loss = cross_entropy(scores, to_one_hot(labels, model.n_classes))
    return loss.item(), float(np.mean(scores.argmax(axis=1) == labels))


def train_classifier(model: CapsuleClassifier, train_caps: CapsuleBatch,
                     train_labels, val_caps: CapsuleBatch, val_labels,
                     regime: TrainRegime,
                     on_epoch=None) -> list[EpochLog]:
    """Train in place; returns the per-epoch validation log.

    Epoch 0 is logged before any update. Raises DomainError if the
    training loss stops being finite.
    """
    scores = T.asarray(train_caps.scores)
    poses = T.asarray(train_caps.poses)
    labels = np.asarray(train_labels)
    n = len(labels)
    if n == 0:
        raise ShapeError("training set is empty")
    targets = to_one_hot(labels, model.n_classes)

    steps_per_epoch = (n + regime.batch_size - 1) // regime.batch_size
    schedule = OneCycleSchedule(
        total_steps=regime.epochs * steps_per_epoch,
        lr_start=regime.lr_start, lr_peak=regime.lr_peak,
        beta1_start=regime.beta1_start, beta1_peak=regime.beta1_peak,
        warm_frac=regime.warm_frac,
    )
    optimizer = RAdam(model.param_dict())
    rng = np.random.default_rng([regime.seed, 0xED])

    logs = []

    def log_epoch(epoch):
        val_loss, val_acc = evaluate(model, val_caps, val_labels)
        entry = EpochLog(epoch, val_loss, val_acc)
        logs.append(entry)
        if on_epoch is not None:
            on_epoch(entry)

    log_epoch(0)
    step = 0
    for epoch in range(1, regime.epochs + 1):
        order = rng.permutation(n)
        for lo in range(0, n, regime.batch_size):
            idx = order[lo:lo + regime.batch_size]
            bs, bp, bt = scores[idx], poses[idx], targets[idx]
            if regime.mixup:
                lam = rng.beta(*regime.mixup_alpha)
                bs, bp, bt = mix_batch(bs, bp, bt, lam, rng)
            loss, grads = _batch_gradients(model, bs, bp, bt)
            if not np.isfinite(loss):
                raise DomainError(f"training loss became non-finite "
                                  f"at step {step}")
            lr, beta1 = schedule_at(schedule, step)
            optimizer.step(grads, lr=lr, beta1=beta1)
            step += 1
        log_epoch(epoch)
    return logs
