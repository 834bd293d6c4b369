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

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from . import tensor as T
from .data import to_one_hot
from .errors import DomainError, ShapeError
from .nn import cross_entropy, draw_mix_weight, mask_to_logits, mixup
from .optim import OneCycleSchedule, RAdam, schedule_at
from .routing import (CapsuleBatch, RoutingConfig, RoutingParams, init_params,
                      route)

_EVAL_BATCH = 100


@dataclass
class CapsuleClassifier:
    layers: list[tuple[RoutingParams, RoutingConfig]]
    n_classes: int

    def forward(self, caps: CapsuleBatch):
        """Route through every layer; returns the per-layer outputs."""
        outs = []
        current = caps
        for params, config in self.layers:
            out = route(params, current, config)
            outs.append(out)
            current = CapsuleBatch(out.scores, out.poses)
        return outs

    def predict_proba(self, caps: CapsuleBatch) -> np.ndarray:
        """Softmax of the class capsules' scores, one row per sample."""
        scores = self.forward(caps)[-1].scores.data
        return T.softmax(T.tensor(scores), axis=1).data

    def param_dict(self) -> dict[str, np.ndarray]:
        """Flat name -> array view of every learnable parameter."""
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


@dataclass
class EpochLog:
    epoch: int
    val_loss: float
    val_accuracy: float


def _mix_batch(scores, poses, targets, lam: float, rng) -> tuple:
    """Mix a batch with a shuffled copy of itself, one weight per batch.

    Score mixing happens in probability space (logistic, mix, log-odds)
    so fully-present and fully-absent capsules blend the same way masks
    do; poses and label rows mix linearly with the same weight.
    """
    perm = rng.permutation(len(scores))
    (mixed_probs, mixed_poses), mixed_targets = mixup(
        ((expit(scores), poses), targets),
        ((expit(scores[perm]), poses[perm]), targets[perm]), lam=lam)
    return mask_to_logits(mixed_probs), mixed_poses, mixed_targets


def _batch_gradients(model: CapsuleClassifier, scores, poses, targets,
                     threads: int = 1):
    """Loss and summed parameter gradients for one (possibly mixed) batch.

    With ``threads > 1`` the batch is split into contiguous shards, each
    differentiated on its own tape, and the per-shard gradients are
    combined in shard order, so results are run-to-run deterministic.
    """
    n = len(scores)
    shards = min(threads, n) if threads > 1 else 1
    bounds = np.linspace(0, n, shards + 1, dtype=int)

    def run_shard(lo, hi):
        tape = T.Tape()
        tracked = [(params.tracked(tape), cfg) for params, cfg in model.layers]
        caps = CapsuleBatch(scores[lo:hi], poses[lo:hi])
        outs = CapsuleClassifier(tracked, model.n_classes).forward(caps)
        loss = cross_entropy(outs[-1].scores, targets[lo:hi])
        grads = T.backward(tape, loss)
        named = {f"layer{k}.{name}": grads.get(value.node)
                 for k, (tp, _) in enumerate(tracked)
                 for name, value in tp.items()}
        return loss.item(), named, hi - lo

    if shards == 1:
        loss, named, _ = run_shard(0, n)
        return loss, {k: (np.zeros_like(model.param_dict()[k]) if g is None
                          else g) for k, g in named.items()}

    with ThreadPoolExecutor(max_workers=shards) as pool:
        results = list(pool.map(lambda lohi: run_shard(*lohi),
                                zip(bounds[:-1], bounds[1:])))
    total = {k: np.zeros_like(v) for k, v in model.param_dict().items()}
    loss_acc = 0.0
    for shard_loss, named, count in results:  # fixed shard order
        w = count / n
        loss_acc += w * shard_loss
        for k, g in named.items():
            if g is not None:
                total[k] += w * g
    return loss_acc, total


def evaluate(model: CapsuleClassifier, caps: CapsuleBatch,
             labels) -> tuple[float, float]:
    """Mean cross-entropy and accuracy over a labeled capsule batch."""
    scores = T.asarray(caps.scores)
    poses = T.asarray(caps.poses)
    labels = np.asarray(labels)
    n = len(labels)
    if n == 0:
        return float("nan"), float("nan")
    targets = to_one_hot(labels, model.n_classes)
    total_loss, hits = 0.0, 0
    for lo in range(0, n, _EVAL_BATCH):
        hi = min(lo + _EVAL_BATCH, n)
        out = model.forward(CapsuleBatch(scores[lo:hi], poses[lo:hi]))[-1]
        loss = cross_entropy(out.scores, targets[lo:hi])
        total_loss += loss.item() * (hi - lo)
        hits += int((out.scores.data.argmax(axis=1) == labels[lo:hi]).sum())
    return total_loss / n, hits / n


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
                lam = draw_mix_weight(rng, regime.mixup_alpha)
                bs, bp, bt = _mix_batch(bs, bp, bt, lam, rng)
            loss, grads = _batch_gradients(model, bs, bp, bt,
                                           threads=regime.threads)
            if not np.isfinite(loss):
                raise DomainError(f"training loss became non-finite "
                                  f"at step {step}")
            lr, beta1 = schedule_at(schedule, step)
            optimizer.step(grads, lr=lr, beta1=beta1)
            step += 1
        log_epoch(epoch)
    return logs
