"""The three benchmark workloads: set-up, measurement and output checks.

Each workload is a class with ``setup(seed, workdir)`` (returns its inputs;
timed as ``setup_s``), ``run(state, seconds, tracer)`` (the measured
phase), ``verify(state, run)`` (whole-run checks that call the package) and
``peak_pass(state)`` (one untimed pass under tracemalloc). The program only
ever sees inputs generated here from the seed.

With a tracer, ``run`` traces every other step and leaves the steps in
between untraced, so the two kinds interleave and the tracing overhead is
measured against untraced steps of the same run.

desk_train   the criterion-9 training run, the system's main use: tape
             forward, backward and the RAdam update, plus evaluations.
route_bulk   ``capsem route`` over a CAPS file as one batch: untracked
             inference on a working set far larger than the CPU caches.
wide_route   one variable-output layer, 64 padded inputs per sample,
             forward and backward: elementwise E/M-step work dominates and
             the vote contraction is cheap.
"""

from __future__ import annotations

import io
import math
import time
import traceback
import tracemalloc
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

import numpy as np

from capsem import classifier, cli, data, optim, routing
from capsem import tensor as T

import hostspeed
import tracing

# Criterion 9 asks for 0.90 at seed 0, but the same recipe does not reach
# 0.90 at every seed: seeds 1-10 end between 0.880 and 0.954 (mean 0.92).
# The bar sits well below that spread and far above chance (0.20), so it
# catches broken training without failing a good run on an unlucky seed.
DESK_MIN_ACCURACY = 0.80
REFERENCE_TOLERANCE = 1e-10     # criterion 4
ROW_SUM_TOLERANCE = 1e-9
SUBSET_TOLERANCE = 1e-12
PRINTED_TOLERANCE = 5e-7        # the CLI prints probabilities to 6 places

# Constellation inputs come from the default ConstellationSpec, the task
# criterion 9 defines; the seed picks which samples are drawn from it.
SAMPLES_PER_SEED = 10_000


def constellation(seed: int, n: int, offset: int = 0):
    """``n`` labelled samples of the default task, chosen by ``seed``."""
    return data.make_dataset(data.ConstellationSpec(), n,
                             start=seed * SAMPLES_PER_SEED + offset)


class Run:
    """What one measured phase produced: per-step times, samples and checks.

    Every step (a training step, a route call, a forward+backward call) and
    every whole-run check is one attempted operation; ``failed`` counts the
    ones that raised or failed a check. ``traced[k]`` tells whether step k
    ran with the tracer installed. ``ref_ms`` holds the host reference
    kernel's time sampled before each step and after the last one (see
    ``hostspeed``); ``wall_s`` leaves out the time spent in the kernel.
    """

    def __init__(self):
        self.step_ms: list[float] = []
        self.traced: list[bool] = []
        self.ref_ms: list[float] = []
        self.host = hostspeed.HostClock()
        self.samples = 0
        self.wall_s = 0.0
        self.checks: list[tuple[str, bool, str]] = []
        self.attempted = 0
        self.failed = 0
        self.extra: dict[str, tuple[float, str]] = {}
        self.output = None

    def step(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.checks.append((name, bool(ok), detail))
        self.step(ok)

    def normalized_ms(self) -> np.ndarray:
        """Step times at the reference host speed."""
        return hostspeed.normalize(self.step_ms, self.ref_ms)

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        """Step metrics at the reference host speed, and as timed
        (``raw.*``)."""
        out = {"wall_s": (self.wall_s, "s")}
        if self.step_ms:
            for prefix, ms in (("", self.normalized_ms()),
                               ("raw.", np.asarray(self.step_ms))):
                out[prefix + "samples_per_s"] = (
                    self.samples / (ms.sum() / 1e3), "1/s")
                for q in (50, 90, 98):
                    out[f"{prefix}step_ms_p{q}"] = (
                        float(np.percentile(ms, q)), "ms")
            out["host.ref_ms"] = (self.host.median_ms(), "ms")
        out["error_rate"] = (self.failed / max(self.attempted, 1), "fraction")
        out.update(self.extra)
        return out


class _Alternator:
    """Installs ``tracer`` for every other step; a no-op without a tracer."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.active = False

    def set(self, active: bool) -> None:
        if self.tracer is None or active == self.active:
            return
        if active:
            self.tracer.install()
        else:
            self.tracer.uninstall()
        self.active = active


def peak_mb(fn) -> float:
    """Peak traced allocation, in MB, of one call of ``fn``."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def _head(caps, labels, n):
    return (routing.CapsuleBatch(T.asarray(caps.scores)[:n],
                                 T.asarray(caps.poses)[:n]), labels[:n])


# ---------------------------------------------------------------------------
# desk_train


class _StepClock:
    """Times training steps from outside ``train_classifier``.

    A step ends when ``RAdam.step`` returns; it starts where the previous
    step ended, or where the epoch's evaluation finished (``on_epoch``).
    The loss of a step is the last ``cross_entropy`` value before it. The
    host reference kernel is sampled at the start and after each step,
    outside the step's time.
    With a tracer, tracing is switched at each step end, between two steps.
    """

    def __init__(self, alternator: _Alternator, run: Run):
        self.alternator = alternator
        self.run = run
        self.step_ms: list[float] = []
        self.traced: list[bool] = []
        self.losses: list[float] = []
        self.logs: list = []
        self._last = time.perf_counter_ns()
        self._loss = math.nan

    def on_epoch(self, entry) -> None:
        self.logs.append(entry)
        self._last = time.perf_counter_ns()

    def _step_done(self) -> None:
        now = time.perf_counter_ns()
        self.step_ms.append((now - self._last) / 1e6)
        self.traced.append(self.alternator.active)
        self.losses.append(self._loss)
        self.alternator.set(len(self.step_ms) % 2 == 0)
        self.run.ref_ms.append(self.run.host.sample())
        self._last = time.perf_counter_ns()

    @contextmanager
    def installed(self):
        clock = self
        original_ce = classifier.cross_entropy

        class ClockedRAdam(optim.RAdam):
            def step(self, *args, **kwargs):
                super().step(*args, **kwargs)
                clock._step_done()

        def cross_entropy(*args, **kwargs):
            loss = original_ce(*args, **kwargs)
            clock._loss = loss.item()
            return loss

        with tracing.patched(classifier, "RAdam", ClockedRAdam), \
                tracing.patched(classifier, "cross_entropy", cross_entropy):
            yield self


class DeskTrain:
    """The criterion-9 run: 2000/500 samples, batch 20, 5 epochs, RAdam,
    one-cycle and mixup, threads=1. The whole run is the measured phase,
    whatever ``seconds`` is."""

    name = "desk_train"
    BATCH = 20

    def __init__(self, smoke: bool = False):
        self.n_train, self.n_val, self.epochs = \
            (100, 40, 1) if smoke else (2000, 500, 5)

    def _model(self, seed):
        spec = data.ConstellationSpec()
        return classifier.build_constellation_classifier(
            spec.d_cov, spec.d_in, spec.n_classes, seed=seed)

    def _regime(self, seed, epochs):
        return classifier.TrainRegime(epochs=epochs, batch_size=self.BATCH,
                                      mixup=True, seed=seed, threads=1)

    def setup(self, seed: int, workdir: Path):
        train = constellation(seed, self.n_train)
        val = constellation(seed, self.n_val, offset=self.n_train)
        # warm-up: two steps and two small evaluations on a throwaway model
        classifier.train_classifier(self._model(seed),
                                    *_head(*train, 40), *_head(*val, 20),
                                    self._regime(seed, 1))
        return dict(seed=seed, train=train, val=val)

    def run(self, state, seconds: float, tracer=None) -> Run:
        run = Run()
        model = self._model(state["seed"])
        alternator = _Alternator(tracer)
        clock = _StepClock(alternator, run)
        error = None
        t0 = time.perf_counter()
        run.ref_ms.append(run.host.sample())
        with clock.installed():
            alternator.set(True)
            try:
                classifier.train_classifier(
                    model, *state["train"], *state["val"],
                    self._regime(state["seed"], self.epochs),
                    on_epoch=clock.on_epoch)
            except Exception as e:  # a failed run is reported, not fatal
                traceback.print_exc()
                error = e
            finally:
                alternator.set(False)
        run.wall_s = time.perf_counter() - t0 - run.host.spent_s
        run.step_ms, run.traced = clock.step_ms, clock.traced
        run.samples = self.BATCH * len(clock.step_ms)
        for loss in clock.losses:
            run.step(math.isfinite(loss))
        if error is not None:
            run.step(False)
        expected = self.epochs * math.ceil(self.n_train / self.BATCH)
        run.check("all_steps_completed",
                  len(clock.step_ms) == expected and error is None,
                  f"{len(clock.step_ms)} of {expected} steps"
                  + ("" if error is None else f"; raised {error!r}"))
        bad = sum(not math.isfinite(x) for x in clock.losses)
        run.check("step_losses_finite", bad == 0 and error is None,
                  f"{bad} non-finite of {len(clock.losses)}")
        acc = clock.logs[-1].val_accuracy if clock.logs else math.nan
        run.check("val_accuracy_above_bar", acc >= DESK_MIN_ACCURACY,
                  f"final val_accuracy {acc:.4f} (>= {DESK_MIN_ACCURACY}) "
                  f"after {self.epochs} epochs on {self.n_train}/{self.n_val} "
                  f"samples")
        run.extra["val_accuracy"] = (acc, "fraction")
        run.extra["eval_s"] = (run.wall_s - sum(clock.step_ms) / 1e3, "s")
        return run

    def verify(self, state, run: Run) -> None:
        """Every desk_train check needs only what ``run`` recorded."""

    def peak_pass(self, state) -> float:
        """Three training steps and two full validation passes."""
        model = self._model(state["seed"])
        return peak_mb(lambda: classifier.train_classifier(
            model, *_head(*state["train"], 3 * self.BATCH), *state["val"],
            self._regime(state["seed"], 1)))

    def describe(self) -> str:
        steps = self.epochs * math.ceil(self.n_train / self.BATCH)
        return (f"{steps} training steps of batch {self.BATCH} "
                f"({self.n_train} train / {self.n_val} val samples, "
                f"{self.epochs} epochs)")


# ---------------------------------------------------------------------------
# route_bulk


def _parse_route_csv(text: str, n_classes: int) -> np.ndarray:
    lines = text.splitlines()
    if lines[0] != "sample," + ",".join(f"p{k}" for k in range(n_classes)):
        raise ValueError(f"unexpected header {lines[0]!r}")
    rows = [line.split(",") for line in lines[1:]
            if not line.startswith(("accuracy", "trace"))]
    return np.array([[float(x) for x in row[1:]] for row in rows])


class RouteBulk:
    """``capsem route`` over one CAPS file of constellation samples, with
    the desk classifier's architecture and initial weights for the seed."""

    name = "route_bulk"
    MIN_CALLS = 4
    # reference kernel calls sampled before each route call (about 5% of
    # its time)
    REF_REPS = 4

    def __init__(self, smoke: bool = False):
        self.n = 40 if smoke else 300

    def setup(self, seed: int, workdir: Path):
        spec = data.ConstellationSpec()
        caps, labels = constellation(seed, self.n)
        model = classifier.build_constellation_classifier(
            spec.d_cov, spec.d_in, spec.n_classes, seed=seed)
        model_path = workdir / "route_bulk.model"
        caps_path = workdir / "route_bulk.caps"
        data.write_model(model_path, model.layers, model.n_classes)
        data.write_capsules(caps_path, caps, labels)
        state = dict(seed=seed, caps=caps, n_classes=model.n_classes,
                     model_path=model_path,
                     argv=["route", "--model", str(model_path),
                           "--input", str(caps_path)])
        self._call(state)  # warm-up
        return state

    def _call(self, state):
        out = io.StringIO()
        try:
            with redirect_stdout(out):
                code = cli.main(state["argv"])
        except Exception:  # a failed call is counted, not fatal
            traceback.print_exc()
            code = None
        return code, out.getvalue()

    @contextmanager
    def _capturing(self):
        """Keep the probabilities each route call computed, unrounded."""
        captured = {}

        class Capturing(classifier.CapsuleClassifier):
            def predict_proba(self, *args, **kwargs):
                captured["probs"] = super().predict_proba(*args, **kwargs)
                return captured["probs"]

        with tracing.patched(cli, "CapsuleClassifier", Capturing):
            yield captured

    def run(self, state, seconds: float, tracer=None) -> Run:
        run = Run()
        alternator = _Alternator(tracer)
        first = None
        bad_calls = 0
        t_start = time.perf_counter()
        deadline = t_start + seconds
        with self._capturing() as captured:
            while (time.perf_counter() < deadline
                   or len(run.step_ms) < self.MIN_CALLS):
                captured.clear()
                run.ref_ms.append(run.host.sample(self.REF_REPS))
                alternator.set(len(run.step_ms) % 2 == 0)
                t0 = time.perf_counter()
                if alternator.active:
                    with tracer.span("cli.route"):
                        code, text = self._call(state)
                else:
                    code, text = self._call(state)
                run.step_ms.append((time.perf_counter() - t0) * 1e3)
                run.traced.append(alternator.active)
                alternator.set(False)
                probs = captured.get("probs")
                ok = (code == 0 and probs is not None
                      and probs.shape == (self.n, state["n_classes"])
                      and bool(np.all(np.isfinite(probs)))
                      and float(np.abs(probs.sum(axis=1) - 1).max())
                      <= ROW_SUM_TOLERANCE)
                if ok and first is None:
                    first = probs
                    printed = _parse_route_csv(text, state["n_classes"])
                    run.check("printed_rows_match",
                              printed.shape == probs.shape
                              and np.abs(printed - probs).max()
                              <= PRINTED_TOLERANCE,
                              f"{len(printed)} printed rows against the "
                              f"returned probabilities")
                elif ok:
                    ok = np.array_equal(probs, first)
                run.step(ok)
                bad_calls += not ok
            run.ref_ms.append(run.host.sample(self.REF_REPS))
        run.wall_s = time.perf_counter() - t_start - run.host.spent_s
        run.samples = self.n * len(run.step_ms)
        run.check("every_call_valid", bad_calls == 0,
                  f"exit 0, finite rows summing to 1 within "
                  f"{ROW_SUM_TOLERANCE:g}, identical across "
                  f"{len(run.step_ms)} calls")
        run.output = first
        return run

    def verify(self, state, run: Run) -> None:
        """Route a sampled subset again through ``predict_proba``."""
        name = "subset_matches_predict_proba_batches_of_100"
        probs = run.output
        if probs is None:
            run.check(name, False, "no valid route output")
            return
        layers, n_classes = data.read_model(state["model_path"])
        model = classifier.CapsuleClassifier(layers, n_classes)
        rng = np.random.default_rng([state["seed"], 0xB0])
        idx = np.sort(rng.choice(self.n, size=min(200, self.n),
                                 replace=False))
        scores = T.asarray(state["caps"].scores)
        poses = T.asarray(state["caps"].poses)
        worst = 0.0
        for lo in range(0, len(idx), 100):
            b = idx[lo:lo + 100]
            got = model.predict_proba(routing.CapsuleBatch(scores[b],
                                                           poses[b]))
            worst = max(worst, float(np.abs(got - probs[b]).max()))
        run.check(name, worst <= SUBSET_TOLERANCE,
                  f"{len(idx)} sampled rows, max |diff| {worst:.2e} "
                  f"(<= {SUBSET_TOLERANCE:g})")

    def peak_pass(self, state) -> float:
        return peak_mb(lambda: self._call(state))

    def describe(self) -> str:
        return (f"each step is one `capsem route` call over {self.n} "
                f"samples as one batch")


# ---------------------------------------------------------------------------
# wide_route


def wide_batch(rng, batch: int, n: int, width: int = 16, d_cov: int = 4):
    """Embedding vectors with a padded tail: each sample keeps its first
    n/2..n inputs (mask 1) and pads the rest (mask 0)."""
    vectors = rng.normal(0.0, 1.0, size=(batch, n, width))
    kept = rng.integers(n // 2, n + 1, size=batch)
    mask = (np.arange(n)[None, :] < kept[:, None]).astype(np.float64)
    return data.ingest_embeddings(vectors, mask, d_cov=d_cov)


class WideRoute:
    """One variable-output layer (``out_bias``, 16 outputs) over batches of
    8 samples with 64 16-wide inputs each (d_cov=4), forward and backward
    through a scalar loss. Step times depend on the values routed, so each
    run cycles through a pool of batches."""

    name = "wide_route"
    BATCH, N_IN, N_OUT, POOL = 8, 64, 16, 32
    MIN_CALLS = 10
    WARM_UP_CALLS = 4

    def __init__(self, smoke: bool = False):
        pass  # time-bounded already; nothing to shrink

    def _config(self):
        return routing.RoutingConfig(n_out="variable", d_cov=4, d_in=4,
                                     d_out=4, n_iters=3)

    def setup(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 0x57])
        pool = [wide_batch(rng, self.BATCH, self.N_IN)
                for _ in range(self.POOL)]
        config = self._config()
        params = routing.init_params(config, seed)
        out_bias = rng.normal(0.0, 1.0, size=(self.N_OUT, 4, 4))
        state = dict(seed=seed, pool=pool, config=config, params=params,
                     out_bias=out_bias)
        for caps in pool[:self.WARM_UP_CALLS]:
            self._step(state, caps)
        return state

    def _step(self, state, caps):
        tape = T.Tape()
        params = state["params"].tracked(tape)
        bias = tape.leaf(state["out_bias"])
        out = routing.route(params, caps, state["config"], out_bias=bias)
        loss = T.add(T.reduce_sum(T.square(out.scores)),
                     T.reduce_mean(T.square(out.poses)))
        grads = T.backward(tape, loss)
        return loss, grads[params.weights.node], grads[bias.node]

    def run(self, state, seconds: float, tracer=None) -> Run:
        run = Run()
        alternator = _Alternator(tracer)
        pool = state["pool"]
        t_start = time.perf_counter()
        deadline = t_start + seconds
        k = 0
        while time.perf_counter() < deadline or k < self.MIN_CALLS:
            # pairs of calls share a batch, so traced and untraced calls
            # see the same inputs
            ref = run.host.sample()
            alternator.set(k % 2 == 0)
            caps = pool[(k // 2) % self.POOL]
            t0 = time.perf_counter()
            try:
                loss, g_w, g_b = self._step(state, caps)
                ok = (math.isfinite(loss.item())
                      and bool(np.all(np.isfinite(g_w)))
                      and bool(np.all(np.isfinite(g_b))))
            except Exception:  # a failed call is counted, not fatal
                traceback.print_exc()
                ok = False
            elapsed = (time.perf_counter() - t0) * 1e3
            if ok:
                run.step_ms.append(elapsed)
                run.traced.append(alternator.active)
                run.ref_ms.append(ref)
            alternator.set(False)
            run.step(ok)
            k += 1
        run.ref_ms.append(run.host.sample())
        run.wall_s = time.perf_counter() - t_start - run.host.spent_s
        run.samples = self.BATCH * len(run.step_ms)
        run.check("every_call_finite", run.failed == 0,
                  f"finite loss and gradients in {k} calls")
        return run

    def verify(self, state, run: Run) -> None:
        """Recomposition and reference-oracle checks."""
        caps = state["pool"][0]
        out = routing.route(state["params"], caps, state["config"],
                            out_bias=state["out_bias"])
        again, _ = tracing.recompose_route(state["params"], caps,
                                           state["config"],
                                           out_bias=state["out_bias"])
        run.check("recomposed_phases_equal_route",
                  tracing.outputs_equal(out, again),
                  "compute_votes + e_step/d_step/m_step against route(), "
                  "bit for bit")

        rng = np.random.default_rng([state["seed"], 0x5A])
        small = wide_batch(rng, batch=2, n=8)
        config = self._config()
        params = routing.init_params(config, state["seed"])
        out_bias = rng.normal(0.0, 1.0, size=(4, 4, 4))
        out = routing.route(params, small, config, out_bias=out_bias)
        ref = routing.route_reference(params, small, config,
                                      out_bias=out_bias)
        worst = max(float(np.abs(T.asarray(a) - T.asarray(b)).max())
                    for a, b in ((out.scores, ref.scores),
                                 (out.poses, ref.poses),
                                 (out.variances, ref.variances)))
        run.check("small_instance_matches_route_reference",
                  worst <= REFERENCE_TOLERANCE,
                  f"batch 2, 8 inputs, 4 outputs: max |diff| {worst:.2e} "
                  f"(<= {REFERENCE_TOLERANCE:g})")

    def peak_pass(self, state) -> float:
        return peak_mb(lambda: self._step(state, state["pool"][0]))

    def describe(self) -> str:
        return (f"each step is one forward+backward call on {self.BATCH} "
                f"samples x {self.N_IN} inputs -> {self.N_OUT} outputs")


WORKLOADS = {w.name: w for w in (DeskTrain, RouteBulk, WideRoute)}
