"""In-memory span tracing around calls into the capsem package.

Spans are recorded from the benchmark's side only: the traced run swaps
public functions of the package's modules for timing wrappers and restores
them afterwards. Nothing inside ``src/`` is changed.

Every routing call is recomposed from ``compute_votes``, ``e_step``,
``d_step`` and ``m_step`` so that each phase gets its own span; the first
calls of each layer are checked bit-for-bit against ``route()``.
"""

from __future__ import annotations

import gzip
import time
from array import array
from contextlib import contextmanager, nullcontext

import numpy as np

from capsem import classifier, cli, data, nn, optim, routing
from capsem import tensor as T

ELEMENTWISE = ("add", "sub", "mul", "div", "neg", "exp", "log", "square",
               "logistic", "softplus", "swish")
REDUCE = ("reduce_sum", "reduce_mean", "reduce_max", "logsumexp", "softmax")
PHASES = ("votes", "e_step", "d_step", "m_step")

# recomposed routing calls per layer that are also run through route() and
# compared bit-for-bit
_EQUALITY_CHECKS_PER_LAYER = 2


def _tape_of(*values):
    for v in values:
        if isinstance(v, T.Tensor) and v.tape is not None:
            return v.tape
    return None


def _detach(x):
    if x is None:
        return None
    return np.array(T.asarray(x), copy=True)


def recompose_route(params, caps, config, out_bias=None, phase=None):
    """``route()`` rebuilt from its four public phases.

    ``phase(name)`` returns a context manager entered around each phase
    call; the result is the final ``RoutingOutput``, as from ``route()``.
    Unlike ``route()``, the E-step here runs ``e_step``, which includes its
    check that every output variance is strictly positive.
    """
    phase = phase or (lambda name: nullcontext())
    caps = caps.batched()
    with phase("votes"):
        votes = routing.compute_votes(params, caps, config, out_bias=out_bias)
    state = None
    for it in range(config.n_iters):
        with phase("e_step"):
            probs = routing.e_step(votes, state, first_iter=(it == 0))
        with phase("d_step"):
            used, ignored = routing.d_step(caps.scores, probs)
        with phase("m_step"):
            state = routing.m_step(votes, used, ignored, params, config)
    return state, votes


@contextmanager
def patched(owner, attr, value):
    """Set ``owner.attr`` to ``value`` for the duration of the block."""
    original = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        yield original
    finally:
        setattr(owner, attr, original)


def outputs_equal(a, b) -> bool:
    return all(np.array_equal(T.asarray(x), T.asarray(y)) for x, y in
               ((a.scores, b.scores), (a.poses, b.poses),
                (a.variances, b.variances)))


class Tracer:
    """Records spans (name, parent, start, end) in flat in-memory arrays.

    Span ids are allocation order, so a parent always precedes its children.
    ``counts`` holds exact counters, each attributed to the span it was
    recorded in.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.counts: list[tuple[str, float, int]] = []
        self._route_index: list[int] = []
        self._checked: dict[int, int] = {}
        self._pending: list = []
        self._patches: list[tuple[object, str, object]] = []
        self.t0 = time.perf_counter_ns()

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(time.perf_counter_ns())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def count(self, name: str, value: float, sid: int) -> None:
        """Record an exact counter value, attributed to span ``sid``."""
        self.counts.append((name, value, sid))

    def _wrap(self, name, fn):
        def wrapped(*args, **kwargs):
            sid = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)
        return wrapped

    def _wrap_backward(self, fn):
        def wrapped(tape, loss):
            sid = self._open("tensor.backward")
            self.count("tensor.tape_nodes", len(tape), sid)
            try:
                return fn(tape, loss)
            finally:
                self._close(sid)
        return wrapped

    def _wrap_forward(self, fn):
        def wrapped(*args, **kwargs):
            self._route_index.append(0)
            sid = self._open("classifier.forward")
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)
                self._route_index.pop()
        return wrapped

    def _traced_route(self, original):
        def wrapped(params, caps, config, out_bias=None, want_trace=False):
            if want_trace:
                return original(params, caps, config, out_bias=out_bias,
                                want_trace=True)
            if self._route_index:
                layer = self._route_index[-1]
                self._route_index[-1] += 1
            else:
                layer = 0
            prefix = f"routing.layer{layer}"
            tape = _tape_of(params.weights, caps.poses, caps.scores, out_bias)
            before = len(tape) if tape is not None else 0
            sid = self._open(prefix)
            try:
                out, votes = recompose_route(
                    params, caps, config, out_bias=out_bias,
                    phase=lambda name: self.span(f"{prefix}.{name}"))
            finally:
                self._close(sid)
            self.count(f"{prefix}.votes_mb", votes.data.nbytes / 1e6, sid)
            if tape is not None:
                self.count(f"{prefix}.tape_nodes", len(tape) - before, sid)
            if self._checked.get(layer, 0) < _EQUALITY_CHECKS_PER_LAYER:
                self._checked[layer] = self._checked.get(layer, 0) + 1
                bu = _detach(params.beta_use)
                bi = bu if params.tied else _detach(params.beta_ign)
                self._pending.append((prefix, original, (
                    routing.RoutingParams(_detach(params.weights),
                                          _detach(params.biases), bu, bi),
                    routing.CapsuleBatch(_detach(caps.scores),
                                         _detach(caps.poses)),
                    config), _detach(out_bias), routing.RoutingOutput(
                        _detach(out.scores), _detach(out.poses),
                        _detach(out.variances))))
            return out
        return wrapped

    # -- installing ---------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Swap the package's public functions for span-recording ones."""
        for op in ELEMENTWISE + REDUCE + ("contract", "reshape"):
            self._patch(T, op, self._wrap(f"tensor.{op}", getattr(T, op)))
        self._patch(T, "backward", self._wrap_backward(T.backward))
        route = self._traced_route(routing.route)
        self._patch(routing, "route", route)
        self._patch(classifier, "route", route)
        self._patch(classifier.CapsuleClassifier, "forward",
                    self._wrap_forward(classifier.CapsuleClassifier.forward))
        self._patch(classifier.CapsuleClassifier, "predict_proba",
                    self._wrap("classifier.predict_proba",
                               classifier.CapsuleClassifier.predict_proba))
        self._patch(classifier, "evaluate",
                    self._wrap("classifier.evaluate", classifier.evaluate))
        # each name is wrapped around its current value, so a probe already
        # installed in the classifier's namespace stays in place
        for owner in (nn, classifier):
            self._patch(owner, "cross_entropy", self._wrap(
                "nn.cross_entropy", owner.cross_entropy))
        self._patch(optim.RAdam, "step",
                    self._wrap("optim.step", optim.RAdam.step))
        for name in ("make_dataset", "write_capsules", "write_model",
                     "ingest_embeddings"):
            self._patch(data, name, self._wrap(f"data.{name}",
                                               getattr(data, name)))
        for name in ("read_capsules", "read_model"):
            wrapped = self._wrap(f"data.{name}", getattr(data, name))
            self._patch(data, name, wrapped)
            self._patch(cli, name, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def check_recomposition(self) -> dict[str, tuple[int, int]]:
        """Compare the recorded recomposed outputs with ``route()``.

        Returns {layer prefix: (calls equal, calls compared)}. Runs after
        tracing, so the extra routing calls add no spans.
        """
        results: dict[str, tuple[int, int]] = {}
        for prefix, route, args, out_bias, out in self._pending:
            same = outputs_equal(out, route(*args, out_bias=out_bias))
            equal, compared = results.get(prefix, (0, 0))
            results[prefix] = (equal + same, compared + 1)
        self._pending.clear()
        return results

    # -- analysis -----------------------------------------------------------

    def summarize(self, exclude_under: tuple[str, ...] = ()):
        """Totals per span name, and counter values, in two scopes.

        Returns ``(main, other, counts)``. ``main`` and ``other`` map a span
        name to ``[calls, inclusive_ns, self_ns]``; a span at or below one
        named in ``exclude_under`` goes to ``other``, every other span to
        ``main``. ``counts`` maps a counter name to its values recorded in
        ``main`` spans. Self time is a span's duration minus the time its
        child spans cover.
        """
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        skip_ids = {self._name_ids[x] for x in exclude_under
                    if x in self._name_ids}
        excluded = [False] * n
        main: dict[str, list[int]] = {}
        other: dict[str, list[int]] = {}
        for i in range(n):
            p = self.parent[i]
            nid = self.name_of[i]
            excluded[i] = (p >= 0 and excluded[p]) or nid in skip_ids
            row = (other if excluded[i] else main).setdefault(
                self.names[nid], [0, 0, 0])
            row[0] += 1
            row[1] += dur[i]
            row[2] += dur[i] - child[i]
        counts: dict[str, list[float]] = {}
        for name, value, sid in self.counts:
            if not excluded[sid]:
                counts.setdefault(name, []).append(value)
        return main, other, counts

    def write(self, path) -> int:
        """Write every span as gzipped CSV; returns the number written."""
        with gzip.open(path, "wt", compresslevel=3) as f:
            f.write("id,parent,name,start_ns,end_ns\n")
            for i in range(len(self.start)):
                f.write(f"{i},{self.parent[i]},{self.names[self.name_of[i]]},"
                        f"{self.start[i] - self.t0},{self.end[i] - self.t0}\n")
        return len(self.start)


def _exact(values):
    """The value every call recorded, or the mean (flagged) if they differ."""
    first = values[0]
    if all(v == first for v in values):
        return first, True
    return sum(values) / len(values), False


def layer_metrics(summary, steps: int):
    """Per-layer metrics from ``Tracer.summarize`` over ``steps`` steps.

    Phase and op-type times are milliseconds per step (one training step,
    one ``capsem route`` call, or one forward+backward call); op-type times
    are self times, so a composite op is not counted twice. Function-level
    times are inclusive milliseconds per call. Counts are exact per-call
    values; ``inexact`` lists any counter that varied between calls.
    """
    main, other, counts = summary
    out: dict[str, tuple[float, str]] = {}
    inexact: list[str] = []

    def total(names, col):
        return sum(main[n][col] for n in names if n in main)

    layers = sorted({name.split(".")[1] for name in main
                     if name.startswith("routing.layer")})
    for layer in layers:
        prefix = f"routing.{layer}"
        for phase in PHASES:
            out[f"{prefix}.{phase}_ms"] = (
                total([f"{prefix}.{phase}"], 1) / 1e6 / steps, "ms")
        for counter, unit in (("votes_mb", "MB"), ("tape_nodes", "count")):
            values = counts.get(f"{prefix}.{counter}")
            if values:
                value, exact = _exact(values)
                out[f"{prefix}.{counter}"] = (value, unit)
                if not exact:
                    inexact.append(f"{prefix}.{counter}")
    groups = (("contract", ("tensor.contract",)),
              ("elementwise", tuple(f"tensor.{op}" for op in ELEMENTWISE)),
              ("reduce", tuple(f"tensor.{op}" for op in REDUCE)),
              ("reshape", ("tensor.reshape",)))
    for group, names in groups:
        out[f"tensor.{group}.fwd_ms"] = (total(names, 2) / 1e6 / steps, "ms")
    out["tensor.contract.calls"] = (total(("tensor.contract",), 0) / steps,
                                    "count")
    if "tensor.backward" in main:
        out["tensor.backward_ms"] = (
            total(("tensor.backward",), 1) / 1e6 / steps, "ms")
        value, exact = _exact(counts["tensor.tape_nodes"])
        out["tensor.tape_nodes"] = (value, "count")
        if not exact:
            inexact.append("tensor.tape_nodes")
    per_call = ("classifier.forward", "classifier.predict_proba",
                "nn.cross_entropy", "optim.step", "data.read_capsules",
                "data.read_model")
    for name in per_call:
        if name in main:
            calls, inclusive, _ = main[name]
            out[f"{name}_ms"] = (inclusive / 1e6 / calls, "ms")
    if "classifier.evaluate" in other:
        calls, inclusive, _ = other["classifier.evaluate"]
        out["classifier.evaluate_ms"] = (inclusive / 1e6 / calls, "ms")
    if "cli.route" in main:
        calls, _, self_ns = main["cli.route"]
        out["cli.route_self_ms"] = (self_ns / 1e6 / calls, "ms")
    return out, inexact


def setup_metrics(summary):
    """Inclusive milliseconds per call of the data functions set-up uses."""
    main, _, _ = summary
    return {f"{name}_ms": (main[name][1] / 1e6 / main[name][0], "ms")
            for name in ("data.make_dataset", "data.write_capsules",
                         "data.write_model", "data.ingest_embeddings")
            if name in main}
