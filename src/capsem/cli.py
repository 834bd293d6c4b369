"""Command-line surface: data generation, training, inference, gradient
checking, benchmarking, and model inspection.

Exit codes: 0 success, 1 usage error, 2 data/format error, 3 failed
numeric check. gen-data, train, gradcheck and bench take --seed; route
and inspect take none. Every command is run-to-run deterministic.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import replace

import numpy as np

from . import tensor as T
from .classifier import (CHUNK_SAMPLES, CapsuleClassifier, TrainRegime,
                         build_constellation_classifier, train_classifier)
from .data import (ConstellationSpec, make_dataset, read_capsules, read_json,
                   read_model, spec_from_dict, write_capsules, write_model)
from .errors import (ConfigError, DataFormatError, DomainError, ShapeError)
from .routing import (CapsuleBatch, RoutingParams, init_params, is_count,
                      mode_config, param_count, route)
from .tensor import Tape, backward, grad_check, reduce_sum, square


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this artifact reserves 2 for
    data errors, so usage problems exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _take_section(config: dict, name: str, known: set[str]) -> dict:
    section = config.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    unknown = set(section) - known
    if unknown:
        raise ConfigError(f"unknown keys in {name!r}: {sorted(unknown)}")
    return section


# ---------------------------------------------------------------------------
# gen-data


def cmd_gen_data(args) -> int:
    spec = ConstellationSpec()
    if args.spec:
        spec = spec_from_dict(read_json(args.spec))
    # the seed picks a window of 10000 samples of the task, not the task
    batch, labels = make_dataset(spec, args.n, start=10_000 * args.seed)
    write_capsules(args.out, batch, labels)
    hist = np.bincount(labels, minlength=spec.n_classes)
    print(f"wrote {args.n} samples ({spec.caps_per_sample} capsules each, "
          f"d_cov={spec.d_cov}, d_in={spec.d_in}) to {args.out}")
    print("class counts: " + " ".join(str(int(c)) for c in hist))
    return 0


# ---------------------------------------------------------------------------
# train


_TASK_KEYS = {f for f in ConstellationSpec.__dataclass_fields__}
_MODEL_KEYS = {"n_mid", "d_mid", "d_out", "n_iters", "tie_betas", "var_floor"}
_TRAIN_KEYS = {f for f in TrainRegime.__dataclass_fields__} \
    | {"train_samples", "test_samples"}
_DATA_KEYS = {"train", "val"}


def cmd_train(args) -> int:
    config = read_json(args.config) if args.config else {}
    if not isinstance(config, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = set(config) - {"task", "model", "train", "data"}
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    task_cfg = _take_section(config, "task", _TASK_KEYS)
    model_cfg = _take_section(config, "model", _MODEL_KEYS)
    train_cfg = _take_section(config, "train", _TRAIN_KEYS)
    data_cfg = _take_section(config, "data", _DATA_KEYS)

    # TrainRegime gets only the keys the config or a flag sets: the
    # defaults live in TrainRegime alone
    regime_cfg = {k: v for k, v in train_cfg.items()
                  if k not in ("train_samples", "test_samples")}
    overrides = {"epochs": args.epochs, "seed": args.seed,
                 "mixup": False if args.no_mixup else None}
    regime_cfg.update((k, v) for k, v in overrides.items() if v is not None)
    regime = TrainRegime(**regime_cfg)

    if args.task == "constellation":
        spec = spec_from_dict(task_cfg)
        n_train = train_cfg.get("train_samples", 2000)
        n_test = train_cfg.get("test_samples", 500)
        if not (is_count(n_train, 0) and is_count(n_test, 0)):
            raise ConfigError("train_samples and test_samples must be ints >= 0")
        train_caps, train_labels = make_dataset(spec, n_train)
        val_caps, val_labels = make_dataset(spec, n_test, start=n_train)
        d_cov, d_in = spec.d_cov, spec.d_in
        n_classes = spec.n_classes
    else:
        if "train" not in data_cfg:
            raise ConfigError("capsfile task needs config data.train")
        train_caps, train_labels = read_capsules(data_cfg["train"])
        val_caps, val_labels = train_caps, train_labels
        if "val" in data_cfg:
            val_caps, val_labels = read_capsules(data_cfg["val"])
        for key, labels in (("train", train_labels), ("val", val_labels)):
            if labels is None:
                raise DataFormatError(f"{data_cfg[key]} carries no labels")
            if len(labels) == 0:
                raise DataFormatError(f"{data_cfg[key]} holds no samples")
        n_classes = int(np.max(train_labels)) + 1
        if np.any(val_labels >= n_classes):
            raise DataFormatError(
                f"{data_cfg['val']} has label {int(np.max(val_labels))}, "
                f"but the training labels name {n_classes} classes")
        poses = T.asarray(train_caps.poses)
        d_cov, d_in = poses.shape[-2], poses.shape[-1]

    model = build_constellation_classifier(d_cov, d_in, n_classes,
                                           seed=regime.seed, **model_cfg)

    rows = []

    def on_epoch(entry):
        line = f"{entry.epoch},{entry.val_loss:.6f},{entry.val_accuracy:.4f}"
        print(line, flush=True)
        rows.append(line)

    print("epoch,val_loss,val_accuracy")
    try:
        train_classifier(model, train_caps, train_labels, val_caps,
                         val_labels, regime, on_epoch=on_epoch)
    except DomainError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3

    write_model(args.out, model.layers, n_classes)
    print(f"model written to {args.out}")
    if args.log:
        with open(args.log, "w") as f:
            f.write("epoch,val_loss,val_accuracy\n")
            f.write("\n".join(rows) + "\n")
    return 0


# ---------------------------------------------------------------------------
# route


def cmd_route(args) -> int:
    layers, n_classes = read_model(args.model)
    if args.iters is not None:
        layers = [(params, replace(config, n_iters=args.iters))
                  for params, config in layers]
    model = CapsuleClassifier(layers, n_classes)
    caps, labels = read_capsules(args.input)
    try:
        probs = model.predict_proba(caps)
        if args.trace:
            _dump_trace(model, caps, args.trace)
    except DomainError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3
    print("sample," + ",".join(f"p{k}" for k in range(n_classes)))
    for i, row in enumerate(probs):
        print(f"{i}," + ",".join(f"{p:.6f}" for p in row))
    if labels is not None and len(labels):
        acc = float((probs.argmax(axis=1) == labels).mean())
        print(f"accuracy,{acc:.4f}")
    if args.trace:
        print(f"trace written to {args.trace}")
    return 0


def _dump_trace(model, caps, path):
    """Write the routing trace of the first chunk ``predict_proba`` routes."""
    current = CapsuleBatch(T.asarray(caps.scores)[:CHUNK_SAMPLES],
                           T.asarray(caps.poses)[:CHUNK_SAMPLES])
    doc, workspace = {"layers": []}, {}
    for params, config in model.layers:
        out, trace = route(params, current, config, want_trace=True,
                           workspace=workspace)
        doc["layers"].append({
            "iterations": [
                {
                    "probs": step.probs.tolist(),
                    "used": step.used.tolist(),
                    "ignored": step.ignored.tolist(),
                    "scores": step.scores.tolist(),
                }
                for step in trace.iterations
            ],
        })
        current = CapsuleBatch(out.scores.data, out.poses.data)
    with open(path, "w") as f:
        json.dump(doc, f)


# ---------------------------------------------------------------------------
# gradcheck


def _gradcheck_suite(seed: int):
    """Small cross-mode instances, differentiated through the full loop."""
    rng = np.random.default_rng(seed)
    suite = []
    for mode, tie in (("fixed", False), ("fixed", True),
                      ("variable_input", False), ("variable_output", False)):
        cfg = mode_config(mode, 3, 2, d_cov=2, d_in=2, d_out=2, n_iters=3,
                          tie_betas=tie)
        params = init_params(cfg, int(rng.integers(2 ** 31)))
        for _, value in params.items():
            view = np.atleast_1d(value)  # a view, so scalars update in place
            view += rng.normal(0, 0.3, size=view.shape)
        n = 3
        caps = CapsuleBatch(rng.uniform(-2, 2, size=(1, n)),
                            rng.normal(size=(1, n, 2, 2)))
        out_bias = rng.normal(0, 0.3, size=(2, 2, 2)) \
            if mode == "variable_output" else None
        name = mode + ("+tied" if tie else "")
        suite.append((name, cfg, params, caps, out_bias))
    return suite


def _instance_grad_error(cfg, params, caps, out_bias) -> float:
    """Max relative error over every differentiable input of route()."""
    errors = []
    fields = dict(params.items(), scores=T.asarray(caps.scores),
                  poses=T.asarray(caps.poses))

    for name, value in fields.items():
        def f(x):
            vals = {k: T.tensor(v) for k, v in fields.items()}
            vals[name] = x
            c = CapsuleBatch(vals.pop("scores"), vals.pop("poses"))
            p = RoutingParams.from_items(vals.items())
            out = route(p, c, cfg, out_bias=out_bias)
            return T.add(T.add(reduce_sum(square(out.scores)),
                               reduce_sum(square(out.poses))),
                         reduce_sum(out.variances))
        errors.append(grad_check(f, np.asarray(value)))
    return float(np.max(errors))


def cmd_gradcheck(args) -> int:
    if not (np.isfinite(args.tol) and args.tol >= 0):
        raise ConfigError(f"--tol must be a finite number >= 0, "
                          f"got {args.tol}")
    errors = []
    for name, cfg, params, caps, out_bias in _gradcheck_suite(args.seed):
        err = _instance_grad_error(cfg, params, caps, out_bias)
        errors.append(err)
        print(f"{name}: max relative error {err:.3e}")
    worst = np.max(errors)  # NaN-propagating, unlike the builtin max
    print(f"worst: {worst:.3e} (tolerance {args.tol:.1e})")
    if not worst <= args.tol:
        print("gradcheck FAILED", file=sys.stderr)
        return 3
    print("gradcheck passed")
    return 0


# ---------------------------------------------------------------------------
# bench


def _parse_grid(spec: str) -> dict[str, list[str]]:
    grid = {}
    for part in spec.split(";"):
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"bad grid term {part!r}; expected key=v1,v2")
        key, values = (s.strip() for s in part.split("=", 1))
        values = [v.strip() for v in values.split(",") if v.strip()]
        if not values:
            raise ConfigError(f"grid key {key!r} has no values")
        if key in grid:
            raise ConfigError(f"grid key {key!r} is given twice")
        grid[key] = values
    unknown = set(grid) - {"n_in", "n_out", "variant"}
    if unknown:
        raise ConfigError(f"unknown grid keys: {sorted(unknown)}")
    for key in ("n_in", "n_out"):
        for v in grid.get(key, ()):
            if not (v.isdecimal() and int(v) >= 1):
                raise ConfigError(f"grid {key} value {v!r} is not an int >= 1")
    for v in grid.get("variant", ()):
        if v not in ("fixed", "variable_input"):
            raise ConfigError(f"unknown variant {v!r}")
    return grid


def cmd_bench(args) -> int:
    if args.reps < 1:
        raise ConfigError(f"--reps must be at least 1, got {args.reps}")
    grid = _parse_grid(args.grid)
    n_ins = [int(v) for v in grid.get("n_in", ["8", "16", "32"])]
    n_outs = [int(v) for v in grid.get("n_out", ["4", "8", "16"])]
    variants = grid.get("variant", ["fixed", "variable_input"])
    dims = dict(d_cov=4, d_in=4, d_out=4)
    iters, batch = 3, 8
    rng = np.random.default_rng(args.seed)

    rows = []
    for variant in variants:
        for n_in in n_ins:
            for n_out in n_outs:
                cfg = mode_config(variant, n_in, n_out, n_iters=iters, **dims)
                params = init_params(cfg, int(rng.integers(2 ** 31)))
                caps = CapsuleBatch(
                    rng.uniform(-2, 2, size=(batch, n_in)),
                    rng.normal(size=(batch, n_in, dims["d_cov"], dims["d_in"])))

                fwd = _time_ns(lambda: route(params, caps, cfg), args.reps)

                def fwd_bwd():
                    tape = Tape()
                    tracked = params.tracked(tape)
                    out = route(tracked, caps, cfg)
                    loss = T.add(reduce_sum(square(out.scores)),
                                 reduce_sum(square(out.poses)))
                    backward(tape, loss)

                bwd = _time_ns(fwd_bwd, args.reps)
                rows.append({
                    "variant": variant, "n_in": n_in, "n_out": n_out,
                    "d_cov": dims["d_cov"], "d_in": dims["d_in"],
                    "d_out": dims["d_out"], "iters": iters,
                    "ns_per_sample_forward": fwd // batch,
                    "ns_per_sample_backward": bwd // batch,
                })

    fieldnames = ["variant", "n_in", "n_out", "d_cov", "d_in", "d_out",
                  "iters", "ns_per_sample_forward", "ns_per_sample_backward"]
    with open(args.csv, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} bench rows to {args.csv}")
    return 0


def _time_ns(fn, reps: int) -> int:
    fn()  # warm caches before timing
    best = None
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        fn()
        dt = time.perf_counter_ns() - t0
        best = dt if best is None else min(best, dt)
    return best


# ---------------------------------------------------------------------------
# inspect


def cmd_inspect(args) -> int:
    layers, n_classes = read_model(args.model)
    total = 0
    for k, (params, cfg) in enumerate(layers):
        counts = param_count(cfg)
        total += counts.total
        n_in = cfg.n_in if cfg.n_in is not None else "-"
        print(f"layer {k}: mode={cfg.mode} n_in={n_in} n_out={cfg.n_out} "
              f"d_cov={cfg.d_cov} d_in={cfg.d_in} d_out={cfg.d_out} "
              f"iters={cfg.n_iters} tie_betas={cfg.tie_betas}")
        print(f"  params: weights={counts.weights} biases={counts.biases} "
              f"betas={counts.betas} total={counts.total}")
        if cfg.mode == "fixed":
            shared = param_count(replace(cfg, n_in=None))
            var_out = param_count(replace(cfg, n_in=None, n_out="variable"))
            print(f"  sharing: variable_input total={shared.total} "
                  f"factor={counts.total / shared.total:g} (= n_in); "
                  f"variable_output weights={var_out.weights} "
                  f"weight_factor={counts.weights / var_out.weights:g} "
                  f"(= n_in*n_out)")
    print(f"model: {len(layers)} layers, {n_classes} classes, "
          f"{total} parameters")
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> _Parser:
    parser = _Parser(prog="capsem", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", parents=[], help="generate a labeled "
                       "constellation capsule file")
    p.add_argument("--spec", help="ConstellationSpec JSON file")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train the two-layer classifier")
    p.add_argument("--task", choices=["constellation", "capsfile"],
                   default="constellation")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out", required=True, help="model output path")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--no-mixup", action="store_true")
    p.add_argument("--log", help="also write the epoch CSV here")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("route", help="run a model over a capsule file")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--iters", type=int, default=None,
                   help="override every layer's n_iters")
    p.add_argument("--trace", help="write per-iteration JSON trace here")
    p.set_defaults(func=cmd_route)

    p = sub.add_parser("gradcheck", help="finite-difference check of the "
                       "routing gradients")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-4)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("bench", help="time routing over a grid")
    p.add_argument("--grid", default="n_in=8,16,32;n_out=4,8,16;"
                   "variant=fixed,variable_input")
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--csv", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("inspect", help="print per-layer parameter counts "
                       "and sharing factors")
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise ConfigError("seed must be an int >= 0")
        return args.func(args)
    except (DataFormatError, ConfigError, ShapeError, DomainError,
            OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
