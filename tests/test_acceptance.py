"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -s`` to see them live).

Tolerances and thresholds are pinned here; the learning and ablation
thresholds (criteria 9 and 10) were frozen after the first calibration
run of the shipped defaults: seeds 0/1/2 reach 93.6 / 92.8 / 92.2 percent
test accuracy at epoch 5, and zeroing the trained benefit/cost parameters
collapses accuracy to chance (20.6 percent).
"""

import csv
import io
import json
import re
import time
from contextlib import redirect_stdout

import numpy as np
import pytest
from scipy.special import expit

from capsem import tensor as T
from capsem.classifier import (TrainRegime, build_constellation_classifier,
                               evaluate, train_classifier)
from capsem.cli import _gradcheck_suite, _instance_grad_error, main
from capsem.data import (ConstellationSpec, make_dataset, oracle_accuracy,
                         write_model)
from capsem.optim import OneCycleSchedule, schedule_at
from capsem.routing import (RoutingConfig, RoutingOutput, e_step, param_count,
                            route, route_reference)
from conftest import random_instance


def _report(n, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n:>2} {status}: {detail}")
    assert ok, f"criterion {n}: {detail}"


# ---------------------------------------------------------------------------


def test_criterion_1_invariant_suite():
    rng = np.random.default_rng(101)
    t0 = time.time()
    worst_rows, worst_accounting, bound_ok = 0.0, 0.0, True
    modes = [("fixed", False), ("variable_input", False),
             ("variable_output", False), ("fixed", True)]
    for mode, tie in modes:
        for _ in range(200):
            cfg, p, caps, out_bias = random_instance(rng, mode=mode, tie=tie,
                                                     batch=1)
            _, trace = route(p, caps, cfg, out_bias=out_bias, want_trace=True)
            gate = expit(np.asarray(caps.scores))
            for step in trace.iterations:
                worst_rows = max(worst_rows, float(np.abs(
                    step.probs.sum(axis=2) - 1.0).max()))
                total = step.used + step.ignored + (1.0 - gate)[:, :, None]
                worst_accounting = max(worst_accounting, float(np.abs(
                    total - 1.0).max()))
                bound_ok &= bool(np.all(step.used >= 0))
                bound_ok &= bool(np.all(
                    step.used <= gate[:, :, None] + 1e-12))
                bound_ok &= bool(np.all(gate <= 1.0))
    elapsed = time.time() - t0
    ok = (worst_rows <= 1e-6 and worst_accounting <= 1e-9 and bound_ok
          and elapsed < 30.0)
    _report(1, ok, f"800 instances: max |sum R - 1| {worst_rows:.2e} "
            f"(<=1e-6), max accounting residual {worst_accounting:.2e} "
            f"(<=1e-9), bound chain {'held' if bound_ok else 'VIOLATED'}, "
            f"{elapsed:.1f}s (<30s)")


def test_criterion_2_first_iteration_uniform():
    rng = np.random.default_rng(102)
    ok = True
    for _ in range(20):
        cfg, p, caps, out_bias = random_instance(rng, mode="fixed")
        _, trace = route(p, caps, cfg, out_bias=out_bias, want_trace=True)
        n_out = trace.iterations[0].probs.shape[2]
        ok &= bool(np.all(trace.iterations[0].probs == 1.0 / n_out))
    _report(2, ok, "first-iteration assignment probabilities equal "
            "1/n_out bit-exactly")


def test_criterion_3_log_space_e_step_matches_direct_formula():
    rng = np.random.default_rng(103)
    rels = []
    for _ in range(100):
        b = int(rng.integers(1, 3))
        n_in = int(rng.integers(2, 8))
        n_out = int(rng.integers(2, 5))
        c, h = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        votes = rng.normal(size=(b, n_in, n_out, c, h))
        mu = rng.normal(size=(b, n_out, c, h))
        var = rng.uniform(0.01, 3.0, size=(b, n_out, c, h))
        a_out = rng.uniform(-4, 4, size=(b, n_out))

        state = RoutingOutput(T.tensor(a_out), T.tensor(mu), T.tensor(var))
        probs = e_step(T.tensor(votes), state, first_iter=False).data

        dens = (1.0 / np.sqrt(np.prod(2 * np.pi * var,
                                      axis=(2, 3)))[:, None, :]
                * np.exp(-((votes - mu[:, None]) ** 2
                           / (2 * var[:, None])).sum(axis=(3, 4))))
        weighted = expit(a_out)[:, None, :] * dens
        direct = weighted / weighted.sum(axis=2, keepdims=True)
        rel = np.abs(probs - direct) / np.maximum(np.abs(direct), 1e-300)
        rels.append(rel.max())
    worst = float(np.max(rels))  # NaN-propagating, unlike the builtin max
    _report(3, worst <= 1e-6, f"100 instances with variance >= 0.01: max "
            f"relative difference {worst:.2e} (<=1e-6)")


def test_criterion_4_reference_oracle_equivalence():
    rng = np.random.default_rng(104)
    worst = 0.0
    for k in range(100):
        mode = ("fixed", "variable_input", "variable_output")[k % 3]
        cfg, p, caps, out_bias = random_instance(rng, mode=mode, small=True,
                                                 batch=1, n_iters=3)
        out = route(p, caps, cfg, out_bias=out_bias)
        ref = route_reference(p, caps, cfg, out_bias=out_bias)
        worst = max(
            worst,
            float(np.abs(out.scores.data - ref.scores.data).max()),
            float(np.abs(out.poses.data - ref.poses.data).max()),
            float(np.abs(out.variances.data - ref.variances.data).max()),
        )
    _report(4, worst <= 1e-10, f"100 small instances: max |vectorized - "
            f"scalar reference| {worst:.2e} (<=1e-10)")


def test_criterion_5_gradients_through_full_unroll():
    t0 = time.time()
    errors = []
    for name, cfg, params, caps, out_bias in _gradcheck_suite(seed=105):
        assert cfg.n_iters == 3
        errors.append(_instance_grad_error(cfg, params, caps, out_bias))
    worst = float(np.max(errors))  # NaN-propagating
    elapsed = time.time() - t0
    ok = worst <= 1e-4 and elapsed < 120.0
    _report(5, ok, f"central differences (step 1e-5) through 3 unrolled "
            f"iterations, all modes, w.r.t. weights/biases/betas/scores/"
            f"poses: max relative error {worst:.2e} (<=1e-4), "
            f"{elapsed:.1f}s (<2min)")


def test_criterion_6_permutation_invariance():
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(50):
        cfg, p, caps, _ = random_instance(rng, mode="variable_input",
                                          batch=2, n_iters=3)
        out = route(p, caps, cfg)
        n = np.asarray(caps.scores).shape[1]
        perm = rng.permutation(n)
        from capsem.routing import CapsuleBatch
        permuted = CapsuleBatch(np.asarray(caps.scores)[:, perm],
                                np.asarray(caps.poses)[:, perm])
        out_p = route(p, permuted, cfg)
        worst = max(
            worst,
            float(np.abs(out.scores.data - out_p.scores.data).max()),
            float(np.abs(out.poses.data - out_p.poses.data).max()),
            float(np.abs(out.variances.data - out_p.variances.data).max()),
        )
    _report(6, worst <= 1e-9, f"50 random input permutations: max output "
            f"delta {worst:.2e} (<=1e-9)")


def test_criterion_7_parameter_sharing_factors():
    rng = np.random.default_rng(107)
    ok = True
    for _ in range(20):
        n_in = int(rng.integers(2, 40))
        n_out = int(rng.integers(2, 20))
        dims = dict(d_cov=int(rng.integers(1, 6)), d_in=int(rng.integers(1, 6)),
                    d_out=int(rng.integers(1, 6)))
        tie = bool(rng.integers(2))
        fixed = RoutingConfig(n_out=n_out, n_in=n_in, tie_betas=tie, **dims)
        var_in = RoutingConfig(n_out=n_out, tie_betas=tie, **dims)
        var_out = RoutingConfig(n_out="variable", tie_betas=tie, **dims)
        cf, cvi, cvo = (param_count(fixed), param_count(var_in),
                        param_count(var_out))
        ok &= cf.total == cvi.total * n_in
        ok &= cf.weights == cvi.weights * n_in
        ok &= cf.weights == cvo.weights * n_in * n_out
    _report(7, ok, "param_count ratios exact: variable-input = fixed / n_in "
            "(whole count), variable-output weights = fixed / (n_in*n_out)")


def test_criterion_8_schedule_endpoints():
    s = OneCycleSchedule(total_steps=1000)
    lr0, b0 = schedule_at(s, 0)
    lrp, bp = schedule_at(s, 100)
    lre, be = schedule_at(s, 1000)
    ok = (abs(lr0 - 1e-5) <= 1e-12 and abs(b0 - 0.999) <= 1e-12
          and abs(lrp - 5e-4) <= 1e-12 and abs(bp - 0.8991) <= 1e-12
          and abs(lre - 1e-5) <= 1e-12 and abs(be - 0.999) <= 1e-12)
    _report(8, ok, f"schedule endpoints ({lr0:.1e}, {b0}) -> ({lrp:.1e}, "
            f"{bp:.4f}) -> ({lre:.1e}, {be}) match (1e-5, 0.999) / "
            f"(5e-4, 0.8991) / (1e-5, 0.999) within 1e-12")


@pytest.fixture(scope="module")
def trained_constellation():
    spec = ConstellationSpec(seed=0)
    train_caps, train_labels = make_dataset(spec, 2000)
    test_caps, test_labels = make_dataset(spec, 500, start=2000)
    model = build_constellation_classifier(spec.d_cov, spec.d_in,
                                           spec.n_classes, seed=0)
    t0 = time.time()
    logs = train_classifier(model, train_caps, train_labels,
                            test_caps, test_labels,
                            TrainRegime(epochs=5, seed=0))
    elapsed = time.time() - t0
    return spec, model, logs, elapsed, (test_caps, test_labels)


def test_criterion_9_desk_scale_learning(trained_constellation):
    spec, model, logs, elapsed, (test_caps, test_labels) = \
        trained_constellation
    final_acc = logs[-1].val_accuracy
    noiseless = ConstellationSpec(jitter_std=0.0, seed=0)
    witness_caps, witness_labels = make_dataset(noiseless, 200, start=5000)
    witness = oracle_accuracy(noiseless, witness_caps, witness_labels)
    ok = final_acc >= 0.90 and elapsed < 300.0 and witness >= 0.99
    _report(9, ok, f"2000/500 constellation, RAdam + one-cycle + mixup, "
            f"batch 20, 5 epochs: test accuracy {final_acc:.3f} (>=0.90) in "
            f"{elapsed:.0f}s (<5min); nearest-template oracle on the "
            f"noiseless spec {witness:.3f} (>=0.99)")


def test_criterion_10_beta_ablation(trained_constellation):
    spec, model, logs, _, (test_caps, test_labels) = trained_constellation
    _, trained_acc = evaluate(model, test_caps, test_labels)
    _, ablated_acc = evaluate(model.with_zero_betas(), test_caps, test_labels)
    drop = trained_acc - ablated_acc
    _report(10, drop >= 0.10, f"zeroing trained benefit/cost parameters: "
            f"accuracy {trained_acc:.3f} -> {ablated_acc:.3f}, drop "
            f"{drop * 100:.1f} points (>=10)")


def test_criterion_11_bench_and_inspect_schemas(tmp_path):
    t0 = time.time()
    csv_path = tmp_path / "bench.csv"
    code = main(["bench",
                 "--grid", "n_in=4,8,16;n_out=2,4,8;"
                 "variant=fixed,variable_input",
                 "--reps", "2", "--csv", str(csv_path), "--seed", "0"])
    elapsed = time.time() - t0
    with open(csv_path) as f:
        rows = list(csv.DictReader(f))
    schema_ok = (code == 0 and len(rows) == 3 * 3 * 2)
    expected_cols = {"variant", "n_in", "n_out", "d_cov", "d_in", "d_out",
                     "iters", "ns_per_sample_forward",
                     "ns_per_sample_backward"}
    for row in rows:
        schema_ok &= set(row) == expected_cols
        schema_ok &= row["variant"] in ("fixed", "variable_input")
        schema_ok &= int(row["ns_per_sample_forward"]) > 0
        schema_ok &= int(row["ns_per_sample_backward"]) > 0

    # inspect output on a small written model
    cfg1 = RoutingConfig(n_out=8, d_cov=4, d_in=4, d_out=4)
    cfg2 = RoutingConfig(n_out=5, n_in=8, d_cov=4, d_in=4, d_out=4)
    from capsem.routing import init_params
    model_path = tmp_path / "m.model"
    write_model(model_path, [(init_params(cfg1, 0), cfg1),
                             (init_params(cfg2, 1), cfg2)], n_classes=5)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code2 = main(["inspect", "--model", str(model_path)])
    text = buf.getvalue()
    inspect_ok = (code2 == 0
                  and re.search(r"layer 0: mode=variable_input", text)
                  and re.search(r"factor=8 \(= n_in\)", text)
                  and re.search(r"weight_factor=40 \(= n_in\*n_out\)", text)
                  and re.search(r"params: weights=\d+ biases=\d+ "
                                r"betas=\d+ total=\d+", text))
    ok = schema_ok and bool(inspect_ok) and elapsed < 120.0
    _report(11, ok, f"bench 3x3x2 grid -> {len(rows)} schema-valid CSV rows "
            f"in {elapsed:.1f}s (<2min); inspect output schema-valid")
