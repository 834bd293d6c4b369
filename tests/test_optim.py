import math

import numpy as np
import pytest

from capsem.optim import OneCycleSchedule, RAdam, schedule_at


# ---------------------------------------------------------------------------
# schedule


def test_schedule_start_values():
    s = OneCycleSchedule(total_steps=1000)
    lr, b1 = schedule_at(s, 0)
    assert lr == pytest.approx(1e-5, abs=1e-12)
    assert b1 == pytest.approx(0.999, abs=1e-12)


def test_schedule_peak_at_ten_percent():
    s = OneCycleSchedule(total_steps=1000)
    lr, b1 = schedule_at(s, 100)
    assert lr == pytest.approx(5e-4, abs=1e-12)
    assert b1 == pytest.approx(0.8991, abs=1e-12)


def test_schedule_returns_to_start():
    s = OneCycleSchedule(total_steps=1000)
    lr, b1 = schedule_at(s, 1000)
    assert lr == pytest.approx(1e-5, abs=1e-12)
    assert b1 == pytest.approx(0.999, abs=1e-12)


def test_schedule_cosine_midpoint():
    s = OneCycleSchedule(total_steps=1000)
    lr, _ = schedule_at(s, 550)  # halfway through the cosine leg
    assert lr == pytest.approx((1e-5 + 5e-4) / 2, abs=1e-12)


def test_schedule_is_continuous_and_peaks_once():
    s = OneCycleSchedule(total_steps=500)
    values = [schedule_at(s, k)[0] for k in range(501)]
    assert max(values) == values[s.warm_end]
    deltas = np.abs(np.diff(values))
    assert deltas.max() < (s.lr_peak - s.lr_start) / 10  # no jumps


def test_schedule_rejects_out_of_range():
    s = OneCycleSchedule(total_steps=100)
    with pytest.raises(ValueError):
        schedule_at(s, -1)
    with pytest.raises(ValueError):
        schedule_at(s, 101)


# ---------------------------------------------------------------------------
# RAdam


def test_zero_gradient_leaves_params_unchanged():
    p = {"w": np.array([1.0, -2.0])}
    opt = RAdam(p)
    opt.step({"w": np.zeros(2)}, lr=1e-3, beta1=0.9)
    np.testing.assert_array_equal(p["w"], [1.0, -2.0])
    assert opt.t == 1


def test_early_steps_use_momentum_branch():
    # evaluate the rectification term directly: with beta2=0.999 it stays
    # at or below 4 for the first few steps
    opt = RAdam({"w": np.zeros(1)})
    assert opt.rho_t(1) == pytest.approx(1.0, abs=1e-6)
    assert opt.rho_t(2) < 4.0
    assert opt.rho_t(4) < 4.0
    assert opt.rho_t(5) > 4.0

    # and the t=1 update is exactly lr * g / (1 - beta1) * (1 - beta1) = lr*g
    p = {"w": np.array([0.0])}
    opt = RAdam(p)
    opt.step({"w": np.array([1.0])}, lr=0.1, beta1=0.9)
    assert p["w"][0] == pytest.approx(-0.1, abs=1e-15)


def test_trajectory_matches_formula_transliteration():
    beta2, eps, lr, beta1 = 0.999, 1e-8, 1e-2, 0.9
    rng = np.random.default_rng(0)
    g_seq = [rng.normal(size=3) for _ in range(50)]
    p = {"w": np.full(3, 0.5)}
    opt = RAdam(p)

    # independent transliteration of the published update rule; the
    # momentum branch runs for t <= 4, the rectified one after
    w = np.full(3, 0.5)
    m = np.zeros(3)
    v = np.zeros(3)
    rho_inf = 2.0 / (1.0 - beta2) - 1.0
    for t, g in enumerate(g_seq, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        rho = rho_inf - 2 * t * beta2 ** t / (1 - beta2 ** t)
        if rho > 4:
            rect = math.sqrt(((rho - 4) * (rho - 2) * rho_inf)
                             / ((rho_inf - 4) * (rho_inf - 2) * rho))
            v_hat = np.sqrt(v / (1 - beta2 ** t))
            w = w - lr * rect * m_hat / (v_hat + eps)
        else:
            w = w - lr * m_hat

        opt.step({"w": g}, lr=lr, beta1=beta1)
        np.testing.assert_allclose(p["w"], w, rtol=0, atol=1e-12,
                                   err_msg=f"step {t}")


def test_update_independent_of_param_order():
    rng = np.random.default_rng(1)
    a0, b0 = rng.normal(size=4), rng.normal(size=(2, 2))
    ga, gb = rng.normal(size=4), rng.normal(size=(2, 2))

    p1 = {"a": a0.copy(), "b": b0.copy()}
    p2 = {"b": b0.copy(), "a": a0.copy()}
    for p in (p1, p2):
        opt = RAdam(p)
        for _ in range(6):
            opt.step({"a": ga, "b": gb}, lr=1e-3, beta1=0.9)
    np.testing.assert_array_equal(p1["a"], p2["a"])
    np.testing.assert_array_equal(p1["b"], p2["b"])


def test_rejects_shape_mismatch_and_nonfinite():
    from capsem.errors import DomainError, ShapeError
    opt = RAdam({"w": np.zeros(2)})
    with pytest.raises(ShapeError):
        opt.step({"w": np.zeros(3)}, lr=1e-3, beta1=0.9)
    opt = RAdam({"w": np.zeros(2)})
    with pytest.raises(DomainError):
        opt.step({"w": np.array([1.0, np.nan])}, lr=1e-3, beta1=0.9)
    with pytest.raises(ShapeError):
        opt.step({}, lr=1e-3, beta1=0.9)


def test_failed_step_changes_nothing():
    from capsem.errors import DomainError, ShapeError
    opt = RAdam({"a": np.zeros(2), "b": np.zeros(3)})
    opt.step({"a": np.ones(2), "b": np.ones(3)}, lr=1e-1, beta1=0.9)
    before = ({k: p.copy() for k, p in opt.params.items()},
              {k: m.copy() for k, m in opt.m.items()},
              {k: v.copy() for k, v in opt.v.items()}, opt.t)
    good = {"a": np.ones(2), "b": np.ones(3)}
    bad_steps = (
        (DomainError, "'b'", dict(good, b=np.array([1.0, np.nan, 0.0])),
         1e-1, 0.9),
        (ShapeError, "'b'", dict(good, b=np.zeros(4)), 1e-1, 0.9),
        (ShapeError, "'typo'", dict(good, typo=np.ones(2)), 1e-1, 0.9),
        (DomainError, "lr", good, float("nan"), 0.9),
        (DomainError, "lr", good, -1e-3, 0.9),
        (DomainError, "beta1", good, 1e-1, 1.0),
        (DomainError, "beta1", good, 1e-1, float("nan")),
    )
    for error, match, grads, lr, beta1 in bad_steps:
        with pytest.raises(error, match=match):
            opt.step(grads, lr=lr, beta1=beta1)
        for saved, now in zip(before[:3], (opt.params, opt.m, opt.v)):
            for name in saved:
                np.testing.assert_array_equal(now[name], saved[name])
        assert opt.t == before[3]
