import csv
import math

import numpy as np
import pytest

from capsem import analysis as A
from capsem.errors import DomainError, ShapeError
from capsem.routing import route
from conftest import random_instance


# ---------------------------------------------------------------------------
# pose trajectories


def test_constant_trajectory():
    pose = np.random.default_rng(0).normal(size=(4, 4))
    m = A.pose_trajectory_metrics([pose] * 5)
    np.testing.assert_allclose(m.rel_dist, 0.0, atol=1e-15)
    np.testing.assert_allclose(m.norm_ratio, 1.0, atol=1e-15)
    np.testing.assert_allclose(m.cosine, 1.0, atol=1e-15)


def test_step_zero_is_always_reference():
    rng = np.random.default_rng(1)
    traj = rng.normal(size=(7, 3, 5))
    m = A.pose_trajectory_metrics(traj)
    np.testing.assert_allclose(m.rel_dist[0], 0.0, atol=1e-15)
    np.testing.assert_allclose(m.norm_ratio[0], 1.0, atol=1e-12)
    np.testing.assert_allclose(m.cosine[0], 1.0, atol=1e-12)
    assert np.all(np.isfinite(m.rel_dist))
    assert np.all(np.isfinite(m.cosine))


def test_rigid_rotation_identities():
    # rotating a pose vector by phi: norm_ratio 1, cosine cos(phi),
    # rel_dist 2 sin(phi/2)
    rng = np.random.default_rng(2)
    v = rng.normal(size=2)
    steps = [np.array([v])]
    angles = [0.3, 1.1, 2.5]
    for phi in angles:
        rot = np.array([[math.cos(phi), -math.sin(phi)],
                        [math.sin(phi), math.cos(phi)]])
        steps.append(np.array([rot @ v]))
    m = A.pose_trajectory_metrics(steps)
    for t, phi in enumerate(angles, start=1):
        assert m.norm_ratio[t, 0] == pytest.approx(1.0, abs=1e-12)
        assert m.cosine[t, 0] == pytest.approx(math.cos(phi), abs=1e-12)
        assert m.rel_dist[t, 0] == pytest.approx(2 * math.sin(phi / 2),
                                                 abs=1e-12)


def test_matches_loop_oracle():
    rng = np.random.default_rng(3)
    traj = rng.normal(size=(6, 4, 3))
    m = A.pose_trajectory_metrics(traj)
    for t in range(6):
        for c in range(4):
            v0 = traj[0, c]
            vt = traj[t, c]
            rd = np.sqrt(((vt - v0) ** 2).sum()) / np.sqrt((v0 ** 2).sum())
            nr = np.sqrt((vt ** 2).sum()) / np.sqrt((v0 ** 2).sum())
            cs = (vt * v0).sum() / (np.sqrt((vt ** 2).sum())
                                    * np.sqrt((v0 ** 2).sum()))
            assert m.rel_dist[t, c] == pytest.approx(rd, abs=1e-12)
            assert m.norm_ratio[t, c] == pytest.approx(nr, abs=1e-12)
            assert m.cosine[t, c] == pytest.approx(cs, abs=1e-12)


def test_scaling_behaviour():
    # cosine is invariant under global scaling; rel_dist scales linearly
    # when the displacement scales with the trajectory
    rng = np.random.default_rng(4)
    base = rng.normal(size=(5, 2, 3))
    m1 = A.pose_trajectory_metrics(base)
    m2 = A.pose_trajectory_metrics(3.0 * base)
    np.testing.assert_allclose(m1.cosine, m2.cosine, atol=1e-12)
    np.testing.assert_allclose(m1.rel_dist, m2.rel_dist, atol=1e-12)
    np.testing.assert_allclose(m1.norm_ratio, m2.norm_ratio, atol=1e-12)


def test_zero_initial_vector_is_rejected_naming_the_vector():
    traj = np.ones((3, 2, 4))
    traj[0, 1] = 0.0
    with pytest.raises(DomainError, match="1"):
        A.pose_trajectory_metrics(traj)


def test_empty_trajectory_rejected():
    with pytest.raises(ShapeError):
        A.pose_trajectory_metrics(np.zeros((0, 2, 2)))


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    m = A.pose_trajectory_metrics(rng.normal(size=(4, 3, 5)))
    path = tmp_path / "metrics.csv"
    A.write_pose_metrics_csv(path, m)
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    assert [int(row["step"]) for row in rows] == [0, 1, 2, 3]
    assert all(len(row) == 1 + 3 * 3 for row in rows)  # 3 pose vectors
    for name in ("rel_dist", "norm_ratio", "cosine"):
        values = getattr(m, name)
        for t, row in enumerate(rows):
            for c in range(values.shape[1]):
                assert float(row[f"{name}_{c}"]) == values[t, c]
    header = path.read_text().splitlines()[0].split(",")
    assert header[0] == "step"
    assert "rel_dist_0" in header
    assert "norm_ratio_2" in header
    assert "cosine_1" in header


# ---------------------------------------------------------------------------
# trace summaries


def test_first_iteration_entropy_is_log_n_out():
    rng = np.random.default_rng(6)
    cfg, p, caps, out_bias = random_instance(rng, mode="fixed", n_iters=3)
    _, trace = route(p, caps, cfg, out_bias=out_bias, want_trace=True)
    summaries = A.trace_summary(trace)
    np.testing.assert_allclose(summaries[0].probs_entropy,
                               math.log(cfg.n_out), atol=1e-12)


def test_single_output_entropy_is_zero():
    from capsem.routing import RoutingConfig
    from conftest import random_caps, random_params
    rng = np.random.default_rng(7)
    cfg = RoutingConfig(n_out=1, n_in=3, d_cov=2, d_in=2, d_out=2, n_iters=2)
    p = random_params(rng, cfg)
    caps = random_caps(rng, cfg)
    _, trace = route(p, caps, cfg, want_trace=True)
    for s in A.trace_summary(trace):
        np.testing.assert_allclose(s.probs_entropy, 0.0, atol=1e-12)


def test_summary_matches_direct_recomputation():
    rng = np.random.default_rng(8)
    cfg, p, caps, out_bias = random_instance(rng, mode="variable_input",
                                             n_iters=3)
    out, trace = route(p, caps, cfg, out_bias=out_bias, want_trace=True)
    summaries = A.trace_summary(trace)
    assert len(summaries) == cfg.n_iters
    for step, s in zip(trace.iterations, summaries):
        expected_entropy = -(step.probs * np.log(step.probs)).sum(axis=2)
        np.testing.assert_allclose(s.probs_entropy, expected_entropy,
                                   atol=1e-12)
        np.testing.assert_allclose(s.mean_used, step.used.mean(axis=1),
                                   atol=1e-12)
        assert np.all(np.isfinite(s.scores))
    np.testing.assert_array_equal(summaries[-1].scores, out.scores.data)
