import math

import numpy as np
import pytest
from scipy.special import expit

from capsem import nn
from capsem import tensor as T
from capsem.errors import DomainError, ShapeError
from capsem.routing import LOGIT_MAX


# ---------------------------------------------------------------------------
# linear


def test_linear_identity():
    x = np.random.default_rng(0).normal(size=(4, 3))
    out = nn.linear(T.tensor(x), np.eye(3), np.zeros(3))
    np.testing.assert_allclose(out.data, x, atol=1e-15)


def test_linear_zero_weight_returns_bias():
    x = np.random.default_rng(1).normal(size=(4, 3))
    bias = np.array([1.0, -2.0])
    out = nn.linear(T.tensor(x), np.zeros((3, 2)), bias)
    np.testing.assert_array_equal(out.data, np.broadcast_to(bias, (4, 2)))


def test_linear_matches_loop_oracle():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(2, 5, 3))
    w = rng.normal(size=(3, 4))
    b = rng.normal(size=4)
    out = nn.linear(T.tensor(x), w, b).data

    expected = np.zeros((2, 5, 4))
    for i in range(2):
        for j in range(5):
            for k in range(4):
                expected[i, j, k] = b[k]
                for m in range(3):
                    expected[i, j, k] += x[i, j, m] * w[m, k]
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_linear_shape_mismatch():
    with pytest.raises(ShapeError):
        nn.linear(T.tensor(np.ones((2, 3))), np.ones((4, 2)), np.zeros(2))


def test_linear_gradients():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(3, 4))

    def f(w):
        out = nn.linear(T.tensor(x), w, np.zeros(2))
        return T.reduce_sum(T.square(out))

    assert T.grad_check(f, rng.normal(size=(4, 2))) <= 1e-6


# ---------------------------------------------------------------------------
# layer_norm


def test_layer_norm_constant_row_returns_shift():
    x = np.full((2, 5), 3.7)
    shift = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    out = nn.layer_norm(T.tensor(x), np.ones(5), shift)
    np.testing.assert_allclose(out.data, np.broadcast_to(shift, (2, 5)),
                               atol=1e-9)


def test_layer_norm_two_point_standardization():
    out = nn.layer_norm(T.tensor([1.0, 3.0]), np.ones(2), np.zeros(2))
    np.testing.assert_allclose(out.data, [-1.0, 1.0], atol=1e-4)


def test_layer_norm_statistics():
    rng = np.random.default_rng(4)
    x = rng.normal(2.0, 3.0, size=(10, 32))
    out = nn.layer_norm(T.tensor(x), np.ones(32), np.zeros(32)).data
    np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.var(axis=1), 1.0, atol=1e-3)


def test_layer_norm_rejects_single_feature():
    with pytest.raises(ShapeError):
        nn.layer_norm(T.tensor([[1.0]]), np.ones(1), np.zeros(1))


def test_layer_norm_gradients():
    rng = np.random.default_rng(5)

    def f(x):
        out = nn.layer_norm(x, rng_gain, rng_shift)
        return T.reduce_sum(T.square(out))

    rng_gain = rng.normal(size=6)
    rng_shift = rng.normal(size=6)
    assert T.grad_check(f, rng.normal(size=(3, 6))) <= 1e-5


# ---------------------------------------------------------------------------
# mask_to_logits


def test_mask_to_logits_half_is_zero():
    assert nn.mask_to_logits(0.5) == 0.0


def test_mask_to_logits_saturates_at_clamp():
    assert nn.mask_to_logits(1.0) == LOGIT_MAX
    assert nn.mask_to_logits(0.0) == -LOGIT_MAX


def test_mask_to_logits_exact_log_odds():
    assert nn.mask_to_logits(0.8) == pytest.approx(math.log(4.0), abs=1e-12)


def test_mask_to_logits_rejects_out_of_range():
    with pytest.raises(DomainError):
        nn.mask_to_logits([0.5, 1.2])
    with pytest.raises(DomainError):
        nn.mask_to_logits(-0.1)


def test_mask_round_trip_within_clamp():
    # masks in [logistic(-30), logistic(30)] survive the logits round trip
    masks = expit(np.linspace(-LOGIT_MAX, LOGIT_MAX, 41))
    back = expit(nn.mask_to_logits(masks))
    np.testing.assert_allclose(back, masks, atol=1e-9)
    # and for moderate values the logit itself is recovered
    logits = np.linspace(-20.0, 20.0, 41)
    np.testing.assert_allclose(nn.mask_to_logits(expit(logits)), logits,
                               atol=1e-7)


# ---------------------------------------------------------------------------
# cross_entropy


def test_cross_entropy_uniform_prediction():
    scores = np.zeros((3, 5))
    target = np.eye(5)[:3]
    loss = nn.cross_entropy(T.tensor(scores), target)
    assert loss.item() == pytest.approx(math.log(5.0), abs=1e-12)


def test_cross_entropy_matched_prediction_equals_entropy():
    rng = np.random.default_rng(6)
    scores = rng.normal(size=(4, 3))
    probs = np.exp(scores) / np.exp(scores).sum(axis=1, keepdims=True)
    loss = nn.cross_entropy(T.tensor(scores), probs)
    entropy = -(probs * np.log(probs)).sum(axis=1).mean()
    assert loss.item() == pytest.approx(entropy, abs=1e-9)


def test_cross_entropy_nonnegative_and_zero_iff_confident():
    scores = np.array([[LOGIT_MAX * 4, 0.0, 0.0]])
    target = np.array([[1.0, 0.0, 0.0]])
    loss = nn.cross_entropy(T.tensor(scores), target)
    assert 0.0 <= loss.item() <= 1e-12


def test_cross_entropy_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    target = np.array([[0.7, 0.2, 0.1], [0.0, 1.0, 0.0]])

    def f(s):
        return nn.cross_entropy(s, target)

    assert T.grad_check(f, rng.normal(size=(2, 3))) <= 1e-6


def test_cross_entropy_rejects_malformed_targets():
    scores = T.tensor(np.zeros((1, 3)))
    with pytest.raises(ValueError):
        nn.cross_entropy(scores, np.array([[0.5, 0.2, 0.1]]))
    with pytest.raises(ValueError):
        nn.cross_entropy(scores, np.array([[1.5, -0.5, 0.0]]))


# ---------------------------------------------------------------------------
# mix_batch


def _batch(rng, size=2):
    scores = rng.uniform(-3, 3, size=(size, 3))
    poses = rng.normal(size=(size, 3, 2, 2))
    targets = rng.dirichlet(np.ones(4), size=size)
    return scores, poses, targets


def test_mix_batch_lam_one_returns_the_batch():
    scores, poses, targets = _batch(np.random.default_rng(8), size=5)
    mixed = nn.mix_batch(scores, poses, targets, lam=1.0,
                         rng=np.random.default_rng(1))
    # the log-odds round trip of the scores is exact to rounding
    np.testing.assert_allclose(mixed[0], scores, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(mixed[1], poses)
    np.testing.assert_array_equal(mixed[2], targets)


def test_mix_batch_two_sample_midpoint_in_probability_space():
    scores = np.array([[LOGIT_MAX, 0.0, 2.0], [-LOGIT_MAX, 0.0, -1.0]])
    poses = np.stack([np.zeros((3, 2, 2)), np.ones((3, 2, 2))])
    targets = np.eye(2)
    mixed_scores, mixed_poses, mixed_targets = nn.mix_batch(
        scores, poses, targets, lam=0.5, rng=np.random.default_rng(3))
    # seed 3 swaps the two samples, so each is mixed with the other
    np.testing.assert_array_equal(mixed_targets, [[0.5, 0.5], [0.5, 0.5]])
    probs = 0.5 * (expit(scores[0]) + expit(scores[1]))
    expected = np.log(probs) - np.log1p(-probs)
    for row in range(2):
        np.testing.assert_allclose(mixed_scores[row], expected, atol=1e-12)
        np.testing.assert_array_equal(mixed_poses[row], 0.5)
    # a present and an absent capsule blend to probability 1/2, log-odds 0
    assert mixed_scores[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_mix_batch_targets_stay_on_the_simplex():
    rng = np.random.default_rng(10)
    for _ in range(50):
        scores, poses, targets = _batch(rng, size=6)
        _, _, mixed = nn.mix_batch(scores, poses, targets,
                                   lam=float(rng.uniform()), rng=rng)
        assert np.all(mixed >= 0)
        np.testing.assert_allclose(mixed.sum(axis=1), 1.0, atol=1e-12)


def test_mix_batch_deterministic_given_rng():
    scores, poses, targets = _batch(np.random.default_rng(11), size=8)
    first = nn.mix_batch(scores, poses, targets, 0.3,
                         np.random.default_rng(123))
    second = nn.mix_batch(scores, poses, targets, 0.3,
                          np.random.default_rng(123))
    for a, b in zip(first, second, strict=True):
        np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# channel embedding


def test_channel_embedding_selects_rows():
    table = np.arange(12.0).reshape(4, 3)
    out = nn.channel_embedding(T.tensor(table), np.array([2, 0, 2]))
    np.testing.assert_array_equal(out.data, table[[2, 0, 2]])
    for bad in ([4], [-1], [1.5], [2.0], [True, False], np.array([1], bool)):
        with pytest.raises(ShapeError, match="channel ids"):
            nn.channel_embedding(T.tensor(table), bad)


def test_channel_embedding_zero_init_and_gradient():
    table0 = nn.init_channel_table(3, 4)
    assert np.all(table0 == 0.0)

    ids = np.array([0, 2, 2, 1])

    def f(tbl):
        rows = nn.channel_embedding(tbl, ids)
        return T.reduce_sum(T.square(T.add(rows, 1.0)))

    assert T.grad_check(f, np.random.default_rng(11).normal(size=(3, 4))) <= 1e-6
