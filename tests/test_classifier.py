import numpy as np
import pytest

from capsem.classifier import (TrainRegime, _batch_gradients, _mix_batch,
                               build_constellation_classifier, evaluate,
                               train_classifier)
from capsem.data import ConstellationSpec, make_dataset, to_one_hot
from capsem.errors import ConfigError
from capsem.routing import CapsuleBatch, RoutingParams


@pytest.fixture(scope="module")
def small_data():
    spec = ConstellationSpec(seed=11)
    train = make_dataset(spec, 150)
    val = make_dataset(spec, 60, start=150)
    return spec, train, val


def test_forward_shapes(small_data):
    spec, (caps, labels), _ = small_data
    model = build_constellation_classifier(spec.d_cov, spec.d_in,
                                           spec.n_classes, n_mid=8, seed=0)
    outs = model.forward(caps)
    assert outs[0].scores.shape == (150, 8)
    assert outs[1].scores.shape == (150, 5)
    assert outs[1].poses.shape == (150, 5, 4, 4)
    probs = model.predict_proba(caps)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)


def test_param_dict_names_and_aliasing(small_data):
    spec, _, _ = small_data
    model = build_constellation_classifier(spec.d_cov, spec.d_in,
                                           spec.n_classes, n_mid=8, seed=0)
    params = model.param_dict()
    assert set(params) == {
        "layer0.weights", "layer0.biases", "layer0.beta_use",
        "layer0.beta_ign",
        "layer1.weights", "layer1.biases", "layer1.beta_use",
        "layer1.beta_ign",
    }
    # in-place optimizer updates must be visible through the model
    before = np.array(params["layer0.weights"], copy=True)
    params["layer0.weights"] += 1.0
    np.testing.assert_array_equal(np.asarray(model.layers[0][0].weights),
                                  before + 1.0)


def test_with_zero_betas_only_zeroes_betas(small_data):
    spec, _, _ = small_data
    model = build_constellation_classifier(spec.d_cov, spec.d_in,
                                           spec.n_classes, n_mid=8, seed=0)
    model.layers[0][0].beta_use[:] = 1.5
    ablated = model.with_zero_betas()
    assert np.all(np.asarray(ablated.layers[0][0].beta_use) == 0.0)
    np.testing.assert_array_equal(ablated.layers[0][0].weights,
                                  model.layers[0][0].weights)
    assert np.all(np.asarray(model.layers[0][0].beta_use) == 1.5)  # untouched


def test_mix_batch_probability_space():
    rng = np.random.default_rng(0)
    scores = np.array([[4.0, 0.0, -4.0]])
    poses = rng.normal(size=(1, 3, 2, 2))
    targets = np.array([[1.0, 0.0]])
    mixed_scores, mixed_poses, mixed_targets = _mix_batch(
        scores, poses, targets, lam=0.5, rng=np.random.default_rng(1))
    # one-sample batch: the shuffled partner is the sample itself
    np.testing.assert_allclose(mixed_scores, scores, atol=1e-9)
    np.testing.assert_array_equal(mixed_poses, poses)
    np.testing.assert_array_equal(mixed_targets, targets)


def test_mix_batch_keeps_float32():
    scores = np.array([[4.0, 0.0, -4.0], [1.0, 2.0, 3.0]], dtype=np.float32)
    poses = np.ones((2, 3, 2, 2), dtype=np.float32)
    targets = np.eye(2, dtype=np.float32)
    mixed = _mix_batch(scores, poses, targets, lam=0.3,
                       rng=np.random.default_rng(1))
    assert [a.dtype for a in mixed] == [np.float32] * 3


def test_regime_validation():
    for bad in (dict(epochs=0), dict(batch_size=2.0), dict(seed=-1),
                dict(threads=True), dict(threads=2), dict(lr_peak=float("inf")),
                dict(beta1_start="0.9"), dict(warm_frac=0.0),
                dict(mixup="yes"), dict(mixup_alpha=(0.2, 0.0)),
                dict(mixup_alpha=(0.2,))):
        with pytest.raises(ConfigError):
            TrainRegime(**bad)
    TrainRegime(mixup_alpha=[0.4, 0.4], lr_start=1)  # JSON list, int rate


def test_training_improves_and_is_deterministic(small_data):
    spec, (tc, tl), (vc, vl) = small_data

    def run():
        model = build_constellation_classifier(spec.d_cov, spec.d_in,
                                               spec.n_classes, n_mid=16,
                                               seed=3)
        initial_loss, _ = evaluate(model, tc, tl)
        regime = TrainRegime(epochs=10, seed=3, mixup=False)
        logs = train_classifier(model, tc, tl, vc, vl, regime)
        final_loss, _ = evaluate(model, tc, tl)
        return model, logs, initial_loss, final_loss

    model1, logs1, initial1, final1 = run()
    model2, logs2, _, _ = run()
    assert [e.val_loss for e in logs1] == [e.val_loss for e in logs2]
    assert final1 < initial1  # the optimizer descends its objective
    np.testing.assert_array_equal(model1.layers[0][0].weights,
                                  model2.layers[0][0].weights)


def test_float32_model_gets_float32_gradients(small_data):
    spec, (tc, tl), _ = small_data
    model = build_constellation_classifier(spec.d_cov, spec.d_in,
                                           spec.n_classes, n_mid=8, seed=1)
    model.layers = [(RoutingParams.from_items(
        (name, value.astype(np.float32)) for name, value in params.items()),
        cfg) for params, cfg in model.layers]
    scores = np.asarray(tc.scores, dtype=np.float32)[:12]
    poses = np.asarray(tc.poses, dtype=np.float32)[:12]
    targets = to_one_hot(np.asarray(tl)[:12], spec.n_classes)
    loss, grads = _batch_gradients(model, scores, poses, targets)
    assert np.isfinite(loss)
    assert list(grads) == list(model.param_dict())
    for name, g in grads.items():
        assert g.dtype == np.float32, name


def test_evaluate_on_empty_set(small_data):
    spec, _, _ = small_data
    model = build_constellation_classifier(spec.d_cov, spec.d_in,
                                           spec.n_classes, n_mid=8, seed=0)
    caps = CapsuleBatch(np.zeros((0, 10)), np.zeros((0, 10, 4, 4)))
    loss, acc = evaluate(model, caps, np.zeros(0, dtype=int))
    assert np.isnan(loss) and np.isnan(acc)
