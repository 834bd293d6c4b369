import gc
import tracemalloc
from concurrent.futures import Future

import numpy as np
import pytest

from capsem import routing
from capsem import tensor as T
from capsem.classifier import (TrainRegime, _batch_gradients,
                               build_constellation_classifier, evaluate,
                               train_classifier)
from capsem.data import ConstellationSpec, make_dataset, to_one_hot
from capsem.errors import ConfigError, DomainError
from capsem.nn import mix_batch
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
    mixed_scores, mixed_poses, mixed_targets = mix_batch(
        scores, poses, targets, lam=0.5, rng=np.random.default_rng(1))
    # one-sample batch: the shuffled partner is the sample itself
    np.testing.assert_allclose(mixed_scores, scores, atol=1e-9)
    np.testing.assert_array_equal(mixed_poses, poses)
    np.testing.assert_array_equal(mixed_targets, targets)


def test_mix_batch_keeps_float32():
    scores = np.array([[4.0, 0.0, -4.0], [1.0, 2.0, 3.0]], dtype=np.float32)
    poses = np.ones((2, 3, 2, 2), dtype=np.float32)
    targets = np.eye(2, dtype=np.float32)
    for lam in (0.3, np.float64(0.3)):  # a numpy scalar must not upcast
        mixed = mix_batch(scores, poses, targets, lam=lam,
                          rng=np.random.default_rng(1))
        assert [a.dtype for a in mixed] == [np.float32] * 3


def test_regime_validation():
    for bad in (dict(epochs=0), dict(batch_size=2.0), dict(seed=-1),
                dict(threads=True), dict(threads=2), dict(lr_peak=float("inf")),
                dict(beta1_start="0.9"), dict(warm_frac=0.0),
                dict(mixup="yes"), dict(mixup_alpha=(0.2, 0.0)),
                dict(mixup_alpha=(0.2,)), dict(beta1_start=1.0),
                dict(beta1_peak=-0.1), dict(beta1_peak=float("nan")),
                dict(lr_start=-1e-3), dict(lr_peak=float("nan"))):
        with pytest.raises(ConfigError):
            TrainRegime(**bad)
    TrainRegime(mixup_alpha=[0.4, 0.4], lr_start=1)  # JSON list, int rate
    TrainRegime(lr_start=0, beta1_start=0.0)  # both ranges include 0


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


def test_training_step_and_prediction_leave_no_reference_cycles(small_data):
    # a VJP closure that holds a Tensor ties its tape into a cycle that
    # only the garbage collector frees, which raises peak memory
    spec, (tc, tl), _ = small_data
    model = build_constellation_classifier(spec.d_cov, spec.d_in,
                                           spec.n_classes, seed=0)
    scores, poses = np.asarray(tc.scores)[:20], np.asarray(tc.poses)[:20]
    targets = to_one_hot(np.asarray(tl)[:20], spec.n_classes)
    gc.collect()
    gc.disable()
    try:
        _batch_gradients(model, scores, poses, targets)
        model.predict_proba(CapsuleBatch(scores, poses))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_evaluate_on_empty_set(small_data):
    spec, _, _ = small_data
    model = build_constellation_classifier(spec.d_cov, spec.d_in,
                                           spec.n_classes, n_mid=8, seed=0)
    caps = CapsuleBatch(np.zeros((0, 10)), np.zeros((0, 10, 4, 4)))
    loss, acc = evaluate(model, caps, np.zeros(0, dtype=int))
    assert np.isnan(loss) and np.isnan(acc)


def _bad_labels(labels, n_classes, kind):
    if kind == "all_negative":
        return np.full(len(labels), -1)
    if kind == "float":
        return labels.astype(float)
    labels = labels.copy()
    labels[7] = n_classes
    return labels


@pytest.mark.parametrize("kind", ["all_negative", "n_classes", "float"])
def test_labels_outside_the_classes_are_a_domain_error(small_data, kind):
    # label -1 once indexed the last class, so training ran without
    # error, and a label of n_classes or a float label was an IndexError
    spec, (tc, tl), (vc, vl) = small_data
    model = build_constellation_classifier(spec.d_cov, spec.d_in,
                                           spec.n_classes, n_mid=8, seed=0)
    before = {k: v.copy() for k, v in model.param_dict().items()}
    regime = TrainRegime(epochs=1, seed=0)
    match = r"labels must be integers in \[0, n_classes\)"
    with pytest.raises(DomainError, match=match):
        train_classifier(model, tc, _bad_labels(tl, spec.n_classes, kind),
                         vc, vl, regime)
    with pytest.raises(DomainError, match=match):
        train_classifier(model, tc, tl, vc,
                         _bad_labels(vl, spec.n_classes, kind), regime)
    for k, v in model.param_dict().items():
        np.testing.assert_array_equal(v, before[k], err_msg=k)
    # evaluate checks the labels before it routes: these capsules have
    # the wrong pose shape, which routing would refuse with a ShapeError
    wrong = CapsuleBatch(np.zeros((len(vl), 3)), np.zeros((len(vl), 3, 1, 1)))
    with pytest.raises(DomainError, match=match):
        evaluate(model, wrong, _bad_labels(vl, spec.n_classes, kind))


@pytest.fixture(scope="module")
def routed_data():
    spec = ConstellationSpec(seed=12)
    caps, labels = make_dataset(spec, 400)
    model = build_constellation_classifier(spec.d_cov, spec.d_in,
                                           spec.n_classes, seed=0)
    return model, np.asarray(caps.scores), np.asarray(caps.poses), labels


@pytest.mark.parametrize("n", [0, 1, 99, 100, 101, 250])
def test_predict_proba_routes_in_chunks_of_100(routed_data, n):
    model, scores, poses, _ = routed_data
    scores, poses = scores[:n], poses[:n]
    probs = model.predict_proba(CapsuleBatch(scores, poses))
    expected = np.concatenate(
        [np.empty((0, model.n_classes))]
        + [model.predict_proba(CapsuleBatch(scores[lo:lo + 100],
                                            poses[lo:lo + 100]))
           for lo in range(0, n, 100)])
    assert np.array_equal(probs, expected)


def test_predict_proba_batches_one_sample(routed_data):
    model, scores, poses, _ = routed_data
    probs = model.predict_proba(CapsuleBatch(scores[0], poses[0]))
    assert np.array_equal(
        probs, model.predict_proba(CapsuleBatch(scores[:1], poses[:1])))


def test_predict_proba_of_a_sample_does_not_depend_on_its_batch(routed_data):
    # each sample's row has the same bytes routed alone, in a pair and in
    # a batch of 20; betas off zero, so every routing gate is in play
    model, scores, poses, _ = routed_data
    rng = np.random.default_rng(30)
    model = model.with_zero_betas()
    for name, value in model.param_dict().items():
        if "beta" in name:
            value[...] = rng.normal(0.0, 0.5, size=value.shape)
    scores, poses = scores[:20], poses[:20]
    whole = model.predict_proba(CapsuleBatch(scores, poses))
    for size in (1, 2):
        for lo in range(0, 20, size):
            part = model.predict_proba(CapsuleBatch(scores[lo:lo + size],
                                                    poses[lo:lo + size]))
            assert part.tobytes() == whole[lo:lo + size].tobytes(), (size, lo)


def test_evaluate_accuracy_is_argmax_accuracy(routed_data):
    model, scores, poses, labels = routed_data
    caps = CapsuleBatch(scores[:250], poses[:250])
    probs = model.predict_proba(caps)
    _, acc = evaluate(model, caps, labels[:250])
    assert acc == float(np.mean(probs.argmax(axis=1) == labels[:250]))


def _peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


class _SerialPool:
    """A stand-in for route's thread pool that runs each part when it is
    submitted, so that no result depends on thread timing."""

    def __init__(self, workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


def test_predict_proba_memory_does_not_grow_with_batch(routed_data,
                                                       monkeypatch):
    # tracemalloc counts a pooled buffer only when it is made, and how
    # many are live at once depends on how split parts overlap; so at two
    # CPUs each 100-sample chunk still splits into two 50-sample parts,
    # but they run one after the other
    monkeypatch.setattr(routing, "ThreadPoolExecutor", _SerialPool)
    parts, iterate = [], routing._iterate

    def spy(params, caps, *rest):  # records each part's batch size
        parts.append(len(T.asarray(caps.scores)))
        return iterate(params, caps, *rest)

    monkeypatch.setattr(routing, "_iterate", spy)
    model, scores, poses, _ = routed_data
    small = CapsuleBatch(scores[:100], poses[:100])
    for cpus in (1, 2):
        monkeypatch.setattr(routing, "_cpu_count", lambda: cpus)
        model.predict_proba(small)  # warm lazily built caches
        peak_100 = _peak_mb(lambda: model.predict_proba(small))
        parts.clear()
        peak_400 = _peak_mb(lambda: model.predict_proba(
            CapsuleBatch(scores, poses)))
        assert peak_400 <= 1.1 * peak_100, (cpus, peak_100, peak_400)
        # each chunk routes once per layer, whole or in two parts
        assert parts == [100 // cpus] * (2 * 4 * cpus)


def test_predict_proba_pool_does_not_grow_with_batch(routed_data,
                                                    monkeypatch):
    # tracemalloc sees a pooled buffer only when it is made, so this
    # reads the routing buffer pool itself, after a 100-sample call and
    # then a 400-sample one
    model, scores, poses, _ = routed_data
    assert len(scores) == 400

    def pooled(cpus):
        monkeypatch.setattr(routing, "_cpu_count", lambda: cpus)
        T._POOL.clear()
        held = []
        for n in (100, 400):
            model.predict_proba(CapsuleBatch(scores[:n], poses[:n]))
            held.append([e[0].nbytes for e in T._POOL])
        return held

    # one CPU: every 100-sample chunk routes whole, so the pool holds the
    # same buffers after both calls
    held_100, held_400 = pooled(1)
    assert sum(held_100) > 0 and sum(held_400) == sum(held_100)
    # two CPUs: each chunk routes as two 50-sample parts on threads, and
    # how many buffers are live at once depends on their timing. A buffer
    # is made at a request's exact size and the parts' sizes are fixed,
    # so the largest one does not depend on the batch
    held_100, held_400 = pooled(2)
    assert max(held_400) == max(held_100)
