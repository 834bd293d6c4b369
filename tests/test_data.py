import json
import struct

import numpy as np
import pytest
from conftest import random_params

from capsem import data as D
from capsem.errors import (ConfigError, DataFormatError, DomainError,
                           FormatVersionError, ShapeError)
from capsem.routing import LOGIT_MAX, CapsuleBatch, RoutingConfig
from capsem.routing import init_params


# ---------------------------------------------------------------------------
# constellation generation


def test_noiseless_task_is_perfectly_separable():
    spec = D.ConstellationSpec(jitter_std=0.0, n_distractors=0, seed=3)
    batch, labels = D.make_dataset(spec, 60)
    assert D.oracle_accuracy(spec, batch, labels) == 1.0


def test_generation_is_deterministic():
    spec = D.ConstellationSpec(seed=5)
    a = list(D.gen_constellation(spec, 10))
    b = list(D.gen_constellation(spec, 10))
    for (sa, pa, la), (sb, pb, lb) in zip(a, b):
        np.testing.assert_array_equal(sa, sb)
        np.testing.assert_array_equal(pa, pb)
        assert la == lb


def test_generation_by_index_range_is_pure():
    spec = D.ConstellationSpec(seed=6)
    whole = list(D.gen_constellation(spec, 20))
    tail = list(D.gen_constellation(spec, 10, start=10))
    for (sa, pa, la), (sb, pb, lb) in zip(whole[10:], tail):
        np.testing.assert_array_equal(pa, pb)
        assert la == lb


def test_class_frequencies_are_uniform():
    spec = D.ConstellationSpec(seed=7)
    labels = np.array([lab for _, _, lab in D.gen_constellation(spec, 10_000)])
    counts = np.bincount(labels, minlength=spec.n_classes)
    expected = 10_000 / spec.n_classes
    sigma = np.sqrt(10_000 * (1 / spec.n_classes) * (1 - 1 / spec.n_classes))
    assert np.all(np.abs(counts - expected) <= 3 * sigma)


def test_samples_have_expected_shape_and_scores():
    spec = D.ConstellationSpec(seed=8)
    scores, poses, label = next(D.gen_constellation(spec, 1))
    assert poses.shape == (spec.caps_per_sample, spec.d_cov, spec.d_in)
    assert scores.shape == (spec.caps_per_sample,)
    assert sorted(np.unique(scores)) == [spec.score_distractor,
                                         spec.score_present]
    assert (scores == spec.score_present).sum() == spec.parts_per_class
    assert 0 <= label < spec.n_classes


def test_pose_family_closure_at_zero_jitter():
    # transforming all parts by one in-family map yields the same class
    spec = D.ConstellationSpec(jitter_std=0.0, n_distractors=0, seed=9)
    rng = np.random.default_rng(0)
    for scores, poses, label in D.gen_constellation(spec, 10):
        t3 = D.similarity_matrix(theta=rng.uniform(0, 2 * np.pi),
                                 scale=rng.uniform(0.7, 1.4),
                                 tx=rng.uniform(-1, 1), ty=rng.uniform(-1, 1))
        moved = poses.copy()
        moved[:, :3, :3] = t3 @ poses[:, :3, :3]
        assert D.nearest_template_classify(spec, scores, moved) == label


def test_oracle_handles_distractors_and_jitter():
    spec = D.ConstellationSpec(seed=10)  # default: jitter 0.05, 4 distractors
    batch, labels = D.make_dataset(spec, 40)
    assert D.oracle_accuracy(spec, batch, labels) >= 0.95


def test_spec_validation():
    with pytest.raises(ConfigError):
        D.ConstellationSpec(n_classes=1)
    with pytest.raises(ConfigError):
        D.ConstellationSpec(jitter_std=-0.1)
    with pytest.raises(ConfigError):
        D.ConstellationSpec(score_present=LOGIT_MAX + 1)
    with pytest.raises(ConfigError):
        D.spec_from_dict({"n_classes": 5, "typo_key": 1})
    for bad in (dict(n_classes=5.0), dict(d_cov=True), dict(seed=-1),
                dict(n_distractors=-1), dict(jitter_std=float("nan")),
                dict(score_present="4")):
        with pytest.raises(ConfigError):
            D.ConstellationSpec(**bad)
    with pytest.raises(ConfigError, match="JSON object"):
        D.spec_from_dict([["n_classes", 5]])


# ---------------------------------------------------------------------------
# capsule files


def test_capsule_file_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(11)
    batch = CapsuleBatch(rng.normal(size=(4, 6)), rng.normal(size=(4, 6, 3, 2)))
    labels = np.array([0, 1, 2, 1])
    path = tmp_path / "batch.caps"
    D.write_capsules(path, batch, labels)
    back, back_labels = D.read_capsules(path)
    np.testing.assert_array_equal(back.scores, np.asarray(batch.scores))
    np.testing.assert_array_equal(back.poses, np.asarray(batch.poses))
    np.testing.assert_array_equal(back_labels, labels)


def test_capsule_file_json_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    batch = CapsuleBatch(rng.normal(size=(2, 3)), rng.normal(size=(2, 3, 4, 4)))
    path = tmp_path / "batch.json"
    D.write_capsules(path, batch)
    back, labels = D.read_capsules(path)
    assert labels is None
    np.testing.assert_array_equal(back.scores, np.asarray(batch.scores))
    np.testing.assert_array_equal(back.poses, np.asarray(batch.poses))


@pytest.mark.parametrize("field,value,message", [
    ("labels", [-1, 0], "non-negative integers"),
    ("labels", [1.5, 0], "non-negative integers"),
    ("labels", [True, 0], "non-negative integers"),
    ("labels", [0, 10**30], "labels"),
    ("scores", [[0.5, 10**400]] * 2, "scores"),
], ids=["negative_label", "fractional_label", "bool_label", "huge_label",
        "huge_int_score"])
def test_capsule_file_json_rejects_bad_values(tmp_path, field, value,
                                              message):
    batch = CapsuleBatch(np.zeros((2, 2)), np.zeros((2, 2, 1, 1)))
    path = tmp_path / "batch.json"
    D.write_capsules(path, batch, np.array([0, 1]))
    doc = json.loads(path.read_text())
    doc[field] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError, match=message):
        D.read_capsules(path)


def test_capsule_file_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.caps"
    rng = np.random.default_rng(13)
    batch = CapsuleBatch(rng.normal(size=(1, 2)), rng.normal(size=(1, 2, 3, 3)))
    D.write_capsules(path, batch)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"CAPX"
    path.write_bytes(bytes(blob))
    with pytest.raises(DataFormatError, match="magic"):
        D.read_capsules(path)


def test_capsule_file_rejects_unknown_version(tmp_path):
    path = tmp_path / "v99.caps"
    rng = np.random.default_rng(14)
    batch = CapsuleBatch(rng.normal(size=(1, 2)), rng.normal(size=(1, 2, 3, 3)))
    D.write_capsules(path, batch)
    blob = bytearray(path.read_bytes())
    blob[4:6] = (99).to_bytes(2, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatVersionError):
        D.read_capsules(path)


def test_capsule_file_truncation_reports_byte_offset(tmp_path):
    path = tmp_path / "trunc.caps"
    rng = np.random.default_rng(15)
    batch = CapsuleBatch(rng.normal(size=(2, 3)), rng.normal(size=(2, 3, 4, 4)))
    D.write_capsules(path, batch)
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) - 16])
    with pytest.raises(DataFormatError, match="byte offset"):
        D.read_capsules(path)


def test_capsule_file_rejects_trailing_garbage(tmp_path):
    path = tmp_path / "extra.caps"
    rng = np.random.default_rng(16)
    batch = CapsuleBatch(rng.normal(size=(1, 2)), rng.normal(size=(1, 2, 3, 3)))
    D.write_capsules(path, batch)
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(DataFormatError, match="trailing"):
        D.read_capsules(path)


@pytest.mark.parametrize("suffix", [".caps", ".json"])
def test_capsule_file_rejects_nonfinite_payload(tmp_path, suffix):
    path = tmp_path / f"batch{suffix}"
    D.write_capsules(path, CapsuleBatch(np.zeros((1, 2)),
                                        np.zeros((1, 2, 3, 3))))
    if suffix == ".json":
        doc = json.loads(path.read_text())
        doc["scores"][0][0] = float("nan")
        path.write_text(json.dumps(doc))
    else:
        # the first score follows the 8-byte header and the 17-byte dims
        blob = bytearray(path.read_bytes())
        blob[25:33] = struct.pack("<d", float("nan"))
        path.write_bytes(bytes(blob))
    with pytest.raises(DataFormatError, match="finite"):
        D.read_capsules(path)


def test_capsule_file_payload_length_arithmetic(tmp_path):
    # header (batch=2, n=3, d_cov=4, d_in=4): 2*3 scores + 2*3*4*4 pose values
    batch = CapsuleBatch(np.zeros((2, 3)), np.zeros((2, 3, 4, 4)))
    path = tmp_path / "sized.caps"
    D.write_capsules(path, batch)
    header = 4 + 2 + 1 + 1 + 1 + 16  # magic, version, kind, dtype, flags, dims
    payload = (2 * 3 + 2 * 3 * 4 * 4) * 8
    assert path.stat().st_size == header + payload


_LAYOUTS = (
    RoutingConfig(n_out=3, n_in=4, d_cov=2, d_in=2, d_out=3),
    RoutingConfig(n_out=3, n_in=4, d_cov=2, d_in=2, d_out=3, tie_betas=True),
    RoutingConfig(n_out=3, d_cov=2, d_in=2, d_out=3, tie_betas=True),
    RoutingConfig(n_out="variable", d_cov=2, d_in=2, d_out=3),
)


def _assert_same_params(back, p):
    assert back.tied == p.tied
    got = dict(back.items())
    assert list(got) == [name for name, _ in p.items()]
    for name, value in p.items():
        np.testing.assert_array_equal(got[name], value)


def test_params_file_round_trip(tmp_path):
    rng = np.random.default_rng(17)
    for k, mode_cfg in enumerate(_LAYOUTS):
        p = random_params(rng, mode_cfg)
        path = tmp_path / f"{k}.caps"
        D.write_params(path, p, mode_cfg)
        back, cfg = D.read_params(path)
        assert cfg == mode_cfg
        _assert_same_params(back, p)


def test_capsule_file_float32_round_trip(tmp_path):
    rng = np.random.default_rng(24)
    batch = CapsuleBatch(
        rng.normal(size=(3, 4)).astype(np.float32),
        rng.normal(size=(3, 4, 2, 2)).astype(np.float32))
    path = tmp_path / "f32.caps"
    D.write_capsules(path, batch)
    back, _ = D.read_capsules(path)
    assert np.asarray(back.scores).dtype == np.float32
    np.testing.assert_array_equal(back.scores, np.asarray(batch.scores))
    np.testing.assert_array_equal(back.poses, np.asarray(batch.poses))


def test_params_json_round_trip(tmp_path):
    rng = np.random.default_rng(23)
    for k, cfg in enumerate(_LAYOUTS):
        p = random_params(rng, cfg)
        path = tmp_path / f"{k}.json"
        D.write_params(path, p, cfg)
        back, back_cfg = D.read_params(path)
        assert back_cfg == cfg
        _assert_same_params(back, p)


@pytest.mark.parametrize("corrupt, message", [
    (lambda doc: doc.update(weights=doc["weights"][:-1]), "shape"),
    (lambda doc: doc.pop("biases"), "biases"),
    (lambda doc: doc.pop("dims"), "no 'dims'"),
    (lambda doc: doc.pop("n_iters"), "n_iters"),
    (lambda doc: doc.update(dims=[4, 3]), "object"),
    (lambda doc: doc["dims"].update(d_cov=0), "d_cov"),
    (lambda doc: doc.update(mode=["fixed"]), "sharing mode"),
    (lambda doc: doc.update(n_iters=1.5), "n_iters must be an int"),
    (lambda doc: doc.update(tie_betas="no"), "tie_betas"),
    (lambda doc: doc.update(var_floor=float("nan")), "var_floor"),
    (lambda doc: doc.update(denom_eps=float("inf")), "denom_eps"),
])
def test_params_json_rejects_malformed_arrays(tmp_path, corrupt, message):
    cfg = _LAYOUTS[0]
    path = tmp_path / "params.json"
    D.write_params(path, init_params(cfg, seed=0), cfg)
    doc = json.loads(path.read_text())
    corrupt(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError, match=message):
        D.read_params(path)


@pytest.mark.parametrize("reader", ["params", "model"])
def test_layer_record_with_rejected_dims_is_a_format_error(tmp_path, reader):
    cfg = _LAYOUTS[0]
    path = tmp_path / "layer.caps"
    if reader == "params":
        D.write_params(path, init_params(cfg, seed=0), cfg)
    else:
        D.write_model(path, [(init_params(cfg, seed=0), cfg)], n_classes=3)
    written = path.read_bytes()
    # the layer record follows the 8-byte header (and a model's 8-byte
    # layer count and class count); d_cov is its third u32 after 2 bytes,
    # var_floor the f64 after its six u32
    record = 8 + (8 if reader == "model" else 0)
    read = D.read_params if reader == "params" else D.read_model
    for offset, value, name in ((2 + 2 * 4, struct.pack("<I", 0), "d_cov"),
                                (2 + 6 * 4, struct.pack("<d", np.nan),
                                 "var_floor")):
        blob = bytearray(written)
        blob[record + offset:record + offset + len(value)] = value
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError, match=name):
            read(path)


def test_params_writer_rejects_params_of_another_layout(tmp_path):
    untied = _LAYOUTS[0]
    tied = init_params(_LAYOUTS[1], seed=0)
    with pytest.raises(ShapeError, match="layout"):
        D.write_params(tmp_path / "p.caps", tied, untied)


def test_model_file_round_trip(tmp_path):
    cfg1 = RoutingConfig(n_out=4, d_cov=2, d_in=2, d_out=3)
    cfg2 = RoutingConfig(n_out=5, n_in=4, d_cov=2, d_in=3, d_out=2)
    layers = [(init_params(cfg1, 0), cfg1), (init_params(cfg2, 1), cfg2)]
    path = tmp_path / "model.caps"
    D.write_model(path, layers, n_classes=5)
    back, n_classes = D.read_model(path)
    assert n_classes == 5
    assert len(back) == 2
    for (p, c), (bp, bc) in zip(layers, back):
        assert c == bc
        np.testing.assert_array_equal(p.weights, bp.weights)


_STACK_CFG1 = RoutingConfig(n_out=4, d_cov=2, d_in=2, d_out=3)


@pytest.mark.parametrize("second, n_classes, message", [
    (None, 5, "at least one layer"),
    (RoutingConfig(n_out=5, n_in=4, d_cov=2, d_in=3, d_out=2), 7,
     "7 classes"),
    (RoutingConfig(n_out=5, n_in=4, d_cov=1, d_in=3, d_out=2), 5, "d_cov=1"),
    (RoutingConfig(n_out=5, n_in=4, d_cov=2, d_in=2, d_out=2), 5, "d_in=2"),
    (RoutingConfig(n_out=5, n_in=3, d_cov=2, d_in=3, d_out=2), 5, "n_in=3"),
], ids=["no_layers", "extra_classes", "d_cov", "d_in", "n_in"])
def test_model_file_must_describe_a_routable_stack(tmp_path, capsys, second,
                                                   n_classes, message):
    from capsem.cli import main
    configs = [] if second is None else [_STACK_CFG1, second]
    layers = [(init_params(cfg, k), cfg) for k, cfg in enumerate(configs)]
    with pytest.raises(ShapeError, match=message):
        D.write_model(tmp_path / "w.caps", layers, n_classes)
    # assemble the file by hand: each layer record is a params file
    # without its 8-byte header
    records = b""
    for params, cfg in layers:
        D.write_params(tmp_path / "layer.caps", params, cfg)
        records += (tmp_path / "layer.caps").read_bytes()[8:]
    path = tmp_path / "m.caps"
    path.write_bytes(b"CAPS" + struct.pack("<HBB", 1, 3, 1)
                     + struct.pack("<II", len(layers), n_classes) + records)
    with pytest.raises(DataFormatError, match=message):
        D.read_model(path)
    assert main(["inspect", "--model", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


# ---------------------------------------------------------------------------
# embedding ingestion


def test_ingest_embeddings_shapes():
    rng = np.random.default_rng(18)
    vectors = rng.normal(size=(10, 64))
    caps = D.ingest_embeddings(vectors, np.ones(10), d_cov=1)
    assert caps.n == 10
    assert np.asarray(caps.poses).shape == (10, 1, 64)


def test_ingest_full_mask_saturates_scores():
    vectors = np.random.default_rng(19).normal(size=(4, 8))
    caps = D.ingest_embeddings(vectors, np.ones(4), d_cov=2)
    np.testing.assert_array_equal(np.asarray(caps.scores), LOGIT_MAX)
    assert np.asarray(caps.poses).shape == (4, 2, 4)


def test_ingest_half_mask_gives_zero_scores():
    vectors = np.random.default_rng(20).normal(size=(3, 6))
    caps = D.ingest_embeddings(vectors, np.array([0.5, 1.0, 0.0]), d_cov=1)
    scores = np.asarray(caps.scores)
    assert scores[0] == 0.0
    assert scores[1] == LOGIT_MAX
    assert scores[2] == -LOGIT_MAX


def test_ingest_rejects_indivisible_length():
    with pytest.raises(ShapeError, match="divisible"):
        D.ingest_embeddings(np.zeros((3, 7)), np.ones(3), d_cov=2)


def test_ingest_rejects_bad_mask():
    with pytest.raises(DomainError):
        D.ingest_embeddings(np.zeros((2, 4)), np.array([0.5, 1.5]))


def test_ingest_batched_vectors():
    rng = np.random.default_rng(21)
    vectors = rng.normal(size=(2, 5, 8))
    caps = D.ingest_embeddings(vectors, np.ones((2, 5)), d_cov=2)
    assert caps.is_batched
    assert np.asarray(caps.poses).shape == (2, 5, 2, 4)


# ---------------------------------------------------------------------------
# empty dataset


def test_negative_sample_count_is_a_config_error():
    with pytest.raises(ConfigError, match="-5"):
        D.make_dataset(D.ConstellationSpec(), -5)


def test_empty_dataset_round_trips(tmp_path):
    spec = D.ConstellationSpec(seed=22)
    batch, labels = D.make_dataset(spec, 0)
    path = tmp_path / "empty.caps"
    D.write_capsules(path, batch, labels)
    back, back_labels = D.read_capsules(path)
    assert np.asarray(back.scores).shape == (0, spec.caps_per_sample)
    assert len(back_labels) == 0
