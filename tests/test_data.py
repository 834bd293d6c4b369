import json
import math
import struct

import numpy as np
import pytest
from conftest import random_params

from capsem import data as D
from capsem.errors import (ConfigError, DataFormatError, DomainError,
                           FormatVersionError, ShapeError)
from capsem.routing import (LOGIT_MAX, CapsuleBatch, RoutingConfig,
                            RoutingParams, init_params, param_shapes)


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


def test_capsule_file_json_unbatched_sample_takes_one_label(tmp_path):
    # one unbatched sample is stored as a batch of one, so it takes one label
    path = tmp_path / "one.json"
    D.write_capsules(path, CapsuleBatch(np.zeros((1, 2)),
                                        np.zeros((1, 2, 1, 1))), [3])
    doc = json.loads(path.read_text())
    doc["scores"], doc["poses"] = [0.5, 1.0], doc["poses"][0]
    path.write_text(json.dumps(doc))
    back, labels = D.read_capsules(path)
    np.testing.assert_array_equal(back.scores, [[0.5, 1.0]])
    assert back.poses.shape == (1, 2, 1, 1)
    np.testing.assert_array_equal(labels, [3])
    doc["labels"] = [3, 4]
    path.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError, match="expected \\(1,\\)"):
        D.read_capsules(path)


@pytest.mark.parametrize("field,value,message", [
    ("labels", [-1, 0], "non-negative integers"),
    ("labels", [1.5, 0], "non-negative integers"),
    ("labels", [True, 0], "non-negative integers"),
    ("labels", [0, 10**30], "labels"),
    ("scores", [[0.5, 10**400]] * 2, "scores"),
    ("bogus", 1, "unknown capsule_batch keys: \\['bogus'\\]"),
], ids=["negative_label", "fractional_label", "bool_label", "huge_label",
        "huge_int_score", "unknown_key"])
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


def test_capsule_json_writer_refuses_zero_samples(tmp_path):
    # nested lists of zero samples cannot carry n, d_cov or d_in
    batch, labels = D.make_dataset(D.ConstellationSpec(), 0)
    path = tmp_path / "empty.json"
    with pytest.raises(ShapeError, match="zero samples"):
        D.write_capsules(path, batch, labels)
    assert not path.exists()


@pytest.mark.parametrize("suffix", [".caps", ".json"])
@pytest.mark.parametrize("labels, error", [
    ([-1, 2], DomainError),
    ([1.7, 0.2], DomainError),
    ([0, 2 ** 32], DomainError),
    ([True, False], DomainError),
    ([0, 1, 2], ShapeError),
    ([[0, 1]], ShapeError),
], ids=["negative", "fractional", "too_large", "bool", "one_too_many",
        "nested"])
def test_capsule_writer_rejects_labels_its_reader_would_not_return(
        tmp_path, suffix, labels, error):
    # binary labels are u32: -1 would read back as 4294967295 and 1.7 as 1
    batch = CapsuleBatch(np.zeros((2, 2)), np.zeros((2, 2, 1, 1)))
    path = tmp_path / f"batch{suffix}"
    with pytest.raises(error, match="labels"):
        D.write_capsules(path, batch, labels)
    assert not path.exists()


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


@pytest.mark.parametrize("flags", [0x02, 0x03, 0x81])
def test_capsule_file_rejects_undefined_flag_bits(tmp_path, flags):
    path = tmp_path / "flags.caps"
    D.write_capsules(path, CapsuleBatch(np.zeros((1, 2)),
                                        np.zeros((1, 2, 3, 3))), [0])
    # the flags byte follows the 8-byte header
    blob = bytearray(path.read_bytes())
    blob[8] = flags
    path.write_bytes(bytes(blob))
    with pytest.raises(DataFormatError, match="flags"):
        D.read_capsules(path)


@pytest.mark.parametrize("reader", ["params", "model"])
@pytest.mark.parametrize("tie", [2, 255])
def test_capsule_file_rejects_undefined_tie_byte(tmp_path, reader, tie):
    cfg = RoutingConfig(n_out=3, n_in=4, d_cov=2, d_in=2, d_out=3,
                        tie_betas=True)
    path = tmp_path / "tied.caps"
    if reader == "params":
        D.write_params(path, init_params(cfg, seed=0), cfg)
    else:
        D.write_model(path, [(init_params(cfg, seed=0), cfg)], n_classes=3)
    # the tie byte is the layer record's second byte, after the 8-byte
    # header (and a model's layer count and class count)
    blob = bytearray(path.read_bytes())
    blob[8 + (8 if reader == "model" else 0) + 1] = tie
    path.write_bytes(bytes(blob))
    read = D.read_params if reader == "params" else D.read_model
    with pytest.raises(DataFormatError, match="tie_betas"):
        read(path)


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


def test_capsule_file_matches_documented_example(tmp_path):
    # the 53-byte example of docs/capsule_file_format.md
    path = tmp_path / "example.caps"
    D.write_capsules(path, CapsuleBatch(np.array([[0.5]]),
                                        np.array([[[[1.0, 2.0]]]])),
                     np.array([3]))
    assert path.read_bytes() == bytes.fromhex(
        "43 41 50 53 01 00 01 01"
        "01 01 00 00 00 01 00 00"
        "00 01 00 00 00 02 00 00"
        "00 00 00 00 00 00 00 e0"
        "3f 00 00 00 00 00 00 f0"
        "3f 00 00 00 00 00 00 00"
        "40 03 00 00 00")


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
    (lambda doc: doc.update(mode="bogus"), "unknown sharing mode"),
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


@pytest.mark.parametrize("cfg, corrupt, key", [
    (_LAYOUTS[0], lambda doc: doc.update(comment="x"), "comment"),
    (_LAYOUTS[0], lambda doc: doc["dims"].update(n_hidden=9), "n_hidden"),
    (_LAYOUTS[1], lambda doc: doc.update(beta_ign=doc["beta_use"]),
     "beta_ign"),
    (_LAYOUTS[3], lambda doc: doc.update(biases=[[0.0]]), "biases"),
], ids=["top_level", "dims", "tied_beta_ign", "variable_output_biases"])
def test_params_json_rejects_unknown_keys(tmp_path, cfg, corrupt, key):
    path = tmp_path / "params.json"
    D.write_params(path, init_params(cfg, seed=0), cfg)
    doc = json.loads(path.read_text())
    corrupt(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError, match=f"unknown .*'{key}'"):
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
    # layer count and class count); its first byte is the mode, d_cov its
    # third u32 after 2 bytes, var_floor the f64 after its six u32
    record = 8 + (8 if reader == "model" else 0)
    read = D.read_params if reader == "params" else D.read_model
    for offset, value, name in ((0, struct.pack("<B", 3), "sharing mode"),
                                (2 + 2 * 4, struct.pack("<I", 0), "d_cov"),
                                (2 + 6 * 4, struct.pack("<d", np.nan),
                                 "var_floor")):
        blob = bytearray(written)
        blob[record + offset:record + offset + len(value)] = value
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError, match=name):
            read(path)


@pytest.mark.parametrize("cfg, dim, offset", [
    (_LAYOUTS[2], "n_in", 2),
    (_LAYOUTS[3], "n_in", 2),
    (_LAYOUTS[3], "n_out", 2 + 4),
], ids=["variable_input_n_in", "variable_output_n_in",
        "variable_output_n_out"])
def test_layer_record_rejects_a_nonzero_unused_dim(tmp_path, cfg, dim,
                                                    offset):
    path = tmp_path / "layer.caps"
    D.write_params(path, init_params(cfg, seed=0), cfg)
    blob = bytearray(path.read_bytes())
    # the dims are the u32s after the 8-byte header and 2 mode/tie bytes
    blob[8 + offset:8 + offset + 4] = struct.pack("<I", 7)
    path.write_bytes(bytes(blob))
    with pytest.raises(DataFormatError, match=f"{dim}=7"):
        D.read_params(path)


@pytest.mark.parametrize("cfg, dim, value", [
    (_LAYOUTS[2], "n_in", 7),
    (_LAYOUTS[2], "n_in", "x"),
    (_LAYOUTS[2], "n_in", 0.0),
    (_LAYOUTS[2], "n_in", False),
    (_LAYOUTS[3], "n_in", 7),
    (_LAYOUTS[3], "n_out", 3),
], ids=["variable_input_n_in", "variable_input_n_in_text",
        "variable_input_n_in_float", "variable_input_n_in_bool",
        "variable_output_n_in", "variable_output_n_out"])
def test_params_json_rejects_a_nonzero_unused_dim(tmp_path, cfg, dim, value):
    path = tmp_path / "params.json"
    D.write_params(path, init_params(cfg, seed=0), cfg)
    doc = json.loads(path.read_text())
    assert doc["dims"][dim] == 0
    doc["dims"][dim] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError, match=f"{dim}={value!r}"):
        D.read_params(path)


def _counting_params(config, dtype):
    """Parameters whose values count up through every stored array."""
    start = 0
    items = []
    for name, shape in param_shapes(config).items():
        size = math.prod(shape)
        items.append((name, np.arange(start, start + size, dtype=dtype)
                      .reshape(shape) / 8))
        start += size
    return RoutingParams.from_items(items)


@pytest.mark.parametrize("cfg, dtype, mode_byte", [
    (RoutingConfig(n_out=3, d_cov=2, d_in=2, d_out=3, n_iters=2,
                   var_floor=1e-6, denom_eps=1e-9), np.float64, 1),
    (RoutingConfig(n_out=2, n_in=3, d_cov=2, d_in=1, d_out=2,
                   tie_betas=True), np.float32, 0),
], ids=["float64_untied_variable_input", "float32_tied_fixed"])
def test_params_file_matches_documented_layer_record(tmp_path, cfg, dtype,
                                                     mode_byte):
    params = _counting_params(cfg, dtype)
    path = tmp_path / "layer.caps"
    D.write_params(path, params, cfg)
    code, le = (1, "<f8") if dtype == np.float64 else (2, "<f4")
    expected = (b"CAPS" + struct.pack("<HBB", 1, 2, code)
                + struct.pack("<BB", mode_byte, int(cfg.tie_betas))
                + struct.pack("<5I", cfg.n_in or 0, cfg.n_out, cfg.d_cov,
                              cfg.d_in, cfg.d_out)
                + struct.pack("<I", cfg.n_iters)
                + struct.pack("<dd", cfg.var_floor, cfg.denom_eps)
                + b"".join(np.asarray(value, dtype=le).tobytes()
                           for _, value in params.items()))
    assert path.read_bytes() == expected


def test_params_json_key_order(tmp_path):
    cfg = _LAYOUTS[0]
    path = tmp_path / "params.json"
    D.write_params(path, init_params(cfg, seed=0), cfg)
    doc = json.loads(path.read_text())
    assert list(doc) == ["format", "version", "kind", "mode", "tie_betas",
                         "dims", "n_iters", "var_floor", "denom_eps",
                         "weights", "biases", "beta_use", "beta_ign"]
    assert list(doc["dims"]) == ["n_in", "n_out", "d_cov", "d_in", "d_out"]


def test_params_writer_rejects_params_of_another_layout(tmp_path):
    untied = _LAYOUTS[0]
    tied = init_params(_LAYOUTS[1], seed=0)
    with pytest.raises(ShapeError, match="layout"):
        D.write_params(tmp_path / "p.caps", tied, untied)


@pytest.mark.parametrize("field", ["beta_use", "beta_ign"])
def test_params_writer_rejects_betas_of_another_layout(tmp_path, field):
    cfg = _LAYOUTS[0]
    p = init_params(cfg, seed=0)
    setattr(p, field, np.zeros(cfg.n_out))
    with pytest.raises(ShapeError, match=field):
        D.write_params(tmp_path / "p.caps", p, cfg)
    with pytest.raises(ShapeError, match=field):
        D.write_model(tmp_path / "m.caps", [(p, cfg)], n_classes=3)


def _mixed_dtype_params(cfg):
    """float32 weights, every other field float64."""
    p = random_params(np.random.default_rng(40), cfg)
    p.weights = p.weights.astype(np.float32)
    return p


def test_params_writer_keeps_mixed_dtypes_exact(tmp_path):
    cfg = _LAYOUTS[0]
    p = _mixed_dtype_params(cfg)
    path = tmp_path / "p.caps"
    D.write_params(path, p, cfg)
    back, _ = D.read_params(path)
    assert back.beta_use.dtype == np.float64
    _assert_same_params(back, p)


def test_model_writer_keeps_mixed_dtypes_exact(tmp_path):
    cfg1 = RoutingConfig(n_out=4, d_cov=2, d_in=2, d_out=3)
    cfg2 = RoutingConfig(n_out=5, n_in=4, d_cov=2, d_in=3, d_out=2)
    layer0 = init_params(cfg1, 0)
    layer0 = RoutingParams.from_items(
        (name, np.asarray(value, dtype=np.float32))
        for name, value in layer0.items())
    layers = [(layer0, cfg1), (random_params(np.random.default_rng(41), cfg2),
                               cfg2)]
    path = tmp_path / "model.caps"
    D.write_model(path, layers, n_classes=5)
    back, _ = D.read_model(path)
    for (p, _), (bp, _) in zip(layers, back):
        assert bp.weights.dtype == np.float64
        _assert_same_params(bp, p)


def test_capsule_writer_keeps_mixed_dtypes_exact(tmp_path):
    # float32 vectors with a float64 mask: float32 poses, float64 scores
    rng = np.random.default_rng(42)
    batch = D.ingest_embeddings(rng.normal(size=(2, 3, 4)).astype(np.float32),
                                rng.uniform(0.01, 0.99, size=(2, 3)))
    assert batch.poses.dtype == np.float32
    assert batch.scores.dtype == np.float64
    path = tmp_path / "mixed.caps"
    D.write_capsules(path, batch)
    back, _ = D.read_capsules(path)
    np.testing.assert_array_equal(back.scores, batch.scores)
    np.testing.assert_array_equal(back.poses, batch.poses)


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


def test_model_file_rejects_a_variable_output_layer(tmp_path):
    # route would need a per-output bias that a model file does not store
    cfg = RoutingConfig(n_out="variable", d_cov=2, d_in=2, d_out=3)
    layers = [(init_params(cfg, 0), cfg)]
    with pytest.raises(ShapeError, match="variable_output"):
        D.write_model(tmp_path / "w.caps", layers, n_classes=1)
    D.write_params(tmp_path / "layer.caps", *layers[0])
    path = tmp_path / "m.caps"
    path.write_bytes(b"CAPS" + struct.pack("<HBB", 1, 3, 1)
                     + struct.pack("<II", 1, 1)
                     + (tmp_path / "layer.caps").read_bytes()[8:])
    with pytest.raises(DataFormatError, match="variable_output"):
        D.read_model(path)


# ---------------------------------------------------------------------------
# embedding ingestion


def test_ingest_embeddings_shapes():
    rng = np.random.default_rng(18)
    vectors = rng.normal(size=(10, 64))
    caps = D.ingest_embeddings(vectors, np.ones(10), d_cov=1)
    assert caps.n == 10
    assert np.asarray(caps.poses).shape == (1, 10, 1, 64)


def test_ingest_full_mask_saturates_scores():
    vectors = np.random.default_rng(19).normal(size=(4, 8))
    caps = D.ingest_embeddings(vectors, np.ones(4), d_cov=2)
    np.testing.assert_array_equal(np.asarray(caps.scores), LOGIT_MAX)
    assert np.asarray(caps.scores).shape == (1, 4)
    assert np.asarray(caps.poses).shape == (1, 4, 2, 4)


def test_ingest_half_mask_gives_zero_scores():
    vectors = np.random.default_rng(20).normal(size=(3, 6))
    caps = D.ingest_embeddings(vectors, np.array([0.5, 1.0, 0.0]), d_cov=1)
    np.testing.assert_array_equal(np.asarray(caps.scores),
                                  [[0.0, LOGIT_MAX, -LOGIT_MAX]])


@pytest.mark.parametrize("m, d_cov, match", [
    (7, 2, "divisible"), (4, 0, "d_cov"), (4, -2, "d_cov"),
    (4, True, "d_cov"), (4, 2.0, "d_cov"),
], ids=["indivisible", "zero", "negative", "bool", "float"])
def test_ingest_rejects_indivisible_length(m, d_cov, match):
    with pytest.raises(ShapeError, match=match):
        D.ingest_embeddings(np.zeros((3, m)), np.ones(3), d_cov=d_cov)


def test_ingest_rejects_bad_mask():
    with pytest.raises(DomainError):
        D.ingest_embeddings(np.zeros((2, 4)), np.array([0.5, 1.5]))


def test_ingest_batched_vectors():
    rng = np.random.default_rng(21)
    vectors = rng.normal(size=(2, 5, 8))
    caps = D.ingest_embeddings(vectors, np.ones((2, 5)), d_cov=2)
    assert np.asarray(caps.scores).shape == (2, 5)
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


# ---------------------------------------------------------------------------
# total decoding: damaged files read back or raise DataFormatError


def _damaged(blob: bytes):
    """(description, bytes) for ``blob`` cut at every offset and with bits
    0, 3 and 7 of every byte flipped; the files are small enough that the
    stride over payload bytes is 1."""
    for end in range(len(blob)):
        yield f"cut at {end}", blob[:end]
    for pos in range(len(blob)):
        for bit in (0, 3, 7):
            flipped = bytearray(blob)
            flipped[pos] ^= 1 << bit
            yield f"bit {bit} of byte {pos} flipped", bytes(flipped)


def _undecoded(read, path, cases):
    """The cases on which ``read`` neither returns nor raises
    DataFormatError, with what it raised."""
    failures = []
    for what, blob in cases:
        path.write_bytes(blob)
        try:
            read(path)
        except DataFormatError:
            pass
        except Exception as e:  # noqa: BLE001 -- anything else is the bug
            failures.append(f"{path.name}, {what}: {e!r}")
    return failures


def _small_files(tmp_path):
    """A labelled capsule batch, a params file and a two-layer model,
    each written in the binary container, with the reader of each."""
    rng = np.random.default_rng(40)
    batch = CapsuleBatch(rng.uniform(-3, 3, size=(2, 3)),
                         rng.normal(size=(2, 3, 2, 2)))
    D.write_capsules(tmp_path / "batch.caps", batch, [1, 0])
    cfg = RoutingConfig(n_out=2, n_in=2, d_cov=1, d_in=2, d_out=2)
    D.write_params(tmp_path / "layer.caps", random_params(rng, cfg), cfg)
    first = RoutingConfig(n_out=2, d_cov=1, d_in=1, d_out=2, tie_betas=True)
    second = RoutingConfig(n_out=2, n_in=2, d_cov=1, d_in=2, d_out=1)
    D.write_model(tmp_path / "model.caps",
                  [(random_params(rng, c), c) for c in (first, second)], 2)
    return {"batch.caps": D.read_capsules, "layer.caps": D.read_params,
            "model.caps": D.read_model}


def test_damaged_binary_files_decode_or_raise_format_error(tmp_path):
    failures = []
    for name, read in _small_files(tmp_path).items():
        blob = (tmp_path / name).read_bytes()
        failures += _undecoded(read, tmp_path / f"damaged-{name}",
                               _damaged(blob))
    assert not failures, failures[:5]


def test_cut_caps_json_decodes_or_raises_format_error(tmp_path):
    path = tmp_path / "batch.json"
    rng = np.random.default_rng(41)
    D.write_capsules(path, CapsuleBatch(rng.uniform(-3, 3, size=(2, 2)),
                                        rng.normal(size=(2, 2, 1, 2))), [0, 1])
    blob = path.read_bytes()
    cases = ((f"cut at {end}", blob[:end]) for end in range(len(blob)))
    failures = _undecoded(D.read_capsules, tmp_path / "cut.json", cases)
    assert not failures, failures[:5]


def test_route_of_a_cut_capsule_file_exits_2(tmp_path, capsys):
    from capsem.classifier import build_constellation_classifier
    from capsem.cli import main
    model = tmp_path / "m.caps"
    D.write_model(model, build_constellation_classifier(4, 4, 3).layers, 3)
    data = tmp_path / "data.caps"
    D.write_capsules(data, *D.make_dataset(D.ConstellationSpec(), 4))
    blob = data.read_bytes()
    data.write_bytes(blob[:len(blob) // 2])
    assert main(["route", "--model", str(model), "--input", str(data)]) == 2
    assert "truncated" in capsys.readouterr().err
