"""Synthetic constellation task, capsule/parameter file container, and
ingestion of externally produced embedding matrices.

The constellation task is a part-whole classification problem at desk
scale: each class is a fixed constellation of parts, each part a planar
similarity transform (rotation, scale, translation) composed with a
random per-sample entity pose, embedded in the top-left of a
d_cov x d_in capsule slot. Distractor capsules with random poses are
mixed in at a lower score, and the capsule order is shuffled.

The file container ("CAPS") stores capsule batches, routing parameters,
or whole models, as little-endian row-major payloads behind a fixed
header; a JSON twin exists for small, human-readable files. See
docs/capsule_file_format.md for the byte-level layout.
"""

from __future__ import annotations

import io
import json
import math
import struct
from dataclasses import dataclass, fields

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import tensor as T
from .errors import (ConfigError, DataFormatError, DomainError,
                     FormatVersionError, ShapeError)
from .nn import mask_to_logits
from .routing import (LOGIT_MAX, CapsuleBatch, RoutingConfig, RoutingParams,
                      clamp_scores, is_count, is_finite_number,
                      learned_shapes)

# ---------------------------------------------------------------------------
# constellation generator


@dataclass(frozen=True)
class ConstellationSpec:
    """Generator description for the synthetic part-whole task."""

    n_classes: int = 5
    parts_per_class: int = 6
    d_cov: int = 4
    d_in: int = 4
    jitter_std: float = 0.05
    n_distractors: int = 4
    score_present: float = 4.0
    score_distractor: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name, least in (("n_classes", 2), ("parts_per_class", 2),
                            ("d_cov", 3), ("d_in", 3),
                            ("n_distractors", 0), ("seed", 0)):
            if not is_count(getattr(self, name), least):
                raise ConfigError(f"{name} must be an int >= {least}")
        for name in ("jitter_std", "score_present", "score_distractor"):
            if not is_finite_number(getattr(self, name)):
                raise ConfigError(f"{name} must be a finite number")
        if self.jitter_std < 0:
            raise ConfigError("jitter_std must be >= 0")
        for s in (self.score_present, self.score_distractor):
            if not -LOGIT_MAX <= s <= LOGIT_MAX:
                raise ConfigError(
                    f"scores must lie in [-{LOGIT_MAX}, {LOGIT_MAX}]")

    @property
    def caps_per_sample(self) -> int:
        return self.parts_per_class + self.n_distractors


def spec_from_dict(d: dict) -> ConstellationSpec:
    """Build a spec from a parsed JSON object; unknown keys are errors."""
    if not isinstance(d, dict):
        raise ConfigError("constellation spec must be a JSON object")
    known = {f.name for f in fields(ConstellationSpec)}
    unknown = set(d) - known
    if unknown:
        raise ConfigError(f"unknown constellation keys: {sorted(unknown)}")
    return ConstellationSpec(**d)


def similarity_matrix(theta: float, scale: float, tx: float,
                      ty: float) -> np.ndarray:
    """Homogeneous 3x3 planar similarity transform."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([
        [scale * c, -scale * s, tx],
        [scale * s, scale * c, ty],
        [0.0, 0.0, 1.0],
    ])


def _random_similarity(rng, scale_range, trans_range) -> np.ndarray:
    return similarity_matrix(
        theta=rng.uniform(0.0, 2.0 * np.pi),
        scale=rng.uniform(*scale_range),
        tx=rng.uniform(-trans_range, trans_range),
        ty=rng.uniform(-trans_range, trans_range),
    )


def embed_pose(mat3: np.ndarray, d_cov: int, d_in: int) -> np.ndarray:
    """Place a 3x3 homogeneous transform in the top-left of a d_cov x d_in
    slot whose remaining diagonal is identity."""
    slot = np.eye(d_cov, d_in)
    slot[:3, :3] = mat3
    return slot


def class_templates(spec: ConstellationSpec) -> np.ndarray:
    """Per-class part offsets, shape (n_classes, parts_per_class, 3, 3).
    Fixed by the spec seed, independent of the sample index."""
    rng = np.random.default_rng([spec.seed, 0])
    return np.array([
        [_random_similarity(rng, (0.5, 1.5), 1.0)
         for _ in range(spec.parts_per_class)]
        for _ in range(spec.n_classes)
    ])


def gen_constellation(spec: ConstellationSpec, n_samples: int, start: int = 0):
    """Yield ``n_samples`` labeled samples as (scores, poses, label).

    Pure in (spec, sample index): regenerating any index range gives
    identical samples, so parallel generation by range is deterministic.
    """
    templates = class_templates(spec)
    for index in range(start, start + n_samples):
        rng = np.random.default_rng([spec.seed, 1, index])
        label = int(rng.integers(spec.n_classes))
        entity = _random_similarity(rng, (0.8, 1.25), 2.0)

        poses = np.empty((spec.caps_per_sample, spec.d_cov, spec.d_in))
        scores = np.empty(spec.caps_per_sample)
        for p in range(spec.parts_per_class):
            slot = embed_pose(entity @ templates[label, p],
                              spec.d_cov, spec.d_in)
            if spec.jitter_std > 0:
                slot = slot + rng.normal(0.0, spec.jitter_std, size=slot.shape)
            poses[p] = slot
            scores[p] = spec.score_present
        for q in range(spec.n_distractors):
            poses[spec.parts_per_class + q] = embed_pose(
                _random_similarity(rng, (0.4, 1.9), 3.5),
                spec.d_cov, spec.d_in)
            scores[spec.parts_per_class + q] = spec.score_distractor

        order = rng.permutation(spec.caps_per_sample)
        yield scores[order], poses[order], label


def make_dataset(spec: ConstellationSpec, n_samples: int,
                 start: int = 0) -> tuple[CapsuleBatch, np.ndarray]:
    """Stack a generated range into one float64 batch plus its labels."""
    if n_samples < 0:
        raise ConfigError(f"sample count must be >= 0, got {n_samples}")
    all_scores, all_poses, labels = [], [], []
    for scores, poses, label in gen_constellation(spec, n_samples, start):
        all_scores.append(scores)
        all_poses.append(poses)
        labels.append(label)
    if n_samples == 0:
        shape = (0, spec.caps_per_sample, spec.d_cov, spec.d_in)
        return (CapsuleBatch(np.zeros(shape[:2]), np.zeros(shape)),
                np.zeros(0, dtype=np.int64))
    batch = CapsuleBatch(clamp_scores(np.array(all_scores)),
                         np.array(all_poses))
    return batch, np.array(labels, dtype=np.int64)


def to_one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    labels = np.asarray(labels)
    out = np.zeros((labels.size, n_classes))
    out[np.arange(labels.size), labels] = 1.0
    return out


# ---------------------------------------------------------------------------
# nearest-template oracle


def nearest_template_classify(spec: ConstellationSpec, scores: np.ndarray,
                              poses: np.ndarray) -> int:
    """Classify one sample by best template alignment.

    Filters capsules by score (present vs distractor), then for every
    class and every choice of anchor part hypothesizes the entity pose
    from the first present capsule, predicts the full constellation, and
    scores it by a minimum-cost matching of Frobenius distances. Usable
    as an independent separability witness: at zero jitter the true class
    has exactly zero cost.
    """
    if spec.score_present <= spec.score_distractor:
        raise ConfigError("oracle needs score_present > score_distractor")
    threshold = 0.5 * (spec.score_present + spec.score_distractor)
    observed = np.asarray(poses)[np.asarray(scores) > threshold][:, :3, :3]
    if len(observed) == 0:
        return 0
    templates = class_templates(spec)
    anchor = observed[0]

    best_class, best_cost = 0, np.inf
    for k in range(spec.n_classes):
        offsets = templates[k]
        for p in range(spec.parts_per_class):
            entity = anchor @ np.linalg.inv(offsets[p])
            predicted = entity[None] @ offsets
            cost = np.linalg.norm(
                predicted[:, None] - observed[None], axis=(2, 3))
            rows, cols = linear_sum_assignment(cost)
            total = cost[rows, cols].sum()
            total += abs(len(predicted) - len(observed)) * 10.0
            if total < best_cost:
                best_cost, best_class = total, k
    return best_class


def oracle_accuracy(spec: ConstellationSpec, batch: CapsuleBatch,
                    labels: np.ndarray) -> float:
    scores = T.asarray(batch.scores)
    poses = T.asarray(batch.poses)
    hits = sum(
        nearest_template_classify(spec, scores[i], poses[i]) == labels[i]
        for i in range(len(labels))
    )
    return hits / max(len(labels), 1)


# ---------------------------------------------------------------------------
# embedding ingestion


def ingest_embeddings(vectors: np.ndarray, mask: np.ndarray,
                      d_cov: int = 1) -> CapsuleBatch:
    """Turn a matrix of external embedding vectors into capsules.

    ``vectors`` is (n, m) for one sample or (batch, n, m); each length-m
    vector becomes one capsule of shape (d_cov, m / d_cov). ``mask``
    values in [0, 1] become scores through their clamped log-odds. Poses
    and scores are float32 if vectors and mask are, else float64. To tag
    each capsule's provenance, add :func:`capsem.nn.channel_embedding`
    rows to the vectors first.
    """
    vectors = T.float_array(vectors)
    if vectors.ndim not in (2, 3):
        raise ShapeError(f"vectors must be (n, m) or (batch, n, m), got "
                         f"{vectors.shape}")
    m = vectors.shape[-1]
    if m % d_cov != 0:
        raise ShapeError(f"vector length {m} is not divisible by d_cov={d_cov}")
    d_in = m // d_cov
    scores = mask_to_logits(mask)
    poses = vectors.reshape(vectors.shape[:-1] + (d_cov, d_in))
    if scores.shape != vectors.shape[:-1]:
        raise ShapeError(f"mask shape {scores.shape} must match vectors "
                         f"{vectors.shape[:-1]}")
    return CapsuleBatch(scores, poses)


# ---------------------------------------------------------------------------
# file container

MAGIC = b"CAPS"
FORMAT_VERSION = 1
_KIND_BATCH, _KIND_PARAMS, _KIND_MODEL = 1, 2, 3
_DTYPE_CODES = {1: np.dtype("<f8"), 2: np.dtype("<f4")}
_CODES_BY_KIND = {np.dtype(np.float64): 1, np.dtype(np.float32): 2}
_MODES = {"fixed": 0, "variable_input": 1, "variable_output": 2}
_MODES_BACK = {v: k for k, v in _MODES.items()}


class _Reader:
    """Byte cursor that reports the offset of any truncation."""

    def __init__(self, blob: bytes):
        self.blob = blob
        self.offset = 0

    def take(self, n: int) -> bytes:
        if self.offset + n > len(self.blob):
            raise DataFormatError(
                f"truncated payload: needed {n} bytes at byte offset "
                f"{self.offset}, file has {len(self.blob)}"
            )
        out = self.blob[self.offset:self.offset + n]
        self.offset += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def floats(self, dtype: np.dtype, count: int) -> np.ndarray:
        raw = self.take(count * dtype.itemsize)
        return np.frombuffer(raw, dtype=dtype).copy()

    def done(self):
        if self.offset != len(self.blob):
            raise DataFormatError(
                f"{len(self.blob) - self.offset} unexpected trailing bytes "
                f"at byte offset {self.offset}"
            )


def _dtype_code(arr: np.ndarray) -> int:
    code = _CODES_BY_KIND.get(np.dtype(arr.dtype.type))
    if code is None:
        raise DataFormatError(f"unsupported dtype {arr.dtype}")
    return code


def _header(kind: int, dtype_code: int) -> bytes:
    return MAGIC + struct.pack("<HBB", FORMAT_VERSION, kind, dtype_code)


def _read_header(r: _Reader, expect_kind: int | None = None) -> tuple[int, np.dtype]:
    magic = r.take(4)
    if magic != MAGIC:
        raise DataFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    version, kind, dtype_code = r.unpack("<HBB")
    if version != FORMAT_VERSION:
        raise FormatVersionError(
            f"unsupported format version {version}, this reader handles "
            f"{FORMAT_VERSION}"
        )
    if dtype_code not in _DTYPE_CODES:
        raise DataFormatError(f"unknown dtype code {dtype_code}")
    if expect_kind is not None and kind != expect_kind:
        raise DataFormatError(f"expected kind {expect_kind}, found {kind}")
    return kind, _DTYPE_CODES[dtype_code]


def write_capsules(path, batch: CapsuleBatch, labels=None) -> None:
    """Write a capsule batch (binary ``CAPS`` container, or JSON if the
    path ends in .json)."""
    if str(path).endswith(".json"):
        _write_capsules_json(path, batch, labels)
        return
    batch = batch.batched()
    scores = np.ascontiguousarray(T.asarray(batch.scores))
    poses = np.ascontiguousarray(T.asarray(batch.poses))
    b, n, d_cov, d_in = poses.shape
    code = _dtype_code(poses)
    le = _DTYPE_CODES[code]
    buf = io.BytesIO()
    buf.write(_header(_KIND_BATCH, code))
    flags = 1 if labels is not None else 0
    buf.write(struct.pack("<B4I", flags, b, n, d_cov, d_in))
    buf.write(scores.astype(le).tobytes())
    buf.write(poses.astype(le).tobytes())
    if labels is not None:
        labels = np.asarray(labels)
        if labels.shape != (b,):
            raise ShapeError(f"labels must have shape ({b},), got {labels.shape}")
        buf.write(labels.astype("<u4").tobytes())
    with open(path, "wb") as f:
        f.write(buf.getvalue())


def read_capsules(path) -> tuple[CapsuleBatch, np.ndarray | None]:
    """Read a capsule batch; returns (batch, labels-or-None)."""
    if str(path).endswith(".json"):
        return _read_capsules_json(path)
    with open(path, "rb") as f:
        r = _Reader(f.read())
    _, dtype = _read_header(r, expect_kind=_KIND_BATCH)
    flags, b, n, d_cov, d_in = r.unpack("<B4I")
    scores = r.floats(dtype, b * n).reshape(b, n)
    poses = r.floats(dtype, b * n * d_cov * d_in).reshape(b, n, d_cov, d_in)
    labels = None
    if flags & 1:
        raw = r.take(b * 4)
        labels = np.frombuffer(raw, dtype="<u4").astype(np.int64)
    r.done()
    native = scores.dtype.newbyteorder("=")
    return _stored_batch(scores.astype(native), poses.astype(native)), labels


def _write_capsules_json(path, batch, labels) -> None:
    batch = batch.batched()
    doc = {
        "format": "caps-json",
        "version": FORMAT_VERSION,
        "kind": "capsule_batch",
        "scores": T.asarray(batch.scores).tolist(),
        "poses": T.asarray(batch.poses).tolist(),
    }
    if labels is not None:
        doc["labels"] = np.asarray(labels).tolist()
    with open(path, "w") as f:
        json.dump(doc, f)


def read_json(path):
    """The JSON document at ``path``; DataFormatError if it does not decode."""
    with open(path, encoding="utf-8") as f:
        try:
            return json.load(f)
        except (ValueError, RecursionError) as e:
            # undecodable text, invalid JSON, or nesting too deep to decode
            raise DataFormatError(f"{path}: invalid JSON ({e})") from None


def _load_caps_json(path, kind: str) -> dict:
    """The caps-json document of ``kind`` stored at ``path``."""
    doc = read_json(path)
    if not isinstance(doc, dict) or doc.get("format") != "caps-json":
        raise DataFormatError("not a caps-json document")
    if doc.get("version") != FORMAT_VERSION:
        raise FormatVersionError(f"unsupported version {doc.get('version')}")
    if doc.get("kind") != kind:
        raise DataFormatError(f"expected {kind}, found {doc.get('kind')}")
    return doc


def _json_array(doc: dict, name: str, shape: tuple | None = None,
                dtype=np.float64) -> np.ndarray:
    """``doc[name]`` as an array, of ``shape`` when given."""
    if name not in doc:
        raise DataFormatError(f"{doc['kind']} document has no {name!r}")
    try:
        arr = np.array(doc[name], dtype=dtype)
    except (TypeError, ValueError, OverflowError) as e:
        raise DataFormatError(f"{name!r} is not a numeric array ({e})") from None
    if shape is not None and arr.shape != shape:
        raise DataFormatError(
            f"{name!r} has shape {arr.shape}, expected {shape}")
    return arr


def _stored_batch(scores, poses) -> CapsuleBatch:
    """The stored batch, or DataFormatError where CapsuleBatch rejects it."""
    try:
        return CapsuleBatch(scores, poses)
    except (ShapeError, DomainError) as e:
        raise DataFormatError(f"capsule_batch: {e}") from None


def _read_capsules_json(path):
    doc = _load_caps_json(path, "capsule_batch")
    scores = _json_array(doc, "scores")
    batch = _stored_batch(scores, _json_array(doc, "poses"))
    labels = None
    if "labels" in doc:
        if not (isinstance(doc["labels"], list)
                and all(is_count(v, 0) for v in doc["labels"])):
            raise DataFormatError("'labels' must be non-negative integers")
        labels = _json_array(doc, "labels", scores.shape[:-1], np.int64)
    return batch, labels


def _config_dims(config: RoutingConfig) -> tuple[int, int]:
    n_in = 0 if config.n_in is None else config.n_in
    n_out = 0 if config.n_out == "variable" else config.n_out
    return n_in, n_out


def _stored_config(mode: str, n_in, n_out, **knobs) -> RoutingConfig:
    """Inverse of :func:`_config_dims`: the config a stored layer
    describes, or DataFormatError if RoutingConfig rejects it."""
    try:
        return RoutingConfig(
            n_out="variable" if mode == "variable_output" else n_out,
            n_in=n_in if mode == "fixed" else None, **knobs)
    except ConfigError as e:
        raise DataFormatError(f"invalid {mode} layer: {e}") from None


def _stored_arrays(params: RoutingParams,
                   config: RoutingConfig) -> dict[str, np.ndarray]:
    """The independent fields of ``params``, checked against the layout
    of ``config`` so that a written file reads back."""
    arrays = {name: T.asarray(value) for name, value in params.items()}
    found = {name: a.shape for name, a in arrays.items()}
    expected = learned_shapes(config)
    if found != expected:
        raise ShapeError(f"parameter shapes {found} do not match the "
                         f"{config.mode} layout {expected}")
    return arrays


def _write_layer(buf, params: RoutingParams, config: RoutingConfig,
                 code: int) -> None:
    le = _DTYPE_CODES[code]
    n_in, n_out = _config_dims(config)
    buf.write(struct.pack(
        "<BB5I I dd",
        _MODES[config.mode], 1 if config.tie_betas else 0,
        n_in, n_out, config.d_cov, config.d_in, config.d_out,
        config.n_iters, config.var_floor, config.denom_eps,
    ))
    for a in _stored_arrays(params, config).values():
        buf.write(np.ascontiguousarray(a).astype(le).tobytes())


def _read_layer(r: _Reader, dtype: np.dtype) -> tuple[RoutingParams, RoutingConfig]:
    mode_code, tie, n_in, n_out, d_cov, d_in, d_out, n_iters, var_floor, denom_eps = \
        r.unpack("<BB5I I dd")
    if mode_code not in _MODES_BACK:
        raise DataFormatError(f"unknown sharing mode {mode_code}")
    config = _stored_config(
        _MODES_BACK[mode_code], n_in, n_out, d_cov=d_cov, d_in=d_in,
        d_out=d_out, n_iters=n_iters, tie_betas=bool(tie),
        var_floor=var_floor, denom_eps=denom_eps)
    native = dtype.newbyteorder("=")
    # math.prod: header dims are untrusted and np.prod would overflow
    params = RoutingParams.from_items(
        (name, r.floats(dtype, math.prod(shape)).reshape(shape).astype(native))
        for name, shape in learned_shapes(config).items())
    return params, config


def write_params(path, params: RoutingParams, config: RoutingConfig) -> None:
    if str(path).endswith(".json"):
        _write_params_json(path, params, config)
        return
    code = _dtype_code(T.asarray(params.weights))
    buf = io.BytesIO()
    buf.write(_header(_KIND_PARAMS, code))
    _write_layer(buf, params, config, code)
    with open(path, "wb") as f:
        f.write(buf.getvalue())


def read_params(path) -> tuple[RoutingParams, RoutingConfig]:
    if str(path).endswith(".json"):
        return _read_params_json(path)
    with open(path, "rb") as f:
        r = _Reader(f.read())
    _, dtype = _read_header(r, expect_kind=_KIND_PARAMS)
    params, config = _read_layer(r, dtype)
    r.done()
    return params, config


def _write_params_json(path, params: RoutingParams,
                       config: RoutingConfig) -> None:
    n_in, n_out = _config_dims(config)
    doc = {
        "format": "caps-json",
        "version": FORMAT_VERSION,
        "kind": "routing_params",
        "mode": config.mode,
        "tie_betas": config.tie_betas,
        "dims": {"n_in": n_in, "n_out": n_out, "d_cov": config.d_cov,
                 "d_in": config.d_in, "d_out": config.d_out},
        "n_iters": config.n_iters,
        "var_floor": config.var_floor,
        "denom_eps": config.denom_eps,
    }
    doc.update((name, a.tolist())
               for name, a in _stored_arrays(params, config).items())
    with open(path, "w") as f:
        json.dump(doc, f)


def _read_params_json(path) -> tuple[RoutingParams, RoutingConfig]:
    doc = _load_caps_json(path, "routing_params")
    mode = doc.get("mode")
    if not isinstance(mode, str) or mode not in _MODES:
        raise DataFormatError(f"unknown sharing mode {mode!r}")
    try:
        dims = doc["dims"]
        config = _stored_config(
            mode, dims["n_in"], dims["n_out"], d_cov=dims["d_cov"],
            d_in=dims["d_in"], d_out=dims["d_out"], n_iters=doc["n_iters"],
            tie_betas=doc["tie_betas"], var_floor=doc["var_floor"],
            denom_eps=doc["denom_eps"])
    except KeyError as e:
        raise DataFormatError(f"routing_params document has no {e}") from None
    except TypeError:
        raise DataFormatError("routing_params 'dims' must be an object") \
            from None
    params = RoutingParams.from_items(
        (name, _json_array(doc, name, shape))
        for name, shape in learned_shapes(config).items())
    return params, config


def _check_stack(layers, n_classes: int, error: type) -> None:
    """Raise ``error`` unless the layers route into ``n_classes`` outputs:
    one d_cov throughout, and each layer takes the previous one's outputs."""
    configs = [config for _, config in layers]
    if not configs:
        raise error("a model needs at least one layer")
    for k, (prev, cfg) in enumerate(zip(configs, configs[1:]), start=1):
        if cfg.d_cov != prev.d_cov or cfg.d_in != prev.d_out \
                or cfg.n_in not in (None, prev.n_out):
            raise error(
                f"layer {k} (d_cov={cfg.d_cov}, d_in={cfg.d_in}, n_in="
                f"{cfg.n_in}) does not take the outputs of layer {k - 1} "
                f"(d_cov={prev.d_cov}, d_out={prev.d_out}, n_out={prev.n_out})")
    if configs[-1].n_out != n_classes:
        raise error(f"last layer has n_out={configs[-1].n_out}, model has "
                    f"{n_classes} classes")


def write_model(path, layers, n_classes: int) -> None:
    """Write a stack of (params, config) routing layers as one model;
    ShapeError if they do not route into ``n_classes`` outputs."""
    _check_stack(layers, n_classes, ShapeError)
    code = _dtype_code(T.asarray(layers[0][0].weights))
    buf = io.BytesIO()
    buf.write(_header(_KIND_MODEL, code))
    buf.write(struct.pack("<II", len(layers), n_classes))
    for params, config in layers:
        _write_layer(buf, params, config, code)
    with open(path, "wb") as f:
        f.write(buf.getvalue())


def read_model(path) -> tuple[list[tuple[RoutingParams, RoutingConfig]], int]:
    with open(path, "rb") as f:
        r = _Reader(f.read())
    _, dtype = _read_header(r, expect_kind=_KIND_MODEL)
    n_layers, n_classes = r.unpack("<II")
    layers = [_read_layer(r, dtype) for _ in range(n_layers)]
    r.done()
    _check_stack(layers, n_classes, DataFormatError)
    return layers, n_classes
