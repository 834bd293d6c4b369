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
header; batches and layer params also have a JSON twin, for small,
human-readable files. See docs/capsule_file_format.md for the layout.
"""

from __future__ import annotations

import io
import json
import math
import struct
from dataclasses import dataclass, fields

import numpy as np

from . import tensor as T
from .errors import (ConfigError, DataFormatError, DomainError,
                     FormatVersionError, ShapeError)
from .nn import mask_to_logits
from .routing import (LOGIT_MAX, MODES, CapsuleBatch, RoutingConfig,
                      RoutingParams, _check_layout, clamp_scores, is_count,
                      is_finite_number, mode_config, param_shapes)

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


def similarity_matrix(theta, scale, tx, ty) -> np.ndarray:
    """Homogeneous 3x3 planar similarity transform; array arguments
    broadcast to a (..., 3, 3) stack of them."""
    c, s = np.cos(theta), np.sin(theta)
    out = np.zeros(np.broadcast(theta, scale, tx, ty).shape + (3, 3))
    out[..., 0, 0] = out[..., 1, 1] = scale * c
    out[..., 0, 1] = -scale * s
    out[..., 1, 0] = scale * s
    out[..., 0, 2], out[..., 1, 2], out[..., 2, 2] = tx, ty, 1.0
    return out


def _similarities(r: np.ndarray, scale_range, trans: float) -> np.ndarray:
    """Similarity transforms from uniforms ``r`` of shape (..., 4): angle
    in [0, 2 pi), scale in ``scale_range`` and translations in [-trans,
    trans), each scaled as ``Generator.uniform`` scales, lo + (hi - lo) r."""
    lo, hi = np.array([[0.0, scale_range[0], -trans, -trans],
                       [2.0 * np.pi, scale_range[1], trans, trans]])
    return similarity_matrix(*np.moveaxis(lo + (hi - lo) * r, -1, 0))


def class_templates(spec: ConstellationSpec) -> np.ndarray:
    """Per-class part offsets, shape (n_classes, parts_per_class, 3, 3).
    Fixed by the spec seed, independent of the sample index."""
    rng = np.random.default_rng([spec.seed, 0])
    return _similarities(
        rng.random((spec.n_classes, spec.parts_per_class, 4)), (0.5, 1.5), 1.0)


# samples per make_dataset call in gen_constellation: its memory bound
_BLOCK = 256


def gen_constellation(spec: ConstellationSpec, n_samples: int, start: int = 0):
    """Yield ``n_samples`` labeled samples as (scores, poses, label).

    Pure in (spec, sample index), so generation by range is deterministic.
    Sample ``index`` draws from ``default_rng([spec.seed, 1, index])``, in
    order: ``integers(n_classes)``, the label; ``random(4)``, the entity
    pose; ``normal(0, jitter_std, (parts_per_class, d_cov, d_in))``, only
    if ``jitter_std > 0``; ``random((n_distractors, 4))``, the distractor
    poses; ``permutation(caps_per_sample)``, the capsule order. Rows come
    from :func:`make_dataset` blocks of ``_BLOCK`` samples.
    """
    for lo in range(start, start + n_samples, _BLOCK):
        batch, labels = make_dataset(spec, min(_BLOCK, start + n_samples - lo),
                                     lo)
        for k, label in enumerate(labels.tolist()):
            yield batch.scores[k], batch.poses[k], label


def make_dataset(spec: ConstellationSpec, n_samples: int,
                 start: int = 0) -> tuple[CapsuleBatch, np.ndarray]:
    """Samples ``start`` to ``start + n_samples`` as one float64 batch and
    int64 labels. Sample ``index`` seeds ``default_rng([spec.seed, 1,
    index])`` and makes the five draws :func:`gen_constellation` lists, in
    that order; the arithmetic then runs on the whole batch. A part's pose
    is the entity pose times the label's part template, in the top-left of
    an identity d_cov x d_in slot, plus jitter over the whole slot."""
    if n_samples < 0:
        raise ConfigError(f"sample count must be >= 0, got {n_samples}")
    n, parts, caps = n_samples, spec.parts_per_class, spec.caps_per_sample
    labels, order = np.empty(n, np.int64), np.empty((n, caps), np.int64)
    entity, distractors = np.empty((n, 4)), np.empty((n, caps - parts, 4))
    jitter = (np.empty((n, parts, spec.d_cov, spec.d_in))
              if spec.jitter_std > 0 else None)
    for k in range(n):
        rng = np.random.default_rng([spec.seed, 1, start + k])
        labels[k] = rng.integers(spec.n_classes)
        entity[k] = rng.random(4)
        if jitter is not None:
            jitter[k] = rng.normal(0.0, spec.jitter_std, jitter.shape[1:])
        distractors[k] = rng.random(distractors.shape[1:])
        order[k] = rng.permutation(caps)
    poses = np.tile(np.eye(spec.d_cov, spec.d_in), (n, caps, 1, 1))
    poses[:, :parts, :3, :3] = (_similarities(entity, (0.8, 1.25), 2.0)[:, None]
                                @ class_templates(spec)[labels])
    poses[:, parts:, :3, :3] = _similarities(distractors, (0.4, 1.9), 3.5)
    if jitter is not None:
        poses[:, :parts] += jitter
    scores = np.where(order < parts, float(spec.score_present),
                      float(spec.score_distractor))
    return (CapsuleBatch(clamp_scores(scores),
                         poses[np.arange(n)[:, None], order]), labels)


def _check_labels(labels: np.ndarray, stop: int, name: str) -> None:
    """DomainError unless every label is an integer in [0, stop)."""
    if labels.size and (labels.dtype.kind not in "iu" or not np.all(
            (labels >= 0) & (labels < stop))):
        raise DomainError(f"labels must be integers in [0, {name})")


def to_one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    labels = np.asarray(labels)
    _check_labels(labels, n_classes, "n_classes")
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
    from scipy.optimize import linear_sum_assignment  # off the CLI's path
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
    scores, poses = T.asarray(batch.scores), T.asarray(batch.poses)
    hits = sum(nearest_template_classify(spec, scores[i], poses[i]) == y
               for i, y in enumerate(labels))
    return hits / max(len(labels), 1)


# ---------------------------------------------------------------------------
# embedding ingestion


def ingest_embeddings(vectors: np.ndarray, mask: np.ndarray,
                      d_cov: int = 1) -> CapsuleBatch:
    """Turn a matrix of external embedding vectors into capsules.

    ``vectors`` is (batch, n, m), or (n, m) for one sample, which gives
    a batch of one; each length-m vector becomes one capsule of shape
    (d_cov, m / d_cov), where ``d_cov`` is an int >= 1 that divides m.
    ``mask`` values in [0, 1] become scores through their clamped
    log-odds. Poses and scores are float32 if vectors and mask are, else
    float64. To tag each capsule's provenance, add
    :func:`capsem.nn.channel_embedding` rows to the vectors first.
    """
    vectors = T.float_array(vectors)
    if vectors.ndim not in (2, 3):
        raise ShapeError(f"vectors must be (n, m) or (batch, n, m), got "
                         f"{vectors.shape}")
    if not is_count(d_cov):
        raise ShapeError(f"d_cov must be an int >= 1, got {d_cov!r}")
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
# a layer record's metadata: the values of _layer_meta, in order
_LAYER_RECORD = "<BB5I I dd"


def _read_bytes(path) -> bytes:
    """The bytes of the file at ``path``. Every reader reads through here,
    so a test can hand the readers bytes without a file."""
    with open(path, "rb") as f:
        return f.read()


class _Reader:
    """Byte cursor over a binary file of ``kind``, past its checked
    header; reports the offset of any truncation."""

    def __init__(self, blob: bytes, kind: int):
        self.blob, self.offset = blob, 0
        magic = self.take(4)
        if magic != MAGIC:
            raise DataFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
        version, found, code = self.unpack("<HBB")
        if version != FORMAT_VERSION:
            raise FormatVersionError(
                f"unsupported format version {version}, this reader handles "
                f"{FORMAT_VERSION}"
            )
        if code not in _DTYPE_CODES:
            raise DataFormatError(f"unknown dtype code {code}")
        if found != kind:
            raise DataFormatError(f"expected kind {kind}, found {found}")
        self.dtype = _DTYPE_CODES[code]

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

    def array(self, shape, dtype=None) -> np.ndarray:
        """The next array of ``shape``, stored in ``dtype`` (the header's
        by default), in native byte order."""
        dtype = self.dtype if dtype is None else np.dtype(dtype)
        # math.prod: header dims are untrusted and np.prod would overflow
        raw = self.take(math.prod(shape) * dtype.itemsize)
        return np.frombuffer(raw, dtype).astype(
            dtype.newbyteorder("=")).reshape(shape)

    def done(self):
        if self.offset != len(self.blob):
            raise DataFormatError(
                f"{len(self.blob) - self.offset} unexpected trailing bytes "
                f"at byte offset {self.offset}"
            )


def _dtype_code(arrays) -> int:
    """The one stored dtype of ``arrays``, in either encoding: float64 if
    any is float64, else float32; DataFormatError for any other dtype."""
    dtypes = {np.dtype(a.dtype.type) for a in arrays}
    unsupported = dtypes - _CODES_BY_KIND.keys()
    if unsupported:
        raise DataFormatError(f"unsupported dtype {unsupported.pop()}")
    return _CODES_BY_KIND[np.result_type(*dtypes)]


def _write_file(path, kind: int, *parts) -> None:
    """Write a binary file of ``kind``: the header, then ``parts``, each
    bytes or an array stored in the one dtype of :func:`_dtype_code`."""
    code = _dtype_code([part for part in parts if not isinstance(part, bytes)])
    with open(path, "wb") as f:
        f.write(MAGIC + struct.pack("<HBB", FORMAT_VERSION, kind, code))
        f.writelines(part if isinstance(part, bytes)
                     else part.astype(_DTYPE_CODES[code]).tobytes()
                     for part in parts)


def _write_json(path, kind: str, fields: dict) -> None:
    """Write the caps-json document of ``kind`` holding ``fields``."""
    _dtype_code([v for v in fields.values() if isinstance(v, np.ndarray)])
    doc = {"format": "caps-json", "version": FORMAT_VERSION, "kind": kind}
    doc.update((k, v.tolist() if isinstance(v, np.ndarray) else v)
               for k, v in fields.items())
    with open(path, "w") as f:
        json.dump(doc, f)


def write_capsules(path, batch: CapsuleBatch, labels=None) -> None:
    """Write a capsule batch (binary ``CAPS`` container, or JSON if the
    path ends in .json). ``labels``, if given, hold one non-negative
    integer below 2**32 per sample: ShapeError or DomainError otherwise,
    before any file is opened."""
    scores, poses = T.asarray(batch.scores), T.asarray(batch.poses)
    if labels is not None:
        labels = np.asarray(labels)
        if labels.shape != poses.shape[:1]:
            raise ShapeError(f"labels must have shape ({len(poses)},), got "
                             f"{labels.shape}")
        _check_labels(labels, 2 ** 32, "2**32")
    if not str(path).endswith(".json"):
        _write_file(path, _KIND_BATCH,
                    struct.pack("<B4I", labels is not None, *poses.shape),
                    scores, poses, *([] if labels is None
                                     else [labels.astype("<u4").tobytes()]))
        return
    if len(poses) == 0:
        raise ShapeError("a caps-json file cannot hold zero samples: its "
                         "nested lists would not record n, d_cov or d_in")
    fields = {"scores": scores, "poses": poses}
    if labels is not None:
        fields["labels"] = labels.tolist()
    _write_json(path, "capsule_batch", fields)


def read_capsules(path) -> tuple[CapsuleBatch, np.ndarray | None]:
    """Read a capsule batch; returns (batch, labels-or-None)."""
    if str(path).endswith(".json"):
        doc = _load_caps_json(path, "capsule_batch")
        _check_keys(doc, ("scores", "poses", "labels"))
        batch = _stored_batch(_json_array(doc, "scores"),
                              _json_array(doc, "poses"))
        labels = None
        if "labels" in doc:
            if not (isinstance(doc["labels"], list)
                    and all(is_count(v, 0) for v in doc["labels"])):
                raise DataFormatError("'labels' must be non-negative integers")
            # a label per stored sample: an unbatched sample is a batch of one
            labels = _json_array(doc, "labels", batch.scores.shape[:1],
                                 np.int64)
        return batch, labels
    r = _Reader(_read_bytes(path), _KIND_BATCH)
    flags, *dims = r.unpack("<B4I")
    if flags & ~1:
        raise DataFormatError(f"batch flags byte {flags:#04x} is undefined")
    scores, poses = r.array(dims[:2]), r.array(dims)
    labels = r.array(dims[:1], "<u4").astype(np.int64) if flags & 1 else None
    r.done()
    return _stored_batch(scores, poses), labels


def read_json(path):
    """The JSON document at ``path``; DataFormatError if it does not decode."""
    # decoded as open(path, encoding="utf-8") decodes, newlines included
    text = io.TextIOWrapper(io.BytesIO(_read_bytes(path)), encoding="utf-8")
    try:
        return json.load(text)
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


def _check_keys(doc: dict, known) -> None:
    """DataFormatError naming any key of the caps-json ``doc`` outside its
    three header keys and ``known``, or of its 'dims' outside the five
    dims of a layer record."""
    kind = doc["kind"]
    for part, allowed, what in (
            (doc, {"format", "version", "kind", *known}, kind),
            (doc.get("dims", {}), _META_LAYOUT["dims"], f"{kind} 'dims'")):
        unknown = set(part) - set(allowed)
        if unknown:
            raise DataFormatError(f"unknown {what} keys: {sorted(unknown)}")


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


def _layer_meta(config: RoutingConfig) -> dict:
    """The metadata of a stored layer, the one description of it for both
    encodings: the JSON twin stores this dict, and a binary layer record
    packs its values in this order, the mode as its index in MODES. A dim
    the mode does not use is 0."""
    return {
        "mode": config.mode,
        "tie_betas": config.tie_betas,
        "dims": {"n_in": config.n_in or 0,
                 "n_out": 0 if config.n_out == "variable" else config.n_out,
                 "d_cov": config.d_cov, "d_in": config.d_in,
                 "d_out": config.d_out},
        "n_iters": config.n_iters,
        "var_floor": config.var_floor,
        "denom_eps": config.denom_eps,
    }


def _stored_config(meta: dict) -> RoutingConfig:
    """Inverse of :func:`_layer_meta`: the config ``meta`` describes, or
    DataFormatError if a field is missing or RoutingConfig rejects it."""
    try:
        dims = meta["dims"]
        config = mode_config(
            meta["mode"], dims["n_in"], dims["n_out"], d_cov=dims["d_cov"],
            d_in=dims["d_in"], d_out=dims["d_out"], n_iters=meta["n_iters"],
            tie_betas=meta["tie_betas"], var_floor=meta["var_floor"],
            denom_eps=meta["denom_eps"])
    except KeyError as e:
        raise DataFormatError(f"routing_params document has no {e}") from None
    except TypeError:
        raise DataFormatError("routing_params 'dims' must be an object") \
            from None
    except ConfigError as e:
        raise DataFormatError(f"invalid {meta['mode']} layer: {e}") from None
    for name, value in _layer_meta(config)["dims"].items():
        if value == 0 and not (type(dims[name]) is int and dims[name] == 0):
            raise DataFormatError(f"{config.mode} layer stores {name}="
                                  f"{dims[name]!r}; an unused dim is 0")
    return config


# the key layout of _layer_meta, whose values a binary layer record holds
_META_LAYOUT = _layer_meta(RoutingConfig(n_out=1, d_cov=1, d_in=1, d_out=1))


def _stored_arrays(params: RoutingParams,
                   config: RoutingConfig) -> dict[str, np.ndarray]:
    """The independent fields of ``params``, checked against the layout
    and tie flag of ``config`` so that a written file reads back."""
    _check_layout(params, config)
    if params.tied != config.tie_betas:
        raise ShapeError(f"params with tied={params.tied} do not match the "
                         f"{config.mode} layout with tie_betas="
                         f"{config.tie_betas}")
    return {name: T.asarray(value) for name, value in params.items()}


def _layer_record(params: RoutingParams, config: RoutingConfig) -> list:
    """The layer record of ``params`` under ``config``, as parts for
    :func:`_write_file`: its metadata, then its arrays."""
    arrays = _stored_arrays(params, config)
    mode, tie, dims, *knobs = _layer_meta(config).values()
    for name, value in [*dims.items(), ("n_iters", knobs[0])]:
        if value >= 2 ** 32:
            raise DataFormatError(f"{name}={value} is above the u32 limit "
                                  f"2**32 - 1 of a binary layer record")
    return [struct.pack(_LAYER_RECORD, MODES.index(mode), tie, *dims.values(),
                        *knobs), *arrays.values()]


def _read_layer(r: _Reader) -> tuple[RoutingParams, RoutingConfig]:
    code, tie, *rest = r.unpack(_LAYER_RECORD)
    # RoutingConfig rejects an undefined mode code or tie byte as an int
    values = iter([MODES[code] if code < len(MODES) else code,
                   tie == 1 if tie < 2 else tie, *rest])
    config = _stored_config({
        key: {dim: next(values) for dim in value}
        if isinstance(value, dict) else next(values)
        for key, value in _META_LAYOUT.items()})
    params = RoutingParams.from_items(
        (name, r.array(shape)) for name, shape in param_shapes(config).items())
    return params, config


def write_params(path, params: RoutingParams, config: RoutingConfig) -> None:
    if not str(path).endswith(".json"):
        _write_file(path, _KIND_PARAMS, *_layer_record(params, config))
        return
    _write_json(path, "routing_params",
                _layer_meta(config) | _stored_arrays(params, config))


def read_params(path) -> tuple[RoutingParams, RoutingConfig]:
    if str(path).endswith(".json"):
        doc = _load_caps_json(path, "routing_params")
        config = _stored_config(doc)
        shapes = param_shapes(config)
        _check_keys(doc, [*_META_LAYOUT, *shapes])
        params = RoutingParams.from_items(
            (name, _json_array(doc, name, shape))
            for name, shape in shapes.items())
        return params, config
    r = _Reader(_read_bytes(path), _KIND_PARAMS)
    layer = _read_layer(r)
    r.done()
    return layer


def _check_stack(layers, n_classes: int, error: type) -> None:
    """Raise ``error`` unless the layers route into ``n_classes`` outputs:
    one d_cov throughout, and each layer takes the previous one's outputs."""
    configs = [config for _, config in layers]
    if not configs:
        raise error("a model needs at least one layer")
    for k, cfg in enumerate(configs):
        if cfg.mode == "variable_output":
            raise error(f"layer {k} is variable_output: it routes only with "
                        f"a per-output bias, which a model does not store")
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
    """Write a stack of (params, config) routing layers as one model, in
    the binary container whatever the suffix; ShapeError if they do not
    route into ``n_classes`` outputs."""
    _check_stack(layers, n_classes, ShapeError)
    records = [part for params, config in layers  # bound n_classes first
               for part in _layer_record(params, config)]
    _write_file(path, _KIND_MODEL, struct.pack("<II", len(layers), n_classes),
                *records)


def read_model(path) -> tuple[list[tuple[RoutingParams, RoutingConfig]], int]:
    r = _Reader(_read_bytes(path), _KIND_MODEL)
    n_layers, n_classes = r.unpack("<II")
    layers = [_read_layer(r) for _ in range(n_layers)]
    r.done()
    _check_stack(layers, n_classes, DataFormatError)
    return layers, n_classes
