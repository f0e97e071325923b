"""Directory-based tensor interchange plus scene/prediction/target codecs.

A bundle is a directory holding a JSON manifest and one data file,
`tensors.bin`. The manifest lists every tensor (name, element type, shape)
in the order its raw little-endian row-major bytes follow one another in the
data file, so each tensor's offset is the summed byte length of the entries
before it. Element types are f32, u16 and u8. Reads check every manifest
entry against that schema (exactly the keys name, dtype and shape; names
unique) and verify that the data file holds exactly the bytes the manifest
implies, so round-trips are bitwise faithful. Each kind of bundle (scene,
predictions, targets, panoptic) also checks the `meta` keys and value types
and the tensors it needs, each of the one element type its saver writes, so
a malformed bundle fails with one ValueError that names the key or tensor.
Loaders do nothing else: the containers they construct check every value.

A panoptic archive is a bundle specialization carrying the fused class and
instance maps, a segments table in the manifest, and optionally a colorized
portable pixmap (write-only; never re-read).
"""

from __future__ import annotations

import colorsys
import json
import math
import os
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .assignment import MODES, GroundTruthScene, GlobalTargets, LevelTargets
from .fields import (DenseBoxLevel, DensePrediction, LevelSpec, PanopticMap, SegmentInfo, as_uint16,
                     check_labels, level_grids, segment_labels, validate_level_specs)
from .geometry import boxes_valid

FORMAT = "tensor-bundle-v2"
MANIFEST = "manifest.json"
DATA = "tensors.bin"
DTYPES = {"f32": np.dtype("<f4"), "u16": np.dtype("<u2"), "u8": np.dtype("|u1")}
_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")
_ENTRY_KEYS = {"name", "dtype", "shape"}


def _dtype_name(arr: np.ndarray) -> str:
    for name, dt in DTYPES.items():
        if arr.dtype == dt:
            return name
    raise ValueError(f"unsupported dtype {arr.dtype}; use one of {list(DTYPES)}")


def write_bundle(path, tensors: dict[str, np.ndarray], meta: dict | None = None) -> None:
    """Write tensors + manifest into a directory (created if missing). Every
    name and dtype is checked before anything is written."""
    arrays, entries = [], []
    for name, arr in tensors.items():
        if not _NAME_RE.fullmatch(name):
            raise ValueError(f"invalid tensor name {name!r}")
        arr = np.ascontiguousarray(arr)
        entries.append({"name": name, "dtype": _dtype_name(arr), "shape": list(arr.shape)})
        arrays.append(arr)
    manifest = json.dumps({"format": FORMAT, "tensors": entries, "meta": meta or {}}, sort_keys=True)
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    with open(root / DATA, "wb") as f:
        for arr in arrays:
            f.write(arr)
    (root / MANIFEST).write_text(manifest + "\n")


def _manifest_entry(e) -> tuple[str, np.dtype, tuple[int, ...]]:
    """(name, dtype, shape) of one manifest entry, exactly as write_bundle writes it."""
    if not (isinstance(e, dict) and e.keys() == _ENTRY_KEYS
            and isinstance(e["name"], str) and _NAME_RE.fullmatch(e["name"])
            and isinstance(e["dtype"], str) and e["dtype"] in DTYPES
            and isinstance(e["shape"], list) and all(type(d) is int and d >= 0 for d in e["shape"])):
        raise ValueError(f"invalid manifest entry {e!r}: needs exactly a tensor name, a dtype in "
                         f"{list(DTYPES)} and a shape of nonnegative ints")
    return e["name"], DTYPES[e["dtype"]], tuple(e["shape"])


def read_bundle(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a bundle directory; entries are schema-checked and the data file's
    length validated against the shapes."""
    root = Path(path)
    mpath = root / MANIFEST
    try:
        manifest = json.loads(mpath.read_bytes())
    except OSError:
        raise ValueError(f"{root} is not a tensor bundle (missing {MANIFEST})") from None
    except ValueError as e:  # not JSON, or not UTF-8
        raise ValueError(f"{mpath} is not a JSON manifest: {e}") from None
    if not isinstance(manifest, dict):
        raise ValueError(f"{mpath} does not hold a JSON object")
    if manifest.get("format") != FORMAT:
        raise ValueError(f"unsupported bundle format {manifest.get('format')!r}")
    entries, meta = manifest.get("tensors"), manifest.get("meta", {})
    if not isinstance(entries, list) or not isinstance(meta, dict):
        raise ValueError(f"{mpath}: 'tensors' must be a list and 'meta' an object")
    entries = [_manifest_entry(e) for e in entries]
    try:
        f = open(root / DATA, "rb")
    except OSError:
        raise ValueError(f"{root}: missing {DATA}") from None
    with f:
        size, end = os.fstat(f.fileno()).st_size, 0
        tensors: dict[str, np.ndarray] = {}
        for name, dtype, shape in entries:
            if name in tensors:
                raise ValueError(f"{mpath}: tensor {name} is listed twice")
            end += math.prod(shape) * dtype.itemsize
            # checked before the array is made, so a hostile shape allocates nothing
            if end > size:
                raise ValueError(f"tensor {name}: {DATA} holds {size} bytes, the manifest implies at least {end}")
            tensors[name] = arr = np.empty(shape, dtype)
            if f.readinto(arr) != arr.nbytes:
                raise ValueError(f"tensor {name}: {DATA} ended early")
        if end != size:
            raise ValueError(f"{root}: {DATA} holds {size} bytes, {size - end} past the {end} the manifest implies")
    return tensors, meta


def _specs_to_meta(specs: list[LevelSpec]) -> list[dict]:
    return [{"stride": s.stride, "min_size": s.min_size,
             "max_size": None if math.isinf(s.max_size) else s.max_size} for s in specs]


def _specs_from_meta(items: list[dict]) -> list[LevelSpec]:
    return [LevelSpec(stride=i["stride"], min_size=float(i["min_size"]),
                      max_size=math.inf if i["max_size"] is None else float(i["max_size"]))
            for i in items]


def _segments_to_meta(segments: list[SegmentInfo]) -> list[dict]:
    return [{"id": s.segment_id, "class_id": s.class_id, "area": s.area, "score": _score(s)}
            for s in segments]


def _score(s: SegmentInfo) -> float:
    """The score as the float the `segments` schema accepts on load: no bool, NaN or inf."""
    score = math.nan if isinstance(s.score, (bool, np.bool_)) else float(s.score)
    if not math.isfinite(score):
        raise ValueError(f"segment {s.segment_id} score must be a finite number, got {s.score!r}")
    return score


def _segments_from_meta(items: list[dict]) -> list[SegmentInfo]:
    return [SegmentInfo(segment_id=i["id"], class_id=i["class_id"], area=i["area"], score=float(i["score"]))
            for i in items]


def _count(v) -> bool:
    return type(v) is int and v >= 0  # bool is not an int here


def _number(v) -> bool:
    return type(v) in (int, float) and math.isfinite(v)


def _records(fields: dict):
    return lambda v: isinstance(v, list) and all(
        isinstance(i, dict) and all(k in i and ok(i[k]) for k, ok in fields.items()) for i in v)


_INT = (_count, "a nonnegative int")
_COUNTS = {"n_stuff": _INT, "n_things": _INT}
_SIZE = {"height": _INT, "width": _INT}
_SEGMENTS = (_records({"id": _count, "class_id": _count, "area": _count, "score": _number}),
             "a list of {id, class_id, area: int, score: number}")
_LEVELS = (_records({"stride": _count, "min_size": _number, "max_size": lambda v: v is None or _number(v)}),
           "a list of {stride: int, min_size: number, max_size: number or null}")
# kind -> (name in errors, required meta keys with their checks, tensors and per-level
# tensor suffixes with the one element type the savers write for each)
_KINDS = {
    "scene": ("scene bundle", {**_COUNTS, "segments": _SEGMENTS},
              {"class_map": "u16", "instance_map": "u16", "boxes": "f32", "instance_classes": "u16"}, {}),
    "predictions": ("predictions bundle", {**_COUNTS, **_SIZE, "levels": _LEVELS},
                    {"semantic_logits": "f32", "levelness_logits": "f32"},
                    {"offsets": "f32", "class_probs": "f32", "centerness": "f32"}),
    "targets": ("targets bundle", {"mode": (lambda v: v in MODES, f"one of {MODES}"),
                                   **_COUNTS, **_SIZE, "levels": _LEVELS},
                {"levelness": "u16", "semantics": "u16", "gt_boxes": "f32", "gt_classes": "u16",
                 "gt_instances_quarter": "u16"},
                {"offsets": "f32", "class": "u16", "centerness": "f32"}),
    "panoptic": ("panoptic archive", {**_COUNTS, "segments": _SEGMENTS},
                 {"class_map": "u16", "instance_map": "u16"}, {}),
}


def _tensor_types(kind: str, n_levels: int) -> dict[str, str]:
    """Each tensor name of a `kind` bundle of `n_levels` levels, with its element type."""
    _, _, names, level_names = _KINDS[kind]
    return {**names, **{f"level{i}_{t}": dt for i in range(n_levels) for t, dt in level_names.items()}}


def _check_kind(tensors: dict, meta: dict, kind: str, path) -> None:
    """Raise one ValueError naming the first missing or mistyped meta key or tensor of `kind`."""
    what, keys = _KINDS[kind][:2]
    if meta.get("kind") != kind:
        raise ValueError(f"{path} is not a {what}")
    for key, (ok, expect) in keys.items():
        if key not in meta:
            raise ValueError(f"{path}: meta lacks {key!r}")
        if not ok(meta[key]):
            raise ValueError(f"{path}: meta {key!r} must be {expect}, got {meta[key]!r:.80}")
    for name, dtype in _tensor_types(kind, len(meta.get("levels", []))).items():
        if name not in tensors:
            raise ValueError(f"{path}: missing tensor {name!r}")
        if tensors[name].dtype != DTYPES[dtype]:
            raise ValueError(f"{path}: tensor {name!r} must be {dtype}, got {_dtype_name(tensors[name])}")


# ---------------------------------------------------------------- scenes

def save_scene(path, scene: GroundTruthScene) -> None:
    write_bundle(path, {
        "class_map": scene.panoptic.class_map,
        "instance_map": scene.panoptic.instance_map,
        "boxes": scene.boxes,
        "instance_classes": scene.instance_classes,
    }, meta={
        "kind": "scene",
        "n_stuff": scene.n_stuff,
        "n_things": scene.n_things,
        "segments": _segments_to_meta(scene.panoptic.segments),
    })


def load_scene(path) -> GroundTruthScene:
    return decode_scene(*read_bundle(path), path)


def decode_scene(tensors: dict, meta: dict, path) -> GroundTruthScene:
    """The scene held by an already read bundle; `path` names it in errors."""
    _check_kind(tensors, meta, "scene", path)
    pmap = PanopticMap(class_map=tensors["class_map"], instance_map=tensors["instance_map"],
                       segments=_segments_from_meta(meta["segments"]))
    return GroundTruthScene(panoptic=pmap, boxes=tensors["boxes"],
                            instance_classes=tensors["instance_classes"],
                            n_stuff=meta["n_stuff"], n_things=meta["n_things"])


# ----------------------------------------------------------- predictions

def save_predictions(path, pred: DensePrediction) -> None:
    tensors = {"semantic_logits": pred.semantic_logits, "levelness_logits": pred.levelness_logits,
               **{f"level{i}_{name}": getattr(lv, name) for i, lv in enumerate(pred.levels)
                  for name in ("offsets", "class_probs", "centerness")}}
    write_bundle(path, tensors, meta={
        "kind": "predictions",
        "n_stuff": pred.n_stuff,
        "n_things": pred.n_things,
        "height": pred.image_hw[0],
        "width": pred.image_hw[1],
        "levels": _specs_to_meta(pred.specs),
    })


def load_predictions(path) -> DensePrediction:
    tensors, meta = read_bundle(path)
    _check_kind(tensors, meta, "predictions", path)
    specs = _specs_from_meta(meta["levels"])
    levels = [DenseBoxLevel(stride=spec.stride, offsets=tensors[f"level{i}_offsets"],
                            class_probs=tensors[f"level{i}_class_probs"], centerness=tensors[f"level{i}_centerness"])
              for i, spec in enumerate(specs)]
    return DensePrediction(levels=levels,
                           semantic_logits=tensors["semantic_logits"],
                           levelness_logits=tensors["levelness_logits"],
                           specs=specs,
                           n_stuff=meta["n_stuff"], n_things=meta["n_things"],
                           image_hw=(meta["height"], meta["width"]))


# ---------------------------------------------------------------- targets

@dataclass
class TargetBundle:
    """Training targets of one image plus the gt pieces the losses consume.

    The constructor checks every value, wherever the data comes from, without
    converting or copying an array, and raises one ValueError naming the
    tensor as a saved bundle does (`tensors`): `mode` is one of MODES, class
    counts are nonnegative, the level targets match the valid pyramid `specs`
    stride for stride, level grids (offsets plus (4,)) and quarter tensors are
    the `level_grids` of the strides and of 4 on image_hw; semantics hold class
    ids in [1, n_stuff + n_things], levelness level ids in [0, L], level
    classes 0 or a thing class, offsets are finite and >= 0 and centerness in
    [0, 1]; gt_boxes are (K, 4) valid boxes, gt_classes one thing class per box
    and gt_instances_quarter ids at most K.
    """

    level_targets: list[LevelTargets]
    global_targets: GlobalTargets
    gt_boxes: np.ndarray
    gt_classes: np.ndarray
    gt_instances_quarter: np.ndarray
    specs: list[LevelSpec]
    n_stuff: int
    n_things: int
    image_hw: tuple[int, int]
    mode: str

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.n_stuff < 0 or self.n_things < 0:
            raise ValueError("class counts must be nonnegative")
        validate_level_specs(self.specs)
        strides = [s.stride for s in self.specs]
        if [t.stride for t in self.level_targets] != strides:
            raise ValueError("level targets must match the specs one to one, stride for stride")
        quarter, *grids = level_grids([4, *strides], self.image_hw)
        tensors, n_levels = self.tensors(), len(self.specs)
        n_stuff, n_classes = self.n_stuff, self.n_stuff + self.n_things
        shapes = {"levelness": quarter, "semantics": quarter, "gt_instances_quarter": quarter,
                  **{f"level{i}_{t}": (*grid, *tail) for i, grid in enumerate(grids)
                     for t, tail in (("class", ()), ("offsets", (4,)), ("centerness", ()))}}
        rules = [
            *((name, lambda a, shape=shape: a.shape == shape, f"of shape {shape}") for name, shape in shapes.items()),
            ("semantics", lambda c: c.min(initial=1) >= 1 and c.max(initial=1) <= n_classes,
             f"class ids in [1, {n_classes}]"),
            ("levelness", lambda v: v.min(initial=0) >= 0 and v.max(initial=0) <= n_levels,
             f"level ids in [0, {n_levels}]"),
            *((f"level{i}_class", lambda c: ((c == 0) | ((c > n_stuff) & (c <= n_classes))).all(),
               f"0 or a thing class in [{n_stuff + 1}, {n_classes}]") for i in range(n_levels)),
            ("gt_boxes", lambda b: b.ndim == 2 and b.shape[1] == 4 and boxes_valid(b),
             "(K, 4) finite boxes with x1 <= x2 and y1 <= y2"),
            ("gt_classes", lambda c: c.shape == (len(self.gt_boxes),) and ((c > n_stuff) & (c <= n_classes)).all(),
             f"one thing class in [{n_stuff + 1}, {n_classes}] per gt_boxes row"),
            ("gt_instances_quarter", lambda ids: ids.max(initial=0) <= len(self.gt_boxes),
             "instance ids at most the box count"),
            *((f"level{i}_offsets", lambda off: np.isfinite(off).all() and off.min(initial=0.0) >= 0,
               "finite and >= 0") for i in range(n_levels)),
            *((f"level{i}_centerness", lambda c: c.min(initial=0.0) >= 0 and c.max(initial=0.0) <= 1, "in [0, 1]")
              for i in range(n_levels))]
        for name, ok, expect in rules:
            if not ok(tensors[name]):
                raise ValueError(f"tensor {name!r} must be {expect}")

    def tensors(self) -> dict[str, np.ndarray]:
        """Every array of the bundle by its tensor name in a saved bundle."""
        g, levels = self.global_targets, enumerate(self.level_targets)
        return {"levelness": g.levelness, "semantics": g.semantics, "gt_boxes": self.gt_boxes,
                "gt_classes": self.gt_classes, "gt_instances_quarter": self.gt_instances_quarter,
                **{f"level{i}_{name}": a for i, t in levels
                   for name, a in (("offsets", t.offsets), ("class", t.class_ids), ("centerness", t.centerness))}}


def save_targets(path, bundle: TargetBundle) -> None:
    """Write `bundle` with every tensor cast to the element type `load_targets`
    accepts; a u16 tensor holding a value the cast would change raises, naming it."""
    types = _tensor_types("targets", len(bundle.level_targets))
    tensors = {name: as_uint16(a, f"tensor {name!r}") if types[name] == "u16" else np.asarray(a, dtype=np.float32)
               for name, a in bundle.tensors().items()}
    write_bundle(path, tensors, meta={
        "kind": "targets",
        "mode": bundle.mode,
        "n_stuff": bundle.n_stuff,
        "n_things": bundle.n_things,
        "height": bundle.image_hw[0],
        "width": bundle.image_hw[1],
        "levels": _specs_to_meta(bundle.specs),
    })


def load_targets(path) -> TargetBundle:
    tensors, meta = read_bundle(path)
    _check_kind(tensors, meta, "targets", path)
    specs = _specs_from_meta(meta["levels"])
    return TargetBundle(
        level_targets=[LevelTargets(stride=spec.stride, offsets=tensors[f"level{i}_offsets"],
                                    class_ids=tensors[f"level{i}_class"], centerness=tensors[f"level{i}_centerness"])
                       for i, spec in enumerate(specs)],
        global_targets=GlobalTargets(levelness=tensors["levelness"], semantics=tensors["semantics"]),
        gt_boxes=tensors["gt_boxes"],
        gt_classes=tensors["gt_classes"],
        gt_instances_quarter=tensors["gt_instances_quarter"],
        specs=specs,
        n_stuff=meta["n_stuff"],
        n_things=meta["n_things"],
        image_hw=(meta["height"], meta["width"]),
        mode=meta["mode"],
    )


# ------------------------------------------------------- panoptic archive

def save_panoptic(path, pmap: PanopticMap, n_stuff: int, n_things: int,
                  write_view: bool = False) -> None:
    """Write a panoptic archive that `load_panoptic` accepts, with a colorized
    view.ppm or none: a view of an earlier archive at `path` is removed."""
    if not (_count(n_stuff) and _count(n_things)):
        raise ValueError(f"class counts must be nonnegative ints, got {n_stuff!r} and {n_things!r}")
    check_labels(*pmap.validate()[:2], n_stuff, n_things, "panoptic map")
    meta = {
        "kind": "panoptic",
        "n_stuff": n_stuff,
        "n_things": n_things,
        "segments": _segments_to_meta(pmap.segments),
    }
    if write_view:
        meta["view"] = "view.ppm"
    write_bundle(path, {"class_map": pmap.class_map, "instance_map": pmap.instance_map}, meta=meta)
    view = Path(path) / "view.ppm"
    if write_view:
        write_ppm(view, colorize(pmap.class_map, pmap.instance_map))
    else:
        view.unlink(missing_ok=True)


def load_panoptic(path) -> tuple[PanopticMap, dict]:
    """Read an archive back and verify the segment table against the maps."""
    return decode_panoptic(*read_bundle(path), path)


def decode_panoptic(tensors: dict, meta: dict, path) -> tuple[PanopticMap, dict]:
    """The panoptic map and meta of an already read archive; `path` names it in errors."""
    _check_kind(tensors, meta, "panoptic", path)
    pmap = PanopticMap(class_map=tensors["class_map"], instance_map=tensors["instance_map"],
                       segments=_segments_from_meta(meta["segments"]))
    check_labels(*pmap.validate()[:2], meta["n_stuff"], meta["n_things"], path)
    return pmap, meta


# ----------------------------------------------------------- visualization

_GOLDEN = 0.6180339887498949


def _palette_color(class_id: int, instance_id: int) -> tuple[int, int, int]:
    if class_id == 0:
        return (0, 0, 0)
    hue = (class_id * _GOLDEN) % 1.0
    if instance_id == 0:
        r, g, b = colorsys.hsv_to_rgb(hue, 0.45, 0.85)
    else:
        v = 0.55 + 0.4 * ((instance_id * _GOLDEN) % 1.0)
        r, g, b = colorsys.hsv_to_rgb(hue, 0.85, v)
    return (int(round(r * 255)), int(round(g * 255)), int(round(b * 255)))


def colorize(class_map: np.ndarray, instance_map: np.ndarray) -> np.ndarray:
    """Deterministic (h, w, 3) uint8 rendering of a panoptic labeling; both maps
    must hold integers in [0, 65535] (`as_uint16`)."""
    class_map = as_uint16(class_map, "class_map")
    instance_map = as_uint16(instance_map, "instance_map")
    if class_map.shape != instance_map.shape:
        raise ValueError("map shapes differ")
    labels, n_inst, _ = segment_labels(class_map, instance_map)
    uniq, inverse = np.unique(labels, return_inverse=True)
    palette = np.array([_palette_color(*divmod(k, n_inst)) for k in uniq.tolist()], dtype=np.uint8)
    return palette.reshape(-1, 3)[inverse.reshape(labels.shape)]


def write_ppm(path, image: np.ndarray) -> None:
    """Write an (h, w, 3) uint8 image as binary PPM (P6)."""
    image = np.asarray(image, dtype=np.uint8)
    if image.ndim != 3 or image.shape[2] != 3:
        raise ValueError("expected an (h, w, 3) uint8 image")
    h, w = image.shape[:2]
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(image.tobytes(order="C"))
