"""Directory-based tensor interchange plus scene/prediction/target codecs.

A bundle is a directory with a JSON manifest listing every tensor (name,
element type, shape, filename) and one raw little-endian row-major binary
file per tensor. Element types are f32, u16 and u8. Reads check every
manifest entry against that schema (the filename must be the tensor name
plus ".bin", so no entry reaches outside the directory) and verify that
file byte lengths match the manifest shapes exactly, so round-trips are
bitwise faithful. Each kind of bundle (scene, predictions, targets,
panoptic) also checks the `meta` keys and value types and the tensors it
needs, each of the one element type its saver writes, before decoding, so a
malformed bundle fails with one ValueError that names the key or tensor.

A panoptic archive is a bundle specialization carrying the fused class and
instance maps, a segments table in the manifest, and optionally a colorized
portable pixmap (write-only; never re-read).
"""

from __future__ import annotations

import colorsys
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .assignment import MODES, GroundTruthScene, GlobalTargets, LevelTargets
from .fields import (DenseBoxLevel, DensePrediction, LevelSpec, PanopticMap, SegmentInfo, as_uint16,
                     check_labels, segment_labels)
from .geometry import boxes_valid

FORMAT = "tensor-bundle-v1"
MANIFEST = "manifest.json"
DTYPES = {"f32": np.dtype("<f4"), "u16": np.dtype("<u2"), "u8": np.dtype("|u1")}
_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")


def _dtype_name(arr: np.ndarray) -> str:
    for name, dt in DTYPES.items():
        if arr.dtype == dt:
            return name
    raise ValueError(f"unsupported dtype {arr.dtype}; use one of {list(DTYPES)}")


def write_bundle(path, tensors: dict[str, np.ndarray], meta: dict | None = None) -> None:
    """Write tensors + manifest into a directory (created if missing)."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    entries = []
    for name, arr in tensors.items():
        if not _NAME_RE.fullmatch(name):
            raise ValueError(f"invalid tensor name {name!r}")
        arr = np.ascontiguousarray(arr)
        entries.append({
            "name": name,
            "dtype": _dtype_name(arr),
            "shape": list(arr.shape),
            "file": name + ".bin",
        })
        (root / (name + ".bin")).write_bytes(arr.astype(DTYPES[entries[-1]["dtype"]], copy=False).tobytes(order="C"))
    manifest = {"format": FORMAT, "tensors": entries, "meta": meta or {}}
    (root / MANIFEST).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _manifest_entry(e) -> tuple[str, np.dtype, tuple[int, ...]]:
    """(name, dtype, shape) of one manifest entry, exactly as write_bundle writes it."""
    if not (isinstance(e, dict) and isinstance(e.get("name"), str) and _NAME_RE.fullmatch(e["name"])
            and isinstance(e.get("dtype"), str) and e["dtype"] in DTYPES
            and isinstance(e.get("shape"), list) and all(type(d) is int and d >= 0 for d in e["shape"])
            and e.get("file") == e["name"] + ".bin"):
        raise ValueError(f"invalid manifest entry {e!r}: needs a tensor name, dtype in {list(DTYPES)}, "
                         "shape of nonnegative ints and file equal to name + '.bin'")
    return e["name"], DTYPES[e["dtype"]], tuple(e["shape"])


def read_bundle(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a bundle directory; entries are schema-checked and byte lengths
    validated against shapes."""
    root = Path(path)
    mpath = root / MANIFEST
    if not mpath.is_file():
        raise ValueError(f"{root} is not a tensor bundle (missing {MANIFEST})")
    manifest = json.loads(mpath.read_text())
    if not isinstance(manifest, dict):
        raise ValueError(f"{mpath} does not hold a JSON object")
    if manifest.get("format") != FORMAT:
        raise ValueError(f"unsupported bundle format {manifest.get('format')!r}")
    entries, meta = manifest.get("tensors"), manifest.get("meta", {})
    if not isinstance(entries, list) or not isinstance(meta, dict):
        raise ValueError(f"{mpath}: 'tensors' must be a list and 'meta' an object")
    tensors: dict[str, np.ndarray] = {}
    for e in entries:
        name, dtype, shape = _manifest_entry(e)
        fpath = root / (name + ".bin")
        if not fpath.is_file():
            raise ValueError(f"tensor {name}: missing file {fpath.name}")
        raw = fpath.read_bytes()
        expect = math.prod(shape) * dtype.itemsize
        if len(raw) != expect:
            raise ValueError(f"tensor {name}: file holds {len(raw)} bytes, manifest implies {expect}")
        tensors[name] = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
    return tensors, meta


def _specs_to_meta(specs: list[LevelSpec]) -> list[dict]:
    return [{"stride": s.stride, "min_size": s.min_size,
             "max_size": None if math.isinf(s.max_size) else s.max_size} for s in specs]


def _specs_from_meta(items: list[dict]) -> list[LevelSpec]:
    return [LevelSpec(stride=i["stride"], min_size=float(i["min_size"]),
                      max_size=math.inf if i["max_size"] is None else float(i["max_size"]))
            for i in items]


def _segments_to_meta(segments: list[SegmentInfo]) -> list[dict]:
    return [{"id": s.segment_id, "class_id": s.class_id, "area": s.area, "score": s.score}
            for s in segments]


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


def _check_kind(tensors: dict, meta: dict, kind: str, path) -> None:
    """Raise one ValueError naming the first missing or mistyped meta key or tensor of `kind`."""
    what, keys, names, level_names = _KINDS[kind]
    if meta.get("kind") != kind:
        raise ValueError(f"{path} is not a {what}")
    for key, (ok, expect) in keys.items():
        if key not in meta:
            raise ValueError(f"{path}: meta lacks {key!r}")
        if not ok(meta[key]):
            raise ValueError(f"{path}: meta {key!r} must be {expect}, got {meta[key]!r:.80}")
    names = {**names, **{f"level{i}_{t}": dt for i in range(len(meta.get("levels", [])))
                         for t, dt in level_names.items()}}
    for name, dtype in names.items():
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
    tensors = {
        "semantic_logits": pred.semantic_logits,
        "levelness_logits": pred.levelness_logits,
    }
    for i, lv in enumerate(pred.levels):
        tensors[f"level{i}_offsets"] = lv.offsets
        tensors[f"level{i}_class_probs"] = lv.class_probs
        tensors[f"level{i}_centerness"] = lv.centerness
    write_bundle(path, tensors, meta={
        "kind": "predictions",
        "n_stuff": pred.n_stuff,
        "n_things": pred.n_things,
        "height": pred.image_hw[0],
        "width": pred.image_hw[1],
        "levels": _specs_to_meta(pred.specs),
    })


def _check_values(path, tensors: dict, rules) -> None:
    """Raise one ValueError naming the first tensor that fails its check; rules are
    (tensor name, check, what the tensor must be) triples. The loaders check
    these values, not the containers, so data built in memory skips them."""
    for name, ok, expect in rules:
        if not ok(tensors[name]):
            raise ValueError(f"{path}: tensor {name!r} must be {expect}")


def _box_areas_finite(off: np.ndarray) -> bool:
    """Whether each (l, t, r, b) offset decodes to a finite box area (l + r) * (t + b)
    in its own dtype, so that no IoU of the box overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        return bool(np.isfinite((off[..., 0] + off[..., 2]) * (off[..., 1] + off[..., 3])).all())


def load_predictions(path) -> DensePrediction:
    tensors, meta = read_bundle(path)
    _check_kind(tensors, meta, "predictions", path)
    specs = _specs_from_meta(meta["levels"])
    levels = [
        DenseBoxLevel(stride=spec.stride,
                      offsets=tensors[f"level{i}_offsets"],
                      class_probs=tensors[f"level{i}_class_probs"],
                      centerness=tensors[f"level{i}_centerness"])
        for i, spec in enumerate(specs)
    ]
    # after DenseBoxLevel has checked each offsets tensor's shape and finiteness
    _check_values(path, tensors, [(f"level{i}_offsets", _box_areas_finite,
                                   "offsets with a finite box area (l + r) * (t + b)") for i in range(len(levels))])
    return DensePrediction(levels=levels,
                           semantic_logits=tensors["semantic_logits"],
                           levelness_logits=tensors["levelness_logits"],
                           specs=specs,
                           n_stuff=meta["n_stuff"], n_things=meta["n_things"],
                           image_hw=(meta["height"], meta["width"]))


# ---------------------------------------------------------------- targets

@dataclass
class TargetBundle:
    """Serialized training targets plus the gt pieces the losses consume."""

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


def save_targets(path, bundle: TargetBundle) -> None:
    """Write `bundle` with every tensor cast to the element type `load_targets`
    accepts; a u16 tensor holding a value the cast would change raises, naming it."""
    def u16(name, values):
        return as_uint16(values, f"tensor {name!r}")

    tensors = {
        "levelness": u16("levelness", bundle.global_targets.levelness),
        "semantics": u16("semantics", bundle.global_targets.semantics),
        "gt_boxes": np.asarray(bundle.gt_boxes, dtype=np.float32),
        "gt_classes": u16("gt_classes", bundle.gt_classes),
        "gt_instances_quarter": u16("gt_instances_quarter", bundle.gt_instances_quarter),
    }
    for i, t in enumerate(bundle.level_targets):
        tensors[f"level{i}_offsets"] = np.asarray(t.offsets, dtype=np.float32)
        tensors[f"level{i}_class"] = u16(f"level{i}_class", t.class_ids)
        tensors[f"level{i}_centerness"] = np.asarray(t.centerness, dtype=np.float32)
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
    n_stuff, n_classes = meta["n_stuff"], meta["n_stuff"] + meta["n_things"]
    quarter = (meta["height"] // 4, meta["width"] // 4)
    shapes = {"levelness": quarter, "semantics": quarter, "gt_instances_quarter": quarter,
              **{f"level{i}_{t}": (meta["height"] // s.stride, meta["width"] // s.stride, *tail)
                 for i, s in enumerate(specs) for t, tail in (("class", ()), ("offsets", (4,)), ("centerness", ()))}}
    _check_values(path, tensors, [
        *((name, lambda a, shape=shape: a.shape == shape, f"of shape {shape}") for name, shape in shapes.items()),
        ("semantics", lambda c: c.min(initial=1) >= 1 and c.max(initial=1) <= n_classes,
         f"class ids in [1, {n_classes}]"),
        ("levelness", lambda v: v.min(initial=0) >= 0 and v.max(initial=0) <= len(specs),
         f"level ids in [0, {len(specs)}]"),
        *((f"level{i}_class", lambda c: ((c == 0) | ((c > n_stuff) & (c <= n_classes))).all(),
           f"0 or a thing class in [{n_stuff + 1}, {n_classes}]") for i in range(len(specs))),
        ("gt_boxes", lambda b: b.ndim == 2 and b.shape[1] == 4 and boxes_valid(b),
         "(K, 4) finite boxes with x1 <= x2 and y1 <= y2"),
        ("gt_classes", lambda c: c.shape == (len(tensors["gt_boxes"]),) and ((c > n_stuff) & (c <= n_classes)).all(),
         f"one thing class in [{n_stuff + 1}, {n_classes}] per gt_boxes row"),
        ("gt_instances_quarter", lambda ids: ids.max(initial=0) <= len(tensors["gt_boxes"]),
         "instance ids at most the box count"),
        *((f"level{i}_offsets", lambda off: np.isfinite(off).all() and off.min(initial=0.0) >= 0, "finite and >= 0")
          for i in range(len(specs))),
        *((f"level{i}_centerness", lambda c: c.min(initial=0.0) >= 0 and c.max(initial=0.0) <= 1, "in [0, 1]")
          for i in range(len(specs)))])
    level_targets = [
        LevelTargets(stride=spec.stride,
                     offsets=tensors[f"level{i}_offsets"],
                     class_ids=tensors[f"level{i}_class"],
                     centerness=tensors[f"level{i}_centerness"])
        for i, spec in enumerate(specs)
    ]
    return TargetBundle(
        level_targets=level_targets,
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
    """Write a panoptic archive; optionally adds a colorized view.ppm."""
    pmap.validate()
    meta = {
        "kind": "panoptic",
        "n_stuff": n_stuff,
        "n_things": n_things,
        "segments": _segments_to_meta(pmap.segments),
    }
    if write_view:
        meta["view"] = "view.ppm"
    write_bundle(path, {"class_map": pmap.class_map, "instance_map": pmap.instance_map}, meta=meta)
    if write_view:
        write_ppm(Path(path) / "view.ppm", colorize(pmap.class_map, pmap.instance_map))


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
