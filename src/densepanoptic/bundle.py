"""Directory-based tensor interchange plus scene/prediction/target codecs.

A bundle is a directory with a JSON manifest listing every tensor (name,
element type, shape, filename) and one raw little-endian row-major binary
file per tensor. Element types are f32, u16 and u8. Reads check every
manifest entry against that schema (the filename must be the tensor name
plus ".bin", so no entry reaches outside the directory) and verify that
file byte lengths match the manifest shapes exactly, so round-trips are
bitwise faithful.

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

from .assignment import GroundTruthScene, GlobalTargets, LevelTargets
from .fields import DenseBoxLevel, DensePrediction, LevelSpec, PanopticMap, SegmentInfo

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
    return [LevelSpec(stride=int(i["stride"]), min_size=float(i["min_size"]),
                      max_size=math.inf if i["max_size"] is None else float(i["max_size"]))
            for i in items]


def _segments_to_meta(segments: list[SegmentInfo]) -> list[dict]:
    return [{"id": s.segment_id, "class_id": s.class_id, "area": s.area, "score": s.score}
            for s in segments]


def _segments_from_meta(items: list[dict]) -> list[SegmentInfo]:
    return [SegmentInfo(segment_id=int(i["id"]), class_id=int(i["class_id"]),
                        area=int(i["area"]), score=float(i["score"])) for i in items]


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
    tensors, meta = read_bundle(path)
    if meta.get("kind") != "scene":
        raise ValueError(f"{path} is not a scene bundle")
    pmap = PanopticMap(class_map=tensors["class_map"], instance_map=tensors["instance_map"],
                       segments=_segments_from_meta(meta["segments"]))
    pmap.validate()
    return GroundTruthScene(panoptic=pmap, boxes=tensors["boxes"],
                            instance_classes=tensors["instance_classes"],
                            n_stuff=int(meta["n_stuff"]), n_things=int(meta["n_things"]))


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


def load_predictions(path) -> DensePrediction:
    tensors, meta = read_bundle(path)
    if meta.get("kind") != "predictions":
        raise ValueError(f"{path} is not a predictions bundle")
    specs = _specs_from_meta(meta["levels"])
    levels = [
        DenseBoxLevel(stride=spec.stride,
                      offsets=tensors[f"level{i}_offsets"],
                      class_probs=tensors[f"level{i}_class_probs"],
                      centerness=tensors[f"level{i}_centerness"])
        for i, spec in enumerate(specs)
    ]
    return DensePrediction(levels=levels,
                           semantic_logits=tensors["semantic_logits"],
                           levelness_logits=tensors["levelness_logits"],
                           specs=specs,
                           n_stuff=int(meta["n_stuff"]), n_things=int(meta["n_things"]),
                           image_hw=(int(meta["height"]), int(meta["width"])))


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
    tensors = {
        "levelness": bundle.global_targets.levelness,
        "semantics": bundle.global_targets.semantics,
        "gt_boxes": bundle.gt_boxes.astype(np.float32),
        "gt_classes": bundle.gt_classes.astype(np.uint16),
        "gt_instances_quarter": bundle.gt_instances_quarter.astype(np.uint16),
    }
    for i, t in enumerate(bundle.level_targets):
        tensors[f"level{i}_offsets"] = t.offsets
        tensors[f"level{i}_class"] = t.class_ids
        tensors[f"level{i}_centerness"] = t.centerness
        tensors[f"level{i}_foreground"] = t.foreground.astype(np.uint8)
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
    if meta.get("kind") != "targets":
        raise ValueError(f"{path} is not a targets bundle")
    specs = _specs_from_meta(meta["levels"])
    level_targets = [
        LevelTargets(stride=spec.stride,
                     offsets=tensors[f"level{i}_offsets"],
                     class_ids=tensors[f"level{i}_class"],
                     centerness=tensors[f"level{i}_centerness"],
                     foreground=tensors[f"level{i}_foreground"].astype(bool))
        for i, spec in enumerate(specs)
    ]
    return TargetBundle(
        level_targets=level_targets,
        global_targets=GlobalTargets(levelness=tensors["levelness"], semantics=tensors["semantics"]),
        gt_boxes=tensors["gt_boxes"],
        gt_classes=tensors["gt_classes"],
        gt_instances_quarter=tensors["gt_instances_quarter"],
        specs=specs,
        n_stuff=int(meta["n_stuff"]),
        n_things=int(meta["n_things"]),
        image_hw=(int(meta["height"]), int(meta["width"])),
        mode=str(meta["mode"]),
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
    tensors, meta = read_bundle(path)
    if meta.get("kind") != "panoptic":
        raise ValueError(f"{path} is not a panoptic archive")
    pmap = PanopticMap(class_map=tensors["class_map"], instance_map=tensors["instance_map"],
                       segments=_segments_from_meta(meta["segments"]))
    pmap.validate()
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
    """Deterministic (h, w, 3) uint8 rendering of a panoptic labeling."""
    class_map = np.asarray(class_map)
    instance_map = np.asarray(instance_map)
    if class_map.shape != instance_map.shape:
        raise ValueError("map shapes differ")
    keys = class_map.astype(np.uint32) << np.uint32(16)
    keys |= instance_map.astype(np.uint32)
    out = np.zeros((*class_map.shape, 3), dtype=np.uint8)
    for key in np.unique(keys).tolist():
        color = _palette_color(key >> 16, key & 0xFFFF)
        out[keys == key] = color
    return out


def write_ppm(path, image: np.ndarray) -> None:
    """Write an (h, w, 3) uint8 image as binary PPM (P6)."""
    image = np.asarray(image, dtype=np.uint8)
    if image.ndim != 3 or image.shape[2] != 3:
        raise ValueError("expected an (h, w, 3) uint8 image")
    h, w = image.shape[:2]
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(image.tobytes(order="C"))
