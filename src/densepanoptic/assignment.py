"""Ground-truth containers and dense training-target generation.

Targets are produced per pyramid level at receptive centers
(z//2 + ix*z, z//2 + iy*z): each center inside an instance (mask membership in
"full" mode, box membership with smallest-box tie-break in "weak" mode)
regresses the side offsets of that instance's box, provided the largest
offset falls in the level's size range. Quarter-resolution levelness and
semantic targets are sampled at full-res pixels [2::4, 2::4].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import LevelSpec, PanopticMap, validate_level_specs
from .geometry import boxes_to_offsets, centerness, max_offset, receptive_centers

MODES = ("full", "weak")


@dataclass
class GroundTruthScene:
    """A labeled scene: panoptic maps plus per-instance boxes and classes.

    boxes is (K, 4) float32 with instance k (instance id k+1) in row k;
    instance_classes is (K,) uint16 global thing-class ids. Every instance
    box must contain all pixels of its mask.
    """

    panoptic: PanopticMap
    boxes: np.ndarray
    instance_classes: np.ndarray
    n_stuff: int
    n_things: int

    def __post_init__(self):
        self.boxes = np.ascontiguousarray(self.boxes, dtype=np.float32).reshape(-1, 4)
        self.instance_classes = np.ascontiguousarray(self.instance_classes, dtype=np.uint16).reshape(-1)
        if len(self.boxes) != len(self.instance_classes):
            raise ValueError("boxes and instance_classes must have equal length")
        if self.n_stuff < 0 or self.n_things < 0:
            raise ValueError("class counts must be nonnegative")
        cls = self.instance_classes
        if cls.size and (cls.min() <= self.n_stuff or cls.max() > self.n_stuff + self.n_things):
            raise ValueError("instance classes must be thing ids")
        top = int(self.panoptic.class_map.max(initial=0))
        if top > self.n_stuff + self.n_things:
            raise ValueError(f"class id {top} exceeds n_stuff + n_things = {self.n_stuff + self.n_things}")
        ids = self.panoptic.instance_map
        if ids.max(initial=0) > len(self.boxes):
            raise ValueError("instance map references a missing box")
        for k in range(len(self.boxes)):
            ys, xs = np.nonzero(ids == k + 1)
            if ys.size == 0:
                continue
            x1, y1, x2, y2 = self.boxes[k]
            if xs.min() < x1 or xs.max() > x2 or ys.min() < y1 or ys.max() > y2:
                raise ValueError(f"instance {k + 1} has mask pixels outside its box")

    @property
    def height(self) -> int:
        return self.panoptic.shape[0]

    @property
    def width(self) -> int:
        return self.panoptic.shape[1]

    @property
    def n_instances(self) -> int:
        return len(self.boxes)

    def quarter_instance_map(self) -> np.ndarray:
        """Instance ids sampled at the quarter-resolution grid."""
        return np.ascontiguousarray(self.panoptic.instance_map[2::4, 2::4])

    def quarter_class_map(self) -> np.ndarray:
        return np.ascontiguousarray(self.panoptic.class_map[2::4, 2::4])


@dataclass
class LevelTargets:
    """Regression/classification targets for one pyramid level.

    Background locations carry zero offsets, class 0 and centerness 0.
    """

    stride: int
    offsets: np.ndarray
    class_ids: np.ndarray
    centerness: np.ndarray
    foreground: np.ndarray


@dataclass
class GlobalTargets:
    """Quarter-resolution targets: levelness ids (0 = bg) and semantic classes."""

    levelness: np.ndarray
    semantics: np.ndarray


def assign_foreground(scene: GroundTruthScene, mode: str = "full") -> np.ndarray:
    """Per-pixel owning instance id (0 = none) at full resolution.

    "full" uses the instance masks directly. "weak" assigns every pixel
    inside at least one instance box to the contained box of smallest area,
    breaking ties toward the lowest instance id.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if mode == "full":
        return np.ascontiguousarray(scene.panoptic.instance_map.copy())
    out = np.zeros((scene.height, scene.width), dtype=np.uint16)
    if scene.n_instances == 0:
        return out
    areas = (scene.boxes[:, 2] - scene.boxes[:, 0]) * (scene.boxes[:, 3] - scene.boxes[:, 1])
    areas = areas.astype(np.float64)
    # paint large boxes first and, within equal areas, high ids first: the
    # smallest box (lowest id on ties) is written last and wins overlaps
    order = np.lexsort((-np.arange(len(areas)), -areas))
    ys = np.arange(scene.height)
    xs = np.arange(scene.width)
    for k in order:
        x1, y1, x2, y2 = scene.boxes[k].astype(np.float64)
        rows = (ys >= y1) & (ys <= y2)
        cols = (xs >= x1) & (xs <= x2)
        out[np.ix_(rows, cols)] = k + 1
    return out


def levels_for(vmax: np.ndarray, specs: list[LevelSpec]) -> np.ndarray:
    """Index of the level whose half-open size range (min, max] holds each value.

    Values above the last finite bound land on the last level. A
    nonpositive value, which no range holds, raises.
    """
    vmax = np.asarray(vmax, dtype=np.float64)
    if vmax.size and not vmax.min() > 0:
        raise ValueError("max offsets must be positive to select a level")
    his = np.array([s.max_size for s in specs], dtype=np.float64)
    return np.searchsorted(his, vmax, side="left").astype(np.int64)


def build_targets(
    scene: GroundTruthScene,
    specs: list[LevelSpec],
    mode: str = "full",
) -> tuple[list[LevelTargets], GlobalTargets]:
    """Dense targets for every pyramid level plus the quarter-res global maps.

    Args:
        scene: ground truth.
        specs: contiguous level pyramid (validated).
        mode: "full" (mask supervision) or "weak" (box-only supervision).

    Returns:
        ([LevelTargets...], GlobalTargets); all target arrays are freshly
        allocated and row-major.
    """
    validate_level_specs(specs)
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    h, w = scene.height, scene.width
    if h % 4 or w % 4:
        raise ValueError("scene size must be divisible by 4")
    for spec in specs:
        if h % spec.stride or w % spec.stride:
            raise ValueError("scene size must be divisible by every stride")
    fg_map = assign_foreground(scene, mode)
    boxes = scene.boxes.astype(np.float64)
    classes = scene.instance_classes

    level_targets = []
    for li, spec in enumerate(specs):
        z = spec.stride
        gh, gw = h // z, w // z
        cy = receptive_centers(z, np.arange(gh))
        cx = receptive_centers(z, np.arange(gw))
        ids = fg_map[np.ix_(cy, cx)].astype(np.int64)
        fg = ids > 0
        offsets = np.zeros((gh, gw, 4), dtype=np.float32)
        cent = np.zeros((gh, gw), dtype=np.float32)
        cls = np.zeros((gh, gw), dtype=np.uint16)
        if fg.any():
            yy, xx = np.nonzero(fg)
            off = boxes_to_offsets(boxes[ids[yy, xx] - 1], cx[xx], cy[yy])
            if off.min(initial=0.0) < 0:
                raise ValueError("foreground center falls outside its box")
            vmax = max_offset(off)
            keep = (vmax > spec.min_size) & (vmax <= spec.max_size)
            yy, xx, off = yy[keep], xx[keep], off[keep]
            fg = np.zeros_like(fg)
            fg[yy, xx] = True
            if yy.size:
                offsets[yy, xx] = off.astype(np.float32)
                cent[yy, xx] = centerness(off).astype(np.float32)
                cls[yy, xx] = classes[ids[yy, xx] - 1]
        level_targets.append(
            LevelTargets(stride=z, offsets=offsets, class_ids=cls, centerness=cent, foreground=fg)
        )

    q_ids = fg_map[2::4, 2::4].astype(np.int64)
    levelness = np.zeros(q_ids.shape, dtype=np.uint16)
    qfg = q_ids > 0
    if qfg.any():
        yy, xx = np.nonzero(qfg)
        off = boxes_to_offsets(boxes[q_ids[yy, xx] - 1], receptive_centers(4, xx), receptive_centers(4, yy))
        vmax = max_offset(off)
        ok = vmax > 0
        levelness[yy[ok], xx[ok]] = (levels_for(vmax[ok], specs) + 1).astype(np.uint16)
    semantics = scene.quarter_class_map()
    return level_targets, GlobalTargets(levelness=levelness, semantics=semantics)
