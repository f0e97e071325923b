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

from .fields import LevelSpec, PanopticMap, as_uint16, check_labels, validate_level_specs
from .geometry import _area, boxes_to_offsets, boxes_valid, centerness, max_offset, receptive_centers

MODES = ("full", "weak")


@dataclass
class GroundTruthScene:
    """A labeled scene: panoptic maps plus per-instance boxes and classes.

    boxes is (K, 4) float32 with instance k (instance id k+1) in row k;
    instance_classes is (K,) uint16 global thing-class ids. The panoptic map
    must pass `validate` and `check_labels`, boxes must be finite and ordered
    and hold every pixel of their instance, and an instance's pixels must
    carry its class.
    """

    panoptic: PanopticMap
    boxes: np.ndarray
    instance_classes: np.ndarray
    n_stuff: int
    n_things: int

    def __post_init__(self):
        self.boxes = np.ascontiguousarray(self.boxes, dtype=np.float32).reshape(-1, 4)
        self.instance_classes = as_uint16(self.instance_classes, "instance_classes").reshape(-1)
        if len(self.boxes) != len(self.instance_classes):
            raise ValueError("boxes and instance_classes must have equal length")
        if self.n_stuff < 0 or self.n_things < 0:
            raise ValueError("class counts must be nonnegative")
        b = self.boxes
        if not boxes_valid(b):
            raise ValueError("instance boxes must be finite and satisfy x1 <= x2 and y1 <= y2")
        cls = self.instance_classes
        if cls.size and (cls.min() <= self.n_stuff or cls.max() > self.n_stuff + self.n_things):
            raise ValueError("instance classes must be thing ids")
        row_classes, row_ids, _ = self.panoptic.validate()
        check_labels(row_classes, row_ids, self.n_stuff, self.n_things, "scene")
        if row_ids.max(initial=0) > len(b):
            raise ValueError("instance map references a missing box")
        # one pass over every instance pixel; errors name the lowest offending id
        ys, xs = np.nonzero(self.panoptic.instance_map)
        k = self.panoptic.instance_map[ys, xs].astype(np.int64) - 1
        x1, y1, x2, y2 = b[k].T
        outside = (xs < x1) | (xs > x2) | (ys < y1) | (ys > y2)
        if outside.any():
            raise ValueError(f"instance {k[outside].min() + 1} has mask pixels outside its box")
        mislabelled = row_ids[(row_ids != 0) & (row_classes != np.r_[0, cls][row_ids])]
        if mislabelled.size:
            raise ValueError(f"instance {mislabelled.min()} has pixels of a class other than its own")

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

    @property
    def foreground(self) -> np.ndarray:
        """Bool grid of the positive locations: those assigned a class."""
        return self.class_ids != 0


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
    areas = _area(scene.boxes).astype(np.float64)
    # paint large boxes first and, within equal areas, high ids first: the
    # smallest box (lowest id on ties) is written last and wins overlaps
    order = np.lexsort((-np.arange(len(areas)), -areas))
    # a box holds the pixels ceil(x1) <= x <= floor(x2), ceil(y1) <= y <= floor(y2);
    # both ends are clipped to the frame, since a negative stop would wrap
    hw = [scene.width, scene.height]
    c0, r0 = np.clip(np.ceil(scene.boxes[:, :2]), 0, hw).astype(np.int64).T.tolist()
    c1, r1 = np.clip(np.floor(scene.boxes[:, 2:]) + 1, 0, hw).astype(np.int64).T.tolist()
    for k in order.tolist():
        out[r0[k]:r1[k], c0[k]:c1[k]] = k + 1
    return out


def owner_offsets(owners: np.ndarray, boxes: np.ndarray, stride: int):
    """The stride-z cells whose receptive centre has an owner, and that owner's box offsets.

    owners is a full-resolution map of instance ids (0 = none) and boxes is
    (K, 4) with instance k+1 in row k. Returns (rows, cols, ids, offsets):
    the grid indices of the owned cells in row-major order, their owner ids
    (int64) and the side offsets (l, t, r, b) of each owner's box from the
    cell's centre. Offsets are negative where a centre lies outside its box.
    """
    ids = owners[stride // 2::stride, stride // 2::stride]
    rows, cols = np.nonzero(ids)
    ids = ids[rows, cols].astype(np.int64)
    cx, cy = receptive_centers(stride, cols), receptive_centers(stride, rows)
    return rows, cols, ids, boxes_to_offsets(boxes[ids - 1], cx, cy)


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

    level_targets = []
    for spec in specs:
        shape = (h // spec.stride, w // spec.stride)
        yy, xx, ids, off = owner_offsets(fg_map, boxes, spec.stride)
        if off.min(initial=0.0) < 0:
            raise ValueError("foreground center falls outside its box")
        vmax = max_offset(off)
        keep = (vmax > spec.min_size) & (vmax <= spec.max_size)
        yy, xx, ids, off = yy[keep], xx[keep], ids[keep], off[keep]
        offsets = np.zeros(shape + (4,), dtype=np.float32)
        offsets[yy, xx] = off
        cent = np.zeros(shape, dtype=np.float32)
        cent[yy, xx] = centerness(off)
        cls = np.zeros(shape, dtype=np.uint16)
        cls[yy, xx] = scene.instance_classes[ids - 1]
        level_targets.append(LevelTargets(stride=spec.stride, offsets=offsets, class_ids=cls, centerness=cent))

    yy, xx, _, off = owner_offsets(fg_map, boxes, 4)
    vmax = max_offset(off)
    ok = vmax > 0
    levelness = np.zeros((h // 4, w // 4), dtype=np.uint16)
    levelness[yy[ok], xx[ok]] = levels_for(vmax[ok], specs) + 1
    semantics = scene.quarter_class_map()
    return level_targets, GlobalTargets(levelness=levelness, semantics=semantics)
