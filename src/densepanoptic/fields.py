"""Dense field containers: box pyramids, semantics, levelness, panoptic maps.

Class-id convention used throughout the package: 0 is void, 1..n_stuff are
stuff classes, n_stuff+1..n_stuff+n_things are thing classes. Levelness ids:
0 is background, 1..L name the pyramid levels from finest to coarsest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class LevelSpec:
    """One pyramid level: stride and the half-open size range (min, max] it owns.

    A location is assigned to the level whose range contains the largest of
    its four side offsets; max_size may be inf for the coarsest level.
    """

    stride: int
    min_size: float
    max_size: float

    def __post_init__(self):
        if self.stride <= 0:
            raise ValueError("stride must be positive")
        if self.min_size < 0 or not self.max_size > self.min_size:
            raise ValueError(f"invalid size range ({self.min_size}, {self.max_size}]")


def default_level_specs(n_levels: int = 5) -> list[LevelSpec]:
    """Standard pyramid: strides 8..128 doubling, ranges (0,64], (64,128], ...

    With n_levels=1 the single stride-8 level owns every size.
    """
    if not 1 <= n_levels <= 5:
        raise ValueError("n_levels must be in 1..5")
    bounds = [0.0, 64.0, 128.0, 256.0, 512.0, math.inf]
    specs = []
    for i in range(n_levels):
        hi = bounds[i + 1] if i < n_levels - 1 else math.inf
        specs.append(LevelSpec(stride=8 << i, min_size=bounds[i], max_size=hi))
    return specs


def validate_level_specs(specs: list[LevelSpec]) -> None:
    """Check the pyramid is nonempty, contiguous from 0 and ends at inf."""
    if not specs:
        raise ValueError("empty level pyramid")
    if specs[0].min_size != 0:
        raise ValueError("first level must start at size 0")
    for prev, cur in zip(specs, specs[1:]):
        if cur.min_size != prev.max_size:
            raise ValueError("level size ranges must be contiguous")
        if cur.stride <= prev.stride:
            raise ValueError("strides must increase with level")
    if not math.isinf(specs[-1].max_size):
        raise ValueError("last level must extend to inf")


@dataclass
class DenseBoxLevel:
    """Per-location predictions of one pyramid level.

    offsets: (h, w, 4) float32, nonnegative side distances (l, t, r, b).
    class_probs: (h, w, T) float32 per-thing-class probabilities in [0, 1].
    centerness: (h, w) float32 in [0, 1].
    """

    stride: int
    offsets: np.ndarray
    class_probs: np.ndarray
    centerness: np.ndarray

    def __post_init__(self):
        self.offsets = np.ascontiguousarray(self.offsets, dtype=np.float32)
        self.class_probs = np.ascontiguousarray(self.class_probs, dtype=np.float32)
        self.centerness = np.ascontiguousarray(self.centerness, dtype=np.float32)
        h, w = self.centerness.shape
        if self.offsets.shape != (h, w, 4):
            raise ValueError(f"offsets shape {self.offsets.shape} != ({h}, {w}, 4)")
        if self.class_probs.shape[:2] != (h, w) or self.class_probs.ndim != 3:
            raise ValueError(f"class_probs shape {self.class_probs.shape} mismatch")
        if self.stride <= 0:
            raise ValueError("stride must be positive")
        if not np.isfinite(self.offsets).all():
            raise ValueError("offsets must be finite")
        if self.offsets.min(initial=0.0) < 0:
            raise ValueError("offsets must be nonnegative")
        for name, arr in (("class_probs", self.class_probs), ("centerness", self.centerness)):
            if arr.size and not (arr.min() >= 0 and arr.max() <= 1):
                raise ValueError(f"{name} must lie in [0, 1]")

    @property
    def shape(self) -> tuple[int, int]:
        return self.centerness.shape

    @property
    def n_thing_classes(self) -> int:
        return self.class_probs.shape[2]


@dataclass
class SemanticField:
    """Per-pixel class distribution, (h, w, N) float32 summing to 1."""

    probs: np.ndarray

    def __post_init__(self):
        self.probs = np.ascontiguousarray(self.probs, dtype=np.float32)
        if self.probs.ndim != 3:
            raise ValueError("semantic probs must be (h, w, n_classes)")
        if self.probs.size:
            if not (self.probs.min() >= -1e-6 and self.probs.max() <= 1 + 1e-6):
                raise ValueError("semantic probs must lie in [0, 1]")
            sums = self.probs.sum(axis=2, dtype=np.float64)
            if not np.abs(sums - 1.0).max() <= 1e-5:
                raise ValueError("semantic probs must sum to 1 per pixel")

    @property
    def shape(self) -> tuple[int, int]:
        return self.probs.shape[:2]

    @property
    def n_classes(self) -> int:
        return self.probs.shape[2]

    def argmax_classes(self) -> np.ndarray:
        """Per-pixel most likely class id (1-based; channel c is class c+1)."""
        return (np.argmax(self.probs, axis=2) + 1).astype(np.uint16)


@dataclass
class LevelnessField:
    """Per-pixel level-selection logits, (h, w, L+1); channel 0 is background."""

    logits: np.ndarray

    def __post_init__(self):
        self.logits = np.ascontiguousarray(self.logits, dtype=np.float32)
        if self.logits.ndim != 3 or self.logits.shape[2] < 2:
            raise ValueError("levelness logits must be (h, w, n_levels + 1)")
        if not np.isfinite(self.logits).all():
            raise ValueError("levelness logits must be finite")

    @property
    def shape(self) -> tuple[int, int]:
        return self.logits.shape[:2]

    @property
    def n_levels(self) -> int:
        return self.logits.shape[2] - 1

    def argmax_levels(self) -> np.ndarray:
        """Per-pixel selected level id (0 = background)."""
        return np.argmax(self.logits, axis=2).astype(np.uint16)


@dataclass
class GlobalBoxField:
    """Resolution-uniform absolute box per pixel, (h, w, 4) float32.

    Background pixels carry the degenerate point box at their own sample
    location so they score IoU 0 against every proper box.
    """

    boxes: np.ndarray

    def __post_init__(self):
        self.boxes = np.ascontiguousarray(self.boxes, dtype=np.float32)
        if self.boxes.ndim != 3 or self.boxes.shape[2] != 4:
            raise ValueError("global boxes must be (h, w, 4)")

    @property
    def shape(self) -> tuple[int, int]:
        return self.boxes.shape[:2]


@dataclass(frozen=True)
class SegmentInfo:
    """One panoptic segment: instance id (0 for stuff), class, area, score."""

    segment_id: int
    class_id: int
    area: int
    score: float


@dataclass
class PanopticMap:
    """Joint per-pixel class and instance labeling plus its segment table.

    class_map/instance_map are uint16; instance id 0 marks stuff and void
    pixels, thing pixels carry ids 1..K consistent with exactly one class.
    """

    class_map: np.ndarray
    instance_map: np.ndarray
    segments: list[SegmentInfo] = field(default_factory=list)

    def __post_init__(self):
        self.class_map = np.ascontiguousarray(self.class_map, dtype=np.uint16)
        self.instance_map = np.ascontiguousarray(self.instance_map, dtype=np.uint16)
        if self.class_map.shape != self.instance_map.shape or self.class_map.ndim != 2:
            raise ValueError("class/instance maps must share a 2-d shape")

    @property
    def shape(self) -> tuple[int, int]:
        return self.class_map.shape

    def validate(self) -> None:
        """Check id/class consistency and that segments mirror the maps.

        Stuff segments (id 0) are optional; each names a distinct class whose
        instance-0 pixel count is positive and equals its area.
        """
        ids = self.instance_map
        nz = ids != 0
        thing_classes = self.class_map[nz]
        if np.any(thing_classes == 0):
            raise ValueError("instance pixels must carry a nonzero class")
        table: dict[int, SegmentInfo] = {}
        stuff: dict[int, SegmentInfo] = {}
        for s in self.segments:
            if s.segment_id == 0:
                if s.class_id in stuff:
                    raise ValueError(f"duplicate stuff segment for class {s.class_id}")
                stuff[s.class_id] = s
            elif s.segment_id in table:
                raise ValueError(f"duplicate segment id {s.segment_id}")
            else:
                table[s.segment_id] = s
        present: dict[int, tuple[int, int]] = {}
        uniq, counts = np.unique(segment_keys(thing_classes, ids[nz]), return_counts=True)
        for key, cnt in zip(uniq.tolist(), counts.tolist()):
            cls, iid = split_segment_key(key)
            if iid in present:
                raise ValueError(f"instance id {iid} spans multiple classes")
            present[iid] = (cls, cnt)
        if set(present) != set(table):
            raise ValueError("segment table does not match instance ids in the map")
        for iid, (cls, cnt) in present.items():
            s = table[iid]
            if s.class_id != cls or s.area != cnt:
                raise ValueError(f"segment {iid} metadata disagrees with the maps")
        for cls, s in stuff.items():
            if cls == 0:
                raise ValueError("stuff segments must name a nonzero class")
            cnt = np.count_nonzero(self.class_map == cls) - np.count_nonzero(thing_classes == cls)
            if cnt == 0:
                raise ValueError(f"stuff segment of class {cls} has no pixels in the map")
            if s.area != cnt:
                raise ValueError(f"stuff segment of class {cls} has area {s.area}, the map {cnt}")


def segment_keys(class_map: np.ndarray, instance_map: np.ndarray) -> np.ndarray:
    """Per-pixel uint32 segment key class << 16 | instance; void (class 0) is key 0."""
    keys = class_map.astype(np.uint32) << np.uint32(16)
    keys |= instance_map.astype(np.uint32)
    keys[class_map == 0] = 0
    return keys


def split_segment_key(key):
    """(class, instance) of a segment key; works on ints and integer arrays."""
    return key >> 16, key & 0xFFFF


def segment_table(class_map: np.ndarray, instance_map: np.ndarray, instances: list[tuple[int, float]],
                  n_stuff: int, scale: int = 1) -> list[SegmentInfo]:
    """Instance k with (class, score) = instances[k - 1], then each stuff class present
    among instance-0 pixels with id 0 and score 1.0; areas are pixel counts * scale."""
    inst_areas = np.bincount(instance_map.ravel(), minlength=len(instances) + 1)
    table = [SegmentInfo(segment_id=k, class_id=cls, area=int(inst_areas[k]) * scale, score=score)
             for k, (cls, score) in enumerate(instances, start=1)]
    stuff_areas = np.bincount(class_map[instance_map == 0].ravel(), minlength=n_stuff + 1)
    for c in range(1, n_stuff + 1):
        if stuff_areas[c]:
            table.append(SegmentInfo(segment_id=0, class_id=c, area=int(stuff_areas[c]) * scale, score=1.0))
    return table


@dataclass
class DensePrediction:
    """Everything one scene's dense head would emit, in one container.

    Losses consume the raw semantic/levelness logits; the construction
    pipeline consumes their softmax/argmax. image_hw is the full resolution;
    logits live on the quarter-resolution grid.
    """

    levels: list[DenseBoxLevel]
    semantic_logits: np.ndarray
    levelness_logits: np.ndarray
    specs: list[LevelSpec]
    n_stuff: int
    n_things: int
    image_hw: tuple[int, int]

    def __post_init__(self):
        self.semantic_logits = np.ascontiguousarray(self.semantic_logits, dtype=np.float32)
        self.levelness_logits = np.ascontiguousarray(self.levelness_logits, dtype=np.float32)
        h, w = self.image_hw
        if h % 4 or w % 4:
            raise ValueError("image size must be divisible by 4")
        q = (h // 4, w // 4)
        if self.semantic_logits.shape != (*q, self.n_stuff + self.n_things):
            raise ValueError(f"semantic logits shape {self.semantic_logits.shape} mismatch")
        if self.levelness_logits.shape != (*q, len(self.levels) + 1):
            raise ValueError(f"levelness logits shape {self.levelness_logits.shape} mismatch")
        for name, arr in (("semantic", self.semantic_logits), ("levelness", self.levelness_logits)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} logits must be finite")
        if len(self.levels) != len(self.specs):
            raise ValueError("one spec per level required")
        validate_level_specs(self.specs)
        for lv, spec in zip(self.levels, self.specs):
            if lv.stride != spec.stride:
                raise ValueError("level stride disagrees with its spec")
            if lv.shape != (h // spec.stride, w // spec.stride):
                raise ValueError("level grid must be image size over stride")
            if lv.n_thing_classes != self.n_things:
                raise ValueError("level class channels must equal n_things")

    @property
    def quarter_hw(self) -> tuple[int, int]:
        return (self.image_hw[0] // 4, self.image_hw[1] // 4)

    def semantic_field(self) -> SemanticField:
        return SemanticField(softmax_field(self.semantic_logits))

    def levelness_field(self) -> LevelnessField:
        return LevelnessField(self.levelness_logits)


def upsample_nearest(grid: np.ndarray, factor: int) -> np.ndarray:
    """Nearest-neighbor upsampling by an integer factor along the first two axes.

    Works for (h, w) and (h, w, c) arrays; factor 1 returns an identical copy.
    """
    if factor < 1 or int(factor) != factor:
        raise ValueError("factor must be a positive integer")
    grid = np.asarray(grid)
    if grid.ndim not in (2, 3):
        raise ValueError("expected a (h, w) or (h, w, c) array")
    # widen the rows first, then copy each widened row `factor` times:
    # about twice as fast as repeating along both axes
    cols = np.repeat(grid, factor, axis=1)
    h, rest = cols.shape[0], cols.shape[1:]
    return np.broadcast_to(cols[:, None], (h, factor, *rest)).reshape(h * factor, *rest)


def softmax_field(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax along the last axis, preserving dtype."""
    logits = np.asarray(logits)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)
