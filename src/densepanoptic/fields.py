"""Dense field containers: box pyramids, semantics, levelness, panoptic maps.

Class-id convention used throughout the package: 0 is void, 1..n_stuff are
stuff classes, n_stuff+1..n_stuff+n_things are thing classes. Levelness ids:
0 is background, 1..L name the pyramid levels from finest to coarsest.

Panoptic labelings (class map plus instance map) are encoded as one segment
label per pixel (`segment_labels`), counted (`pair_counts`, `label_counts`)
and checked (`check_labels`) here only.
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


class SemanticField:
    """Per-pixel class distribution summing to 1.

    Held as contiguous (N, h, w) float32 `planes`, read-only, so every
    per-pixel reduction runs over whole planes; the constructor takes
    (h, w, N) probs and copies nothing when they are a view of such planes,
    as `softmax_field` returns. N is at most 65535, so class ids fit uint16.
    """

    def __init__(self, probs: np.ndarray):
        self._hold(probs)
        if self.planes.size:
            if not (self.planes.min() >= -1e-6 and self.planes.max() <= 1 + 1e-6):
                raise ValueError("semantic probs must lie in [0, 1]")
            sums = plane_sum(self.planes, dtype=np.float64)
            if not np.abs(sums - 1.0).max() <= 1e-5:
                raise ValueError("semantic probs must sum to 1 per pixel")

    @classmethod
    def _softmax_of(cls, logits: np.ndarray) -> SemanticField:
        """The field of `softmax_field(logits)` for finite float32 logits, without
        the public check, which cannot fail on it: the top channel's shifted logit
        is exactly 0, so each pixel's sum s is at least 1, and every `exp` is at
        most 1, so every probability e / s lies in [0, 1]. No term of numpy's
        pairwise float32 sum passes through more than d additions (d <= 24 up to
        128 channels, 33 up to the 65535 cap), so with one division per value
        |sum(p) - 1| <= (d + 1) * 2**-24 to first order: 1.5e-6 and 2.1e-6,
        against the check's 1e-5 (an order-blind C * 2**-24 covers 167 channels).
        """
        field = cls.__new__(cls)
        field._hold(softmax_field(logits))
        return field

    def _hold(self, probs) -> None:
        probs = np.asarray(probs)
        if probs.ndim != 3:
            raise ValueError("semantic probs must be (h, w, n_classes)")
        if probs.shape[2] > 65535:
            raise ValueError(f"a semantic field holds at most 65535 classes (uint16 ids), got {probs.shape[2]}")
        self.planes = _readonly_planes(np.moveaxis(probs, 2, 0))

    @property
    def shape(self) -> tuple[int, int]:
        return self.planes.shape[1:]

    @property
    def n_classes(self) -> int:
        return self.planes.shape[0]

    def argmax_classes(self) -> np.ndarray:
        """Per-pixel most likely class id (1-based; channel c is class c+1)."""
        cls = plane_argmax(self.planes)
        cls += 1
        return cls


class LevelnessField:
    """Per-pixel level-selection logits as read-only contiguous (L+1, h, w)
    float32 `planes`, channel 0 background; the constructor takes (h, w, L+1)."""

    def __init__(self, logits: np.ndarray):
        logits = np.asarray(logits)
        if logits.ndim != 3 or logits.shape[2] < 2:
            raise ValueError("levelness logits must be (h, w, n_levels + 1)")
        self.planes = _readonly_planes(np.moveaxis(logits, 2, 0))
        if not np.isfinite(self.planes).all():
            raise ValueError("levelness logits must be finite")

    @property
    def shape(self) -> tuple[int, int]:
        return self.planes.shape[1:]

    @property
    def n_levels(self) -> int:
        return self.planes.shape[0] - 1

    def argmax_levels(self) -> np.ndarray:
        """Per-pixel selected level id (0 = background)."""
        return plane_argmax(self.planes)


def _readonly_planes(planes) -> np.ndarray:
    """Contiguous float32 planes behind a read-only view (the caller's array,
    when no copy was needed, stays writable)."""
    view = np.ascontiguousarray(planes, dtype=np.float32).view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class SegmentInfo:
    """One panoptic segment: instance id (0 for stuff), class, area, score."""

    segment_id: int
    class_id: int
    area: int
    score: float


def as_uint16(values, name: str) -> np.ndarray:
    """`values` as a contiguous uint16 array. Values that are not uint16 already
    must be integers in [0, 65535], since the cast would change any other."""
    arr = np.asarray(values)
    if arr.dtype != np.uint16:
        with np.errstate(invalid="ignore"):
            cast = arr.astype(np.uint16)
        if not np.array_equal(cast, arr):
            raise ValueError(f"{name} must hold integers in [0, 65535]")
        arr = cast
    return np.ascontiguousarray(arr)


@dataclass
class PanopticMap:
    """Joint per-pixel class and instance labeling plus its segment table.

    class_map/instance_map are uint16 (`as_uint16`); instance id 0 marks
    stuff and void pixels, thing pixels carry ids 1..K consistent with
    exactly one class.
    """

    class_map: np.ndarray
    instance_map: np.ndarray
    segments: list[SegmentInfo] = field(default_factory=list)

    def __post_init__(self):
        self.class_map = as_uint16(self.class_map, "class_map")
        self.instance_map = as_uint16(self.instance_map, "instance_map")
        if self.class_map.shape != self.instance_map.shape or self.class_map.ndim != 2:
            raise ValueError("class/instance maps must share a 2-d shape")

    @property
    def shape(self) -> tuple[int, int]:
        return self.class_map.shape

    def validate(self) -> Pairs:
        """Check id/class consistency and that segments mirror the maps.

        Stuff segments (id 0) are optional; each names a distinct class whose
        instance-0 pixel count is positive and equals its area. Returns the
        map's `label_counts` rows, for callers that check them further.
        """
        classes, ids, counts = label_counts(self.class_map, self.instance_map)
        if np.any((ids != 0) & (classes == 0)):
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
        stuff_areas: dict[int, int] = {}
        for cls, iid, cnt in zip(classes.tolist(), ids.tolist(), counts.tolist()):
            if iid == 0:
                stuff_areas[cls] = cnt
            elif iid in present:
                raise ValueError(f"instance id {iid} spans multiple classes")
            else:
                present[iid] = (cls, cnt)
        if set(present) != set(table):
            raise ValueError("segment table does not match instance ids in the map")
        for iid, (cls, cnt) in present.items():
            if (table[iid].class_id, table[iid].area) != (cls, cnt):
                raise ValueError(f"segment {iid} metadata disagrees with the maps")
        for cls, s in stuff.items():
            if cls == 0:
                raise ValueError("stuff segments must name a nonzero class")
            if cls not in stuff_areas:
                raise ValueError(f"stuff segment of class {cls} has no pixels in the map")
            if s.area != stuff_areas[cls]:
                raise ValueError(f"stuff segment of class {cls} has area {s.area}, the map {stuff_areas[cls]}")
        return classes, ids, counts


def segment_labels(class_map: np.ndarray, instance_map: np.ndarray) -> tuple[np.ndarray, int, int]:
    """Per-pixel segment label class * n_inst + instance of uint16 maps, n_inst =
    max instance + 1, with n_inst and the label count n; labels ascend in
    (class, instance) order, `divmod(label, n_inst)` is the pair, and they are
    uint16 whenever n fits, which halves the memory traffic."""
    n_inst = int(instance_map.max(initial=0)) + 1
    n = (int(class_map.max(initial=0)) + 1) * n_inst
    dtype = np.uint16 if n < 1 << 16 else np.uint32
    labels = np.multiply(class_map, dtype(n_inst), dtype=dtype)
    labels += instance_map
    return labels, n_inst, n


def segment_table(class_map: np.ndarray, instance_map: np.ndarray, instances: list[tuple[int, float]],
                  n_stuff: int, scale: int = 1) -> list[SegmentInfo]:
    """Instance k with (class, score) = instances[k - 1], then each stuff class present
    among instance-0 pixels with id 0 and score 1.0; areas are pixel counts * scale."""
    areas = [0] * (len(instances) + 1)
    stuff = []
    for cls, iid, cnt in zip(*(col.tolist() for col in label_counts(class_map, instance_map))):
        if iid == 0 and 1 <= cls <= n_stuff:
            stuff.append(SegmentInfo(segment_id=0, class_id=cls, area=cnt * scale, score=1.0))
        elif 0 < iid < len(areas):
            areas[iid] += cnt
    return [SegmentInfo(segment_id=k, class_id=cls, area=areas[k] * scale, score=score)
            for k, (cls, score) in enumerate(instances, start=1)] + stuff


# (a, b, pixel count) rows of a pair table, as integer arrays in ascending (a, b) order
Pairs = tuple[np.ndarray, np.ndarray, np.ndarray]


def pair_counts(a: np.ndarray, na: int, b: np.ndarray, nb: int) -> Pairs:
    """Distinct (a, b) pairs of two equal-shape unsigned id maps, a in [0, na) and
    b in [0, nb), with their pixel counts; na and nb are at most 2**32.

    When the dense na x nb table has no more cells than the maps have pixels
    (and fewer than 2**32), one bincount counts the pairs run by run, where a
    run ends wherever either map changes value: segment maps are mostly long
    runs, so a 1024x2048 frame has about 78k runs to count, not 2M pixels, and
    only the runs' joint ids a * nb + b are formed. Otherwise (sparse or high
    ids, many classes) one uint64 joint is sorted.
    """
    cells = na * nb
    if cells <= min(a.size, 2 ** 32 - 1):
        a, b = a.ravel(), b.ravel()
        change = a[1:] != a[:-1]
        change |= b[1:] != b[:-1]
        starts = np.r_[0, np.flatnonzero(change) + 1]
        runs = np.diff(starts, append=a.size)
        joint = a[starts].astype(np.int64) * nb + b[starts]
        counts = np.bincount(joint, weights=runs, minlength=cells).astype(np.int64)
        cell = np.flatnonzero(counts)
        return cell // nb, cell % nb, counts[cell]
    joint = a.astype(np.uint64) << np.uint64(32)
    joint |= b.astype(np.uint64)
    uniq, counts = np.unique(joint, return_counts=True)
    return uniq >> np.uint64(32), uniq & np.uint64(0xFFFFFFFF), counts


def label_counts(class_map: np.ndarray, instance_map: np.ndarray) -> Pairs:
    """(class, instance, pixel count) rows of a labeling of unsigned id maps,
    one per distinct pair, in ascending (class, instance) order."""
    return pair_counts(class_map, int(class_map.max(initial=0)) + 1,
                       instance_map, int(instance_map.max(initial=0)) + 1)


def check_labels(classes: np.ndarray, instances: np.ndarray, n_stuff: int, n_things: int, where) -> None:
    """Raise ValueError if a class id exceeds n_stuff + n_things or a thing class lies
    on instance 0 (PQ would score a thing that no instance owns). classes and
    instances are pixel maps or the rows of a pair table; `where` names them."""
    if classes.max(initial=0) > n_stuff + n_things:
        raise ValueError(f"{where}: class id {classes.max()} exceeds n_stuff + n_things = {n_stuff + n_things}")
    orphan = classes[(instances == 0) & (classes > n_stuff)]
    if orphan.size:
        raise ValueError(f"{where} has thing class {orphan[0]} on instance 0 (n_stuff = {n_stuff}); "
                         "thing-class pixels must belong to an instance")


@dataclass
class DensePrediction:
    """Everything one scene's dense head would emit, in one container.

    The quarter-resolution logits are copied once into read-only float32
    (C, h, w) planes, which losses and construction read as they are; the
    `*_logits` fields are (h, w, C) views of them, and `levelness_field()` is
    the one field, checked at construction. image_hw is the full resolution.
    """

    levels: list[DenseBoxLevel]
    semantic_logits: np.ndarray
    levelness_logits: np.ndarray
    specs: list[LevelSpec]
    n_stuff: int
    n_things: int
    image_hw: tuple[int, int]

    def __post_init__(self):
        for name in ("semantic_logits", "levelness_logits"):
            planes = np.array(np.moveaxis(np.asarray(getattr(self, name)), -1, 0), np.float32, order="C")
            setattr(self, name, np.moveaxis(_readonly_planes(planes), 0, -1))
        h, w = self.image_hw
        if h % 4 or w % 4:
            raise ValueError("image size must be divisible by 4")
        if self.n_stuff < 0 or self.n_things < 0:
            raise ValueError("class counts must be nonnegative")
        q = (h // 4, w // 4)
        if self.semantic_logits.shape != (*q, self.n_stuff + self.n_things):
            raise ValueError(f"semantic logits shape {self.semantic_logits.shape} mismatch")
        if self.levelness_logits.shape != (*q, len(self.levels) + 1):
            raise ValueError(f"levelness logits shape {self.levelness_logits.shape} mismatch")
        if not np.isfinite(self.semantic_logits).all():
            raise ValueError("semantic logits must be finite")
        if len(self.levels) != len(self.specs):
            raise ValueError("one spec per level required")
        validate_level_specs(self.specs)
        for i, (lv, spec) in enumerate(zip(self.levels, self.specs)):
            if lv.stride != spec.stride:
                raise ValueError("level stride disagrees with its spec")
            if lv.shape != (h // spec.stride, w // spec.stride):
                raise ValueError("level grid must be image size over stride")
            if lv.n_thing_classes != self.n_things:
                raise ValueError("level class channels must equal n_things")
            off = lv.offsets
            with np.errstate(over="ignore", invalid="ignore"):  # an area that overflows overflows every IoU
                area = (off[..., 0] + off[..., 2]) * (off[..., 1] + off[..., 3])
            if not np.isfinite(area).all():
                raise ValueError(f"tensor 'level{i}_offsets' must be offsets with a finite box area (l + r) * (t + b)")
        self._levelness = LevelnessField(self.levelness_logits)

    def semantic_field(self) -> SemanticField:
        """The softmax of the logits, unchecked (see `SemanticField._softmax_of`)."""
        return SemanticField._softmax_of(self.semantic_logits)

    def levelness_field(self) -> LevelnessField:
        return self._levelness


def upsample_nearest(grid: np.ndarray, factor: int) -> np.ndarray:
    """Nearest-neighbor upsampling by an integer factor along the first two axes.

    Works for (h, w) and (h, w, c) arrays; the result is always a new,
    writable array, an identical copy at factor 1.
    """
    if factor < 1 or int(factor) != factor:
        raise ValueError("factor must be a positive integer")
    grid = np.asarray(grid)
    if grid.ndim not in (2, 3):
        raise ValueError("expected a (h, w) or (h, w, c) array")
    # widen the rows first, then copy each widened row `factor` times:
    # about twice as fast as repeating along both axes
    cols = np.repeat(grid, factor, axis=1)  # always a new array
    if factor == 1:
        return cols
    h, rest = cols.shape[0], cols.shape[1:]
    out = np.empty((h, factor, *rest), dtype=cols.dtype)
    out[...] = cols[:, None]
    return out.reshape(h * factor, *rest)


def softmax_field(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax of float logits along the last axis,
    preserving dtype, as a view of contiguous channel planes.

    One planar copy of the logits (a plain copy of the planes that
    `DensePrediction` holds) is the only buffer of C channels: max,
    subtraction, exp and division run on it plane by plane, in place. The
    result is bitwise the per-pixel formula on the (..., C) layout: the max
    is exact in any order, and `plane_sum` repeats numpy's summation order.
    """
    planes = np.moveaxis(np.asarray(logits), -1, 0).copy()
    planes -= planes.max(axis=0)
    np.exp(planes, out=planes)
    planes /= plane_sum(planes)
    return np.moveaxis(planes, 0, -1)


# numpy's pairwise summation (loops_utils.h) sums at most this many elements
# with eight accumulators before it splits in two
_PAIRWISE_BLOCK = 128


def plane_sum(planes: np.ndarray, dtype=None) -> np.ndarray:
    """Sum of the planes along axis 0, bitwise equal to `np.sum(x, axis=-1,
    dtype=dtype)` of the same data laid out as (..., C).

    numpy sums a short contiguous axis pairwise, not sequentially: below 8
    elements in order; up to 128 in eight accumulators strided by 8, combined
    as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the remainder in order;
    above 128 it splits at n//2 rounded down to a multiple of 8 and recurses.
    The result is added to the identity 0.0, as numpy's reduction does, which
    turns a -0.0 sum into 0.0. Each step here is one whole-plane operation.
    tests/test_fields.py pins this to np.sum at 1-140 channels.
    """
    planes = np.asarray(planes)
    dtype = planes.dtype if dtype is None else np.dtype(dtype)
    out = _pairwise_planes(planes, 0, len(planes), dtype)
    if len(planes) >= 8:
        out += 0.0
    return out


def _pairwise_planes(planes: np.ndarray, lo: int, n: int, dtype) -> np.ndarray:
    if n < 8:
        out = np.add(planes[lo], 0.0, dtype=dtype) if n else np.zeros(planes.shape[1:], dtype)
        for c in range(lo + 1, lo + n):
            out += planes[c]
        return out
    if n <= _PAIRWISE_BLOCK:
        r = planes[lo:lo + 8].astype(dtype)
        end = n - n % 8
        for i in range(lo + 8, lo + end, 8):
            r += planes[i:i + 8]
        out = r[0] + r[1]
        out += r[2] + r[3]
        right = r[4] + r[5]
        right += r[6] + r[7]
        out += right
        for c in range(lo + end, lo + n):
            out += planes[c]
        return out
    half = n // 2
    half -= half % 8
    out = _pairwise_planes(planes, lo, half, dtype)
    out += _pairwise_planes(planes, lo + half, n - half, dtype)
    return out


def plane_argmax(planes: np.ndarray) -> np.ndarray:
    """Index of the largest plane at each position, the first on ties, as
    uint16: `np.argmax(x, axis=-1)` of the same NaN-free data as (..., C).

    Counts, per position, the planes before the first one equal to the
    maximum, which is where a strict `>` scan would stop.
    """
    if not 1 <= len(planes) <= 1 << 16:
        raise ValueError("plane_argmax needs 1 to 65536 planes")
    top = planes.max(axis=0)
    found = planes[0] == top
    out = np.zeros(top.shape, dtype=np.uint16)
    for c in range(1, len(planes)):
        np.add(out, ~found, out=out)
        found |= planes[c] == top
    return out
