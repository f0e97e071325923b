"""Deterministic synthetic scenes and analytically ideal dense predictions.

Scenes are built on an 8-px block grid: stuff background bands, then
instances painted in order (later paint occludes earlier), then per-instance
tight visible boxes. Block alignment with bounded instance spans keeps every
foreground target on the finest pyramid level and makes the full pipeline
reconstruct the ground truth exactly, which the acceptance suite relies on.

The "centered" scene family places small even-span rectangles exactly on
stride-8 receptive centers with pairwise-disjoint boxes: each instance then
owns exactly one foreground location whose centerness is exactly 1, the
configuration under which every loss evaluates to exactly zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .assignment import GroundTruthScene, build_targets, owner_offsets
from .fields import (
    DenseBoxLevel,
    DensePrediction,
    LevelSpec,
    PanopticMap,
    segment_table,
    upsample_nearest,
)
from .geometry import box_iou, centerness

BLOCK = 8
ONE_HOT_MARGIN = 1000.0
SHAPES = ("rectangle", "ellipse")
_SCENE_ATTEMPTS = 64
_PLACE_ATTEMPTS = 200
# every instance needs a stride-8 centre whose centerness clears this score
MIN_QUERY_SCORE = 0.05


@dataclass(frozen=True)
class SceneConfig:
    """Synthetic scene parameters.

    width/height must be divisible by 128. max_same_class_iou bounds the
    pairwise IoU of visible tight boxes within a class (keep it at or below
    the downstream mask threshold for exact-recovery scenes);
    max_cross_class_iou of 0.0 forces all boxes pairwise disjoint and None
    leaves cross-class overlap free. min_stuff_area, when positive, forces
    every visible stuff region to keep at least that many full-resolution
    pixels. centered switches to the exact-centerness family described in
    the module docstring.
    """

    width: int = 512
    height: int = 512
    instances: int = 5
    thing_classes: int = 3
    stuff_classes: int = 3
    max_same_class_iou: float = 0.3
    max_cross_class_iou: float | None = None
    shape: str = "rectangle"
    min_size: int = 16
    max_size: int = 56
    centered: bool = False
    min_stuff_area: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.width % 128 or self.height % 128:
            raise ValueError("width and height must be divisible by 128")
        if self.instances < 0:
            raise ValueError("instances must be nonnegative")
        if self.thing_classes < 1 or self.stuff_classes < 1:
            raise ValueError("at least one thing and one stuff class required")
        if not 0 <= self.max_same_class_iou <= 1:
            raise ValueError("max_same_class_iou must be in [0, 1]")
        if self.max_cross_class_iou is not None and not 0 <= self.max_cross_class_iou <= 1:
            raise ValueError("max_cross_class_iou must be in [0, 1]")
        if self.shape not in SHAPES:
            raise ValueError(f"shape must be one of {SHAPES}")
        if not BLOCK <= self.min_size <= self.max_size:
            raise ValueError("need 8 <= min_size <= max_size")
        if self.max_size > min(self.width, self.height):
            raise ValueError("max_size exceeds the image")
        if self.min_stuff_area < 0:
            raise ValueError("min_stuff_area must be nonnegative")


@dataclass(frozen=True)
class NoiseConfig:
    """Seeded prediction degradation; zero everywhere is the identity."""

    offset_std: float = 0.0
    semantic_flip_prob: float = 0.0
    centerness_std: float = 0.0
    levelness_flip_prob: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("offset_std", "semantic_flip_prob", "centerness_std", "levelness_flip_prob"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(f"noise {name} must be a finite number >= 0, got {value}")
        if max(self.semantic_flip_prob, self.levelness_flip_prob) > 1:
            raise ValueError("flip probabilities must be at most 1")


def _boxes_overlap(a, b) -> np.ndarray:
    """Whether closed pixel boxes (..., 4) share at least one pixel, elementwise."""
    return ((a[..., 0] <= b[..., 2]) & (b[..., 0] <= a[..., 2])
            & (a[..., 1] <= b[..., 3]) & (b[..., 1] <= a[..., 3]))


def _cap_violations(cfg: SceneConfig, a, ca, b, cb) -> np.ndarray:
    """Where boxes a (..., 4) of classes ca and b of classes cb, broadcast together,
    break the overlap cap of their class pair: a cap of 0 forbids any shared pixel,
    a positive cap an IoU above cap - 1e-6 (which keeps float32 IoU within the cap)."""
    same = ca == cb
    iou = box_iou(a, b)
    out = np.zeros(iou.shape, dtype=bool)
    for cap, pairs in ((cfg.max_same_class_iou, same), (cfg.max_cross_class_iou, ~same)):
        if cap is not None:
            out |= pairs & (_boxes_overlap(a, b) if cap == 0 else iou > cap - 1e-6)
    return out


def _stuff_bands(rng: np.random.Generator, hb: int, n_stuff: int) -> np.ndarray:
    """Per-block-row stuff class ids, every class appearing at least once."""
    if n_stuff > hb:
        raise ValueError("too many stuff classes for the image height")
    if n_stuff == 1:
        return np.ones(hb, dtype=np.uint16)
    cuts = np.sort(rng.choice(np.arange(1, hb), size=n_stuff - 1, replace=False))
    order = rng.permutation(n_stuff) + 1
    rows = np.empty(hb, dtype=np.uint16)
    start = 0
    for band, stop in enumerate(list(cuts) + [hb]):
        rows[start:stop] = order[band]
        start = stop
    return rows


def _block_shape_mask(shape: str, wb: int, hb: int) -> np.ndarray:
    """Filled block mask of the requested shape with tight wb x hb extent."""
    if shape == "rectangle":
        return np.ones((hb, wb), dtype=bool)
    yy, xx = np.ogrid[:hb, :wb]
    cx, cy = (wb - 1) / 2.0, (hb - 1) / 2.0
    rx, ry = wb / 2.0, hb / 2.0
    return ((xx - cx) / rx) ** 2 + ((yy - cy) / ry) ** 2 <= 1.0


def _tight_box_blocks(mask_b: np.ndarray) -> tuple[int, int, int, int]:
    ys, xs = np.nonzero(mask_b)
    return (int(xs.min()) * BLOCK, int(ys.min()) * BLOCK,
            int(xs.max()) * BLOCK + BLOCK - 1, int(ys.max()) * BLOCK + BLOCK - 1)


def _try_blocks(cfg: SceneConfig, rng: np.random.Generator):
    """One attempt at a block-aligned scene; None when placement fails."""
    hb, wb = cfg.height // BLOCK, cfg.width // BLOCK
    stuff_rows = _stuff_bands(rng, hb, cfg.stuff_classes)
    inst_b = np.zeros((hb, wb), dtype=np.uint16)
    classes = np.zeros(cfg.instances, dtype=np.uint16)
    amodal_boxes = np.zeros((cfg.instances, 4))
    lo_b, hi_b = max(2, cfg.min_size // BLOCK), cfg.max_size // BLOCK
    for k in range(cfg.instances):
        placed = False
        for _ in range(_PLACE_ATTEMPTS):
            bw = int(rng.integers(lo_b, hi_b + 1))
            bh = int(rng.integers(lo_b, hi_b + 1))
            x0 = int(rng.integers(0, wb - bw + 1))
            y0 = int(rng.integers(0, hb - bh + 1))
            cls = int(cfg.stuff_classes + 1 + rng.integers(cfg.thing_classes))
            box = np.array((x0 * BLOCK, y0 * BLOCK, (x0 + bw) * BLOCK - 1, (y0 + bh) * BLOCK - 1))
            if not _cap_violations(cfg, box, cls, amodal_boxes[:k], classes[:k]).any():
                mask_b = _block_shape_mask(cfg.shape, bw, bh)
                inst_b[y0:y0 + bh, x0:x0 + bw][mask_b] = k + 1
                classes[k] = cls
                amodal_boxes[k] = box
                placed = True
                break
        if not placed:
            return None
    return stuff_rows, inst_b, classes


def _try_centered(cfg: SceneConfig, rng: np.random.Generator):
    """One attempt at the exact-centerness family (disjoint even rectangles)."""
    hb, wb = cfg.height // BLOCK, cfg.width // BLOCK
    stuff_rows = _stuff_bands(rng, hb, cfg.stuff_classes)
    classes = np.zeros(cfg.instances, dtype=np.uint16)
    boxes = []
    spans = [6, 8, 10]
    for k in range(cfg.instances):
        placed = False
        for _ in range(_PLACE_ATTEMPTS):
            sx = int(rng.choice(spans))
            sy = int(rng.choice(spans))
            ix = int(rng.integers(1, wb - 1))
            iy = int(rng.integers(1, hb - 1))
            cx, cy = 4 + 8 * ix, 4 + 8 * iy
            box = (cx - sx // 2, cy - sy // 2, cx + sx // 2, cy + sy // 2)
            if _boxes_overlap(np.array(box), np.array([b for b, _ in boxes]).reshape(-1, 4)).any():
                continue
            cls = int(cfg.stuff_classes + 1 + rng.integers(cfg.thing_classes))
            boxes.append((box, cls))
            classes[k] = cls
            placed = True
            break
        if not placed:
            return None
    return stuff_rows, boxes, classes


def _scene_from_maps(cfg, class_map, inst_map, boxes, classes) -> GroundTruthScene:
    pmap = PanopticMap(class_map=class_map, instance_map=inst_map, segments=segment_table(
        class_map, inst_map, [(c, 1.0) for c in classes.tolist()], cfg.stuff_classes))
    return GroundTruthScene(panoptic=pmap, boxes=np.asarray(boxes, dtype=np.float32).reshape(-1, 4),
                            instance_classes=classes, n_stuff=cfg.stuff_classes,
                            n_things=cfg.thing_classes)


def _verify(cfg: SceneConfig, scene: GroundTruthScene) -> bool:
    """Post-paint checks: query reachability, separation, stuff area.

    An instance is reachable when some stride-8 centre it owns clears
    MIN_QUERY_SCORE; an instance left without pixels owns no centre.
    """
    _, _, ids, off = owner_offsets(scene.panoptic.instance_map, scene.boxes, 8)
    best = np.zeros(scene.n_instances)
    np.maximum.at(best, ids - 1, centerness(off))
    if (best < MIN_QUERY_SCORE + 1e-3).any():
        return False
    cls = scene.instance_classes
    if np.triu(_cap_violations(cfg, scene.boxes[:, None], cls[:, None], scene.boxes[None], cls[None]), 1).any():
        return False
    return all(s.segment_id or s.area >= cfg.min_stuff_area for s in scene.panoptic.segments)


def generate_scene(cfg: SceneConfig) -> GroundTruthScene:
    """Build one deterministic scene; raises after bounded placement retries.

    Stuff bands partition the background into horizontal stripes; instances
    are painted in index order, so later instances occlude earlier ones and
    visible masks need not be rectangles. Boxes are tight boxes of the
    visible masks. The whole construction is a pure function of cfg.
    """
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    for _ in range(_SCENE_ATTEMPTS):
        got = _try_centered(cfg, rng) if cfg.centered else _try_blocks(cfg, rng)
        if got is None:
            continue
        stuff_rows, painted, classes = got
        class_rows = np.repeat(stuff_rows, BLOCK)
        class_map = np.repeat(class_rows[:, None], cfg.width, axis=1).astype(np.uint16)
        if cfg.centered:
            inst_map = np.zeros((cfg.height, cfg.width), dtype=np.uint16)
            boxes = [box for box, _ in painted]
            for k, (x1, y1, x2, y2) in enumerate(boxes):
                inst_map[y1:y2 + 1, x1:x2 + 1] = k + 1
        else:
            if not np.bincount(painted.ravel(), minlength=cfg.instances + 1)[1:].all():
                continue  # a later instance hid an earlier one completely
            inst_map = upsample_nearest(painted, BLOCK)
            boxes = [_tight_box_blocks(painted == k + 1) for k in range(cfg.instances)]
        owned = inst_map > 0
        class_map[owned] = classes[inst_map[owned] - 1]
        scene = _scene_from_maps(cfg, class_map, inst_map, boxes, classes)
        if _verify(cfg, scene):
            return scene
    raise ValueError("could not place instances under the separation constraints; "
                     "relax the overlap caps or reduce instance count/size")


def ideal_predictions(scene: GroundTruthScene, specs: list[LevelSpec], mode: str = "full") -> DensePrediction:
    """Dense predictions that encode the ground truth exactly.

    Foreground locations carry the owning instance's box offsets, class
    probability 1 and target centerness; everything else is zero. Semantic
    and levelness fields are one-hot realized as large-margin logits so the
    softmax is exactly one-hot. mode selects full (mask) or weak (box-only)
    foreground assignment.
    """
    level_targets, global_targets = build_targets(scene, specs, mode)
    levels = []
    for t in level_targets:
        gh, gw = t.centerness.shape
        probs = np.zeros((gh, gw, scene.n_things), dtype=np.float32)
        yy, xx = np.nonzero(t.foreground)
        if yy.size:
            ch = t.class_ids[yy, xx].astype(np.int64) - scene.n_stuff - 1
            probs[yy, xx, ch] = 1.0
        levels.append(DenseBoxLevel(stride=t.stride, offsets=t.offsets,
                                    class_probs=probs, centerness=t.centerness))
    qh, qw = global_targets.semantics.shape
    n_classes = scene.n_stuff + scene.n_things
    sem_logits = np.zeros((qh, qw, n_classes), dtype=np.float32)
    sem = global_targets.semantics.astype(np.int64)
    labeled = sem > 0
    yy, xx = np.nonzero(labeled)
    sem_logits[yy, xx, sem[yy, xx] - 1] = ONE_HOT_MARGIN
    lev_logits = np.zeros((qh, qw, len(specs) + 1), dtype=np.float32)
    lev = global_targets.levelness.astype(np.int64)
    np.put_along_axis(lev_logits, lev[:, :, None], ONE_HOT_MARGIN, axis=2)
    return DensePrediction(levels=levels, semantic_logits=sem_logits,
                           levelness_logits=lev_logits, specs=list(specs),
                           n_stuff=scene.n_stuff, n_things=scene.n_things,
                           image_hw=(scene.height, scene.width))


def _swap_channels(logits: np.ndarray, rng: np.random.Generator, prob: float) -> np.ndarray:
    """Swap each pixel's argmax channel with a random other, with probability prob."""
    out = logits.copy()
    if prob <= 0:
        return out
    h, w, n = out.shape
    flip = rng.random((h, w)) < prob
    delta = rng.integers(1, n, size=(h, w))
    yy, xx = np.nonzero(flip)
    if yy.size == 0:
        return out
    cur = np.argmax(out[yy, xx], axis=1)
    new = (cur + delta[yy, xx]) % n
    a = out[yy, xx, cur].copy()
    out[yy, xx, cur] = out[yy, xx, new]
    out[yy, xx, new] = a
    return out


def perturb(pred: DensePrediction, noise: NoiseConfig) -> DensePrediction:
    """Seeded degradation of a prediction bundle; the input is left untouched.

    Offsets get Gaussian jitter clamped at 0, centerness gets Gaussian noise
    clamped to [0, 1], semantic and levelness argmaxes flip to a uniformly
    random other channel with the configured probabilities (distributions
    stay normalized because channels are swapped, not overwritten).
    """
    rng = np.random.Generator(np.random.PCG64(noise.seed))
    levels = []
    for lv in pred.levels:
        off = lv.offsets.copy()
        if noise.offset_std > 0:
            off = np.clip(off + rng.normal(0.0, noise.offset_std, off.shape), 0.0, None)
        cent = lv.centerness.copy()
        if noise.centerness_std > 0:
            cent = np.clip(cent + rng.normal(0.0, noise.centerness_std, cent.shape), 0.0, 1.0)
        levels.append(DenseBoxLevel(stride=lv.stride, offsets=off.astype(np.float32),
                                    class_probs=lv.class_probs.copy(),
                                    centerness=cent.astype(np.float32)))
    sem = _swap_channels(pred.semantic_logits, rng, noise.semantic_flip_prob)
    lev = _swap_channels(pred.levelness_logits, rng, noise.levelness_flip_prob)
    return DensePrediction(levels=levels, semantic_logits=sem, levelness_logits=lev,
                           specs=list(pred.specs), n_stuff=pred.n_stuff,
                           n_things=pred.n_things, image_hw=pred.image_hw)
