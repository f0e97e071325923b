"""Instance mask construction and panoptic fusion.

A query's mask probability at a pixel is the product of a location term (IoU
between the pixel's predicted global box and the query box) and a semantic
term (the pixel's probability of the query's class). Masks are the strict
threshold of that product. Fusion claims pixels greedily by query score and
fills the rest from the semantic field.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .fields import GlobalBoxField, PanopticMap, SegmentInfo, SemanticField, upsample_nearest
from .geometry import iou_grid
from .selection import QuerySet, location_probability_maxlevel


def location_probability(field: GlobalBoxField, box) -> np.ndarray:
    """IoU of every pixel's predicted box against a query box, (h, w) float32.

    `box` is (x1, y1, x2, y2) as Python floats. Background pixels hold
    degenerate point boxes and therefore score 0.
    """
    return iou_grid(field.boxes, box)


def mask_probability(
    p_loc: np.ndarray,
    semantics: SemanticField,
    class_id: int,
    n_stuff: int,
) -> np.ndarray:
    """Combine location and semantic evidence for one query, (h, w) float32.

    class_id must be a thing class (> n_stuff) present in the semantic field.
    """
    if not n_stuff < class_id <= semantics.n_classes:
        raise ValueError(f"class {class_id} is not a thing class (n_stuff={n_stuff})")
    if p_loc.shape != semantics.shape:
        raise ValueError("location map and semantic field shapes differ")
    return p_loc * semantics.probs[:, :, class_id - 1]


def threshold_mask(probs: np.ndarray, sigma: float = 0.3) -> np.ndarray:
    """Boolean mask of pixels with probability strictly above sigma."""
    if not 0 < sigma < 1:
        raise ValueError("sigma must lie in (0, 1)")
    return probs > sigma


def construct_masks(
    queries: QuerySet,
    semantics: SemanticField,
    n_stuff: int,
    sigma: float = 0.3,
    global_boxes: GlobalBoxField | None = None,
    levels=None,
    threads: int = 1,
) -> np.ndarray:
    """Instance masks for every query, (M, h, w) bool in query order.

    Location probabilities come from the assembled global box field when
    given, otherwise from the per-level maximum over `levels`. Queries are
    independent, so they are distributed over a thread pool; each thread
    writes a disjoint preallocated slice, making the result identical for
    any thread count.
    """
    if (global_boxes is None) == (levels is None):
        raise ValueError("exactly one of global_boxes or levels is required")
    if threads < 1:
        raise ValueError("threads must be positive")
    if global_boxes is not None and global_boxes.shape != semantics.shape:
        raise ValueError("box field and semantic field shapes differ")
    h, w = semantics.shape
    out = np.zeros((len(queries), h, w), dtype=bool)

    boxes = queries.boxes.tolist()
    classes = queries.classes.tolist()

    def one(i: int) -> None:
        if global_boxes is not None:
            p = location_probability(global_boxes, boxes[i])
        else:
            p = location_probability_maxlevel(levels, boxes[i])
        out[i] = threshold_mask(mask_probability(p, semantics, classes[i], n_stuff), sigma)

    if threads == 1 or len(queries) <= 1:
        for i in range(len(queries)):
            one(i)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(one, range(len(queries))))
    return out


def fuse_panoptic(
    masks: np.ndarray,
    queries: QuerySet,
    semantics: SemanticField,
    n_stuff: int,
    stuff_area_min: int = 4096,
    upsample: int = 4,
) -> PanopticMap:
    """Merge instance masks and semantics into one panoptic labeling.

    Queries must arrive in descending score order; each claims its still-free
    mask pixels (instance ids follow claim order from 1, empty claims produce
    no segment). Unclaimed pixels take the semantic argmax; those landing on
    a thing class become void. Stuff classes whose full-resolution area
    (pixel count * upsample^2) falls below stuff_area_min are voided. The
    fused maps are upsampled by `upsample`; segment areas count
    full-resolution pixels and stuff segments carry id 0, score 1.0.
    """
    if len(masks) != len(queries):
        raise ValueError("one mask per query required")
    if upsample < 1:
        raise ValueError("upsample must be positive")
    if stuff_area_min < 0:
        raise ValueError("stuff_area_min must be nonnegative")
    scores = queries.scores
    if np.any(scores[1:] > scores[:-1]):
        raise ValueError("queries must be ordered by descending score")
    h, w = semantics.shape
    if masks.shape[1:] != (h, w):
        raise ValueError("mask and semantic shapes differ")
    if np.any(queries.classes <= n_stuff):
        raise ValueError("queries must carry thing classes")
    class_map = np.zeros((h, w), dtype=np.uint16)
    inst_map = np.zeros((h, w), dtype=np.uint16)
    claimed = np.zeros((h, w), dtype=bool)
    claims: list[tuple[int, float]] = []  # (class id, score) of instance id k at index k - 1
    for i, (cls, score) in enumerate(zip(queries.classes.tolist(), scores.tolist())):
        take = masks[i] & ~claimed
        if not take.any():
            continue
        claims.append((cls, score))
        class_map[take] = cls
        inst_map[take] = len(claims)
        claimed |= take

    free = ~claimed
    if free.any():
        sem_cls = semantics.argmax_classes()
        fill = np.where(sem_cls <= n_stuff, sem_cls, 0).astype(np.uint16)
        class_map[free] = fill[free]
    factor2 = upsample * upsample
    if n_stuff:
        counts = np.bincount(class_map[class_map <= n_stuff].ravel(), minlength=n_stuff + 1)
        for c in range(1, n_stuff + 1):
            if counts[c] and counts[c] * factor2 < stuff_area_min:
                kill = (class_map == c) & (inst_map == 0)
                class_map[kill] = 0

    class_full = upsample_nearest(class_map, upsample)
    inst_full = upsample_nearest(inst_map, upsample)
    inst_areas = np.bincount(inst_map.ravel(), minlength=len(claims) + 1)
    final = [SegmentInfo(segment_id=k, class_id=cls, area=int(inst_areas[k]) * factor2, score=score)
             for k, (cls, score) in enumerate(claims, start=1)]
    stuff_counts = np.bincount(class_map[inst_map == 0].ravel(), minlength=n_stuff + 1)
    for c in range(1, n_stuff + 1):
        if stuff_counts[c]:
            final.append(SegmentInfo(segment_id=0, class_id=c,
                                     area=int(stuff_counts[c]) * factor2, score=1.0))
    return PanopticMap(class_map=class_full, instance_map=inst_full, segments=final)
