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

from .fields import GlobalBoxField, PanopticMap, SemanticField, segment_table, upsample_nearest
from .geometry import _area, _iou_grid_from_areas, iou_windows
from .selection import QuerySet, resample_level_boxes


def _max_iou(box_fields: list[np.ndarray], areas: list[np.ndarray], box) -> np.ndarray:
    """Per-pixel maximum IoU of the boxes of every (h, w, 4) field against one
    query box, (h, w) float32, given each field's box areas.

    `box_fields` holds the assembled global field, or every pyramid level
    resampled to quarter resolution. `box` is (x1, y1, x2, y2) as Python
    floats. Degenerate point boxes score 0.
    """
    out = _iou_grid_from_areas(box_fields[0], areas[0], box)
    for boxes, area in zip(box_fields[1:], areas[1:]):
        np.maximum(out, _iou_grid_from_areas(boxes, area, box), out=out)
    return out


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
    given, otherwise from the per-level maximum over `levels`, whose boxes
    are resampled to the semantic grid once per call; box areas are also
    computed once per call and sliced per window. Each query is scored
    only inside its `iou_windows` window, outside which no pixel has a
    positive IoU with it; the rest of its mask stays False. Queries are
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
    if not 0 < sigma < 1:
        raise ValueError("sigma must lie in (0, 1)")
    bad = (queries.classes <= n_stuff) | (queries.classes > semantics.n_classes)
    if bad.any():
        raise ValueError(f"class {queries.classes[bad][0]} is not a thing class (n_stuff={n_stuff})")
    h, w = semantics.shape
    out = np.zeros((len(queries), h, w), dtype=bool)

    if global_boxes is not None:
        box_fields = [global_boxes.boxes]
    else:
        box_fields = [resample_level_boxes(lv, (h, w)) for lv in levels]
    if not len(queries):
        return out
    windows = iou_windows(box_fields, queries.boxes)
    areas = [_area(f) for f in box_fields]
    boxes = queries.boxes.tolist()
    channels = (queries.classes - 1).tolist()

    def one(i: int) -> None:
        ys, xs = windows[i]
        p = _max_iou([f[ys, xs] for f in box_fields], [a[ys, xs] for a in areas], boxes[i])
        p *= semantics.planes[channels[i], ys, xs]
        out[i, ys, xs] = p > sigma

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
) -> PanopticMap:
    """Merge instance masks and semantics into one panoptic labeling.

    Queries must arrive in descending score order; each claims its still-free
    mask pixels (instance ids follow claim order from 1, empty claims produce
    no segment). Unclaimed pixels take the semantic argmax; those landing on
    a thing class become void. The fused quarter-resolution maps are
    upsampled 4x to full resolution; segment areas count full-resolution
    pixels (quarter pixels * 16), stuff classes whose area falls below
    stuff_area_min are voided, and stuff segments carry id 0, score 1.0.
    """
    if len(masks) != len(queries):
        raise ValueError("one mask per query required")
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
    # each query claims inside its mask's bounding rectangle only
    rows, cols = masks.any(axis=2), masks.any(axis=1)
    for i, (cls, score) in enumerate(zip(queries.classes.tolist(), scores.tolist())):
        r, c = np.flatnonzero(rows[i]), np.flatnonzero(cols[i])
        if not r.size:
            continue
        ys, xs = slice(r[0], r[-1] + 1), slice(c[0], c[-1] + 1)
        take = masks[i, ys, xs] & ~claimed[ys, xs]
        if not take.any():
            continue
        claims.append((cls, score))
        class_map[ys, xs][take] = cls
        inst_map[ys, xs][take] = len(claims)
        claimed[ys, xs] |= take

    free = ~claimed
    if free.any():
        sem_cls = semantics.argmax_classes()
        fill = np.where(sem_cls <= n_stuff, sem_cls, 0).astype(np.uint16)
        class_map[free] = fill[free]
    segments = segment_table(class_map, inst_map, claims, n_stuff, scale=16)
    for s in segments:  # claimed pixels carry thing classes, so a stuff class lies on instance 0 only
        if s.segment_id == 0 and s.area < stuff_area_min:
            class_map[class_map == s.class_id] = 0
    segments = [s for s in segments if s.segment_id or s.area >= stuff_area_min]
    return PanopticMap(class_map=upsample_nearest(class_map, 4),
                       instance_map=upsample_nearest(inst_map, 4), segments=segments)
