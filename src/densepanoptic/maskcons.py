"""Instance mask construction and panoptic fusion.

A query's mask probability at a pixel is the product of a location term (IoU
between the pixel's predicted global box and the query box) and a semantic
term (the pixel's probability of the query's class). Masks are the strict
threshold of that product. Fusion starts from the semantic fill and lets
queries claim pixels over it greedily by score.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .fields import PanopticMap, SemanticField, segment_table, upsample_nearest
from .geometry import _area, _max_iou, box_field, iou_windows
from .selection import QuerySet, resample_level_boxes


def construct_masks(
    queries: QuerySet,
    semantics: SemanticField,
    n_stuff: int,
    sigma: float = 0.3,
    global_boxes: np.ndarray | None = None,
    levels=None,
    threads: int = 1,
) -> np.ndarray:
    """Instance masks for every query, (M, h, w) bool in query order.

    Location probabilities come from the assembled (h, w, 4) global box
    field when given (a NaN coordinate raises, see `box_field`), otherwise
    from the per-level maximum over `levels`, whose boxes are resampled to
    the semantic grid once per call; box areas are also computed once per
    call and sliced per window. Each query is scored only inside its
    `iou_windows` window, outside which no pixel has a positive IoU with it;
    the rest of its mask stays False. Queries are independent, so `threads`
    workers each take one contiguous run of queries and write its disjoint
    preallocated slices, making the result identical for any thread count.
    """
    if (global_boxes is None) == (levels is None):
        raise ValueError("exactly one of global_boxes or levels is required")
    if threads < 1:
        raise ValueError("threads must be positive")
    if global_boxes is not None:
        global_boxes = box_field(global_boxes)
        if global_boxes.shape[:2] != semantics.shape:
            raise ValueError("box field and semantic field shapes differ")
    if not 0 < sigma < 1:
        raise ValueError("sigma must lie in (0, 1)")
    bad = (queries.classes <= n_stuff) | (queries.classes > semantics.n_classes)
    if bad.any():
        raise ValueError(f"class {queries.classes[bad][0]} is not a thing class (n_stuff={n_stuff})")
    h, w = semantics.shape
    out = np.zeros((len(queries), h, w), dtype=bool)

    box_fields = [global_boxes] if global_boxes is not None else [
        resample_level_boxes(lv, (h, w)) for lv in levels]
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

    workers = min(threads, len(queries))

    def run(k: int) -> None:
        for i in range(k * len(queries) // workers, (k + 1) * len(queries) // workers):
            one(i)

    if workers == 1:
        run(0)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, range(workers)))
    return out


def fuse_panoptic(
    masks: np.ndarray,
    queries: QuerySet,
    semantics: SemanticField,
    n_stuff: int,
    stuff_area_min: int = 4096,
) -> PanopticMap:
    """Merge instance masks and semantics into one panoptic labeling.

    Queries must arrive in descending score order. The quarter-resolution
    class map starts as the semantic argmax with thing classes set to void;
    each query then claims its mask pixels that no earlier query claimed
    (instance ids follow claim order from 1, so a pixel is free exactly where
    its id is 0; empty claims produce no segment). The fused maps are
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
    above = queries.classes > semantics.n_classes
    if above.any():
        raise ValueError(f"query class {queries.classes[above][0]} exceeds the "
                         f"semantic field's {semantics.n_classes} classes")
    class_map = semantics.argmax_classes() if h * w else np.zeros((h, w), dtype=np.uint16)
    class_map *= class_map <= n_stuff  # thing classes to void
    inst_map = np.zeros((h, w), dtype=np.uint16)
    claims: list[tuple[int, float]] = []  # (class id, score) of instance id k at index k - 1
    # each query claims inside its mask's bounding rectangle only
    rows = masks.any(axis=2)
    for i, (cls, score) in enumerate(zip(queries.classes.tolist(), scores.tolist())):
        r = np.flatnonzero(rows[i])
        if not r.size:
            continue
        ys = slice(r[0], r[-1] + 1)
        c = np.flatnonzero(masks[i, ys].any(axis=0))
        xs = slice(c[0], c[-1] + 1)
        take = masks[i, ys, xs] & (inst_map[ys, xs] == 0)
        if not take.any():
            continue
        claims.append((cls, score))
        class_map[ys, xs][take] = cls
        inst_map[ys, xs][take] = len(claims)

    segments = segment_table(class_map, inst_map, claims, n_stuff, scale=16)
    for s in segments:  # claimed pixels carry thing classes, so a stuff class lies on instance 0 only
        if s.segment_id == 0 and s.area < stuff_area_min:
            class_map[class_map == s.class_id] = 0
    segments = [s for s in segments if s.segment_id or s.area >= stuff_area_min]
    return PanopticMap(class_map=upsample_nearest(class_map, 4),
                       instance_map=upsample_nearest(inst_map, 4), segments=segments)
