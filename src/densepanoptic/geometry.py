"""Box geometry: the one home of the dense-detection box encoding.

Boxes are axis-aligned continuous intervals (x1, y1, x2, y2) with the origin
at the top-left corner; a pixel is the point (x, y). Area is
(x2 - x1) * (y2 - y1), so a box whose opposite sides coincide is degenerate
and has zero area. IoU involving degenerate boxes is defined as 0.

A dense detector encodes a box as side offsets (l, t, r, b) from the
receptive centre of a grid cell: cell i of a stride-z map is centred at
z//2 + i*z. Every function here works on arrays; a trailing axis of 4 holds
a box or an offset tuple.
"""

from __future__ import annotations

import numpy as np


def receptive_centers(stride: int, idx) -> np.ndarray:
    """Full-resolution centres z//2 + i*z of grid indices `idx` on a stride-z map, int64."""
    if stride <= 0:
        raise ValueError("stride must be positive")
    return stride // 2 + np.asarray(idx, dtype=np.int64) * stride


def boxes_to_offsets(boxes, cx, cy) -> np.ndarray:
    """Side distances (l, t, r, b) of boxes (..., 4) from points (cx, cy).

    A point outside its box yields a negative distance; callers that require
    containment check the sign.
    """
    boxes = np.asarray(boxes)
    return np.stack([cx - boxes[..., 0], cy - boxes[..., 1],
                     boxes[..., 2] - cx, boxes[..., 3] - cy], axis=-1)


def offsets_to_boxes(off, cx, cy) -> np.ndarray:
    """Absolute boxes (cx - l, cy - t, cx + r, cy + b) from side offsets (..., 4)."""
    off = np.asarray(off)
    return np.stack([cx - off[..., 0], cy - off[..., 1], cx + off[..., 2], cy + off[..., 3]], axis=-1)


def max_offset(off) -> np.ndarray:
    """Largest side distance max(l, t, r, b) of offsets (..., 4)."""
    # column by column: a reduction along the short last axis is several times slower
    return np.maximum.reduce([off[..., 0], off[..., 1], off[..., 2], off[..., 3]])


def decode_boxes(offsets: np.ndarray, stride: int, dtype, ix=None, iy=None) -> np.ndarray:
    """Absolute boxes from side offsets at receptive centres, (..., 4) of `dtype`.

    ix and iy are grid indices that broadcast against offsets[..., 0]; they
    default to the full (h, w) grid of an (h, w, 4) offsets array. Centres
    and offsets are cast to `dtype` before the arithmetic.
    """
    if ix is None:
        h, w = offsets.shape[:2]
        ix, iy = np.arange(w)[None, :], np.arange(h)[:, None]
    cx = receptive_centers(stride, ix).astype(dtype)
    cy = receptive_centers(stride, iy).astype(dtype)
    return offsets_to_boxes(offsets.astype(dtype, copy=False), cx, cy)


def centerness(off) -> np.ndarray:
    """Geometric-mean centrality of points inside their boxes, float64 in [0, 1].

    sqrt((min(l,r)/max(l,r)) * (min(t,b)/max(t,b))) over offsets (..., 4);
    exactly 1 at the box centre and 0 on the box border. Degenerate axes
    (both distances zero) contribute a factor of 0. The two products are
    formed before the division, so offsets must be pixel distances: below
    about 1e-150 the products underflow and the result is 0.
    """
    off = np.asarray(off, dtype=np.float64)
    l, t, r, b = off[..., 0], off[..., 1], off[..., 2], off[..., 3]
    num = np.minimum(l, r) * np.minimum(t, b)
    den = np.maximum(l, r) * np.maximum(t, b)
    out = np.zeros(num.shape, dtype=np.float64)
    np.divide(num, den, out=out, where=den > 0)
    return np.sqrt(out)


def boxes_valid(boxes: np.ndarray) -> bool:
    """Whether every box (..., 4) is finite with x1 <= x2 and y1 <= y2."""
    return bool(np.isfinite(boxes).all() and (boxes[..., :2] <= boxes[..., 2:]).all())


def box_iou(a, b) -> np.ndarray:
    """IoU of boxes (..., 4) broadcast against boxes (..., 4), float64.

    `box_iou(a, b)` pairs rows of equal-shape arrays; `box_iou(a[:, None],
    b[None])` gives the all-pairs matrix.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return _iou_from_areas(a, np.moveaxis(b, -1, 0), _area(a), _area(b))


def _area(boxes: np.ndarray) -> np.ndarray:
    return (boxes[..., 2] - boxes[..., 0]) * (boxes[..., 3] - boxes[..., 1])


def _iou_from_areas(a: np.ndarray, b, area_a, area_b) -> np.ndarray:
    """IoU of boxes a (..., 4) against b, the four coordinates (x1, y1, x2, y2)
    broadcasting against a[..., 0], given both areas (nms reuses them).

    Python-float coordinates stay weak, so float32 boxes compute in float32.
    The result has the dtype of the intersection.
    """
    bx1, by1, bx2, by2 = b
    iw = np.minimum(a[..., 2], bx2) - np.maximum(a[..., 0], bx1)
    ih = np.minimum(a[..., 3], by2) - np.maximum(a[..., 1], by1)
    inter = np.clip(iw, 0.0, None) * np.clip(ih, 0.0, None)
    union = area_a + area_b - inter
    out = np.zeros(inter.shape, dtype=inter.dtype)
    np.divide(inter, union, out=out, where=union > 0)
    # a zero-width intersection strip must not survive the division
    out[inter <= 0] = 0.0
    return out


def _iou_grid_from_areas(boxes: np.ndarray, areas: np.ndarray, box) -> np.ndarray:
    """IoU of every box in a dense (..., 4) array against one box, float32 with
    the leading shape of `boxes`, given `_area(boxes)`: a caller scoring many
    windows of one field computes the areas once and passes each window's slice.

    `box` is (x1, y1, x2, y2) as Python floats: a numpy float64 scalar would
    promote float32 `boxes` arithmetic to float64 and change results.
    Degenerate entries (zero width or height) score 0.
    """
    bx1, by1, bx2, by2 = box
    area = max(0.0, bx2 - bx1) * max(0.0, by2 - by1)
    return _iou_from_areas(boxes, box, areas, area).astype(np.float32, copy=False)


def iou_windows(box_fields: list[np.ndarray], query_boxes) -> list[tuple[slice, slice]]:
    """Per query box, the (rows, columns) of the quarter grid outside which no
    pixel of any of the (h, w, 4) `box_fields` has a positive IoU with it, as
    `_iou_grid_from_areas` computes IoU. Windows may be empty.

    A positive IoU needs a positive overlap in x and in y. The IoU body
    intersects the float32 field with the query's float32 coordinates Q, so
    it needs x1 < Qx2 and x2 > Qx1, and likewise for y. A column whose
    smallest x1 over its rows and over every field is not below Qx2, or
    whose largest x2 is not above Qx1, therefore holds no pixel of positive
    IoU; the same holds for rows. Each window runs from the first to the last
    column (row) that passes. A NaN coordinate scores IoU 0, but it makes
    its column's (row's) extent NaN; the tests are negated, so that column
    keeps its place anyway.
    """
    if not box_fields:
        raise ValueError("at least one box field required")
    with np.errstate(over="ignore"):
        q = np.asarray(query_boxes, dtype=np.float64).reshape(-1, 4).astype(np.float32)
    # per column (row), the smallest x1 (y1) and the largest x2 (y2)
    lo_x, hi_x, lo_y, hi_y = np.inf, -np.inf, np.inf, -np.inf
    for field in box_fields:
        lo_x = np.minimum(lo_x, field[..., 0].min(axis=0, initial=np.inf))
        hi_x = np.maximum(hi_x, field[..., 2].max(axis=0, initial=-np.inf))
        lo_y = np.minimum(lo_y, field[..., 1].min(axis=1, initial=np.inf))
        hi_y = np.maximum(hi_y, field[..., 3].max(axis=1, initial=-np.inf))
    col0, col1 = _extent_span(lo_x, hi_x, q[:, 0], q[:, 2])
    row0, row1 = _extent_span(lo_y, hi_y, q[:, 1], q[:, 3])
    return [(slice(*r), slice(*c)) for r, c in zip(zip(row0.tolist(), row1.tolist()),
                                                   zip(col0.tolist(), col1.tolist()))]


def _extent_span(lo: np.ndarray, hi: np.ndarray, q1: np.ndarray, q2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per query, [start, stop) from the first to the last index i whose extent
    [lo[i], hi[i]] can overlap (q1, q2): not lo[i] >= q2 and not hi[i] <= q1."""
    meet = ~(lo >= q2[:, None]) & ~(hi <= q1[:, None])
    none = np.ones((len(meet), 1), dtype=bool)  # found where no index meets: start n, stop 0
    start = np.hstack([meet, none]).argmax(axis=1)
    stop = meet.shape[1] - np.hstack([meet[:, ::-1], none]).argmax(axis=1)
    return start, np.maximum(start, stop)
