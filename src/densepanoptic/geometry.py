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


def box_field(boxes) -> np.ndarray:
    """`boxes` as the contiguous (h, w, 4) float32 field `_max_iou` scores.

    +-inf coordinates are kept (assembly's empty box is (+inf, +inf, -inf,
    -inf)); a NaN coordinate, which would score IoU 0 unnoticed, raises.
    """
    boxes = np.ascontiguousarray(boxes, dtype=np.float32)
    if boxes.ndim != 3 or boxes.shape[2] != 4:
        raise ValueError("global boxes must be (h, w, 4)")
    if np.isnan(boxes.min(initial=np.inf)):  # one pass: a NaN propagates through min
        raise ValueError("global boxes must not hold NaN")
    return boxes


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
    inter = np.maximum(iw, 0.0)  # np.clip(iw, 0.0, None), without its Python wrapper
    inter *= np.maximum(ih, 0.0)
    union = area_a + area_b - inter
    out = np.zeros(inter.shape, dtype=inter.dtype)
    # a zero-width intersection strip must not survive the division
    np.divide(inter, union, out=out, where=(union > 0) & (inter > 0))
    return out


def _max_iou(box_fields: list[np.ndarray], areas: list[np.ndarray], box) -> np.ndarray:
    """Per-pixel maximum IoU of the boxes of every (h, w, 4) field against one
    query box, (h, w) float32, given each field's `_area`: a caller scoring many
    windows of a field computes its areas once and passes each window's slice.

    `box_fields` holds the assembled global field, or every pyramid level
    resampled to quarter resolution. `box` is (x1, y1, x2, y2) as Python
    floats: a numpy float64 scalar would promote float32 field arithmetic to
    float64 and change results. Degenerate entries (zero width or height)
    score 0.
    """
    bx1, by1, bx2, by2 = box
    area = max(0.0, bx2 - bx1) * max(0.0, by2 - by1)
    out = None
    for boxes, box_areas in zip(box_fields, areas):
        iou = _iou_from_areas(boxes, box, box_areas, area).astype(np.float32, copy=False)
        out = iou if out is None else np.maximum(out, iou, out=out)
    return out


_BLOCK = 8  # quarter pixels per side of the blocks `iou_windows` tests


def iou_windows(box_fields: list[np.ndarray], query_boxes) -> list[tuple[slice, slice]]:
    """Per query box, the (rows, columns) of the quarter grid outside which no
    pixel of any of the (h, w, 4) `box_fields` has a positive IoU with it, as
    `_max_iou` computes IoU. Windows may be empty.

    A positive IoU needs a positive overlap in x and in y. The IoU body
    intersects the float32 field with the query's float32 coordinates Q, so
    it needs x1 < Qx2 and x2 > Qx1, and likewise for y. A column whose
    smallest x1 over its rows and over every field is not below Qx2, or
    whose largest x2 is not above Qx1, therefore holds no pixel of positive
    IoU; the same holds for rows. The same four tests on the extents (min x1,
    min y1, max x2, max y2) of each 8x8 block of pixels (shorter at ragged
    edges) rule out every block none of whose pixels meets the query in x
    and y at once. The window is the span from the first to the last column
    (row) that passes, cut to the bounding rectangle of the blocks that pass.
    A NaN coordinate scores IoU 0, but it makes its column's (row's, block's)
    extent NaN; the tests are negated, so that column keeps its place anyway.
    """
    if not box_fields:
        raise ValueError("at least one box field required")
    with np.errstate(over="ignore"):
        q = np.asarray(query_boxes, dtype=np.float64).reshape(-1, 4).astype(np.float32)
    # per pixel, each coordinate's smallest (lo) and largest (hi) value over the fields
    lo = hi = box_fields[0]
    for field in box_fields[1:]:
        lo, hi = np.minimum(lo, field), np.maximum(hi, field)
    h, w = lo.shape[:2]
    lo_y = lo[..., 1].min(axis=1, initial=np.inf)  # per row
    hi_y = hi[..., 3].max(axis=1, initial=-np.inf)
    # per column and run of 8 rows, (w, 2, hb): min (x1, y1) and max (x2, y2)
    col_lo = np.ascontiguousarray(_runs(lo, np.minimum)[..., :2].transpose(1, 2, 0))
    col_hi = np.ascontiguousarray(_runs(hi, np.maximum)[..., 2:].transpose(1, 2, 0))
    col0, col1 = _span(_meets(col_lo[:, 0].min(axis=1, initial=np.inf),
                              col_hi[:, 0].max(axis=1, initial=-np.inf), q[:, 0], q[:, 2]))
    row0, row1 = _span(_meets(lo_y, hi_y, q[:, 1], q[:, 3]))
    # per 8x8 block, (wb, 2, hb): can any of its pixels meet the query in x and in y?
    b_lo, b_hi = _runs(col_lo, np.minimum), _runs(col_hi, np.maximum)
    meet = (_meets(b_lo[:, 0].reshape(-1), b_hi[:, 0].reshape(-1), q[:, 0], q[:, 2])
            & _meets(b_lo[:, 1].reshape(-1), b_hi[:, 1].reshape(-1), q[:, 1], q[:, 3]))
    meet = meet.reshape(len(q), *b_lo.shape[::2])  # (M, wb, hb)
    bcol0, bcol1 = _span(meet.any(axis=2))
    brow0, brow1 = _span(meet.any(axis=1))
    row0, row1 = _cut(row0, row1, brow0, brow1, h)
    col0, col1 = _cut(col0, col1, bcol0, bcol1, w)
    return [(slice(*r), slice(*c)) for r, c in zip(zip(row0.tolist(), row1.tolist()),
                                                   zip(col0.tolist(), col1.tolist()))]


def _runs(a: np.ndarray, ufunc) -> np.ndarray:
    """`ufunc` (np.minimum or np.maximum) reduced over each run of `_BLOCK`
    entries of `a` along its first axis; the last run holds the entries left
    over."""
    full = len(a) - len(a) % _BLOCK
    out = ufunc.reduce(a[:full].reshape(full // _BLOCK, _BLOCK, *a.shape[1:]), axis=1)
    if full < len(a):
        out = np.concatenate([out, ufunc.reduce(a[full:], axis=0, keepdims=True)])
    return out


def _meets(lo: np.ndarray, hi: np.ndarray, q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """(M, n) bool: whether extent [lo[i], hi[i]] can overlap query interval
    (q1, q2): not lo[i] >= q2 and not hi[i] <= q1."""
    return ~((lo >= q2[:, None]) | (hi <= q1[:, None]))


def _span(meet: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of the (M, n) bool `meet`, [start, stop) from its first to its
    last True; (n, n) where it holds none."""
    none = np.ones((len(meet), 1), dtype=bool)
    start = np.hstack([meet, none]).argmax(axis=1)
    stop = meet.shape[1] - np.hstack([meet[:, ::-1], none]).argmax(axis=1)
    return start, np.maximum(start, stop)


def _cut(start: np.ndarray, stop: np.ndarray, block_start: np.ndarray, block_stop: np.ndarray,
         n: int) -> tuple[np.ndarray, np.ndarray]:
    """The pixel span [start, stop) cut to the pixels of the block span, within [0, n]."""
    start = np.minimum(np.maximum(start, block_start * _BLOCK), n)
    return start, np.maximum(start, np.minimum(stop, block_stop * _BLOCK))
