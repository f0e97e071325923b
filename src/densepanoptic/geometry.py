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


def iou_grid(boxes: np.ndarray, box) -> np.ndarray:
    """IoU of every box in a dense (..., 4) array against one box.

    `box` is (x1, y1, x2, y2) as Python floats: a numpy float64 scalar would
    promote float32 `boxes` arithmetic to float64 and change results.
    Degenerate entries (zero width or height) score 0. Returns float32 with
    the leading shape of `boxes`.
    """
    boxes = np.asarray(boxes)
    if boxes.shape[-1] != 4:
        raise ValueError(f"expected trailing dimension 4, got {boxes.shape}")
    return _iou_grid_from_areas(boxes, _area(boxes), box)


def _iou_grid_from_areas(boxes: np.ndarray, areas: np.ndarray, box) -> np.ndarray:
    """`iou_grid` given `_area(boxes)`, so a caller scoring many windows of one
    field computes its areas once and passes the window's slice."""
    bx1, by1, bx2, by2 = box
    area = max(0.0, bx2 - bx1) * max(0.0, by2 - by1)
    return _iou_from_areas(boxes, box, areas, area).astype(np.float32, copy=False)


# relative loss of sigma that covers float32 rounding in iou_grid and
# semantic probabilities up to 1 + 1e-6; slack in full-resolution pixels
_WINDOW_SIGMA_LOSS = 1e-5
_WINDOW_SLACK = 4.0


def iou_windows(box_fields: list[np.ndarray], query_boxes, sigma: float) -> list[tuple[slice, slice]]:
    """Per query box, the (rows, columns) of the quarter grid outside which no
    pixel can reach `iou_grid(field, box) * p > sigma`, for any p <= 1 + 1e-6
    and any of the (h, w, 4) `box_fields`. sigma = 0 bounds the pixels of any
    positive IoU. Windows are clamped to the grid and may be empty.

    Quarter pixel (i, j) samples the full-resolution point (2 + 4j, 2 + 4i).
    The fields' reach is measured once per call from the fields themselves:
    rx (ry) is the largest x (y) distance from a pixel's sample point to its
    own box, and w_max (h_max) the widest (tallest) box. Each query box Q is
    dilated by min((1 - s)/s * w_Q, w_max) + rx in x, likewise in y, plus
    slack, with s = sigma * (1 - 1e-5) * (1 - eta_Q) defined below.

    Why this is exact. Let B be a pixel box and iw its overlap with Q in x.
    IoU > s means inter > s * union, and union >= area_B because Q's area is
    at least the intersection. With ih <= h_B this gives iw > s * w_B, so B
    reaches beyond Q in x by at most w_B - iw < (1 - s) * w_B. That is below
    w_max, and below (1 - s)/s * iw <= (1 - s)/s * w_Q. The sample point lies
    within rx of B. For sigma = 0, a positive IoU needs iw > 0 and B reaches
    at most w_B <= w_max beyond Q.

    Why rounding stays inside. iou_grid intersects with Q's float32
    coordinates, which is the Q used here, but takes Q's area from the float64
    ones. Where that area is the smaller, by the fraction eta_Q of the float32
    box area, union >= (1 - eta_Q) * area_B still holds; queries with
    eta_Q >= 1/2 (boxes far below float32 resolution) take the sigma = 0
    window. Every other operation of iou_grid and the threshold errs by at
    most 2**-24 relative. About ten of them lie between a box and the
    comparison, so together with the float32 sigma and a probability 1e-6
    above 1 they cost s less than 2e-6 of sigma; 1e-5 is given up. The reach
    is measured in the fields' float32, so the dilation gets 1e-6 relative
    slack; the window arithmetic runs in float64 and gets 1e-9 of Q's
    magnitude plus 4 pixels. A NaN or inf coordinate in a field makes the
    reach along its axis non-finite, and every window then spans that axis.

    Extents. Each window is then cut to the first and last column that can
    still meet Q: a positive IoU needs iw > 0, that is x1 < Qx2 and x2 > Qx1
    with Q's float32 coordinates (iou_grid compares them with the float32
    field exactly), and likewise for y. So a column whose smallest x1 over
    its rows and over every field is not below Qx2, or whose largest x2 is
    not above Qx1, holds no pixel of positive IoU; the same holds for rows.
    The tests are negated, so a column with a NaN keeps its place. An axis
    whose reach is not finite keeps the whole-axis window.
    """
    if not 0 <= sigma < 1:
        raise ValueError("sigma must lie in [0, 1)")
    if not box_fields:
        raise ValueError("at least one box field required")
    h, w = box_fields[0].shape[:2]
    px = receptive_centers(4, np.arange(w)).astype(np.float64)
    py = receptive_centers(4, np.arange(h)).astype(np.float64)
    q = np.asarray(query_boxes, dtype=np.float64).reshape(-1, 4)
    with np.errstate(over="ignore", invalid="ignore"):
        reach = np.zeros(4)  # rx, ry, w_max, h_max
        # per column (row), the smallest x1 (y1) and the largest x2 (y2)
        lo_x, hi_x, lo_y, hi_y = np.inf, -np.inf, np.inf, -np.inf
        for field in box_fields:
            x1, y1, x2, y2 = field[..., 0], field[..., 1], field[..., 2], field[..., 3]
            reach = np.maximum.reduce([
                reach,
                [(x1.max(axis=0, initial=-np.inf) - px).max(initial=0.0),
                 (y1.max(axis=1, initial=-np.inf) - py).max(initial=0.0),
                 (x2 - x1).max(initial=0.0), (y2 - y1).max(initial=0.0)],
                [(px - x2.min(axis=0, initial=np.inf)).max(initial=0.0),
                 (py - y2.min(axis=1, initial=np.inf)).max(initial=0.0), 0.0, 0.0]])
            lo_x = np.minimum(lo_x, x1.min(axis=0, initial=np.inf))
            hi_x = np.maximum(hi_x, x2.max(axis=0, initial=-np.inf))
            lo_y = np.minimum(lo_y, y1.min(axis=1, initial=np.inf))
            hi_y = np.maximum(hi_y, y2.max(axis=1, initial=-np.inf))
        rx, ry, w_max, h_max = reach.tolist()

        q32 = q.astype(np.float32)
        side = q32[:, 2:] - q32[:, :2]
        area32 = (side[:, 0] * side[:, 1]).astype(np.float64)
        area = np.maximum(q[:, 2] - q[:, 0], 0) * np.maximum(q[:, 3] - q[:, 1], 0)
        eta = 1.0 - np.divide(area.astype(np.float32), area32, out=np.ones(len(q)), where=area32 > 0)
        q = q32.astype(np.float64)
        s = sigma * (1.0 - _WINDOW_SIGMA_LOSS) * (1.0 - np.maximum(eta, 0.0))
        tight = (s > 0) & (eta < 0.5)  # otherwise the sigma = 0 window
        c = np.divide(1 - s, s, out=np.zeros(len(q)), where=tight)
        gx = np.where(tight, np.minimum(c * (q[:, 2] - q[:, 0]), w_max), w_max)
        gy = np.where(tight, np.minimum(c * (q[:, 3] - q[:, 1]), h_max), h_max)
        mag = np.abs(q).max(axis=1, initial=0.0)
        dx = (gx + rx) * (1 + 1e-6) + 1e-9 * mag + _WINDOW_SLACK
        dy = (gy + ry) * (1 + 1e-6) + 1e-9 * mag + _WINDOW_SLACK
        col0, col1 = _sample_span(q[:, 0] - dx, q[:, 2] + dx, w)
        row0, row1 = _sample_span(q[:, 1] - dy, q[:, 3] + dy, h)
        if np.isfinite(rx + w_max):
            col0, col1 = _extent_span(col0, col1, lo_x, hi_x, q[:, 0], q[:, 2])
        if np.isfinite(ry + h_max):
            row0, row1 = _extent_span(row0, row1, lo_y, hi_y, q[:, 1], q[:, 3])
    return [(slice(*r), slice(*c)) for r, c in zip(zip(row0.tolist(), row1.tolist()),
                                                   zip(col0.tolist(), col1.tolist()))]


def _sample_span(lo: np.ndarray, hi: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index ranges [start, stop) of the sample points 2 + 4i (0 <= i < n)
    inside [lo, hi], clamped before the integer conversion; a NaN bound keeps
    the whole axis."""
    bad = ~(lo <= hi)
    start = np.where(bad, 0, np.clip(np.ceil((lo - 2) / 4), 0, n)).astype(np.int64)
    stop = np.where(bad, n, np.clip(np.floor((hi - 2) / 4) + 1, 0, n)).astype(np.int64)
    return start, stop


def _extent_span(start: np.ndarray, stop: np.ndarray, lo, hi, q1: np.ndarray,
                 q2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """[start, stop) per query cut to the first and last index i whose extent
    [lo[i], hi[i]] can overlap (q1, q2): not lo[i] >= q2 and not hi[i] <= q1."""
    meet = ~(lo >= q2[:, None]) & ~(hi <= q1[:, None])
    n = meet.shape[1]
    none = np.ones((len(meet), 1), dtype=bool)  # found where no index meets: start n, stop 0
    start = np.maximum(start, np.hstack([meet, none]).argmax(axis=1))
    stop = np.minimum(stop, n - np.hstack([meet[:, ::-1], none]).argmax(axis=1))
    return start, np.maximum(start, stop)
