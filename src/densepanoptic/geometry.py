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

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box in continuous pixel coordinates."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.x1, self.y1, self.x2, self.y2)):
            raise ValueError("box coordinates must be finite")
        if self.x2 < self.x1 or self.y2 < self.y1:
            raise ValueError(
                "box must satisfy x1 <= x2 and y1 <= y2, got "
                f"({self.x1}, {self.y1}, {self.x2}, {self.y2})"
            )


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


def box_iou(a, b) -> np.ndarray:
    """IoU of boxes (..., 4) broadcast against boxes (..., 4), float64.

    `box_iou(a, b)` pairs rows of equal-shape arrays; `box_iou(a[:, None],
    b[None])` gives the all-pairs matrix.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    iw = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    ih = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    inter = np.clip(iw, 0.0, None) * np.clip(ih, 0.0, None)
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    union = area_a + area_b - inter
    out = np.zeros(inter.shape, dtype=np.float64)
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
    bx1, by1, bx2, by2 = box
    x1 = boxes[..., 0]
    y1 = boxes[..., 1]
    x2 = boxes[..., 2]
    y2 = boxes[..., 3]
    iw = np.minimum(x2, bx2) - np.maximum(x1, bx1)
    ih = np.minimum(y2, by2) - np.maximum(y1, by1)
    inter = np.clip(iw, 0.0, None) * np.clip(ih, 0.0, None)
    areas = (x2 - x1) * (y2 - y1)
    union = areas + max(0.0, bx2 - bx1) * max(0.0, by2 - by1) - inter
    out = np.zeros(boxes.shape[:-1], dtype=np.float32)
    np.divide(inter, union, out=out, where=union > 0, casting="unsafe")
    # a zero-width intersection strip must not survive the division
    out[inter <= 0] = 0.0
    return out
