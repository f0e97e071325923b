"""Box, offset and centerness primitives shared by every other module.

Boxes are axis-aligned continuous intervals (x1, y1, x2, y2) with the origin
at the top-left corner; a pixel is the point (x, y). Area is
(x2 - x1) * (y2 - y1), so a box whose opposite sides coincide is degenerate
and has zero area. IoU involving degenerate boxes is defined as 0.
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

    @property
    def area(self) -> float:
        return max(0.0, self.x2 - self.x1) * max(0.0, self.y2 - self.y1)

    def contains(self, x: float, y: float) -> bool:
        return self.x1 <= x <= self.x2 and self.y1 <= y <= self.y2


@dataclass(frozen=True)
class BoxOffsets:
    """Nonnegative distances (l, t, r, b) from a pixel to the four box sides."""

    l: float
    t: float
    r: float
    b: float

    def __post_init__(self):
        if min(self.l, self.t, self.r, self.b) < 0:
            raise ValueError(
                f"offsets must be nonnegative, got ({self.l}, {self.t}, {self.r}, {self.b})"
            )

    def max(self) -> float:
        return max(self.l, self.t, self.r, self.b)


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two boxes.

    Args:
        a: first box.
        b: second box.

    Returns:
        IoU in [0, 1]; 0 whenever the union is degenerate.
    """
    iw = min(a.x2, b.x2) - max(a.x1, b.x1)
    ih = min(a.y2, b.y2) - max(a.y1, b.y1)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = a.area + b.area - inter
    if union <= 0:
        return 0.0
    return inter / union


def box_to_offsets(box: BoundingBox, x: float, y: float) -> BoxOffsets:
    """Encode a box as side distances from pixel (x, y).

    The pixel must lie inside the box (all four distances nonnegative),
    otherwise a ValueError is raised.
    """
    if not box.contains(x, y):
        raise ValueError(f"pixel ({x}, {y}) lies outside box {box}")
    return BoxOffsets(x - box.x1, y - box.y1, box.x2 - x, box.y2 - y)


def offsets_to_box(off: BoxOffsets, x: float, y: float) -> BoundingBox:
    """Decode side distances at pixel (x, y) back into an absolute box."""
    return BoundingBox(x - off.l, y - off.t, x + off.r, y + off.b)


def centerness(off: BoxOffsets) -> float:
    """Geometric-mean centrality of a pixel inside its box, in [0, 1].

    sqrt((min(l,r)/max(l,r)) * (min(t,b)/max(t,b))); exactly 1 at the box
    center and 0 on the box border. Degenerate axes (both distances zero)
    contribute a factor of 0.
    """
    mx = max(off.l, off.r)
    my = max(off.t, off.b)
    if mx <= 0 or my <= 0:
        return 0.0
    return math.sqrt((min(off.l, off.r) / mx) * (min(off.t, off.b) / my))


def receptive_center(stride: int, ix: int, iy: int) -> tuple[float, float]:
    """Full-resolution center of grid cell (ix, iy) on a stride-z map.

    Returns (z//2 + ix*z, z//2 + iy*z) as floats.
    """
    if stride <= 0:
        raise ValueError("stride must be positive")
    return (float(stride // 2 + ix * stride), float(stride // 2 + iy * stride))


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


def iou_elementwise(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise IoU of two (N, 4) box arrays, float64."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.shape[-1] != 4:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    iw = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    ih = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    inter = np.clip(iw, 0.0, None) * np.clip(ih, 0.0, None)
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    union = area_a + area_b - inter
    out = np.zeros(a.shape[:-1], dtype=np.float64)
    np.divide(inter, union, out=out, where=union > 0)
    out[inter <= 0] = 0.0
    return out


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All-pairs IoU between (M, 4) and (K, 4) box arrays, float64 (M, K)."""
    a = np.asarray(a, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 4)
    iw = np.minimum(a[:, None, 2], b[None, :, 2]) - np.maximum(a[:, None, 0], b[None, :, 0])
    ih = np.minimum(a[:, None, 3], b[None, :, 3]) - np.maximum(a[:, None, 1], b[None, :, 1])
    inter = np.clip(iw, 0.0, None) * np.clip(ih, 0.0, None)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = area_a[:, None] + area_b[None, :] - inter
    out = np.zeros(inter.shape, dtype=np.float64)
    np.divide(inter, union, out=out, where=union > 0)
    out[inter <= 0] = 0.0
    return out
