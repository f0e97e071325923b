"""Forward-only loss computation over dense predictions and targets.

All reductions run in float64 in a fixed order so repeated evaluation of
the same inputs is bitwise deterministic. Logarithm arguments
are clamped from below at 1e-7 (never from above), so losses at exactly
correct hard predictions evaluate to exactly 0.0.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .fields import GlobalBoxField, plane_sum
from .geometry import _area, _iou_grid_from_areas, box_iou, iou_windows
from .selection import QuerySet

logger = logging.getLogger(__name__)

LOG_EPS = 1e-7
IOU_CLAMP = 1e-6


@dataclass(frozen=True)
class LossReport:
    """All loss terms plus their weighted sum."""

    box_regression: float
    centerness: float
    levelness: float
    box_classification: float
    semantics: float
    mask: float
    semantic_weight: float
    total: float

    def as_dict(self) -> dict:
        return {
            "box_regression": self.box_regression,
            "centerness": self.centerness,
            "levelness": self.levelness,
            "box_classification": self.box_classification,
            "semantics": self.semantics,
            "mask": self.mask,
            "semantic_weight": self.semantic_weight,
            "total": self.total,
        }

    def format(self) -> str:
        d = self.as_dict()
        lines = [f"{k:>20s}: {v:.6f}" for k, v in d.items() if k != "semantic_weight"]
        lines.insert(-1, f"{'semantic_weight':>20s}: {d['semantic_weight']:g}")
        return "\n".join(lines)


def _safe_log(x: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(x, LOG_EPS))


def binary_cross_entropy(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Elementwise BCE; exact 0 where pred == target in {0, 1}."""
    p = np.asarray(pred, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    return -(t * _safe_log(p) + (1.0 - t) * _safe_log(1.0 - p))


def iou_loss(pred_boxes: np.ndarray, target_boxes: np.ndarray, foreground: np.ndarray) -> float:
    """Mean -ln(IoU) between predicted and target boxes over foreground rows.

    IoU is clamped to at least 1e-6 before the log; clamped rows are counted
    and reported through the module logger. Returns 0.0 with no foreground.
    """
    fg = np.asarray(foreground, dtype=bool).reshape(-1)
    if not fg.any():
        return 0.0
    a = np.asarray(pred_boxes, dtype=np.float64).reshape(-1, 4)[fg]
    b = np.asarray(target_boxes, dtype=np.float64).reshape(-1, 4)[fg]
    ious = box_iou(a, b)
    clamped = int((ious < IOU_CLAMP).sum())
    if clamped:
        logger.warning("iou_loss clamped %d of %d foreground boxes", clamped, len(ious))
    return float(np.mean(-np.log(np.maximum(ious, IOU_CLAMP))))


def centerness_loss(pred: np.ndarray, target: np.ndarray, foreground: np.ndarray) -> float:
    """Mean BCE between predicted and target centerness over foreground."""
    fg = np.asarray(foreground, dtype=bool).reshape(-1)
    if not fg.any():
        return 0.0
    p = np.asarray(pred, dtype=np.float64).reshape(-1)[fg]
    t = np.asarray(target, dtype=np.float64).reshape(-1)[fg]
    return float(np.mean(binary_cross_entropy(p, t)))


# every float64 x < -745.14 has exp(x) < 2**-1075, which rounds to +0.0
_EXP_ZERO = -746.0


def _cross_entropy(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per-pixel CE of integer targets under the softmax of logits over the
    last axis, float64; computed on (C, pixels) planes, bitwise equal to the
    row-by-row form because `plane_sum` repeats numpy's summation order.

    Lanes whose shifted logit lies below `_EXP_ZERO` skip `exp` and are
    written as +0.0, the value `exp` rounds them to, so every lane holds the
    bits of the full computation (one-hot logits with a margin of 1000 make
    most lanes such). The test is negated, so NaN lanes still take `exp`.
    """
    n_ch = logits.shape[-1]
    t = np.asarray(targets, dtype=np.int64).reshape(-1)
    if t.size and (t.min() < 0 or t.max() >= n_ch):
        raise ValueError("target index out of range")
    z = np.moveaxis(np.asarray(logits).reshape(-1, n_ch), 1, 0).astype(np.float64, order="C")
    m = z.max(axis=0)
    e = z - m
    zero = e < _EXP_ZERO
    np.exp(e, out=e, where=~zero)
    np.copyto(e, 0.0, where=zero)
    s = np.log(plane_sum(e))
    return -(np.take_along_axis(z, t[None], axis=0)[0] - m - s)


def levelness_loss(logits: np.ndarray, target: np.ndarray) -> float:
    """Mean softmax cross-entropy of level-selection logits over all pixels.

    Background pixels (target 0) participate like any other class.
    """
    logits = np.asarray(logits)
    t = np.asarray(target).reshape(-1)
    if logits.shape[:-1] != np.asarray(target).shape:
        raise ValueError("levelness logits and target shapes differ")
    if t.size == 0:
        return 0.0
    return float(np.mean(_cross_entropy(logits, t)))


def focal_classification_loss(
    pred_probs: np.ndarray,
    target_classes: np.ndarray,
    foreground: np.ndarray,
    n_stuff: int = 0,
    alpha: float = 0.25,
    gamma: float = 2.0,
) -> float:
    """Sigmoid focal loss over per-location thing-class probabilities.

    Every (location, channel) pair contributes; channel c of a foreground
    location is positive iff the location's global target class is
    n_stuff + 1 + c. The summed loss is divided by max(1, n_foreground).
    """
    p = np.asarray(pred_probs, dtype=np.float64).reshape(-1, pred_probs.shape[-1])
    cls = np.asarray(target_classes, dtype=np.int64).reshape(-1)
    fg = np.asarray(foreground, dtype=bool).reshape(-1)
    if len(p) != len(cls) or len(p) != len(fg):
        raise ValueError("probability, class and foreground lengths differ")
    y = np.zeros_like(p)
    if fg.any():
        ch = cls[fg] - n_stuff - 1
        if ch.min(initial=0) < 0 or ch.max(initial=0) >= p.shape[1]:
            raise ValueError("foreground class outside the thing range")
        y[np.nonzero(fg)[0], ch] = 1.0
    pos = -alpha * (1.0 - p) ** gamma * _safe_log(p) * y
    neg = -(1.0 - alpha) * p ** gamma * _safe_log(1.0 - p) * (1.0 - y)
    return float((pos + neg).sum() / max(1, int(fg.sum())))


def bootstrap_count(n_pixels: int, fraction: float) -> int:
    """Number of worst pixels kept by the bootstrapped CE, ceil(fraction * n).

    A tiny epsilon guards against binary-float artifacts (0.3 * 10 must give
    3, not 4).
    """
    if n_pixels <= 0:
        return 0
    if not 0 < fraction <= 1:
        raise ValueError("fraction must be in (0, 1]")
    return max(1, math.ceil(fraction * n_pixels - 1e-9))


def semantic_loss(logits: np.ndarray, target: np.ndarray, bootstrap_fraction: float = 0.3) -> float:
    """Bootstrapped semantic cross-entropy: mean CE of the worst pixels.

    Target classes are 1-based (channel c scores class c + 1); the worst
    ceil(bootstrap_fraction * P) pixels by CE are averaged.
    """
    logits = np.asarray(logits)
    t = np.asarray(target, dtype=np.int64).reshape(-1)
    if logits.shape[:-1] != np.asarray(target).shape:
        raise ValueError("semantic logits and target shapes differ")
    if t.size == 0:
        return 0.0
    if t.min() < 1:
        raise ValueError("semantic targets must be 1-based class ids")
    ce = _cross_entropy(logits, t - 1)
    k = bootstrap_count(len(ce), bootstrap_fraction)
    worst = np.partition(ce, len(ce) - k)[len(ce) - k:]
    return float(np.mean(worst))


def match_queries(query_boxes: np.ndarray, gt_boxes: np.ndarray) -> np.ndarray:
    """Greedy box matching for the mask loss: each query takes the gt of
    maximal IoU (ties toward the lowest gt index); queries with zero IoU
    against every gt get -1. Returns (M,) int64.
    """
    q = np.asarray(query_boxes, dtype=np.float64).reshape(-1, 4)
    g = np.asarray(gt_boxes, dtype=np.float64).reshape(-1, 4)
    out = np.full(len(q), -1, dtype=np.int64)
    if len(q) == 0 or len(g) == 0:
        return out
    mat = box_iou(q[:, None], g[None])
    best = np.argmax(mat, axis=1)
    hit = mat[np.arange(len(q)), best] > 0
    out[hit] = best[hit]
    return out


def mask_loss(
    global_boxes: GlobalBoxField,
    queries: QuerySet,
    gt_boxes: np.ndarray,
    gt_instances: np.ndarray,
) -> float:
    """Pixel-level box-consistency loss over matched queries.

    Each query matched to gt instance j (by box IoU) is scored
    (beta_j / N_j) * (E_FP + E_FN): N_j counts the instance's pixels in
    gt_instances, beta_j = IoU(query box, gt box), E_FN sums 1 - IoU of
    pixel boxes inside the instance, E_FP sums IoU of pixel boxes outside
    (pixel boxes are always scored against the query box).
    Unmatched queries (or matches with N_j = 0) are skipped; the result is
    the mean over participating queries, 0.0 if none.
    """
    gt_instances = np.asarray(gt_instances)
    if gt_instances.shape != global_boxes.shape:
        raise ValueError("instance map and box field shapes differ")
    g = np.asarray(gt_boxes, dtype=np.float64).reshape(-1, 4)
    if len(queries) == 0 or len(g) == 0:
        return 0.0
    qboxes = queries.boxes
    matches = match_queries(qboxes, g)
    unmatched = int((matches < 0).sum())
    if unmatched:
        logger.warning("mask_loss: %d of %d queries matched no gt box", unmatched, len(queries))
    # outside its window every pixel box has IoU 0 with the query; the
    # zero-filled full-length buffer keeps both sums' summation order, and
    # each query zeroes its window again after its sums
    windows = iou_windows([global_boxes.boxes], qboxes)
    areas = _area(global_boxes.boxes)
    ious = np.zeros(global_boxes.shape)
    terms = []
    for i, (box, j) in enumerate(zip(qboxes.tolist(), matches.tolist())):
        if j < 0:
            continue
        inside = gt_instances == j + 1
        n_j = int(inside.sum())
        if n_j == 0:
            continue
        beta = box_iou(qboxes[i], g[j])
        ys, xs = windows[i]
        ious[ys, xs] = _iou_grid_from_areas(global_boxes.boxes[ys, xs], areas[ys, xs], box)
        e_fn = float((1.0 - ious[inside]).sum())
        e_fp = float(ious[~inside].sum())
        ious[ys, xs] = 0.0
        terms.append(beta / n_j * (e_fp + e_fn))
    if not terms:
        return 0.0
    return float(np.mean(terms))


def total_loss(
    box_regression: float,
    centerness: float,
    levelness: float,
    box_classification: float,
    semantics: float,
    mask: float,
    semantic_weight: float = 1.0,
) -> LossReport:
    """Weighted sum of all terms; only semantics is scaled (by semantic_weight)."""
    if semantic_weight < 0:
        raise ValueError("semantic_weight must be nonnegative")
    total = (box_regression + centerness + levelness + box_classification
             + semantic_weight * semantics + mask)
    return LossReport(
        box_regression=float(box_regression),
        centerness=float(centerness),
        levelness=float(levelness),
        box_classification=float(box_classification),
        semantics=float(semantics),
        mask=float(mask),
        semantic_weight=float(semantic_weight),
        total=float(total),
    )
