"""Forward-only loss computation over dense predictions and targets.

All reductions run in float64 in a fixed order so repeated evaluation of
the same inputs is bitwise deterministic. Logarithm arguments
are clamped from below at 1e-7 (never from above), so losses at exactly
correct hard predictions evaluate to exactly 0.0.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass

import numpy as np

from .fields import plane_sum
from .geometry import _area, _max_iou, box_field, box_iou, iou_windows
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
        return asdict(self)

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


_CE_BLOCK = 16384  # pixels per block of `_cross_entropy`: its temporaries stay in cache


def _cross_entropy(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per-pixel CE of integer targets under the softmax of logits over the
    last axis, float64, on (C, pixels) planes taken once (a `DensePrediction`'s
    logits need no copy) and widened in blocks of `_CE_BLOCK` pixels; bitwise
    the row-by-row form because `plane_sum` repeats numpy's summation order.

    The target logits are one flat gather from the planes: widening a logit
    to float64 is exact, so they are the values the row form reads. Lanes
    whose shifted logit lies below `_EXP_ZERO` skip `exp` and read +0.0, the
    value `exp` rounds them to, so every lane holds the bits of the full
    computation. The test is negated, so NaN lanes still take `exp`. With
    one-hot logits of margin 1000 most lanes skip it: the others are
    gathered, their `exp` is scattered into a zero-filled buffer reused by
    every block, and the buffer is cleared at those lanes again.
    """
    n_ch = logits.shape[-1]
    t = np.asarray(targets, dtype=np.int64).reshape(-1)
    if t.size and (t.min() < 0 or t.max() >= n_ch):
        raise ValueError("target index out of range")
    planes = np.ascontiguousarray(np.moveaxis(logits, -1, 0)).reshape(n_ch, -1)
    n = planes.shape[1]
    picked = planes.reshape(-1).take(np.arange(n) + t * n)
    out = np.empty(n)
    zeros = np.zeros(n_ch * min(n, _CE_BLOCK))
    for a in range(0, n, _CE_BLOCK):
        z = planes[:, a:a + _CE_BLOCK].astype(np.float64, order="C")
        m = z.max(axis=0)
        z -= m
        lanes = np.flatnonzero(~(z < _EXP_ZERO))
        e = zeros[:z.size]
        e[lanes] = np.exp(z.reshape(-1)[lanes])
        s = np.log(plane_sum(e.reshape(z.shape)))
        e[lanes] = 0.0
        o = np.subtract(picked[a:a + _CE_BLOCK], m, out=out[a:a + _CE_BLOCK])
        o -= s
        np.negative(o, out=o)
    return out


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
    """Sigmoid focal loss over per-location thing-class probabilities in [0, 1].

    Every (location, channel) pair contributes; channel c of a foreground
    location is positive iff the location's global target class is
    n_stuff + 1 + c. The summed loss is divided by max(1, n_foreground).

    The negative term is computed everywhere and the positive one only at
    the positive pairs, where it replaces the negative one. The one-hot
    form adds to each pair the other term times 0, a zero for p in [0, 1]:
    it changes a term at most in the sign of a zero, so the sum at most in
    the sign of a zero sum, which numpy's sum (it starts from +0.0) makes
    +0.0 either way.
    """
    p = np.asarray(pred_probs, dtype=np.float64).reshape(-1, pred_probs.shape[-1])
    cls = np.asarray(target_classes, dtype=np.int64).reshape(-1)
    fg = np.asarray(foreground, dtype=bool).reshape(-1)
    if len(p) != len(cls) or len(p) != len(fg):
        raise ValueError("probability, class and foreground lengths differ")
    if p.size and not (p.min() >= 0 and p.max() <= 1):
        raise ValueError("probabilities must lie in [0, 1]")
    terms = -(1.0 - alpha) * p ** gamma * _safe_log(1.0 - p)
    rows = np.flatnonzero(fg)
    if rows.size:
        ch = cls[rows] - n_stuff - 1
        if ch.min() < 0 or ch.max() >= p.shape[1]:
            raise ValueError("foreground class outside the thing range")
        q = p[rows, ch]
        terms[rows, ch] = -alpha * (1.0 - q) ** gamma * _safe_log(q)
    return float(terms.sum() / max(1, rows.size))


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
    global_boxes: np.ndarray,
    queries: QuerySet,
    gt_boxes: np.ndarray,
    gt_instances: np.ndarray,
) -> float:
    """Pixel-level box-consistency loss over matched queries.

    Each query matched to gt instance j (by box IoU) is scored
    (beta_j / N_j) * (E_FP + E_FN): N_j counts the instance's pixels in
    gt_instances, beta_j = IoU(query box, gt box), E_FN sums 1 - IoU of
    pixel boxes (the (h, w, 4) `global_boxes`) inside the instance, E_FP
    sums IoU of pixel boxes outside, always against the query box.
    Unmatched queries (or matches with N_j = 0) are skipped; the result is
    the mean over participating queries, 0.0 if none. gt_instances must
    hold integers in [0, len(gt_boxes)] and global_boxes no NaN.

    Both sums run over the same arrays, in the same order, as
    `(1.0 - ious[inside]).sum()` and `ious[~inside].sum()` over a
    full-frame IoU map, so every bit matches that form; only the query's
    `iou_windows` window is scored, since every pixel outside it has IoU 0.
    """
    global_boxes = box_field(global_boxes)
    ids = np.asarray(gt_instances)
    if ids.shape != global_boxes.shape[:2]:
        raise ValueError("instance map and box field shapes differ")
    g = np.asarray(gt_boxes, dtype=np.float64).reshape(-1, 4)
    with np.errstate(invalid="ignore"):
        whole = ids.dtype.kind in "biu" or np.array_equal(ids, ids.astype(np.int64))
        if ids.size and not (whole and ids.min() >= 0 and ids.max() <= len(g)):
            raise ValueError(f"gt_instances must hold integers in [0, {len(g)}]")
    if len(queries) == 0 or len(g) == 0:
        return 0.0
    qboxes = queries.boxes
    matches = match_queries(qboxes, g)
    unmatched = int((matches < 0).sum())
    if unmatched:
        logger.warning("mask_loss: %d of %d queries matched no gt box", unmatched, len(queries))
    h, w = ids.shape
    # each instance's pixels in ascending flat order: pixels[first[j]:first[j + 1]]
    flat = ids.reshape(-1) if ids.dtype.kind in "ui" else ids.reshape(-1).astype(np.intp)
    owned = np.flatnonzero(flat)
    pixels = owned[np.argsort(flat[owned], kind="stable")]
    first = np.concatenate([[0, 0], np.cumsum(np.bincount(flat[owned], minlength=len(g) + 1)[1:])])
    scored = np.flatnonzero((matches >= 0) & (first[matches + 2] > first[matches + 1]))
    if not scored.size:
        return 0.0
    labels = matches[scored] + 1
    sizes = first[labels + 1] - first[labels]
    betas = box_iou(qboxes[scored], g[labels - 1])
    windows = iou_windows([global_boxes], qboxes[scored])
    areas = _area(global_boxes)
    flat_index = np.arange(h * w).reshape(h, w)
    # the instance's N_j entries of `ones` and the other h*w - N_j entries of
    # `zeros` are the two summed arrays; each query writes its window's IoUs
    # into them and restores them after its sums
    ones, zeros = np.ones(sizes.max()), np.zeros(h * w - sizes.min())
    terms = []
    for box, j, n_j, beta, (ys, xs) in zip(qboxes[scored].tolist(), labels.tolist(), sizes.tolist(),
                                           betas.tolist(), windows):
        iou = _max_iou([global_boxes[ys, xs]], [areas[ys, xs]], box)
        inside = ids[ys, xs] == j
        # instance pixels in flat order up to each window pixel: along its
        # row in the window, plus those before the row's first window pixel
        k = np.cumsum(inside, axis=1)
        row_starts = np.arange(ys.start * w + xs.start, ys.stop * w + xs.start, w)
        k += np.searchsorted(pixels[first[j]:first[j + 1]], row_starts)[:, None]
        outside = ~inside
        fn_at = k[inside] - 1  # a pixel's place among the instance's pixels ...
        fp_at = flat_index[ys, xs][outside] - k[outside]  # ... or among the others
        ones[fn_at] = np.subtract(1.0, iou[inside], dtype=np.float64)
        zeros[fp_at] = iou[outside]
        e_fn = float(ones[:n_j].sum())
        e_fp = float(zeros[:h * w - n_j].sum())
        ones[fn_at] = 1.0
        zeros[fp_at] = 0.0
        terms.append(beta / n_j * (e_fp + e_fn))
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
    if not 0 <= semantic_weight < math.inf:
        raise ValueError(f"semantic_weight must be a finite number >= 0, got {semantic_weight}")
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
