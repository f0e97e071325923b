"""Independent naive reference implementations used by the equivalence tests.

Everything here is deliberately scalar python loops + math, sharing no code
with the package internals beyond data containers. The exceptions are the
two sections at the end: the numpy formulas over a trailing channel axis that
the package's channel-planar code must reproduce bit for bit, and the dense
full-grid forms that its sparse kernels must reproduce bit for bit.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np


def iou_ref(a, b) -> float:
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    if union <= 0:
        return 0.0
    return inter / union


def receptive_center_ref(stride: int, ix: int, iy: int) -> tuple[int, int]:
    """Full-resolution centre of grid cell (ix, iy) on a stride-z map."""
    return (stride // 2 + ix * stride, stride // 2 + iy * stride)


def box_to_offsets_ref(box, x, y) -> tuple:
    """Side distances (l, t, r, b) from pixel (x, y), which must lie in the box."""
    x1, y1, x2, y2 = box
    if not (x1 <= x <= x2 and y1 <= y <= y2):
        raise ValueError(f"pixel ({x}, {y}) lies outside box {box}")
    return (x - x1, y - y1, x2 - x, y2 - y)


def offsets_to_box_ref(off, x, y) -> tuple:
    l, t, r, b = off
    return (x - l, y - t, x + r, y + b)


def centerness_ref(off) -> float:
    """sqrt(min(l,r)/max(l,r) * min(t,b)/max(t,b)); 0 on a degenerate axis."""
    l, t, r, b = off
    mx, my = max(l, r), max(t, b)
    if mx <= 0 or my <= 0:
        return 0.0
    return math.sqrt((min(l, r) / mx) * (min(t, b) / my))


def assign_levels_ref(off, specs) -> int:
    """Index of the level whose range (min_size, max_size] holds max(off)."""
    v = max(off)
    for i, spec in enumerate(specs):
        if spec.min_size < v <= spec.max_size:
            return i
    raise ValueError(f"max offset {v} selects no level")


def nms_ref(candidates, iou_thresh: float):
    """O(n^2) greedy class-wise NMS over (box4, class, score, level) tuples.

    Returns kept tuples ordered by (-score, class, x1, y1, x2, y2, level).
    """
    def key(c):
        return (-c[2], c[1], c[0][0], c[0][1], c[0][2], c[0][3], c[3])

    pool = sorted(candidates, key=key)
    kept = []
    suppressed = [False] * len(pool)
    for i, c in enumerate(pool):
        if suppressed[i]:
            continue
        kept.append(c)
        for j in range(i + 1, len(pool)):
            if suppressed[j] or pool[j][1] != c[1]:
                continue
            if iou_ref(pool[j][0], c[0]) > iou_thresh:
                suppressed[j] = True
    return kept


def construct_masks_ref(boxes, sem_probs, queries, sigma: float):
    """Scalar mask construction. boxes is (h, w, 4) indexable; queries are
    (box4, class_id) pairs with 1-based global class ids. Returns nested
    bool lists [query][y][x]."""
    h = len(sem_probs)
    w = len(sem_probs[0])
    out = []
    for qbox, qcls in queries:
        mask = [[False] * w for _ in range(h)]
        for y in range(h):
            for x in range(w):
                p = iou_ref(boxes[y][x], qbox) * sem_probs[y][x][qcls - 1]
                if p > sigma:
                    mask[y][x] = True
        out.append(mask)
    return out


def fuse_panoptic_ref(masks, classes, scores, sem_probs, n_stuff: int, stuff_area_min: int):
    """Scalar fusion. masks [query][y][x] bool with queries in descending score
    order, 1-based thing classes and scores per query, sem_probs [y][x][channel]
    over an h x w quarter grid. Returns full-resolution (4x) class and instance
    maps as nested lists and the segments as (id, class, area, score) tuples."""
    h, w = len(sem_probs), len(sem_probs[0])
    cls_map = [[0] * w for _ in range(h)]
    inst_map = [[0] * w for _ in range(h)]
    claims = []
    for mask, cls, score in zip(masks, classes, scores):
        taken = [(y, x) for y in range(h) for x in range(w) if mask[y][x] and inst_map[y][x] == 0]
        if not taken:
            continue
        claims.append((int(cls), float(score)))
        for y, x in taken:
            cls_map[y][x], inst_map[y][x] = int(cls), len(claims)
    for y in range(h):
        for x in range(w):
            if inst_map[y][x] == 0:
                row = [float(v) for v in sem_probs[y][x]]
                top = max(range(len(row)), key=row.__getitem__) + 1  # the first maximum
                cls_map[y][x] = top if top <= n_stuff else 0
    area = Counter()
    for y in range(h):
        for x in range(w):
            area[(inst_map[y][x], cls_map[y][x])] += 16
    stuff = sorted(c for (i, c) in area if i == 0 and 1 <= c <= n_stuff)
    voided = {c for c in stuff if area[(0, c)] < stuff_area_min}
    segments = [(k, c, sum(n for (i, _), n in area.items() if i == k), s)
                for k, (c, s) in enumerate(claims, start=1)]
    segments += [(0, c, area[(0, c)], 1.0) for c in stuff if c not in voided]
    cls_map = [[0 if (i == 0 and c in voided) else c for c, i in zip(cr, ir)]
               for cr, ir in zip(cls_map, inst_map)]
    full = lambda grid: [[grid[y // 4][x // 4] for x in range(4 * w)] for y in range(4 * h)]
    return full(cls_map), full(inst_map), segments


# ------------------------------------------------------------------ losses

def iou_loss_ref(pred_boxes, target_boxes, foreground) -> float:
    total, n = 0.0, 0
    for pb, tb, fg in zip(pred_boxes, target_boxes, foreground):
        if not fg:
            continue
        v = max(iou_ref(pb, tb), 1e-6)
        total += -math.log(v)
        n += 1
    return total / n if n else 0.0


def bce_ref(p: float, t: float) -> float:
    return -(t * math.log(max(p, 1e-7)) + (1.0 - t) * math.log(max(1.0 - p, 1e-7)))


def centerness_loss_ref(pred, target, foreground) -> float:
    total, n = 0.0, 0
    for p, t, fg in zip(pred, target, foreground):
        if not fg:
            continue
        total += bce_ref(float(p), float(t))
        n += 1
    return total / n if n else 0.0


def ce_ref(logit_row, target_idx: int) -> float:
    m = max(logit_row)
    s = sum(math.exp(v - m) for v in logit_row)
    return -(logit_row[target_idx] - m - math.log(s))


def levelness_loss_ref(logits_rows, targets) -> float:
    total = 0.0
    for row, t in zip(logits_rows, targets):
        total += ce_ref(row, int(t))
    return total / len(targets) if len(targets) else 0.0


def focal_loss_ref(probs_rows, target_classes, foreground, n_stuff: int,
                   alpha: float = 0.25, gamma: float = 2.0) -> float:
    total, n_fg = 0.0, 0
    for row, cls, fg in zip(probs_rows, target_classes, foreground):
        pos_ch = int(cls) - n_stuff - 1 if fg else -1
        if fg:
            n_fg += 1
        for ch, p in enumerate(row):
            p = float(p)
            if ch == pos_ch:
                total += -alpha * (1.0 - p) ** gamma * math.log(max(p, 1e-7))
            else:
                total += -(1.0 - alpha) * p ** gamma * math.log(max(1.0 - p, 1e-7))
    return total / max(1, n_fg)


def semantic_loss_ref(logits_rows, targets, fraction: float = 0.3) -> float:
    ces = [ce_ref(row, int(t) - 1) for row, t in zip(logits_rows, targets)]
    if not ces:
        return 0.0
    k = max(1, math.ceil(fraction * len(ces) - 1e-9))
    ces.sort(reverse=True)
    return sum(ces[:k]) / k


def match_queries_ref(query_boxes, gt_boxes):
    out = []
    for q in query_boxes:
        best, best_iou = -1, 0.0
        for j, g in enumerate(gt_boxes):
            v = iou_ref(q, g)
            if v > best_iou:
                best, best_iou = j, v
        out.append(best)
    return out


def mask_loss_ref(field_boxes, query_boxes, gt_boxes, gt_instances) -> float:
    """field_boxes (h, w, 4) indexable, gt_instances (h, w) int indexable."""
    h = len(gt_instances)
    w = len(gt_instances[0]) if h else 0
    matches = match_queries_ref(query_boxes, gt_boxes)
    terms = []
    for qi, qbox in enumerate(query_boxes):
        j = matches[qi]
        if j < 0:
            continue
        n_j = sum(1 for y in range(h) for x in range(w) if gt_instances[y][x] == j + 1)
        if n_j == 0:
            continue
        beta = iou_ref(qbox, gt_boxes[j])
        e_fp = e_fn = 0.0
        for y in range(h):
            for x in range(w):
                v = iou_ref(field_boxes[y][x], qbox)
                if gt_instances[y][x] == j + 1:
                    e_fn += 1.0 - v
                else:
                    e_fp += v
        terms.append(beta / n_j * (e_fp + e_fn))
    return sum(terms) / len(terms) if terms else 0.0


# ----------------------------------------------------------------- metrics

def _segments_of(class_map, inst_map):
    """dict key -> set of pixel coords; key = (class, instance)."""
    segs = {}
    for y in range(len(class_map)):
        for x in range(len(class_map[0])):
            c = int(class_map[y][x])
            if c == 0:
                continue
            key = (c, int(inst_map[y][x]))
            segs.setdefault(key, set()).add((y, x))
    return segs


def label_counts_ref(class_map, inst_map) -> Counter:
    """(class, instance) -> pixel count of a labeling, counted pixel by pixel."""
    counts = Counter()
    for class_row, inst_row in zip(class_map, inst_map):
        for c, i in zip(class_row, inst_row):
            counts[(int(c), int(i))] += 1
    return counts


def pq_ref(pred_class, pred_inst, gt_class, gt_inst, n_stuff: int):
    """Set-based panoptic quality. Returns (pq, pq_things, pq_stuff,
    per_class dict of [tp, fp, fn, iou_sum])."""
    gt_segs = _segments_of(gt_class, gt_inst)
    pred_segs = _segments_of(pred_class, pred_inst)
    void = {(y, x) for y in range(len(gt_class)) for x in range(len(gt_class[0]))
            if int(gt_class[y][x]) == 0}
    per = {}

    def stats(c):
        return per.setdefault(c, [0, 0, 0, 0.0])

    matched_gt, matched_pred = set(), set()
    for gk, gpix in gt_segs.items():
        for pk, ppix in pred_segs.items():
            if gk[0] != pk[0]:
                continue
            inter = len(gpix & ppix)
            if inter == 0:
                continue
            union = len(gpix) + len(ppix - void) - inter
            if union <= 0:
                continue
            v = inter / union
            if v > 0.5:
                s = stats(gk[0])
                s[0] += 1
                s[3] += v
                matched_gt.add(gk)
                matched_pred.add(pk)
    for gk in gt_segs:
        if gk not in matched_gt:
            stats(gk[0])[2] += 1
    for pk, ppix in pred_segs.items():
        if pk in matched_pred:
            continue
        if len(ppix & void) / len(ppix) > 0.5:
            continue
        stats(pk[0])[1] += 1

    def pq_of(c):
        tp, fp, fn, iou_sum = per[c]
        d = tp + 0.5 * fp + 0.5 * fn
        return iou_sum / d if d > 0 else 0.0

    classes = sorted(per)
    things = [c for c in classes if c > n_stuff]
    stuff = [c for c in classes if c <= n_stuff]

    def mean(cs):
        return sum(pq_of(c) for c in cs) / len(cs) if cs else 0.0

    return mean(classes), mean(things), mean(stuff), per


def miou_ref(pred_class, gt_class):
    inter, gt_count, pred_count = {}, {}, {}
    for y in range(len(gt_class)):
        for x in range(len(gt_class[0])):
            g, p = int(gt_class[y][x]), int(pred_class[y][x])
            if g == 0:
                continue
            gt_count[g] = gt_count.get(g, 0) + 1
            pred_count[p] = pred_count.get(p, 0) + 1
            if g == p:
                inter[g] = inter.get(g, 0) + 1
    ious = {}
    for c in gt_count:
        union = gt_count[c] + pred_count.get(c, 0) - inter.get(c, 0)
        ious[c] = inter.get(c, 0) / union if union > 0 else 0.0
    miou = sum(ious.values()) / len(ious) if ious else 0.0
    return miou, ious


# ------------------------------------------------------------ row layout

def softmax_rows_ref(logits: np.ndarray) -> np.ndarray:
    """Softmax over the trailing channel axis of (..., C) logits, summed over
    C-contiguous rows whatever the memory order of the input."""
    logits = np.ascontiguousarray(logits)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy_rows_ref(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per-row float64 CE of integer targets under the softmax of (rows, C) logits,
    summed over C-contiguous rows whatever the memory order of the input."""
    z = np.ascontiguousarray(logits, dtype=np.float64).reshape(-1, logits.shape[-1])
    t = np.asarray(targets, dtype=np.int64).reshape(-1)
    m = z.max(axis=1)
    s = np.log(np.exp(z - m[:, None]).sum(axis=1))
    return -(z[np.arange(len(t)), t] - m - s)


# ------------------------------------------------------------ dense forms

def focal_loss_dense_ref(pred_probs, target_classes, foreground, n_stuff: int = 0,
                         alpha: float = 0.25, gamma: float = 2.0) -> float:
    """The focal loss as one-hot arrays: both terms at every (location,
    channel) pair, masked by y and 1 - y, summed."""
    p = np.asarray(pred_probs, dtype=np.float64).reshape(-1, pred_probs.shape[-1])
    cls = np.asarray(target_classes, dtype=np.int64).reshape(-1)
    fg = np.asarray(foreground, dtype=bool).reshape(-1)
    y = np.zeros_like(p)
    if fg.any():
        y[np.nonzero(fg)[0], cls[fg] - n_stuff - 1] = 1.0

    def safe_log(x):
        return np.log(np.maximum(x, 1e-7))

    pos = -alpha * (1.0 - p) ** gamma * safe_log(p) * y
    neg = -(1.0 - alpha) * p ** gamma * safe_log(1.0 - p) * (1.0 - y)
    return float((pos + neg).sum() / max(1, int(fg.sum())))


def weak_owners_ref(boxes, height: int, width: int) -> np.ndarray:
    """Weak-mode owners painted through boolean row and column masks: boxes
    (K, 4) float32 from the largest area down, equal areas from the highest
    id down, each over the pixels (x, y) with x1 <= x <= x2 and y1 <= y <= y2."""
    boxes = np.asarray(boxes, dtype=np.float32).reshape(-1, 4)
    out = np.zeros((height, width), dtype=np.uint16)
    areas = ((boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])).astype(np.float64)
    ys, xs = np.arange(height), np.arange(width)
    for k in np.lexsort((-np.arange(len(areas)), -areas)):
        x1, y1, x2, y2 = boxes[k].astype(np.float64)
        out[np.ix_((ys >= y1) & (ys <= y2), (xs >= x1) & (xs <= x2))] = k + 1
    return out
