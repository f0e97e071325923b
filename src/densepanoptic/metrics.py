"""Panoptic quality (with SQ/RQ decomposition) and semantic mean-IoU.

Segments are keyed by (class_id, segment_id); stuff segments use segment id
0. Void (class 0) ground-truth pixels never count against a prediction:
they are excluded from match unions and from the semantic confusion matrix,
and predictions mostly covering void are discarded rather than counted as
false positives.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fields import PanopticMap, segment_keys, split_segment_key

Key = tuple[int, int]


@dataclass(frozen=True)
class SegmentMatch:
    """One true-positive pair; IoU is strictly above 0.5 by construction."""

    gt_key: Key
    pred_key: Key
    iou: float

    @property
    def class_id(self) -> int:
        return self.gt_key[0]


@dataclass
class ClassStats:
    """Per-class match accumulators."""

    tp: int = 0
    fp: int = 0
    fn: int = 0
    iou_sum: float = 0.0

    @property
    def denom(self) -> float:
        return self.tp + 0.5 * self.fp + 0.5 * self.fn

    @property
    def pq(self) -> float:
        d = self.denom
        return self.iou_sum / d if d > 0 else 0.0

    @property
    def sq(self) -> float:
        return self.iou_sum / self.tp if self.tp else 0.0

    @property
    def rq(self) -> float:
        d = self.denom
        return self.tp / d if d > 0 else 0.0


@dataclass
class MetricsReport:
    """Aggregate panoptic/semantic quality numbers plus per-class detail."""

    pq: float
    pq_things: float
    pq_stuff: float
    miou: float
    per_class: dict[int, ClassStats] = field(default_factory=dict)
    per_class_iou: dict[int, float] = field(default_factory=dict)

    def format(self) -> str:
        lines = [
            f"PQ      : {self.pq:.6f}",
            f"PQ_th   : {self.pq_things:.6f}",
            f"PQ_st   : {self.pq_stuff:.6f}",
            f"mIoU    : {self.miou:.6f}",
            "per-class PQ/SQ/RQ (TP FP FN):",
        ]
        for c in sorted(self.per_class):
            s = self.per_class[c]
            lines.append(
                f"  class {c:3d}: {s.pq:.4f} {s.sq:.4f} {s.rq:.4f}  ({s.tp} {s.fp} {s.fn})"
            )
        lines.append("per-class IoU:")
        for c in sorted(self.per_class_iou):
            lines.append(f"  class {c:3d}: {self.per_class_iou[c]:.4f}")
        return "\n".join(lines)


def _pair_counts(a: np.ndarray, b: np.ndarray) -> tuple[list[int], list[int], list[int]]:
    """Distinct (a, b) pairs of two id maps (ids in [0, 2**32)) and their pixel
    counts, as Python ints in ascending (a, b) order: one sort of a uint64 key."""
    joint = a.astype(np.uint64) << np.uint64(32)
    joint |= b.astype(np.uint64)
    uniq, counts = np.unique(joint, return_counts=True)
    return (uniq >> np.uint64(32)).tolist(), (uniq & np.uint64(0xFFFFFFFF)).tolist(), counts.tolist()


def match_segments(pred: PanopticMap, gt: PanopticMap) -> tuple[list[SegmentMatch], set[Key], set[Key]]:
    """Pair predicted and ground-truth segments of equal class at IoU > 0.5.

    IoU unions ignore gt-void pixels. Returns (matches, fp_keys, fn_keys)
    where keys are (class_id, segment_id); predictions with more than half
    their area on gt-void are dropped entirely (neither TP nor FP). The
    strict 0.5 threshold makes matches unique, so no assignment search is
    needed.
    """
    if pred.shape != gt.shape:
        raise ValueError(f"resolution mismatch: {pred.shape} vs {gt.shape}")
    gt_areas: dict[int, int] = {}
    pred_areas: dict[int, int] = {}
    inter: dict[tuple[int, int], int] = {}
    void_inter: dict[int, int] = {}
    for g, p, c in zip(*_pair_counts(segment_keys(gt.class_map, gt.instance_map),
                                     segment_keys(pred.class_map, pred.instance_map))):
        if g != 0:
            gt_areas[g] = gt_areas.get(g, 0) + c
        if p != 0:
            pred_areas[p] = pred_areas.get(p, 0) + c
            if g != 0:
                inter[(g, p)] = c
            else:
                void_inter[p] = c

    matches: list[SegmentMatch] = []
    matched_gt: set[int] = set()
    matched_pred: set[int] = set()
    for (g, p), ov in inter.items():
        if split_segment_key(g)[0] != split_segment_key(p)[0]:
            continue
        iou = ov / (gt_areas[g] + pred_areas[p] - ov - void_inter.get(p, 0))
        if iou > 0.5:
            if g in matched_gt or p in matched_pred:
                raise RuntimeError("non-unique match above IoU 0.5; maps are inconsistent")
            matches.append(SegmentMatch(gt_key=split_segment_key(g), pred_key=split_segment_key(p), iou=iou))
            matched_gt.add(g)
            matched_pred.add(p)

    fn = {split_segment_key(g) for g in gt_areas if g not in matched_gt}
    fp = {split_segment_key(p) for p, area in pred_areas.items()
          if p not in matched_pred and void_inter.get(p, 0) / area <= 0.5}
    return matches, fp, fn


def panoptic_quality(
    matches: list[SegmentMatch],
    fp: set[Key],
    fn: set[Key],
    n_stuff: int,
    n_things: int,
) -> tuple[float, float, float, dict[int, ClassStats]]:
    """Eq-style PQ from match results.

    Per class: PQ = sum(IoU of TP) / (TP + FP/2 + FN/2); classes with no gt
    and no pred segments are skipped from every mean. Returns
    (pq, pq_things, pq_stuff, per_class).
    """
    per: dict[int, ClassStats] = {}

    def stats(c: int) -> ClassStats:
        return per.setdefault(c, ClassStats())

    for m in matches:
        s = stats(m.class_id)
        s.tp += 1
        s.iou_sum += m.iou
    for c, _sid in fp:
        stats(c).fp += 1
    for c, _sid in fn:
        stats(c).fn += 1

    def mean(classes) -> float:
        vals = [per[c].pq for c in classes]
        return float(np.mean(vals)) if vals else 0.0

    all_c = sorted(per)
    things = [c for c in all_c if c > n_stuff]
    stuff = [c for c in all_c if 0 < c <= n_stuff]
    return mean(all_c), mean(things), mean(stuff), per


def mean_iou(pred_classes: np.ndarray, gt_classes: np.ndarray) -> tuple[float, dict[int, float]]:
    """Semantic mean-IoU over classes present in the ground truth.

    Pixels with gt class 0 (void) are ignored entirely. Per-class IoU is
    intersection over union from the confusion pairs of valid pixels.
    Class ids must be integers in [0, 2**32); integer arrays skip the
    integrality check.
    """
    pred_classes = np.asarray(pred_classes)
    gt_classes = np.asarray(gt_classes)
    if pred_classes.shape != gt_classes.shape:
        raise ValueError("resolution mismatch")
    if gt_classes.size and not (min(pred_classes.min(), gt_classes.min()) >= 0
                                and max(pred_classes.max(), gt_classes.max()) < 2 ** 32):
        raise ValueError("class ids must lie in [0, 2**32)")
    for ids in (pred_classes, gt_classes):
        if ids.dtype.kind not in "biu" and not np.array_equal(ids, np.floor(ids)):
            raise ValueError("class ids must be integers")
    gt_count: dict[int, int] = {}
    pred_count: dict[int, int] = {}
    inter: dict[int, int] = {}
    for g, p, c in zip(*_pair_counts(gt_classes, pred_classes)):
        if g == 0:
            continue
        gt_count[g] = gt_count.get(g, 0) + c
        pred_count[p] = pred_count.get(p, 0) + c
        if g == p:
            inter[g] = c
    per = {c: inter.get(c, 0) / (n + pred_count.get(c, 0) - inter.get(c, 0)) for c, n in gt_count.items()}
    miou = float(np.mean(list(per.values()))) if per else 0.0
    return miou, per


def evaluate_panoptic(pred: PanopticMap, gt: PanopticMap, n_stuff: int, n_things: int) -> MetricsReport:
    """Full evaluation: segment matching, PQ means and semantic mIoU."""
    matches, fp, fn = match_segments(pred, gt)
    pq, pq_th, pq_st, per = panoptic_quality(matches, fp, fn, n_stuff, n_things)
    miou, per_iou = mean_iou(pred.class_map, gt.class_map)
    return MetricsReport(pq=pq, pq_things=pq_th, pq_stuff=pq_st, miou=miou,
                         per_class=per, per_class_iou=per_iou)
