"""Panoptic quality (with SQ/RQ decomposition) and semantic mean-IoU.

Segments are keyed by (class_id, segment_id); stuff segments use segment id
0. Void (class 0) ground-truth pixels never count against a prediction:
they are excluded from match unions and from the semantic confusion matrix,
and predictions mostly covering void are discarded rather than counted as
false positives. `evaluate_panoptic` reads both metrics from one table of
pixel counts per (gt segment, pred segment) pair, counted once per frame.
The segment labels (`segment_labels`), their counting (`pair_counts`) and
the rules a labeling must obey (`check_labels`) live in fields.py.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fields import PanopticMap, check_labels, pair_counts, segment_labels

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


def _segment_pairs(pred: PanopticMap, gt: PanopticMap) -> tuple[np.ndarray, ...]:
    """(gt class, gt instance, pred class, pred instance, pixel count) rows of
    every overlapping pair of segments, as integer arrays in ascending (gt,
    pred) order; a void segment is one whose class is 0, whatever its instance."""
    if pred.shape != gt.shape:
        raise ValueError(f"resolution mismatch: {pred.shape} vs {gt.shape}")
    g_labels, g_inst, g_n = segment_labels(gt.class_map, gt.instance_map)
    p_labels, p_inst, p_n = segment_labels(pred.class_map, pred.instance_map)
    g, p, counts = pair_counts(g_labels, g_n, p_labels, p_n)
    return (*np.divmod(g, g_inst), *np.divmod(p, p_inst), counts)


def match_segments(pred: PanopticMap, gt: PanopticMap,
                   pairs: tuple[np.ndarray, ...] | None = None) -> tuple[list[SegmentMatch], set[Key], set[Key]]:
    """Pair predicted and ground-truth segments of equal class at IoU > 0.5.

    IoU unions ignore gt-void pixels. Returns (matches, fp_keys, fn_keys)
    where keys are (class_id, segment_id); predictions with more than half
    their area on gt-void are dropped entirely (neither TP nor FP). The
    strict 0.5 threshold makes matches unique, so no assignment search is
    needed. `pairs` is the frame's segment pair table when the caller
    already counted it.
    """
    if pairs is None:
        pairs = _segment_pairs(pred, gt)
    gt_areas: dict[Key, int] = {}
    pred_areas: dict[Key, int] = {}
    inter: dict[tuple[Key, Key], int] = {}
    void_inter: dict[Key, int] = {}
    for gc, gi, pc, pi, c in zip(*(col.tolist() for col in pairs)):
        g, p = (gc, gi), (pc, pi)
        if gc != 0:
            gt_areas[g] = gt_areas.get(g, 0) + c
        if pc != 0:
            pred_areas[p] = pred_areas.get(p, 0) + c
            if gc != 0:
                inter[(g, p)] = c  # each pair of segments has one row
            else:
                void_inter[p] = void_inter.get(p, 0) + c

    matches: list[SegmentMatch] = []
    matched_gt: set[Key] = set()
    matched_pred: set[Key] = set()
    for (g, p), ov in inter.items():
        if g[0] != p[0]:
            continue
        iou = ov / (gt_areas[g] + pred_areas[p] - ov - void_inter.get(p, 0))
        if iou > 0.5:
            if g in matched_gt or p in matched_pred:
                raise RuntimeError("non-unique match above IoU 0.5; maps are inconsistent")
            matches.append(SegmentMatch(gt_key=g, pred_key=p, iou=iou))
            matched_gt.add(g)
            matched_pred.add(p)

    fn = {g for g in gt_areas if g not in matched_gt}
    fp = {p for p, area in pred_areas.items()
          if p not in matched_pred and void_inter.get(p, 0) / area <= 0.5}
    return matches, fp, fn


def panoptic_quality(
    matches: list[SegmentMatch],
    fp: set[Key],
    fn: set[Key],
    n_stuff: int,
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
    gt_classes = gt_classes.astype(np.uint32)
    pred_classes = pred_classes.astype(np.uint32)
    return _class_iou(*pair_counts(gt_classes, int(gt_classes.max(initial=0)) + 1,
                                   pred_classes, int(pred_classes.max(initial=0)) + 1))


def _class_iou(gt_classes: np.ndarray, pred_classes: np.ndarray,
               counts: np.ndarray) -> tuple[float, dict[int, float]]:
    """mIoU and per-class IoU from (gt class, pred class, pixel count) rows in
    ascending gt class order; a class pair may span several rows."""
    gt_count: dict[int, int] = {}
    pred_count: dict[int, int] = {}
    inter: dict[int, int] = {}
    for g, p, c in zip(gt_classes.tolist(), pred_classes.tolist(), counts.tolist()):
        if g == 0:
            continue
        gt_count[g] = gt_count.get(g, 0) + c
        pred_count[p] = pred_count.get(p, 0) + c
        if g == p:
            inter[g] = inter.get(g, 0) + c
    per = {c: inter.get(c, 0) / (n + pred_count.get(c, 0) - inter.get(c, 0)) for c, n in gt_count.items()}
    miou = float(np.mean(list(per.values()))) if per else 0.0
    return miou, per


def evaluate_panoptic(pred: PanopticMap, gt: PanopticMap, n_stuff: int, n_things: int) -> MetricsReport:
    """Full evaluation: segment matching, PQ means and semantic mIoU.

    The frame's segment pair table is counted once; matching reads it, and
    the class table behind mIoU is its class columns. Each side's labels must
    pass `check_labels`.
    """
    pairs = _segment_pairs(pred, gt)
    gt_classes, gt_inst, pred_classes, pred_inst, counts = pairs
    check_labels(gt_classes, gt_inst, n_stuff, n_things, "ground truth")
    check_labels(pred_classes, pred_inst, n_stuff, n_things, "prediction")
    matches, fp, fn = match_segments(pred, gt, pairs=pairs)
    pq, pq_th, pq_st, per = panoptic_quality(matches, fp, fn, n_stuff)
    miou, per_iou = _class_iou(gt_classes, pred_classes, counts)
    return MetricsReport(pq=pq, pq_things=pq_th, pq_stuff=pq_st, miou=miou,
                         per_class=per, per_class_iou=per_iou)
