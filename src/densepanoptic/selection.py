"""Candidate decoding, class-wise NMS and global box-field assembly.

Candidates and queries travel as one QuerySet of parallel arrays. All
ordering in this module follows one total order so results never depend on
input permutation: descending score, then ascending class id, box
coordinates (x1, y1, x2, y2) and level index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import DenseBoxLevel, LevelnessField, level_grids, upsample_nearest
from .geometry import _area, _iou_from_areas, boxes_valid, decode_boxes


@dataclass(frozen=True)
class ScoredBox:
    """One query as a row object: absolute box (x1, y1, x2, y2) of Python
    floats, global class id, score, level.

    Built on demand when a QuerySet is iterated; the pipeline reads the
    QuerySet arrays directly.
    """

    box: tuple[float, float, float, float]
    class_id: int
    score: float
    level: int


@dataclass(eq=False)
class QuerySet:
    """Detection candidates or NMS survivors as four parallel arrays.

    boxes: (M, 4) float64 absolute (x1, y1, x2, y2); classes: (M,) int64
    global class ids; scores: (M,) float64; levels: (M,) int64 pyramid level
    indices. decode_candidates and nms emit their sets in the total order;
    the constructor keeps the order it is given.
    """

    boxes: np.ndarray
    classes: np.ndarray
    scores: np.ndarray
    levels: np.ndarray

    def __post_init__(self):
        self.boxes = np.asarray(self.boxes, dtype=np.float64)
        self.classes = np.asarray(self.classes, dtype=np.int64)
        self.scores = np.asarray(self.scores, dtype=np.float64)
        self.levels = np.asarray(self.levels, dtype=np.int64)
        n = len(self.scores)
        columns = (self.classes, self.scores, self.levels)
        if self.boxes.shape != (n, 4) or any(a.shape != (n,) for a in columns):
            raise ValueError("a QuerySet needs (M, 4) boxes and M classes, scores and levels")
        if not boxes_valid(self.boxes):
            raise ValueError("query boxes must be finite and satisfy x1 <= x2 and y1 <= y2")

    def __len__(self) -> int:
        return len(self.scores)

    def __iter__(self):
        rows = zip(self.boxes.tolist(), self.classes.tolist(), self.scores.tolist(), self.levels.tolist())
        return (ScoredBox(tuple(b), c, s, l) for b, c, s, l in rows)

    def box_array(self) -> np.ndarray:
        """(M, 4) float64 box coordinates in query order."""
        return self.boxes

    def take(self, idx) -> QuerySet:
        """The queries at integer indices `idx`, in that order."""
        return QuerySet(self.boxes[idx], self.classes[idx], self.scores[idx], self.levels[idx])

    def ordered(self, k: int | None = None) -> QuerySet:
        """The first k queries (all by default) in the total order."""
        b = self.boxes
        order = np.lexsort((self.levels, b[:, 3], b[:, 2], b[:, 1], b[:, 0], self.classes, -self.scores))
        return self.take(order[:k])


def decode_candidates(
    levels: list[DenseBoxLevel],
    score_thresh: float = 0.05,
    topk_per_level: int = 1000,
    n_stuff: int = 0,
) -> QuerySet:
    """Turn dense per-level predictions into scored box candidates.

    A location's score for thing channel c is class_probs[..., c] *
    centerness; locations scoring >= score_thresh survive, then each level
    keeps its top-k by the deterministic total order. Emitted class ids are
    global (n_stuff + 1 + channel).

    Returns:
        Candidates in the total order.
    """
    if not 0 <= score_thresh < math.inf:
        raise ValueError(f"score_thresh must be a finite number >= 0, got {score_thresh}")
    if topk_per_level < 1:
        raise ValueError("topk_per_level must be positive")
    parts = [QuerySet(np.zeros((0, 4)), [], [], [])]
    for li, lv in enumerate(levels):
        score = lv.class_probs * lv.centerness[:, :, None]
        yy, xx, cc = np.nonzero(score >= score_thresh)
        part = QuerySet(decode_boxes(lv.offsets[yy, xx], lv.stride, np.float64, xx, yy),
                        cc + n_stuff + 1, score[yy, xx, cc], np.full(yy.size, li))
        parts.append(part.ordered(topk_per_level) if len(part) > topk_per_level else part)
    return QuerySet(np.concatenate([p.boxes for p in parts]), np.concatenate([p.classes for p in parts]),
                    np.concatenate([p.scores for p in parts]),
                    np.concatenate([p.levels for p in parts])).ordered()


def nms(candidates: QuerySet, iou_thresh: float = 0.6) -> QuerySet:
    """Greedy class-wise non-maximum suppression.

    Candidates are visited in the deterministic total order; each kept box
    suppresses later same-class boxes with IoU strictly above iou_thresh.
    Output order is descending score (the total order), independent of the
    input permutation.
    """
    if not 0 <= iou_thresh <= 1:
        raise ValueError("iou_thresh must be in [0, 1]")
    cands = candidates.ordered()
    boxes, classes = cands.boxes, cands.classes
    areas = _area(boxes)
    alive = np.ones(len(cands), dtype=bool)
    kept = []
    for i in range(len(cands)):
        if not alive[i]:
            continue
        kept.append(i)
        later = alive.copy()
        later[: i + 1] = False
        later &= classes == classes[i]
        if not later.any():
            continue
        idx = np.nonzero(later)[0]
        alive[idx[_iou_from_areas(boxes[idx], boxes[i], areas[idx], areas[i]) > iou_thresh]] = False
    return cands.take(np.array(kept, dtype=np.int64))


def _quarter_block(level: DenseBoxLevel, quarter_hw: tuple[int, int]) -> int:
    """Quarter pixels per level cell along each axis, stride // 4; the level
    grid must be the `level_grids` grid of its stride on the image."""
    qh, qw = quarter_hw
    if level_grids([level.stride], (4 * qh, 4 * qw)) != [level.shape]:
        raise ValueError(f"level grid {level.shape} does not tile the quarter resolution {quarter_hw}")
    return level.stride // 4


def resample_level_boxes(level: DenseBoxLevel, quarter_hw: tuple[int, int]) -> np.ndarray:
    """Absolute per-location boxes of one level, replicated onto the quarter grid.

    Cell (ix, iy) decodes the box at its receptive center; each cell covers a
    (stride//4)^2 block of quarter pixels. Returns (H/4, W/4, 4) float32.
    """
    rep = _quarter_block(level, quarter_hw)
    return upsample_nearest(decode_boxes(level.offsets, level.stride, np.float32), rep)


def assemble_global_boxes(levels: list[DenseBoxLevel], levelness: LevelnessField) -> np.ndarray:
    """Collapse the box pyramid into one quarter-resolution (H/4, W/4, 4) float32 box field.

    Each pixel takes the box its levelness argmax selects, decoded from the
    level cell that covers it (the box `resample_level_boxes` puts there);
    pixels selecting background (0) read one shared empty box (+inf, +inf,
    -inf, -inf). It scores IoU exactly 0 against every query (intersection
    0, union +inf), and its extents drop out of `iou_windows`.

    The empty box (a one-cell grid whose block covers the frame) and every
    level's decoded cells form one table of rows; pixel (y, x) selecting s
    reads row `row_index[s, y] + col_index[s, x]`, all pixels in one gather
    of 16-byte rows.
    """
    if levelness.n_levels != len(levels):
        raise ValueError("levelness channel count must be n_levels + 1")
    qh, qw = levelness.shape
    empty = np.array([[[np.inf, np.inf, -np.inf, -np.inf]]], dtype=np.float32)
    grids = [empty] + [decode_boxes(lv.offsets, lv.stride, np.float32) for lv in levels]
    reps = np.array([max(qh, qw)] + [_quarter_block(lv, (qh, qw)) for lv in levels])[:, None]
    widths = np.array([g.shape[1] for g in grids])[:, None]
    starts = np.cumsum([0] + [g.shape[0] * g.shape[1] for g in grids[:-1]])[:, None]
    row_index, col_index = starts + np.arange(qh) // reps * widths, np.arange(qw) // reps
    sel = levelness.argmax_levels().astype(np.intp)
    idx = np.take(row_index, sel * qh + np.arange(qh)[:, None])
    idx += np.take(col_index, sel * qw + np.arange(qw))
    rows = np.concatenate([g.reshape(-1, 4) for g in grids]).view(np.complex128).reshape(-1)  # 16 bytes a box
    return rows.take(idx).view(np.float32).reshape(qh, qw, 4)
