"""Micro-benchmark harness: vectorized pipeline stages vs a naive per-pixel
oracle, with single- and multi-thread mask-construction timings."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .fields import GlobalBoxField, SemanticField, softmax_field
from .geometry import offsets_to_boxes, receptive_centers
from .maskcons import construct_masks, fuse_panoptic
from .selection import QuerySet, nms


@dataclass
class StageTiming:
    name: str
    times: list[float] = field(default_factory=list)

    @property
    def mean(self) -> float:
        return float(np.mean(self.times)) if self.times else 0.0

    @property
    def median(self) -> float:
        return float(np.median(self.times)) if self.times else 0.0


@dataclass
class BenchReport:
    """All stage timings plus the two headline speedups."""

    height: int
    width: int
    queries: int
    threads: int
    stages: list[StageTiming]
    speedup_vs_naive: float
    thread_speedup: float

    def format(self) -> str:
        lines = [
            f"benchmark: {self.height}x{self.width} quarter grid, "
            f"{self.queries} queries, {self.threads} threads",
            f"{'stage':>28s} {'mean (s)':>10s} {'median (s)':>10s}",
        ]
        for s in self.stages:
            lines.append(f"{s.name:>28s} {s.mean:>10.4f} {s.median:>10.4f}")
        if self.speedup_vs_naive > 0.0:
            lines.append(f"speedup vs naive oracle (1 thread): {self.speedup_vs_naive:.2f}x")
        lines.append(f"speedup at {self.threads} threads vs 1 thread: {self.thread_speedup:.2f}x")
        return "\n".join(lines)


def make_bench_inputs(height: int, width: int, n_queries: int, seed: int = 0):
    """Random but realistic quarter-resolution inputs for the mask stage.

    Returns (GlobalBoxField, SemanticField, QuerySet) with n_queries thing
    queries over 2 stuff + 4 thing classes; roughly a fifth of the pixels
    are background.
    """
    if height < 4 or width < 4 or n_queries < 1:
        raise ValueError("bench inputs need a real grid and at least one query")
    rng = np.random.Generator(np.random.PCG64(seed))
    n_stuff, n_things = 2, 4
    cx = np.broadcast_to(receptive_centers(4, np.arange(width)), (height, width))
    cy = np.broadcast_to(receptive_centers(4, np.arange(height))[:, None], (height, width))
    jitter = rng.normal(0, 30.0, (height, width, 2))
    half_w = rng.uniform(20.0, 150.0, (height, width))
    half_h = rng.uniform(20.0, 150.0, (height, width))
    boxes = offsets_to_boxes(np.stack([half_w, half_h, half_w, half_h], axis=2),
                             cx + jitter[:, :, 0], cy + jitter[:, :, 1]).astype(np.float32)
    ys, xs = np.nonzero(rng.random((height, width)) < 0.2)
    boxes[ys, xs] = offsets_to_boxes(np.zeros((ys.size, 4)), cx[ys, xs], cy[ys, xs])
    gb = GlobalBoxField(boxes=boxes)
    sem = SemanticField(softmax_field(rng.normal(0, 2.0, (height, width, n_stuff + n_things)).astype(np.float32)))
    qboxes = np.empty((n_queries, 4))
    classes = np.empty(n_queries, dtype=np.int64)
    scores = np.empty(n_queries)
    for i in range(n_queries):
        qx = rng.uniform(0, 4 * width)
        qy = rng.uniform(0, 4 * height)
        hw = rng.uniform(30.0, 180.0)
        hh = rng.uniform(30.0, 180.0)
        qboxes[i] = (qx - hw, qy - hh, qx + hw, qy + hh)
        classes[i] = n_stuff + 1 + rng.integers(n_things)
        scores[i] = rng.uniform(0.1, 1.0)
    return gb, sem, QuerySet(qboxes, classes, scores, np.zeros(n_queries, dtype=np.int64)).ordered()


def naive_construct_masks(gb: GlobalBoxField, sem: SemanticField, queries: QuerySet,
                          n_stuff: int, sigma: float = 0.3) -> np.ndarray:
    """Scalar-loop reference mask construction (deliberately unvectorized)."""
    h, w = sem.shape
    out = np.zeros((len(queries), h, w), dtype=bool)
    boxes = gb.boxes
    probs = sem.probs
    for qi, ((qx1, qy1, qx2, qy2), cls) in enumerate(zip(queries.boxes.tolist(), queries.classes.tolist())):
        qarea = (qx2 - qx1) * (qy2 - qy1)
        ch = cls - 1
        for y in range(h):
            for x in range(w):
                bx1, by1, bx2, by2 = boxes[y, x]
                iw = min(bx2, qx2) - max(bx1, qx1)
                ih = min(by2, qy2) - max(by1, qy1)
                if iw <= 0 or ih <= 0:
                    continue
                inter = iw * ih
                union = (bx2 - bx1) * (by2 - by1) + qarea - inter
                if union <= 0:
                    continue
                p = (inter / union) * probs[y, x, ch]
                if p > sigma:
                    out[qi, y, x] = True
    return out


def _time(fn, repeat: int) -> list[float]:
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return times


def run_benchmark(height: int = 256, width: int = 512, n_queries: int = 50,
                  threads: int = 4, repeat: int = 3, seed: int = 0,
                  include_naive: bool = True) -> BenchReport:
    """Time the construction stages and compute the headline speedups.

    The naive oracle runs once (it dominates wall time); vectorized stages
    run `repeat` times and report mean/median.
    """
    if repeat < 1 or threads < 1:
        raise ValueError("repeat and threads must be positive")
    gb, sem, queries = make_bench_inputs(height, width, n_queries, seed)
    n_stuff = 2
    stages: list[StageTiming] = []

    single = StageTiming("mask_construction_1thread", _time(
        lambda: construct_masks(queries, sem, n_stuff, global_boxes=gb, threads=1), repeat))
    stages.append(single)
    multi = StageTiming(f"mask_construction_{threads}threads", _time(
        lambda: construct_masks(queries, sem, n_stuff, global_boxes=gb, threads=threads), repeat))
    stages.append(multi)

    masks = construct_masks(queries, sem, n_stuff, global_boxes=gb, threads=1)
    stages.append(StageTiming("fusion", _time(
        lambda: fuse_panoptic(masks, queries, sem, n_stuff, stuff_area_min=0), repeat)))
    stages.append(StageTiming("nms_on_queries", _time(
        lambda: nms(queries, iou_thresh=0.6), repeat)))

    speedup_naive = 0.0
    if include_naive:
        naive = StageTiming("naive_oracle_1thread", _time(
            lambda: naive_construct_masks(gb, sem, queries, n_stuff), 1))
        stages.append(naive)
        if single.median > 0:
            speedup_naive = naive.median / single.median
    thread_speedup = single.median / multi.median if multi.median > 0 else 0.0
    return BenchReport(height=height, width=width, queries=n_queries, threads=threads,
                       stages=stages, speedup_vs_naive=speedup_naive,
                       thread_speedup=thread_speedup)
