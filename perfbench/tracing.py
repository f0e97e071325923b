"""Spans recorded from the benchmark's side of each library call.

A span is ``[name, start, end, parent, image]``: ``parent`` is the index of
the enclosing span in ``Tracer.spans`` (-1 at top level) and ``image`` the
attempt number of the image being processed. Span names are
``<layer>.<call>``, where the layer is a module of ``densepanoptic``.

The benchmark opens top-level spans itself, around the public calls it
makes. ``instrument`` reaches one level further: for the duration of a
traced pass it rebinds the names that ``pipeline``, ``metrics``,
``assignment`` and ``losses`` look up at call time to wrappers that open a
span around the original function and record counts from its result. No
library file changes, and the untraced passes run the original functions.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time
from collections import defaultdict

import numpy as np

from densepanoptic import assignment, fields, losses, metrics, pipeline

_NULL = contextlib.nullcontext()


class NullTracer:
    """Stand-in used on untraced passes: spans cost one attribute lookup."""

    enabled = False

    def span(self, name: str):
        return _NULL

    def count(self, name: str, value: float) -> None:
        pass


class Tracer:
    """Keeps spans and per-image counts in memory until the run ends."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: list[tuple[int, str, float]] = []
        self.image = -1
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.image]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counts.append((self.image, name, float(value)))

    def per_image(self) -> dict[int, dict[str, float]]:
        """Per image: summed span time in ms as ``<name>_ms``, summed self
        time per layer as ``<layer>.self_ms``, and the recorded counts."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, _, image) in enumerate(self.spans):
            row = out[image]
            row[name + "_ms"] += (end - start) * 1e3
            row[name.split(".", 1)[0] + ".self_ms"] += (end - start - child[i]) * 1e3
        for image, name, value in self.counts:
            out[image][name] += value
        return {k: dict(v) for k, v in out.items()}

    def dump(self, t0: float) -> list[dict]:
        """Spans as JSON-ready records, times in seconds since ``t0``."""
        return [{"name": n, "start": s - t0, "end": e - t0, "parent": p, "image": i}
                for n, s, e, p, i in self.spans]


def medians(rows: list[dict[str, float]]) -> dict[str, float]:
    """Median of every key over the images that recorded it."""
    keys = sorted({k for r in rows for k in r})
    return {k: statistics.median(r[k] for r in rows if k in r) for k in keys}


# ------------------------------------------------------------- counts

def _count_nms(tr, args, kwargs, out) -> None:
    tr.count("selection.candidates", len(args[0]))
    tr.count("selection.queries", len(out))


def _count_masks(tr, args, kwargs, out) -> None:
    m, h, w = out.shape
    tr.count("maskcons.queries", m)
    tr.count("maskcons.mask_pixels", np.count_nonzero(out))
    tr.count("maskcons.quarter_pixels", h * w)


def _count_fusion(tr, args, kwargs, out) -> None:
    upsample = kwargs.get("upsample", 4)
    tr.count("maskcons.claimed_pixels", np.count_nonzero(out.instance_map) // (upsample * upsample))


def _count_match(tr, args, kwargs, out) -> None:
    tr.count("metrics.segments_pred", len(args[0].segments))
    tr.count("metrics.segments_gt", len(args[1].segments))
    tr.count("metrics.matches", len(out[0]))


def _mask_span(args, kwargs) -> str:
    return "maskcons.masks_maxiou" if kwargs.get("levels") is not None else "maskcons.masks"


# owner, attribute, span name (or a function of the call's arguments), counter
_PATCHES = [
    (pipeline, "decode_candidates", "selection.decode", None),
    (pipeline, "nms", "selection.nms", _count_nms),
    (pipeline, "assemble_global_boxes", "selection.assembly", None),
    (pipeline, "construct_masks", _mask_span, _count_masks),
    (pipeline, "fuse_panoptic", "maskcons.fusion", _count_fusion),
    (fields.DensePrediction, "semantic_field", "fields.semantic_softmax", None),
    (fields.DensePrediction, "levelness_field", "fields.levelness_softmax", None),
    (fields.LevelnessField, "argmax_levels", "fields.levelness_softmax", None),
    (metrics, "match_segments", "metrics.match", _count_match),
    (metrics, "panoptic_quality", "metrics.pq", None),
    (metrics, "mean_iou", "metrics.miou", None),
    (assignment, "assign_foreground", "assignment.foreground", None),
    (losses, "iou_loss", "losses.iou_loss", None),
    (losses, "centerness_loss", "losses.centerness_loss", None),
    (losses, "levelness_loss", "losses.levelness_loss", None),
    (losses, "focal_classification_loss", "losses.focal", None),
    (losses, "semantic_loss", "losses.semantic_loss", None),
    (losses, "mask_loss", "losses.mask_loss", None),
]


def _wrap(tr: Tracer, fn, name, counter):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tr.span(name(args, kwargs) if callable(name) else name):
            out = fn(*args, **kwargs)
        if counter is not None:
            counter(tr, args, kwargs, out)
        return out
    return traced


@contextlib.contextmanager
def instrument(tr: Tracer):
    """Route the library's inner calls through span-recording wrappers."""
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in _PATCHES]
    try:
        for owner, attr, name, counter in _PATCHES:
            setattr(owner, attr, _wrap(tr, vars(owner)[attr], name, counter))
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
