"""End-to-end orchestration: predictions -> queries -> masks -> panoptic map,
and the forward loss report over a prediction/target pair."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import losses as L
from .bundle import TargetBundle
from .fields import DensePrediction, PanopticMap
from .maskcons import construct_masks, fuse_panoptic
from .geometry import decode_boxes
from .selection import QuerySet, assemble_global_boxes, decode_candidates, nms

ASSEMBLY_MODES = ("levelness", "max-iou")


@dataclass(frozen=True)
class ConstructionParams:
    """Tunables of the parameter-free pipeline (all have working defaults)."""

    sigma: float = 0.3
    nms_iou: float = 0.6
    score_thresh: float = 0.05
    topk_per_level: int = 1000
    assembly: str = "levelness"
    stuff_area_min: int = 4096
    threads: int = 1

    def __post_init__(self):
        if self.assembly not in ASSEMBLY_MODES:
            raise ValueError(f"assembly must be one of {ASSEMBLY_MODES}")


def select_queries(pred: DensePrediction, params: ConstructionParams) -> QuerySet:
    """Decode candidates from all levels and run class-wise NMS."""
    cands = decode_candidates(pred.levels, score_thresh=params.score_thresh,
                              topk_per_level=params.topk_per_level, n_stuff=pred.n_stuff)
    return nms(cands, iou_thresh=params.nms_iou)


def construct_panoptic(
    pred: DensePrediction,
    params: ConstructionParams = ConstructionParams(),
) -> tuple[PanopticMap, QuerySet]:
    """Full construction: selection, mask probabilities, thresholding, fusion.

    Returns the fused full-resolution panoptic map and the query set that
    produced it.
    """
    queries = select_queries(pred, params)
    sem = pred.semantic_field()
    if params.assembly == "levelness":
        gb = assemble_global_boxes(pred.levels, pred.levelness_field())
        masks = construct_masks(queries, sem, pred.n_stuff, sigma=params.sigma,
                                global_boxes=gb, threads=params.threads)
    else:
        masks = construct_masks(queries, sem, pred.n_stuff, sigma=params.sigma,
                                levels=pred.levels, threads=params.threads)
    pmap = fuse_panoptic(masks, queries, sem, pred.n_stuff, stuff_area_min=params.stuff_area_min)
    return pmap, queries


def _mask_term(pred: DensePrediction, targets: TargetBundle, params: ConstructionParams) -> float:
    """The mask loss: query selection and levelness assembly on the
    predictions, then `mask_loss` against the ground-truth instances."""
    queries = select_queries(pred, params)
    gb = assemble_global_boxes(pred.levels, pred.levelness_field())
    return L.mask_loss(gb, queries, targets.gt_boxes, targets.gt_instances_quarter)


def compute_loss_report(
    pred: DensePrediction,
    targets: TargetBundle,
    semantic_weight: float = 1.0,
    params: ConstructionParams = ConstructionParams(),
) -> L.LossReport:
    """Evaluate every forward loss of a prediction bundle against targets.

    Box losses reduce over all pyramid levels jointly; the mask loss runs the
    selection/assembly stages on the predictions to obtain queries and the
    global box field. Of `params` only `score_thresh`, `topk_per_level` and
    `nms_iou` are read, by query selection; the box field is always the
    levelness-assembled one, so `assembly`, `sigma`, `stuff_area_min` and
    `threads` have no effect here.

    The mask term runs on one extra thread, started after the input checks
    and joined before return, while the five dense terms run on the calling
    thread. Both halves only read their inputs, so every term and the total
    are bitwise those of running the six in order, and so are the errors:
    a failing dense term is raised even if the mask term fails too, and a
    failing mask term is raised once the dense terms have succeeded.
    """
    ours = (pred.n_stuff, pred.n_things, tuple(pred.image_hw))
    theirs = (targets.n_stuff, targets.n_things, tuple(targets.image_hw))
    if ours != theirs:
        raise ValueError(f"predictions have (n_stuff, n_things, image_hw) {ours}, targets {theirs}")
    ours, theirs = [lv.stride for lv in pred.levels], [t.stride for t in targets.level_targets]
    if ours != theirs:  # both hold the `level_grids` of their strides on one image_hw
        raise ValueError(f"predictions have strides {ours}, targets {theirs}")
    pairs = list(zip(pred.levels, targets.level_targets))
    with ThreadPoolExecutor(max_workers=1) as pool:
        mask_term = pool.submit(_mask_term, pred, targets, params)
        pred_boxes, tgt_boxes, fg_all = [], [], []
        pred_cent, tgt_cent = [], []
        pred_probs, tgt_cls = [], []
        for lv, t in pairs:
            fg = t.foreground
            # iou_loss reads only the foreground rows, so only those are decoded
            iy, ix = np.nonzero(fg)
            pred_boxes.append(decode_boxes(lv.offsets[iy, ix], lv.stride, np.float64, ix, iy))
            tgt_boxes.append(decode_boxes(t.offsets[iy, ix], lv.stride, np.float64, ix, iy))
            fg_all.append(fg.reshape(-1))
            pred_cent.append(lv.centerness.reshape(-1))
            tgt_cent.append(t.centerness.reshape(-1))
            pred_probs.append(lv.class_probs.reshape(-1, lv.n_thing_classes))
            tgt_cls.append(t.class_ids.reshape(-1))
        fg = np.concatenate(fg_all)
        pred_boxes = np.concatenate(pred_boxes)
        box_reg = L.iou_loss(pred_boxes, np.concatenate(tgt_boxes), np.ones(len(pred_boxes), dtype=bool))
        cent = L.centerness_loss(np.concatenate(pred_cent), np.concatenate(tgt_cent), fg)
        lev = L.levelness_loss(pred.levelness_logits, targets.global_targets.levelness)
        focal = L.focal_classification_loss(np.concatenate(pred_probs), np.concatenate(tgt_cls),
                                            fg, n_stuff=pred.n_stuff)
        sem = L.semantic_loss(pred.semantic_logits, targets.global_targets.semantics)
        mask = mask_term.result()
    return L.total_loss(box_reg, cent, lev, focal, sem, mask, semantic_weight=semantic_weight)
