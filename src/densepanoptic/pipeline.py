"""End-to-end orchestration: predictions -> queries -> masks -> panoptic map,
and the forward loss report over a prediction/target pair."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import losses as L
from .bundle import TargetBundle
from .fields import DensePrediction, PanopticMap
from .maskcons import construct_masks, fuse_panoptic
from .selection import QuerySet, assemble_global_boxes, decode_boxes, decode_candidates, nms

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
    upsample: int = 4
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
    pmap = fuse_panoptic(masks, queries, sem, pred.n_stuff,
                         stuff_area_min=params.stuff_area_min, upsample=params.upsample)
    return pmap, queries


def compute_loss_report(
    pred: DensePrediction,
    targets: TargetBundle,
    semantic_weight: float = 1.0,
    params: ConstructionParams = ConstructionParams(),
) -> L.LossReport:
    """Evaluate every forward loss of a prediction bundle against targets.

    Box losses reduce over all pyramid levels jointly; the mask loss runs the
    selection/assembly stages on the predictions to obtain queries and the
    global box field.
    """
    if len(pred.levels) != len(targets.level_targets):
        raise ValueError("prediction and target level counts differ")
    pred_boxes, tgt_boxes, fg_all = [], [], []
    pred_cent, tgt_cent = [], []
    pred_probs, tgt_cls = [], []
    for lv, t in zip(pred.levels, targets.level_targets):
        if lv.stride != t.stride or lv.shape != t.centerness.shape:
            raise ValueError("prediction and target grids disagree")
        pred_boxes.append(decode_boxes(lv.offsets, lv.stride, np.float64).reshape(-1, 4))
        tgt_boxes.append(decode_boxes(t.offsets, lv.stride, np.float64).reshape(-1, 4))
        fg_all.append(t.foreground.reshape(-1))
        pred_cent.append(lv.centerness.reshape(-1))
        tgt_cent.append(t.centerness.reshape(-1))
        pred_probs.append(lv.class_probs.reshape(-1, lv.n_thing_classes))
        tgt_cls.append(t.class_ids.reshape(-1))
    fg = np.concatenate(fg_all)
    box_reg = L.iou_loss(np.concatenate(pred_boxes), np.concatenate(tgt_boxes), fg)
    cent = L.centerness_loss(np.concatenate(pred_cent), np.concatenate(tgt_cent), fg)
    lev = L.levelness_loss(pred.levelness_logits, targets.global_targets.levelness)
    focal = L.focal_classification_loss(np.concatenate(pred_probs), np.concatenate(tgt_cls),
                                        fg, n_stuff=pred.n_stuff)
    sem = L.semantic_loss(pred.semantic_logits, targets.global_targets.semantics)
    queries = select_queries(pred, params)
    gb = assemble_global_boxes(pred.levels, pred.levelness_field())
    mask = L.mask_loss(gb, queries, targets.gt_boxes, targets.gt_instances_quarter)
    return L.total_loss(box_reg, cent, lev, focal, sem, mask, semantic_weight=semantic_weight)
