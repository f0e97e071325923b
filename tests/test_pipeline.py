"""compute_loss_report runs its mask term on a worker thread; these tests pin
it to the six terms run one after another on the calling thread."""

import copy
import threading

import numpy as np
import pytest

from densepanoptic import losses as L
from densepanoptic.assignment import GlobalTargets, build_targets
from densepanoptic.bundle import TargetBundle
from densepanoptic.fields import default_level_specs
from densepanoptic.geometry import decode_boxes
from densepanoptic.pipeline import ConstructionParams, compute_loss_report, select_queries
from densepanoptic.selection import assemble_global_boxes
from densepanoptic.synth import NoiseConfig, SceneConfig, generate_scene, ideal_predictions, perturb

SPECS = default_level_specs(5)


def frame(seed: int, mode: str):
    """A seeded 256x256 scene's targets and noisy predictions of it."""
    scene = generate_scene(SceneConfig(width=256, height=256, instances=6, seed=seed))
    level_targets, global_targets = build_targets(scene, SPECS, mode=mode)
    targets = TargetBundle(level_targets=level_targets, global_targets=global_targets,
                           gt_boxes=scene.boxes, gt_classes=scene.instance_classes,
                           gt_instances_quarter=scene.quarter_instance_map(), specs=SPECS,
                           n_stuff=scene.n_stuff, n_things=scene.n_things,
                           image_hw=(scene.height, scene.width), mode=mode)
    noise = NoiseConfig(offset_std=1.5, semantic_flip_prob=0.05, centerness_std=0.05,
                        levelness_flip_prob=0.05, seed=seed)
    return perturb(ideal_predictions(scene, SPECS, mode=mode), noise), targets


def sequential_report(pred, targets, semantic_weight=1.0, params=ConstructionParams()):
    """The six loss terms in order on the calling thread, then their total."""
    pairs = list(zip(pred.levels, targets.level_targets))

    def joined(get):
        return np.concatenate([get(lv, t) for lv, t in pairs])

    fg = joined(lambda lv, t: t.foreground.reshape(-1))
    box_reg = L.iou_loss(joined(lambda lv, t: decode_boxes(lv.offsets, lv.stride, np.float64).reshape(-1, 4)),
                         joined(lambda lv, t: decode_boxes(t.offsets, lv.stride, np.float64).reshape(-1, 4)), fg)
    cent = L.centerness_loss(joined(lambda lv, t: lv.centerness.reshape(-1)),
                             joined(lambda lv, t: t.centerness.reshape(-1)), fg)
    lev = L.levelness_loss(pred.levelness_logits, targets.global_targets.levelness)
    focal = L.focal_classification_loss(joined(lambda lv, t: lv.class_probs.reshape(-1, lv.n_thing_classes)),
                                        joined(lambda lv, t: t.class_ids.reshape(-1)), fg,
                                        n_stuff=pred.n_stuff)
    sem = L.semantic_loss(pred.semantic_logits, targets.global_targets.semantics)
    gb = assemble_global_boxes(pred.levels, pred.levelness_field())
    mask = L.mask_loss(gb, select_queries(pred, params), targets.gt_boxes, targets.gt_instances_quarter)
    return L.total_loss(box_reg, cent, lev, focal, sem, mask, semantic_weight=semantic_weight)


def hex_terms(report):
    return {k: float(v).hex() for k, v in report.as_dict().items()}


@pytest.mark.parametrize("mode", ["full", "weak"])
@pytest.mark.parametrize("seed", [1, 2])
def test_report_is_bitwise_the_sequential_one(mode, seed):
    pred, targets = frame(seed, mode)
    want = sequential_report(pred, targets, semantic_weight=0.4)
    assert want.mask > 0 and want.semantics > 0
    assert hex_terms(compute_loss_report(pred, targets, semantic_weight=0.4)) == hex_terms(want)


# TargetBundle rejects these shapes when constructed, so each is set on a
# copy of a valid bundle to reach compute_loss_report's own checks

def _bad_instance_map(targets):
    bad = copy.copy(targets)
    bad.gt_instances_quarter = targets.gt_instances_quarter[:-1]
    return bad


def _bad_semantics(targets):
    bad, g = copy.copy(targets), targets.global_targets
    bad.global_targets = GlobalTargets(g.levelness, g.semantics[:-1])
    return bad


def test_a_mask_only_failure_is_the_sequential_error():
    pred, targets = frame(1, "full")
    bad = _bad_instance_map(targets)
    with pytest.raises(ValueError) as want:
        sequential_report(pred, bad)
    with pytest.raises(ValueError) as got:
        compute_loss_report(pred, bad)
    assert str(got.value) == str(want.value) == "instance map and box field shapes differ"


def test_a_dense_failure_wins_over_a_mask_failure():
    pred, targets = frame(1, "full")
    bad = _bad_semantics(_bad_instance_map(targets))
    with pytest.raises(ValueError) as want:
        sequential_report(pred, bad)
    with pytest.raises(ValueError) as got:
        compute_loss_report(pred, bad)
    assert str(got.value) == str(want.value) == "semantic logits and target shapes differ"


def test_no_thread_outlives_a_call():
    pred, targets = frame(1, "weak")
    before = threading.active_count()
    compute_loss_report(pred, targets)
    assert threading.active_count() == before
    for bad in (_bad_instance_map(targets), _bad_semantics(targets)):
        with pytest.raises(ValueError):
            compute_loss_report(pred, bad)
        assert threading.active_count() == before
