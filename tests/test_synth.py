import numpy as np
import pytest

from densepanoptic.assignment import build_targets
from densepanoptic.fields import default_level_specs
from densepanoptic.geometry import box_iou

from oracles import box_to_offsets_ref, centerness_ref, receptive_center_ref
from densepanoptic.synth import (
    MIN_QUERY_SCORE,
    NoiseConfig,
    SceneConfig,
    generate_scene,
    ideal_predictions,
    perturb,
)


def boxes_of(scene):
    return scene.boxes.astype(np.float64)


class TestSceneConfig:
    def test_resolution_must_divide_128(self):
        with pytest.raises(ValueError):
            SceneConfig(width=100, height=128)

    def test_negative_instances_rejected(self):
        with pytest.raises(ValueError):
            SceneConfig(instances=-1)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            SceneConfig(shape="triangle")

    def test_noise_validation(self):
        with pytest.raises(ValueError):
            NoiseConfig(offset_std=-1)
        with pytest.raises(ValueError):
            NoiseConfig(semantic_flip_prob=1.5)


class TestGenerateScene:
    def test_empty_scene_is_pure_stuff(self):
        sc = generate_scene(SceneConfig(width=128, height=128, instances=0, seed=1))
        assert sc.n_instances == 0
        assert (sc.panoptic.instance_map == 0).all()
        cm = sc.panoptic.class_map
        assert cm.min() >= 1 and cm.max() <= sc.n_stuff

    def test_deterministic_in_seed(self):
        cfg = SceneConfig(width=256, height=128, instances=4, seed=77)
        a = generate_scene(cfg)
        b = generate_scene(cfg)
        assert (a.panoptic.class_map == b.panoptic.class_map).all()
        assert (a.panoptic.instance_map == b.panoptic.instance_map).all()
        assert (a.boxes == b.boxes).all()
        assert (a.instance_classes == b.instance_classes).all()

    def test_different_seeds_differ(self):
        a = generate_scene(SceneConfig(width=256, height=128, instances=4, seed=1))
        b = generate_scene(SceneConfig(width=256, height=128, instances=4, seed=2))
        assert not (a.panoptic.instance_map == b.panoptic.instance_map).all()

    def test_same_class_iou_constraint(self):
        cfg = SceneConfig(width=384, height=256, instances=6, thing_classes=2,
                          max_same_class_iou=0.0, seed=3)
        sc = generate_scene(cfg)
        bx = boxes_of(sc)
        for i in range(len(bx)):
            for j in range(i + 1, len(bx)):
                if sc.instance_classes[i] == sc.instance_classes[j]:
                    assert box_iou(bx[i], bx[j]) == 0.0

    def test_same_class_iou_threshold(self):
        cfg = SceneConfig(width=512, height=512, instances=8, seed=5)
        sc = generate_scene(cfg)
        bx = boxes_of(sc)
        for i in range(len(bx)):
            for j in range(i + 1, len(bx)):
                if sc.instance_classes[i] == sc.instance_classes[j]:
                    assert box_iou(bx[i], bx[j]) <= cfg.max_same_class_iou

    def test_cross_class_disjoint_option(self):
        cfg = SceneConfig(width=384, height=256, instances=5,
                          max_cross_class_iou=0.0, seed=9)
        sc = generate_scene(cfg)
        bx = boxes_of(sc)
        for i in range(len(bx)):
            for j in range(i + 1, len(bx)):
                if sc.instance_classes[i] != sc.instance_classes[j]:
                    assert box_iou(bx[i], bx[j]) == 0.0

    def test_all_pairs_disjoint_when_both_caps_zero(self):
        cfg = SceneConfig(width=384, height=256, instances=5,
                          max_same_class_iou=0.0, max_cross_class_iou=0.0, seed=9)
        sc = generate_scene(cfg)
        bx = boxes_of(sc)
        for i in range(len(bx)):
            for j in range(i + 1, len(bx)):
                assert box_iou(bx[i], bx[j]) == 0.0

    def test_partition_and_tight_boxes(self):
        sc = generate_scene(SceneConfig(width=256, height=256, instances=6, seed=11))
        im = sc.panoptic.instance_map
        cm = sc.panoptic.class_map
        assert (cm > 0).all()  # every pixel claimed by stuff or a thing
        for k in range(sc.n_instances):
            ys, xs = np.nonzero(im == k + 1)
            assert ys.size > 0  # every instance visible
            x1, y1, x2, y2 = sc.boxes[k]
            # tight visible box: coordinates are the extreme pixel indices
            assert xs.min() == x1 and ys.min() == y1
            assert xs.max() == x2 and ys.max() == y2

    @pytest.mark.parametrize("centered", [False, True])
    def test_every_instance_reachable_at_stride_8(self, centered):
        sc = generate_scene(SceneConfig(width=256, height=256, instances=6, shape="ellipse",
                                        centered=centered, seed=7))
        im = sc.panoptic.instance_map
        best = [0.0] * sc.n_instances
        for gy in range(256 // 8):
            for gx in range(256 // 8):
                cx, cy = receptive_center_ref(8, gx, gy)
                k = int(im[cy, cx])
                if k:
                    off = box_to_offsets_ref(sc.boxes[k - 1].tolist(), cx, cy)
                    best[k - 1] = max(best[k - 1], centerness_ref(off))
        assert min(best) >= MIN_QUERY_SCORE + 1e-3

    def test_ellipse_masks_are_not_boxes(self):
        sc = generate_scene(SceneConfig(width=256, height=256, instances=4,
                                        shape="ellipse", min_size=24, seed=13))
        im = sc.panoptic.instance_map
        ragged = 0
        for k in range(sc.n_instances):
            area = int((im == k + 1).sum())
            x1, y1, x2, y2 = sc.boxes[k].astype(np.float64)
            if area < (x2 - x1) * (y2 - y1):
                ragged += 1
        assert ragged > 0

    def test_min_stuff_area_respected(self):
        cfg = SceneConfig(width=512, height=512, instances=8,
                          min_stuff_area=4096, seed=21)
        sc = generate_scene(cfg)
        cm = sc.panoptic.class_map
        im = sc.panoptic.instance_map
        for c in range(1, sc.n_stuff + 1):
            area = int(((cm == c) & (im == 0)).sum())
            if area:
                assert area >= cfg.min_stuff_area

    def test_impossible_config_raises(self):
        # 100 instances of max size in a 128x128 scene cannot be placed
        with pytest.raises(ValueError, match="could not place"):
            generate_scene(SceneConfig(width=128, height=128, instances=100,
                                       min_size=56, max_size=56,
                                       max_cross_class_iou=0.0, seed=1))


class TestIdealPredictions:
    def test_matches_build_targets(self):
        sc = generate_scene(SceneConfig(width=256, height=256, instances=5, seed=17))
        specs = default_level_specs()
        pred = ideal_predictions(sc, specs)
        targets, glob = build_targets(sc, specs)
        for lv, t in zip(pred.levels, targets):
            assert (lv.offsets == t.offsets).all()
            assert (lv.centerness == t.centerness).all()
            yy, xx = np.nonzero(t.foreground)
            ch = t.class_ids[yy, xx].astype(np.int64) - sc.n_stuff - 1
            assert (lv.class_probs[yy, xx, ch] == 1.0).all()
            assert lv.class_probs.sum() == len(yy)  # nothing else is nonzero
        sem = pred.semantic_field()
        assert (sem.argmax_classes() == glob.semantics).all()
        lev = pred.levelness_field()
        assert (lev.argmax_levels() == glob.levelness).all()

    def test_one_hot_fields_are_exact(self):
        sc = generate_scene(SceneConfig(width=128, height=128, instances=2, seed=19))
        pred = ideal_predictions(sc, default_level_specs())
        sem = pred.semantic_field()
        assert set(np.unique(sem.planes)) <= {0.0, 1.0}


class TestPerturb:
    def _pred(self, seed=23):
        sc = generate_scene(SceneConfig(width=256, height=256, instances=5, seed=seed))
        return sc, ideal_predictions(sc, default_level_specs())

    def test_zero_noise_is_identity(self):
        _, pred = self._pred()
        out = perturb(pred, NoiseConfig())
        for a, b in zip(out.levels, pred.levels):
            assert (a.offsets == b.offsets).all()
            assert (a.centerness == b.centerness).all()
            assert (a.class_probs == b.class_probs).all()
        assert (out.semantic_logits == pred.semantic_logits).all()
        assert (out.levelness_logits == pred.levelness_logits).all()

    def test_deterministic_in_seed(self):
        _, pred = self._pred()
        cfg = NoiseConfig(offset_std=4.0, semantic_flip_prob=0.2,
                          centerness_std=0.2, levelness_flip_prob=0.1, seed=5)
        a = perturb(pred, cfg)
        b = perturb(pred, cfg)
        for la, lb in zip(a.levels, b.levels):
            assert (la.offsets == lb.offsets).all()
            assert (la.centerness == lb.centerness).all()
        assert (a.semantic_logits == b.semantic_logits).all()
        assert (a.levelness_logits == b.levelness_logits).all()

    def test_noise_actually_changes_fields(self):
        _, pred = self._pred()
        out = perturb(pred, NoiseConfig(offset_std=3.0, semantic_flip_prob=0.3,
                                        centerness_std=0.3,
                                        levelness_flip_prob=0.2, seed=7))
        assert not all((a.offsets == b.offsets).all()
                       for a, b in zip(out.levels, pred.levels))
        assert not (out.semantic_logits == pred.semantic_logits).all()

    def test_offsets_stay_nonnegative_and_centerness_in_range(self):
        _, pred = self._pred()
        out = perturb(pred, NoiseConfig(offset_std=50.0, centerness_std=5.0, seed=3))
        for lv in out.levels:
            assert lv.offsets.min() >= 0
            assert 0 <= lv.centerness.min() and lv.centerness.max() <= 1

    def test_flip_probability_one_flips_labeled_pixels(self):
        sc, pred = self._pred()
        out = perturb(pred, NoiseConfig(semantic_flip_prob=1.0, seed=1))
        base = pred.semantic_field().argmax_classes()
        noisy = out.semantic_field().argmax_classes()
        assert (noisy != base).all()

    def test_degrades_pipeline_quality(self):
        from densepanoptic.metrics import evaluate_panoptic
        from densepanoptic.pipeline import ConstructionParams, construct_panoptic

        sc = generate_scene(SceneConfig(width=256, height=256, instances=5,
                                        min_stuff_area=4096, seed=29))
        pred = ideal_predictions(sc, default_level_specs())
        params = ConstructionParams()
        clean, _ = construct_panoptic(pred, params)
        assert evaluate_panoptic(clean, sc.panoptic, sc.n_stuff, sc.n_things).pq == 1.0
        noisy = perturb(pred, NoiseConfig(offset_std=10.0, semantic_flip_prob=0.15,
                                          centerness_std=0.3, seed=31))
        dirty, _ = construct_panoptic(noisy, params)
        rep = evaluate_panoptic(dirty, sc.panoptic, sc.n_stuff, sc.n_things)
        assert rep.pq < 1.0
