import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from densepanoptic.fields import PanopticMap, SegmentInfo, segment_keys, split_segment_key
from densepanoptic.metrics import (
    ClassStats,
    evaluate_panoptic,
    match_segments,
    mean_iou,
    panoptic_quality,
)


def pmap(class_map, inst_map):
    cm = np.asarray(class_map, np.uint16)
    im = np.asarray(inst_map, np.uint16)
    keys, areas = np.unique(segment_keys(cm, im), return_counts=True)
    segs = [SegmentInfo(i, c, area, 1.0)
            for (c, i), area in zip(map(split_segment_key, keys.tolist()), areas.tolist()) if c != 0]
    return PanopticMap(cm, im, segs)


def random_pmap(rng, h, w, n_stuff=2, n_things=2, max_inst=3, p_void=0.1, tied=True):
    """Random labeling; with tied=False one instance id may appear in several
    thing classes, each (class, instance) pair being a segment of its own."""
    cm = rng.integers(0, n_stuff + n_things + 1, (h, w)).astype(np.uint16)
    im = np.zeros((h, w), np.uint16)
    thing = cm > n_stuff
    im[thing] = rng.integers(1, max_inst + 1, int(thing.sum()))
    if tied:  # make (class, id) consistent: id selects the class among things
        cm[thing] = (n_stuff + 1 + (im[thing] - 1) % n_things).astype(np.uint16)
    cm[rng.random((h, w)) < p_void] = 0
    im[cm == 0] = 0
    im[cm <= n_stuff] = 0
    return pmap(cm, im)


class TestMatchSegments:
    def test_identity(self):
        gt = pmap([[1, 1, 4], [1, 4, 4]], [[0, 0, 1], [0, 1, 1]])
        matches, fp, fn = match_segments(gt, gt)
        assert {m.iou for m in matches} == {1.0}
        assert len(matches) == 2 and not fp and not fn

    def test_eighty_percent_overlap(self):
        gt = pmap([[4] * 10], [[1] * 10])
        pred = pmap([[4] * 8 + [0] * 2], [[1] * 8 + [0] * 2])
        matches, fp, fn = match_segments(pred, gt)
        assert len(matches) == 1 and not fp and not fn
        assert matches[0].iou == pytest.approx(0.8)
        assert matches[0].class_id == 4

    def test_exactly_half_is_no_match(self):
        gt = pmap([[4, 4, 0, 0]], [[1, 1, 0, 0]])
        pred = pmap([[4, 0, 0, 4]], [[1, 0, 0, 1]])
        # inter 1, gt 2, pred-not-void 1 (pixel 3 sits on gt void)
        # union = 2 + 1 - 1 = 2, IoU = 0.5 -> strict threshold rejects
        matches, fp, fn = match_segments(pred, gt)
        assert matches == []
        assert fp == {(4, 1)} and fn == {(4, 1)}

    def test_void_excluded_from_union(self):
        gt = pmap([[4, 4, 0, 0]], [[1, 1, 0, 0]])
        pred = pmap([[4, 4, 4, 0]], [[1, 1, 1, 0]])
        # pred pixel on gt void leaves union at 2 -> IoU 1.0
        matches, _, _ = match_segments(pred, gt)
        assert len(matches) == 1 and matches[0].iou == 1.0

    def test_mostly_void_prediction_dropped(self):
        gt = pmap([[0, 0, 0, 1]], [[0, 0, 0, 0]])
        pred = pmap([[4, 4, 4, 1]], [[1, 1, 1, 0]])
        matches, fp, fn = match_segments(pred, gt)
        assert matches == [] or matches[0].class_id == 1
        assert (4, 1) not in fp  # 3/3 pixels on void -> removed, not FP

    def test_resolution_mismatch(self):
        a = pmap([[1]], [[0]])
        b = pmap([[1, 1]], [[0, 0]])
        with pytest.raises(ValueError):
            match_segments(a, b)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_match_uniqueness(self, seed):
        # at most one predicted segment can overlap a gt segment at IoU > 0.5
        rng = np.random.default_rng(seed)
        gt = random_pmap(rng, 16, 16)
        pred = random_pmap(rng, 16, 16)
        matches, _, _ = match_segments(pred, gt)
        assert len({m.gt_key for m in matches}) == len(matches)
        assert len({m.pred_key for m in matches}) == len(matches)


class TestPanopticQuality:
    def test_perfect(self):
        gt = pmap([[1, 4], [1, 4]], [[0, 1], [0, 1]])
        matches, fp, fn = match_segments(gt, gt)
        pq, pq_th, pq_st, per = panoptic_quality(matches, fp, fn, n_stuff=1, n_things=1)
        assert pq == 1.0 and pq_th == 1.0 and pq_st == 1.0
        for stats in per.values():
            assert stats.pq == 1.0 and stats.sq == 1.0 and stats.rq == 1.0

    def test_tp_point_eight_plus_fp(self):
        from densepanoptic.metrics import SegmentMatch

        matches = [SegmentMatch(gt_key=(4, 1), pred_key=(4, 1), iou=0.8)]
        pq, pq_th, _, per = panoptic_quality(matches, {(4, 2)}, set(), 1, 1)
        assert pq == pytest.approx(0.8 / 1.5)
        assert per[4].tp == 1 and per[4].fp == 1 and per[4].fn == 0

    def test_single_fn(self):
        pq, _, _, per = panoptic_quality([], set(), {(4, 1)}, 1, 1)
        assert pq == 0.0
        assert per[4].fn == 1

    def test_absent_classes_skipped(self):
        from densepanoptic.metrics import SegmentMatch

        matches = [SegmentMatch(gt_key=(2, 1), pred_key=(2, 1), iou=1.0)]
        pq, pq_th, pq_st, per = panoptic_quality(matches, set(), set(), 1, 3)
        assert set(per) == {2}
        assert pq == 1.0 and pq_th == 1.0 and pq_st == 0.0

    def test_pq_is_sq_times_rq(self):
        rng = np.random.default_rng(17)
        gt = random_pmap(rng, 24, 24)
        pred = random_pmap(rng, 24, 24)
        matches, fp, fn = match_segments(pred, gt)
        _, _, _, per = panoptic_quality(matches, fp, fn, 2, 2)
        for stats in per.values():
            if stats.tp:
                assert stats.pq == pytest.approx(stats.sq * stats.rq, abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        gt = random_pmap(rng, 16, 16)
        pred = random_pmap(rng, 16, 16)
        base = evaluate_panoptic(pred, gt, 2, 2)
        # relabel instance ids of the prediction: 1,2,3 -> 3,1,2
        perm = {0: 0, 1: 3, 2: 1, 3: 2}
        im2 = np.vectorize(perm.get)(pred.instance_map.astype(int)).astype(np.uint16)
        pred2 = pmap(pred.class_map, im2)
        again = evaluate_panoptic(pred2, gt, 2, 2)
        assert again.pq == pytest.approx(base.pq, abs=1e-12)
        assert again.miou == pytest.approx(base.miou, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_matches_reference(self, seed):
        from oracles import pq_ref

        rng = np.random.default_rng(seed)
        h, w = (int(v) for v in rng.integers(4, 33, 2))
        # tied=False: a segment is the pair (class, instance), not the instance id alone
        for tied in (True, False):
            gt = random_pmap(rng, h, w, tied=tied)
            pred = random_pmap(rng, h, w, tied=tied)
            matches, fp, fn = match_segments(pred, gt)
            pq, pq_th, pq_st, per = panoptic_quality(matches, fp, fn, 2, 2)
            rpq, rpq_th, rpq_st, rper = pq_ref(
                pred.class_map.tolist(), pred.instance_map.tolist(),
                gt.class_map.tolist(), gt.instance_map.tolist(), 2)
            assert pq == pytest.approx(rpq, abs=1e-9)
            assert pq_th == pytest.approx(rpq_th, abs=1e-9)
            assert pq_st == pytest.approx(rpq_st, abs=1e-9)
            assert set(per) == set(rper)
            for c, stats in per.items():
                assert [stats.tp, stats.fp, stats.fn] == rper[c][:3]
                assert stats.iou_sum == pytest.approx(rper[c][3], abs=1e-9)


class TestMeanIou:
    def test_identity(self):
        g = np.array([[1, 2], [3, 3]])
        miou, per = mean_iou(g, g)
        assert miou == 1.0 and per == {1: 1.0, 2: 1.0, 3: 1.0}

    def test_half_field_example(self):
        gt = np.array([[1] * 4 + [2] * 4])
        pred = np.ones((1, 8), np.int64)
        miou, per = mean_iou(pred, gt)
        assert per[1] == pytest.approx(0.5)  # inter 4, union 8
        assert per[2] == 0.0
        assert miou == pytest.approx(0.25)

    def test_fully_disjoint(self):
        gt = np.array([[1, 1], [2, 2]])
        pred = np.array([[2, 2], [1, 1]])
        miou, per = mean_iou(pred, gt)
        assert miou == 0.0 and per == {1: 0.0, 2: 0.0}

    def test_void_ignored(self):
        gt = np.array([[1, 0], [0, 0]])
        pred = np.array([[1, 2], [2, 2]])  # wrong only on void pixels
        miou, per = mean_iou(pred, gt)
        assert miou == 1.0 and per == {1: 1.0}

    def test_empty_gt(self):
        miou, per = mean_iou(np.ones((2, 2)), np.zeros((2, 2)))
        assert miou == 0.0 and per == {}

    def test_large_class_ids_stay_cheap(self):
        gt = np.full((8, 8), 60000, np.uint16)
        pred = gt.copy()
        miou, per = mean_iou(pred, gt)
        assert miou == 1.0 and per == {60000: 1.0}

    def test_ids_outside_uint32_rejected(self):
        ok = np.array([[1, 2 ** 32 - 1]], np.int64)
        assert mean_iou(ok, ok)[1] == {1: 1.0, 2 ** 32 - 1: 1.0}
        for bad in (np.array([[1, -1]], np.int64), np.array([[1, 2 ** 32]], np.int64)):
            for pred, gt in ((bad, ok), (ok, bad)):
                with pytest.raises(ValueError, match="2\\*\\*32"):
                    mean_iou(pred, gt)

    def test_fractional_ids_rejected(self):
        ok = np.array([[1, 2]])
        for bad in (np.array([[1.5, 2.9]]), np.array([[1.0, 2.0 + 2 ** -40]], np.float64)):
            for pred, gt in ((bad, ok), (ok, bad)):
                with pytest.raises(ValueError, match="integers"):
                    mean_iou(pred, gt)

    def test_integral_float_ids_accepted(self):
        gt = np.array([[1, 2], [2, 0]])
        pred = np.array([[1.0, 2.0], [1.0, 3.0]], np.float32)
        assert mean_iou(pred, gt) == mean_iou(pred.astype(np.int64), gt)
        assert mean_iou(gt.astype(np.float64), gt) == (1.0, {1: 1.0, 2: 1.0})

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_matches_reference(self, seed):
        from oracles import miou_ref

        rng = np.random.default_rng(seed)
        h, w = (int(v) for v in rng.integers(2, 20, 2))
        gt = rng.integers(0, 6, (h, w))
        pred = rng.integers(0, 6, (h, w))
        miou, per = mean_iou(pred, gt)
        rmiou, rper = miou_ref(pred.tolist(), gt.tolist())
        assert miou == pytest.approx(rmiou, abs=1e-12)
        assert per.keys() == rper.keys()
        for c in per:
            assert per[c] == pytest.approx(rper[c], abs=1e-12)


class TestClassStats:
    def test_degenerate_denominators(self):
        s = ClassStats()
        assert s.pq == 0.0 and s.sq == 0.0 and s.rq == 0.0

    def test_report_format(self):
        rng = np.random.default_rng(1)
        gt = random_pmap(rng, 16, 16)
        report = evaluate_panoptic(gt, gt, 2, 2)
        assert report.pq == 1.0
        text = report.format()
        assert "PQ" in text and "mIoU" in text
