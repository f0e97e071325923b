import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from densepanoptic.fields import DenseBoxLevel, LevelnessField, SemanticField
from densepanoptic.geometry import _area, box_iou, decode_boxes
from densepanoptic.maskcons import _max_iou, construct_masks
from densepanoptic.selection import (
    QuerySet,
    ScoredBox,
    assemble_global_boxes,
    decode_candidates,
    nms,
    quarter_point_boxes,
    resample_level_boxes,
)
from query_rows import query_set, row


def make_level(stride=8, gh=2, gw=2, t=1):
    return DenseBoxLevel(
        stride=stride,
        offsets=np.zeros((gh, gw, 4), np.float32),
        class_probs=np.zeros((gh, gw, t), np.float32),
        centerness=np.zeros((gh, gw), np.float32),
    )


def location_probability(box_fields, box):
    return _max_iou(box_fields, [_area(f) for f in box_fields], box)


def sb(x1, y1, x2, y2, cls=1, score=0.9, level=0):
    return row(x1, y1, x2, y2, cls, score, level)


def box(r):
    return r[0]


class TestQuerySet:
    def test_rows_on_iteration(self):
        q = query_set([sb(0, 0, 4, 2, cls=3, score=0.5, level=2)])
        (r,) = q
        assert r == ScoredBox((0.0, 0.0, 4.0, 2.0), 3, 0.5, 2)
        assert type(r.box[0]) is float and type(r.class_id) is int
        assert q.box_array() is q.boxes and q.box_array().shape == (1, 4)

    @pytest.mark.parametrize("bad", [(0, 0, np.nan, 1), (0, 0, np.inf, 1), (2, 0, 1, 1), (0, 2, 1, 1)])
    def test_invalid_boxes_rejected(self, bad):
        with pytest.raises(ValueError, match="x1 <= x2"):
            QuerySet(np.array([bad], np.float64), [1], [0.5], [0])

    def test_column_lengths_checked(self):
        with pytest.raises(ValueError):
            QuerySet(np.zeros((2, 4)), [1], [0.5, 0.4], [0, 0])
        with pytest.raises(ValueError):
            QuerySet(np.zeros(4), [1], [0.5], [0])

    def test_take_and_ordered(self):
        q = query_set([sb(0, 0, 1, 1, cls=2, score=0.5), sb(0, 0, 2, 2, cls=1, score=0.5),
                       sb(0, 0, 1, 1, cls=1, score=0.9)])
        assert q.ordered().scores.tolist() == [0.9, 0.5, 0.5]
        assert q.ordered().classes.tolist() == [1, 1, 2]
        assert q.ordered(2).boxes.tolist() == [[0, 0, 1, 1], [0, 0, 2, 2]]
        assert q.take([2, 0]).classes.tolist() == [1, 2]


class TestDecodeBoxes:
    def test_grid_and_points_agree(self):
        off = np.zeros((2, 3, 4), np.float32)
        off[1, 2] = (1, 2, 3, 4)
        grid = decode_boxes(off, 8, np.float32)
        assert grid.dtype == np.float32 and grid.shape == (2, 3, 4)
        # cell (ix=2, iy=1) at stride 8 has its centre at (20, 12)
        assert tuple(grid[1, 2]) == (19.0, 10.0, 23.0, 16.0)
        pts = decode_boxes(off[[1], [2]], 8, np.float64, np.array([2]), np.array([1]))
        assert pts.dtype == np.float64 and pts.tolist() == [[19.0, 10.0, 23.0, 16.0]]


class TestDecode:
    def test_score_is_probability_times_centerness(self):
        lv = make_level()
        lv.offsets[0, 0] = (2, 2, 2, 2)
        lv.class_probs[0, 0, 0] = 0.9
        lv.centerness[0, 0] = 1.0
        lv.offsets[1, 1] = (3, 3, 3, 3)
        lv.class_probs[1, 1, 0] = 0.8
        lv.centerness[1, 1] = 0.5
        out = decode_candidates([lv], score_thresh=0.05)
        assert [round(c.score, 6) for c in out] == [0.9, 0.4]

    def test_boxes_decode_at_receptive_centers(self):
        lv = make_level(stride=16)
        lv.offsets[1, 0] = (1, 2, 3, 4)
        lv.class_probs[1, 0, 0] = 1.0
        lv.centerness[1, 0] = 1.0
        (c,) = decode_candidates([lv])
        # center of cell (1, 0) at stride 16 is (8, 24)
        assert c.box == (7.0, 22.0, 11.0, 28.0)
        assert c.level == 0

    def test_threshold_filters_everything(self):
        lv = make_level()
        lv.class_probs[...] = 0.04
        lv.centerness[...] = 1.0
        lv.offsets[...] = 1.0
        assert len(decode_candidates([lv], score_thresh=0.05)) == 0

    def test_threshold_is_inclusive(self):
        lv = make_level()
        lv.offsets[0, 0] = (1, 1, 1, 1)
        lv.class_probs[0, 0, 0] = 0.1
        lv.centerness[0, 0] = 0.5
        out = decode_candidates([lv], score_thresh=0.05)
        assert len(out) == 1 and out.scores[0] == pytest.approx(0.05)

    def test_topk_caps_each_level(self):
        lv = make_level(gh=4, gw=4)
        lv.offsets[...] = 1.0
        lv.centerness[...] = 1.0
        lv.class_probs[..., 0] = np.linspace(0.1, 0.9, 16).reshape(4, 4)
        out = decode_candidates([lv], topk_per_level=5)
        assert len(out) == 5
        assert out.scores[0] == pytest.approx(0.9)

    def test_class_ids_are_global(self):
        lv = make_level(t=2)
        lv.offsets[0, 0] = (1, 1, 1, 1)
        lv.class_probs[0, 0, 1] = 0.8
        lv.centerness[0, 0] = 1.0
        (c,) = decode_candidates([lv], n_stuff=3)
        assert c.class_id == 3 + 2  # thing channel 1 -> global id n_stuff + 2

    def test_output_sorted_by_descending_score(self):
        rng = np.random.default_rng(7)
        lv = make_level(gh=6, gw=6, t=3)
        lv.offsets[...] = rng.uniform(1, 5, lv.offsets.shape)
        lv.class_probs[...] = rng.uniform(0, 1, lv.class_probs.shape)
        lv.centerness[...] = rng.uniform(0, 1, (6, 6))
        out = decode_candidates([lv])
        scores = [c.score for c in out]
        assert scores == sorted(scores, reverse=True)


class TestNms:
    def test_suppresses_heavy_overlap(self):
        a = sb(0, 0, 10, 10, score=0.9)
        b = sb(0, 0, 10, 9, score=0.8)  # IoU 0.9
        assert box_iou(box(a), box(b)) == pytest.approx(0.9)
        kept = nms(query_set([a, b]), 0.6)
        assert len(kept) == 1 and kept.scores[0] == 0.9

    def test_keeps_light_overlap(self):
        a = sb(0, 0, 10, 10, score=0.9)
        b = sb(5, 0, 15, 10, score=0.8)  # IoU 1/3
        assert len(nms(query_set([a, b]), 0.6)) == 2

    def test_class_wise(self):
        a = sb(0, 0, 10, 10, cls=1, score=0.9)
        b = sb(0, 0, 10, 10, cls=2, score=0.8)
        assert len(nms(query_set([a, b]), 0.6)) == 2

    def test_threshold_is_strict(self):
        a = sb(0, 0, 10, 10, score=0.9)
        b = sb(0, 0, 10, 6, score=0.8)  # IoU exactly 0.6
        assert box_iou(box(a), box(b)) == pytest.approx(0.6)
        assert len(nms(query_set([a, b]), 0.6)) == 2
        assert len(nms(query_set([a, b]), 0.59)) == 1

    def test_suppression_is_not_transitive(self):
        # b is suppressed by a; c overlaps b but not a, so c survives
        a = sb(0, 0, 10, 10, score=0.9)
        b = sb(0, 4, 10, 14, score=0.8)
        c = sb(0, 8, 10, 18, score=0.7)
        assert box_iou(box(a), box(b)) > 0.33 and box_iou(box(b), box(c)) > 0.33
        assert box_iou(box(a), box(c)) < 0.33
        kept = nms(query_set([a, b, c]), 0.33)
        assert [k.score for k in kept] == [0.9, 0.7]

    def test_empty(self):
        assert list(nms(query_set([]), 0.6)) == []

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 120))
    def test_matches_reference(self, seed, n):
        from oracles import nms_ref

        rng = np.random.default_rng(seed)
        cands = []
        for _ in range(n):
            x1, y1 = rng.uniform(0, 30, 2)
            w, h = rng.uniform(1, 20, 2)
            cands.append(sb(x1, y1, x1 + w, y1 + h,
                            cls=int(rng.integers(1, 4)),
                            score=float(rng.uniform(0.05, 1.0))))
        cands = query_set(cands).ordered()
        got = nms(cands, 0.5)
        want = nms_ref([(c.box, c.class_id, c.score, c.level) for c in cands], 0.5)
        assert [(c.box, c.class_id, c.score) for c in got] == [b[:3] for b in want]

    def test_large_random_against_reference(self):
        from oracles import nms_ref

        rng = np.random.default_rng(123)
        cands = []
        for _ in range(1000):
            x1, y1 = rng.uniform(0, 100, 2)
            w, h = rng.uniform(1, 40, 2)
            cands.append(sb(float(x1), float(y1), float(x1 + w), float(y1 + h),
                            cls=int(rng.integers(1, 6)),
                            score=float(rng.uniform(0.05, 1.0))))
        got = nms(query_set(cands), 0.6)
        want = nms_ref(cands, 0.6)
        assert len(got) == len(want)
        for g, wref in zip(got, want):
            assert g.box == wref[0]

    def test_order_independence(self):
        rng = np.random.default_rng(5)
        cands = []
        for _ in range(60):
            x1, y1 = rng.uniform(0, 40, 2)
            w, h = rng.uniform(2, 20, 2)
            cands.append(sb(float(x1), float(y1), float(x1 + w), float(y1 + h),
                            cls=int(rng.integers(1, 3)),
                            score=float(rng.uniform(0.05, 1.0))))
        base = list(nms(query_set(cands), 0.5))
        for perm_seed in range(4):
            perm = np.random.default_rng(perm_seed).permutation(len(cands))
            again = list(nms(query_set([cands[i] for i in perm]), 0.5))
            assert again == base

    def test_survivor_invariants(self):
        rng = np.random.default_rng(11)
        cands = []
        for _ in range(200):
            x1, y1 = rng.uniform(0, 50, 2)
            w, h = rng.uniform(1, 25, 2)
            cands.append(sb(float(x1), float(y1), float(x1 + w), float(y1 + h),
                            cls=int(rng.integers(1, 4)),
                            score=float(rng.uniform(0.05, 1.0))))
        kept = nms(query_set(cands), 0.55)
        scores = kept.scores.tolist()
        assert scores == sorted(scores, reverse=True)
        ious = box_iou(kept.boxes[:, None], kept.boxes[None])
        for i in range(len(kept)):
            for j in range(i + 1, len(kept)):
                if kept.classes[i] == kept.classes[j]:
                    assert ious[i, j] <= 0.55 + 1e-12


class TestAssembly:
    def _two_levels(self):
        # 32x32 image: stride-8 level 4x4, stride-16 level 2x2, quarter 8x8
        lv0 = make_level(stride=8, gh=4, gw=4)
        lv0.offsets[...] = (2, 2, 2, 2)
        lv1 = make_level(stride=16, gh=2, gw=2)
        lv1.offsets[...] = (5, 5, 5, 5)
        return lv0, lv1

    def test_resample_repeats_blocks(self):
        lv0, _ = self._two_levels()
        boxes = resample_level_boxes(lv0, (8, 8))
        assert boxes.shape == (8, 8, 4)
        # quarter pixel (3, 5) belongs to level cell (1, 2), center (20, 12)
        assert tuple(boxes[3, 5]) == (18.0, 10.0, 22.0, 14.0)

    def test_point_boxes_sit_on_quarter_centers(self):
        pts = quarter_point_boxes((2, 3))
        assert pts.shape == (2, 3, 4)
        assert tuple(pts[1, 2]) == (10.0, 6.0, 10.0, 6.0)
        assert (pts[..., 0] == pts[..., 2]).all() and (pts[..., 1] == pts[..., 3]).all()

    def test_argmax_selects_level(self):
        lv0, lv1 = self._two_levels()
        logits = np.zeros((8, 8, 3), np.float32)
        logits[..., 1] = 1.0  # level 0 everywhere
        logits[0, 0] = (0, 0, 5)  # pixel (0,0) uses level 1
        logits[7, 7] = (9, 0, 0)  # pixel (7,7) background
        field = assemble_global_boxes([lv0, lv1], LevelnessField(logits))
        r1 = resample_level_boxes(lv1, (8, 8))
        assert (field.boxes[0, 0] == r1[0, 0]).all()
        r0 = resample_level_boxes(lv0, (8, 8))
        assert (field.boxes[3, 5] == r0[3, 5]).all()
        assert tuple(field.boxes[7, 7]) == (30.0, 30.0, 30.0, 30.0)

    def test_single_level_everywhere_foreground(self):
        lv0, _ = self._two_levels()
        logits = np.zeros((8, 8, 2), np.float32)
        logits[..., 1] = 3.0
        field = assemble_global_boxes([lv0], LevelnessField(logits))
        assert (field.boxes == resample_level_boxes(lv0, (8, 8))).all()

    def test_level_count_mismatch_rejected(self):
        lv0, lv1 = self._two_levels()
        logits = np.zeros((8, 8, 2), np.float32)
        with pytest.raises(ValueError):
            assemble_global_boxes([lv0, lv1], LevelnessField(logits))


class TestMaxLevelProbability:
    def _levels(self):
        lv0 = make_level(stride=8, gh=2, gw=2)
        lv0.offsets[...] = (2, 2, 2, 2)
        lv1 = make_level(stride=16, gh=1, gw=1)
        lv1.offsets[...] = (6, 6, 6, 6)
        return [lv0, lv1]

    @staticmethod
    def maxlevel(levels, q, quarter_hw):
        return location_probability([resample_level_boxes(lv, quarter_hw) for lv in levels], q)

    def test_exact_box_gives_one(self):
        levels = self._levels()
        q = (2, 2, 14, 14)  # level-1 box at its only cell (center 8, 8)
        p = self.maxlevel(levels, q, (4, 4))
        assert p.shape == (4, 4)
        assert p.max() == 1.0

    def test_disjoint_everywhere_gives_zero(self):
        levels = self._levels()
        q = (100, 100, 120, 120)
        assert (self.maxlevel(levels, q, (4, 4)) == 0).all()

    def test_single_level_matches_assembled_path(self):
        (lv0, _) = self._levels()
        logits = np.zeros((4, 4, 2), np.float32)
        logits[..., 1] = 2.0
        field = assemble_global_boxes([lv0], LevelnessField(logits))
        q = (1, 1, 9, 9)
        direct = location_probability([field.boxes], q)
        viamax = self.maxlevel([lv0], q, (4, 4))
        assert np.allclose(direct, viamax)

    def test_max_dominates_any_assembly(self):
        rng = np.random.default_rng(3)
        lv0 = make_level(stride=8, gh=4, gw=4)
        lv0.offsets[...] = rng.uniform(1, 8, lv0.offsets.shape).astype(np.float32)
        lv1 = make_level(stride=16, gh=2, gw=2)
        lv1.offsets[...] = rng.uniform(4, 20, lv1.offsets.shape).astype(np.float32)
        q = (4, 4, 20, 18)
        pmax = self.maxlevel([lv0, lv1], q, (8, 8))
        for pick in range(3):  # bg, level 0, level 1
            logits = np.zeros((8, 8, 3), np.float32)
            logits[..., pick] = 4.0
            field = assemble_global_boxes([lv0, lv1], LevelnessField(logits))
            assert (location_probability([field.boxes], q) <= pmax + 1e-7).all()

    def test_empty_field_list_rejected(self):
        sem = SemanticField(np.full((4, 4, 2), 0.5, np.float32))
        with pytest.raises(ValueError, match="box field"):
            construct_masks(query_set([sb(0, 0, 1, 1, cls=2)]), sem, 1, levels=[])
