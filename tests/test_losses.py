import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from densepanoptic import losses
from densepanoptic.losses import (
    _EXP_ZERO,
    LossReport,
    _cross_entropy,
    bootstrap_count,
    binary_cross_entropy,
    centerness_loss,
    focal_classification_loss,
    iou_loss,
    levelness_loss,
    mask_loss,
    match_queries,
    semantic_loss,
    total_loss,
)
from densepanoptic.synth import ONE_HOT_MARGIN
from oracles import cross_entropy_rows_ref
from query_rows import query_set, row


def sb(x1, y1, x2, y2, cls=2, score=0.9):
    return row(x1, y1, x2, y2, cls, score)


class TestIouLoss:
    def test_perfect_is_exact_zero(self):
        boxes = np.array([[0, 0, 4, 4], [1, 1, 9, 7]], np.float64)
        fg = np.array([True, True])
        assert iou_loss(boxes, boxes, fg) == 0.0

    def test_inverse_e_gives_one(self):
        pred = np.array([[0, 0, 1, 1]], np.float64)
        tgt = np.array([[0, 0, 1, 1 / math.e]], np.float64)
        assert iou_loss(pred, tgt, np.array([True])) == pytest.approx(1.0, abs=1e-12)

    def test_no_foreground(self):
        boxes = np.array([[0, 0, 4, 4]], np.float64)
        assert iou_loss(boxes, boxes, np.array([False])) == 0.0

    def test_disjoint_clamped(self, caplog):
        pred = np.array([[0, 0, 1, 1]], np.float64)
        tgt = np.array([[5, 5, 6, 6]], np.float64)
        with caplog.at_level(logging.WARNING, logger="densepanoptic.losses"):
            v = iou_loss(pred, tgt, np.array([True]))
        assert v == pytest.approx(-math.log(1e-6))
        assert any("clamp" in r.message for r in caplog.records)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_matches_reference(self, seed):
        from oracles import iou_loss_ref

        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        pred = rng.uniform(0, 20, (n, 4))
        pred[:, 2:] += pred[:, :2]
        tgt = pred + rng.uniform(-3, 3, (n, 4))
        tgt[:, 2:] = np.maximum(tgt[:, 2:], tgt[:, :2])
        fg = rng.random(n) < 0.6
        got = iou_loss(pred, tgt, fg)
        want = iou_loss_ref(pred.tolist(), tgt.tolist(), fg.tolist())
        assert got == pytest.approx(want, abs=1e-9)


class TestCenternessLoss:
    def test_perfect_is_exact_zero(self):
        p = np.array([1.0, 0.0])
        t = np.array([1.0, 0.0])
        assert centerness_loss(p, t, np.array([True, True])) == 0.0

    def test_half_vs_one(self):
        v = centerness_loss(np.array([0.5]), np.array([1.0]), np.array([True]))
        assert v == pytest.approx(math.log(2), abs=1e-12)

    def test_half_vs_half(self):
        v = centerness_loss(np.array([0.5]), np.array([0.5]), np.array([True]))
        assert v == pytest.approx(math.log(2), abs=1e-12)

    def test_only_foreground_counted(self):
        p = np.array([0.5, 0.123])
        t = np.array([1.0, 0.9])
        v = centerness_loss(p, t, np.array([True, False]))
        assert v == pytest.approx(math.log(2), abs=1e-12)

    def test_bce_elementwise_shape(self):
        out = binary_cross_entropy(np.full((2, 3), 0.5), np.ones((2, 3)))
        assert out.shape == (2, 3)
        assert out == pytest.approx(math.log(2))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_matches_reference(self, seed):
        from oracles import centerness_loss_ref

        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        p = rng.uniform(0, 1, n)
        t = rng.uniform(0, 1, n)
        fg = rng.random(n) < 0.7
        assert centerness_loss(p, t, fg) == pytest.approx(
            centerness_loss_ref(p.tolist(), t.tolist(), fg.tolist()), abs=1e-9)


class TestLevelnessLoss:
    def test_margin_one_hot_is_exact_zero(self):
        logits = np.zeros((2, 2, 3), np.float32)
        target = np.array([[0, 1], [2, 1]], np.uint16)
        for y in range(2):
            for x in range(2):
                logits[y, x, target[y, x]] = 1000.0
        assert levelness_loss(logits, target) == 0.0

    def test_uniform_six_way(self):
        logits = np.zeros((1, 1, 6))
        assert levelness_loss(logits, np.array([[3]])) == pytest.approx(math.log(6), abs=1e-12)

    def test_mean_of_two_pixels(self):
        logits = np.zeros((1, 2, 2))
        logits[0, 1] = (1000.0, 0.0)  # pixel 2 perfect, pixel 1 uniform
        target = np.array([[0, 0]])
        assert levelness_loss(logits, target) == pytest.approx(math.log(2) / 2, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            levelness_loss(np.zeros((2, 2, 3)), np.zeros((2, 3), np.int64))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_matches_reference(self, seed):
        from oracles import levelness_loss_ref

        rng = np.random.default_rng(seed)
        h, w, c = (int(v) for v in rng.integers(1, 9, 3))
        c += 1
        logits = rng.normal(0, 3, (h, w, c))
        target = rng.integers(0, c, (h, w))
        got = levelness_loss(logits, target)
        want = levelness_loss_ref(logits.reshape(-1, c).tolist(), target.reshape(-1).tolist())
        assert got == pytest.approx(want, abs=1e-9)


class TestCrossEntropyBlocks:
    def test_lanes_across_block_edges_are_the_row_form(self):
        """NaN, +-inf and margin-1000 lanes sit on both sides of each block edge."""
        n_ch, block = 7, losses._CE_BLOCK
        n = 2 * block + 37
        rng = np.random.default_rng(23)
        logits = rng.normal(0, 3, (n, n_ch)).astype(np.float32)
        hot = rng.integers(0, n_ch, n)
        margin = rng.random(n) < 0.5
        logits[margin] = 0.0
        logits[margin, hot[margin]] = ONE_HOT_MARGIN
        for edge in (block, 2 * block, n):
            for p, v in zip(range(edge - 3, edge + 3), (np.nan, np.inf, -np.inf, np.inf, np.nan, -np.inf)):
                if p < n:
                    logits[p, rng.integers(n_ch)] = v
        logits[block - 4] = ONE_HOT_MARGIN  # every lane at the maximum
        targets = rng.integers(0, n_ch, n)
        with np.errstate(invalid="ignore"):
            got = _cross_entropy(logits, targets)
            want = cross_entropy_rows_ref(logits, targets)
        assert np.isnan(got).any() and np.isinf(got).any() and (got == 0).any()
        assert got.tobytes() == want.tobytes()


    def test_soft_and_one_hot_blocks_alternate(self):
        """A block where every lane takes exp (soft logits) sits between
        one-hot blocks; all of them share the reused zero-filled buffer."""
        n_ch, block = 6, losses._CE_BLOCK
        rng = np.random.default_rng(5)
        logits = rng.normal(0, 2, (3 * block + 11, n_ch)).astype(np.float32)
        for b in (0, 2):  # blocks 0 and 2 one-hot, block 1 and the tail soft
            one_hot = np.zeros((block, n_ch), np.float32)
            one_hot[np.arange(block), rng.integers(0, n_ch, block)] = ONE_HOT_MARGIN
            logits[b * block:(b + 1) * block] = one_hot
        targets = rng.integers(0, n_ch, len(logits))
        got = _cross_entropy(logits, targets)
        assert got.tobytes() == cross_entropy_rows_ref(logits, targets).tobytes()


class TestExpCutoff:
    """`_cross_entropy` writes +0.0 for lanes below `_EXP_ZERO` instead of taking exp."""

    def test_exp_is_positive_zero_below_the_cutoff(self):
        below = np.concatenate([
            [np.nextafter(_EXP_ZERO, -np.inf), -1e4, -1e308, -np.finfo(np.float64).max, -np.inf],
            np.linspace(np.nextafter(_EXP_ZERO, -np.inf), -2000.0, 100_003),
            -np.geomspace(1e3, 1e300, 1001)])
        assert (below < _EXP_ZERO).all()
        assert not np.exp(below).view(np.uint64).any()  # +0.0 is the all-zero bit pattern
        assert np.exp(-745.1) > 0  # the smallest subnormal: the cutoff sits just past it

    @pytest.mark.parametrize("n_ch", [6, 19])
    def test_margin_one_hot_logits_are_the_row_form(self, n_ch):
        rng = np.random.default_rng(n_ch)
        hot = rng.integers(0, n_ch, (16, 24))
        logits = np.zeros((16, 24, n_ch), np.float32)
        np.put_along_axis(logits, hot[..., None], ONE_HOT_MARGIN, axis=2)
        targets = np.where(rng.random((16, 24)) < 0.8, hot, rng.integers(0, n_ch, (16, 24)))
        got = _cross_entropy(logits, targets)
        assert got.tobytes() == cross_entropy_rows_ref(logits, targets).tobytes()

    @pytest.mark.parametrize("n_ch", [6, 19])
    def test_differences_at_the_cutoff_are_the_row_form(self, n_ch):
        # each lane lies this far below its pixel's maximum of 0.0
        near = np.array([-745.1, -745.13, -745.14, -745.2, np.nextafter(_EXP_ZERO, 0), _EXP_ZERO,
                         np.nextafter(_EXP_ZERO, -np.inf), -746.1, -1e4, 0.0, -1.0, -700.0])
        rng = np.random.default_rng(n_ch)
        logits = rng.choice(near, (32, n_ch))
        logits[np.arange(32), rng.integers(0, n_ch, 32)] = 0.0
        targets = rng.integers(0, n_ch, 32)
        got = _cross_entropy(logits, targets)
        assert got.tobytes() == cross_entropy_rows_ref(logits, targets).tobytes()

    def test_nan_and_inf_logits_as_without_the_cutoff(self, monkeypatch):
        logits = np.full((7, 4), -1000.0)
        logits[:, 0] = 0.0
        logits[0, 1] = np.nan
        logits[1, 0] = np.inf
        logits[2, 2] = -np.inf
        logits[3] = -np.inf
        logits[4] = np.inf
        logits[5, :2] = (np.inf, -np.inf)
        targets = np.array([0, 1, 2, 3, 0, 1, 2])
        with np.errstate(invalid="ignore"):
            got = _cross_entropy(logits, targets)
            monkeypatch.setattr(losses, "_EXP_ZERO", -np.inf)  # no lane skips exp
            want = _cross_entropy(logits, targets)
        assert np.isnan(got[:6]).any() and np.isfinite(got[6])
        assert got.tobytes() == want.tobytes()


class TestFocalLoss:
    def test_perfect_positive_is_exact_zero(self):
        p = np.array([[[1.0]]])
        cls = np.array([[1]])
        fg = np.array([[True]])
        assert focal_classification_loss(p, cls, fg, n_stuff=0) == 0.0

    def test_frozen_positive_value(self):
        # y=1, p=0.5: 0.25 * (0.5)^2 * ln 2
        p = np.array([[[0.5]]])
        cls = np.array([[1]])
        fg = np.array([[True]])
        v = focal_classification_loss(p, cls, fg, n_stuff=0, alpha=0.25, gamma=2.0)
        assert v == pytest.approx(0.25 * 0.25 * math.log(2), abs=1e-12)
        assert v == pytest.approx(0.04332, abs=5e-6)

    def test_perfect_negative_is_exact_zero(self):
        p = np.array([[[0.0]]])
        cls = np.array([[0]])
        fg = np.array([[False]])
        assert focal_classification_loss(p, cls, fg, n_stuff=0) == 0.0

    def test_normalized_by_foreground_count(self):
        p = np.full((1, 2, 1), 0.5)
        cls = np.array([[1, 1]])
        fg = np.array([[True, True]])
        v = focal_classification_loss(p, cls, fg, n_stuff=0)
        assert v == pytest.approx(0.25 * 0.25 * math.log(2), abs=1e-12)

    def test_background_only_divides_by_one(self):
        p = np.array([[[0.5]]])
        cls = np.array([[0]])
        fg = np.array([[False]])
        v = focal_classification_loss(p, cls, fg, n_stuff=0)
        assert v == pytest.approx(0.75 * 0.25 * math.log(2), abs=1e-12)

    def test_global_class_ids_offset_by_stuff(self):
        p = np.zeros((1, 1, 3))
        p[0, 0, 1] = 1.0
        cls = np.array([[4]])  # n_stuff=2 -> thing channel 1
        fg = np.array([[True]])
        assert focal_classification_loss(p, cls, fg, n_stuff=2) == 0.0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_matches_reference(self, seed):
        from oracles import focal_loss_ref

        rng = np.random.default_rng(seed)
        n, t = int(rng.integers(1, 50)), int(rng.integers(1, 5))
        n_stuff = int(rng.integers(0, 3))
        p = rng.uniform(0, 1, (n, t))
        fg = rng.random(n) < 0.4
        cls = np.where(fg, rng.integers(n_stuff + 1, n_stuff + t + 1, n), 0)
        got = focal_classification_loss(p, cls, fg, n_stuff=n_stuff)
        want = focal_loss_ref(p.tolist(), cls.tolist(), fg.tolist(), n_stuff)
        assert got == pytest.approx(want, abs=1e-9)


    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_bitwise_the_dense_form(self, data):
        """The sparse positive term against the one-hot form, by float.hex:
        probabilities at and next to 0, 1/2 and 1, or uniform; foreground
        empty, full or mixed."""
        from oracles import focal_loss_dense_ref

        n, t, n_stuff = data.draw(st.integers(0, 24)), data.draw(st.integers(1, 4)), data.draw(st.integers(0, 2))
        prob = st.one_of(st.sampled_from([0.0, 1e-9, 0.5, 1 - 1e-9, 1.0]), st.floats(0, 1))
        p = np.array(data.draw(st.lists(prob, min_size=n * t, max_size=n * t)), np.float64).reshape(n, t)
        kind = data.draw(st.sampled_from(["empty", "full", "mixed"]))
        fg = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), bool).reshape(n)
        fg = {"empty": np.zeros(n, bool), "full": np.ones(n, bool), "mixed": fg}[kind]
        cls = np.array(data.draw(st.lists(st.integers(n_stuff + 1, n_stuff + t), min_size=n, max_size=n)),
                       np.int64).reshape(n)
        cls[~fg] = 0
        alpha, gamma = data.draw(st.sampled_from([(0.25, 2.0), (0.5, 1.5), (0.25, 0.0)]))
        got = focal_classification_loss(p, cls, fg, n_stuff=n_stuff, alpha=alpha, gamma=gamma)
        want = focal_loss_dense_ref(p, cls, fg, n_stuff=n_stuff, alpha=alpha, gamma=gamma)
        assert got.hex() == want.hex()

    def test_a_sum_of_zeros_is_positive_zero(self):
        """Negative terms at p = 0 are -0.0; the one-hot form sums +0.0."""
        from oracles import focal_loss_dense_ref

        p = np.zeros((3, 2))
        p[1, 1] = 1.0
        cls, fg = np.array([0, 2, 0]), np.array([False, True, False])
        assert focal_loss_dense_ref(p, cls, fg).hex() == "0x0.0p+0"
        assert focal_classification_loss(p, cls, fg).hex() == "0x0.0p+0"
        assert focal_classification_loss(p[:0], cls[:0], fg[:0]).hex() == "0x0.0p+0"

    @pytest.mark.parametrize("bad", [-1e-9, 1 + 1e-9, np.nan, np.inf])
    def test_rejects_probabilities_outside_zero_one(self, bad):
        p = np.full((2, 3), 0.5)
        p[1, 2] = bad
        with pytest.raises(ValueError, match=r"probabilities must lie in \[0, 1\]"):
            focal_classification_loss(p, np.array([1, 0]), np.array([True, False]))


class TestSemanticLoss:
    def test_bootstrap_count_examples(self):
        assert bootstrap_count(10, 0.3) == 3
        assert bootstrap_count(1, 0.3) == 1
        assert bootstrap_count(3, 0.3) == 1
        assert bootstrap_count(4, 0.3) == 2  # ceil(1.2)
        assert bootstrap_count(100, 1.0) == 100
        assert bootstrap_count(0, 0.3) == 0
        with pytest.raises(ValueError):
            bootstrap_count(10, 0.0)
        with pytest.raises(ValueError):
            bootstrap_count(10, 1.5)

    def test_constant_field(self):
        logits = np.zeros((4, 4, 3))
        target = np.ones((4, 4), np.uint16)
        assert semantic_loss(logits, target) == pytest.approx(math.log(3), abs=1e-12)

    def test_worst_three_of_ten(self):
        # pixel i gets CE exactly i+1 via logits (0, ln(e^v - 1)) on class 1
        v = np.arange(1, 11, dtype=np.float64)
        logits = np.zeros((1, 10, 2))
        logits[0, :, 1] = np.log(np.expm1(v))
        target = np.ones((1, 10), np.uint16)
        got = semantic_loss(logits, target, 0.3)
        assert got == pytest.approx((10 + 9 + 8) / 3, abs=1e-9)

    def test_fraction_one_is_plain_mean(self):
        v = np.arange(1, 11, dtype=np.float64)
        logits = np.zeros((1, 10, 2))
        logits[0, :, 1] = np.log(np.expm1(v))
        target = np.ones((1, 10), np.uint16)
        assert semantic_loss(logits, target, 1.0) == pytest.approx(v.mean(), abs=1e-9)

    def test_monotone_in_pixel_loss(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(0, 2, (3, 5, 4))
        target = rng.integers(1, 5, (3, 5)).astype(np.uint16)
        base = semantic_loss(logits, target, 0.3)
        for y in range(3):
            for x in range(5):
                worse = logits.copy()
                worse[y, x, target[y, x] - 1] -= 1.5  # raises that pixel's CE
                assert semantic_loss(worse, target, 0.3) >= base - 1e-12

    def test_rejects_zero_based_targets(self):
        with pytest.raises(ValueError):
            semantic_loss(np.zeros((1, 1, 2)), np.zeros((1, 1), np.int64))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_matches_reference(self, seed):
        from oracles import semantic_loss_ref

        rng = np.random.default_rng(seed)
        h, w, c = (int(v) for v in rng.integers(1, 9, 3))
        c += 1
        logits = rng.normal(0, 3, (h, w, c))
        target = rng.integers(1, c + 1, (h, w))
        got = semantic_loss(logits, target, 0.3)
        want = semantic_loss_ref(logits.reshape(-1, c).tolist(), target.reshape(-1).tolist(), 0.3)
        assert got == pytest.approx(want, abs=1e-9)


class TestMatchQueries:
    def test_max_iou_wins(self):
        q = np.array([[0, 0, 10, 10]], np.float64)
        g = np.array([[0, 0, 5, 10], [0, 0, 9, 10]], np.float64)
        assert match_queries(q, g).tolist() == [1]

    def test_zero_iou_unmatched(self):
        q = np.array([[0, 0, 1, 1]], np.float64)
        g = np.array([[5, 5, 6, 6]], np.float64)
        assert match_queries(q, g).tolist() == [-1]

    def test_tie_takes_lowest_gt(self):
        q = np.array([[0, 0, 10, 10]], np.float64)
        g = np.array([[0, 0, 10, 5], [0, 5, 10, 10]], np.float64)
        assert match_queries(q, g).tolist() == [0]

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_matches_reference(self, seed):
        from oracles import match_queries_ref

        rng = np.random.default_rng(seed)
        nq, ng = int(rng.integers(1, 20)), int(rng.integers(1, 10))
        q = rng.uniform(0, 30, (nq, 4))
        q[:, 2:] += q[:, :2]
        g = rng.uniform(0, 30, (ng, 4))
        g[:, 2:] += g[:, :2]
        assert match_queries(q, g).tolist() == match_queries_ref(q.tolist(), g.tolist())


class TestMaskLoss:
    def test_hand_example(self):
        # beta=1 (query box equals gt box), N_j=4, two pixel boxes at IoU 0.5,
        # two perfect, nothing outside the mask -> (1/4) * (0.5 + 0.5) = 0.25
        boxes = np.zeros((2, 2, 4), np.float32)
        boxes[0, 0] = (0, 0, 8, 8)
        boxes[0, 1] = (0, 0, 8, 8)
        boxes[1, 0] = (0, 0, 8, 4)  # IoU 0.5 against the query
        boxes[1, 1] = (0, 0, 4, 8)  # IoU 0.5
        queries = query_set([sb(0, 0, 8, 8)])
        gt_boxes = np.array([[0, 0, 8, 8]], np.float64)
        gt_instances = np.ones((2, 2), np.int64)
        v = mask_loss(boxes, queries, gt_boxes, gt_instances)
        assert v == pytest.approx(0.25, abs=1e-12)

    def test_empty_queries(self):
        assert mask_loss(np.zeros((2, 2, 4), np.float32), query_set([]), np.zeros((1, 4)), np.zeros((2, 2))) == 0.0

    def test_unmatched_query_excluded(self, caplog):
        boxes = np.zeros((1, 1, 4), np.float32)
        queries = query_set([sb(0, 0, 1, 1)])
        gt_boxes = np.array([[50, 50, 60, 60]], np.float64)
        with caplog.at_level(logging.WARNING, logger="densepanoptic.losses"):
            v = mask_loss(boxes, queries, gt_boxes, np.ones((1, 1), np.int64))
        assert v == 0.0
        assert any("matched no gt" in r.message for r in caplog.records)

    def test_perfect_scene_is_zero(self):
        # pixel boxes equal the query inside the mask and are disjoint outside
        boxes = np.zeros((2, 2, 4), np.float32)
        boxes[0, 0] = (0, 0, 8, 8)
        boxes[0, 1] = (0, 0, 8, 8)
        boxes[1, 0] = (20, 20, 22, 22)
        boxes[1, 1] = (20, 20, 22, 22)
        queries = query_set([sb(0, 0, 8, 8)])
        gt_boxes = np.array([[0, 0, 8, 8]], np.float64)
        gt_instances = np.array([[1, 1], [0, 0]], np.int64)
        assert mask_loss(boxes, queries, gt_boxes, gt_instances) == 0.0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_matches_reference(self, seed):
        from oracles import mask_loss_ref

        rng = np.random.default_rng(seed)
        h, w = (int(v) for v in rng.integers(2, 7, 2))
        boxes = rng.uniform(0, 16, (h, w, 4)).astype(np.float32)
        boxes[..., 2:] += boxes[..., :2]
        ng = int(rng.integers(1, 4))
        g = rng.uniform(0, 12, (ng, 4))
        g[:, 2:] += g[:, :2] + 1
        gt_instances = rng.integers(0, ng + 1, (h, w))
        queries = []
        for _ in range(int(rng.integers(1, 5))):
            x1, y1 = rng.uniform(0, 12, 2)
            bw, bh = rng.uniform(1, 8, 2)
            queries.append(sb(float(x1), float(y1), float(x1 + bw), float(y1 + bh),
                              score=float(rng.uniform(0.1, 1.0))))
        queries.sort(key=lambda c: -c[2])
        got = mask_loss(boxes, query_set(queries), g, gt_instances)
        want = mask_loss_ref(
            boxes.tolist(),
            [q[0] for q in queries],
            g.tolist(), gt_instances.tolist())
        # pixel IoUs are computed in float32; the scalar reference is float64
        assert got == pytest.approx(want, abs=1e-6)


    def test_rejects_a_box_field_that_is_not_h_w_4(self):
        for boxes in (np.zeros((2, 2, 3), np.float32), np.zeros((2, 4), np.float32)):
            with pytest.raises(ValueError, match=r"global boxes must be \(h, w, 4\)"):
                mask_loss(boxes, query_set([sb(0, 0, 8, 8)]), np.array([[0, 0, 8, 8]]), np.ones((2, 2)))

    def test_rejects_a_nan_box_field(self):
        """A field that is NaN except one box used to be scored silently."""
        boxes = np.full((4, 4, 4), np.nan, np.float32)
        boxes[1, 2] = (0, 0, 8, 8)
        queries, gt_boxes = query_set([sb(0, 0, 8, 8)]), np.array([[0, 0, 8, 8]], np.float64)
        ids = np.zeros((4, 4), np.int64)
        ids[1:3, 1:3] = 1
        with pytest.raises(ValueError, match="global boxes must not hold NaN"):
            mask_loss(boxes, queries, gt_boxes, ids)
        boxes[np.isnan(boxes[..., 0])] = (np.inf, np.inf, -np.inf, -np.inf)  # the empty box stays legal
        # three instance pixels score IoU 0 (E_FN = 3), the rest 0 or 1
        assert mask_loss(boxes, queries, gt_boxes, ids) == 3 / 4

    @pytest.mark.parametrize("bad", [-1, 2.5, 7, np.nan])
    def test_rejects_instance_ids_it_cannot_index(self, bad):
        """Ids must be integers in [0, len(gt_boxes)]; one gt box here."""
        boxes = np.zeros((8, 8, 4), np.float32)
        boxes[..., 2:] = 8.0
        queries, gt_boxes = query_set([sb(0, 0, 8, 8)]), np.array([[0, 0, 8, 8]], np.float64)
        ids = np.zeros((8, 8), np.float64 if isinstance(bad, float) else np.int64)
        ids[:4] = 1
        assert mask_loss(boxes, queries, gt_boxes, ids) > 0
        ids[5, 6] = bad
        with pytest.raises(ValueError, match=r"gt_instances must hold integers in \[0, 1\]"):
            mask_loss(boxes, queries, gt_boxes, ids)


class TestTotalLoss:
    def test_all_zero(self):
        rep = total_loss(0, 0, 0, 0, 0, 0)
        assert rep.total == 0.0

    def test_unit_components_lambda_one(self):
        rep = total_loss(1, 1, 1, 1, 1, 1, semantic_weight=1.0)
        assert rep.total == pytest.approx(6.0)

    def test_unit_components_lambda_04(self):
        rep = total_loss(1, 1, 1, 1, 1, 1, semantic_weight=0.4)
        assert rep.total == pytest.approx(5.4)

    def test_report_identity(self):
        rep = total_loss(0.5, 0.25, 0.125, 1.0, 2.0, 0.75, semantic_weight=0.4)
        expect = 0.5 + 0.25 + 0.125 + 1.0 + 0.4 * 2.0 + 0.75
        assert rep.total == pytest.approx(expect, abs=1e-12)
        d = rep.as_dict()
        assert d["semantics"] == 2.0 and d["total"] == rep.total
        assert "total" in rep.format()

    @pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf, -0.5, np.float32("nan")])
    def test_weight_must_be_finite_and_nonnegative(self, weight):
        with pytest.raises(ValueError, match="semantic_weight must be a finite number >= 0"):
            total_loss(1, 1, 1, 1, 1, 1, semantic_weight=weight)

    def test_zero_weight_drops_semantics(self):
        assert total_loss(1, 1, 1, 1, 5, 1, semantic_weight=0.0).total == 5.0


class TestLossReportInputs:
    @staticmethod
    def _pair():
        from densepanoptic.assignment import build_targets
        from densepanoptic.bundle import TargetBundle
        from densepanoptic.fields import default_level_specs
        from densepanoptic.synth import SceneConfig, generate_scene, ideal_predictions

        specs = default_level_specs(5)
        scene = generate_scene(SceneConfig(width=128, height=128, instances=2, seed=3))
        level_targets, global_targets = build_targets(scene, specs)
        targets = TargetBundle(level_targets=level_targets, global_targets=global_targets,
                               gt_boxes=scene.boxes, gt_classes=scene.instance_classes,
                               gt_instances_quarter=scene.quarter_instance_map(), specs=specs,
                               n_stuff=scene.n_stuff, n_things=scene.n_things,
                               image_hw=(scene.height, scene.width), mode="full")
        return ideal_predictions(scene, specs), targets

    @pytest.mark.parametrize("change", [
        {"n_stuff": 4, "n_things": 2}, {"n_things": 4}, {"image_hw": (256, 128)}])
    def test_mismatched_class_counts_or_size_rejected(self, change):
        import copy

        from densepanoptic.pipeline import compute_loss_report

        pred, targets = self._pair()
        assert compute_loss_report(pred, targets).total >= 0.0
        # set on a copy: TargetBundle itself rejects most of these changes
        bad = copy.copy(targets)
        for name, value in change.items():
            setattr(bad, name, value)
        with pytest.raises(ValueError, match="predictions have"):
            compute_loss_report(pred, bad)


class TestLossReport:
    def test_format_lists_components(self):
        rep = LossReport(box_regression=1, centerness=2, levelness=3,
                         box_classification=4, semantics=5, mask=6,
                         semantic_weight=1.0, total=21)
        text = rep.format()
        for name in ("box_regression", "centerness", "levelness",
                     "box_classification", "semantics", "mask"):
            assert name in text
