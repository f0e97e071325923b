import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from densepanoptic.bundle import save_predictions
from densepanoptic.fields import (
    DenseBoxLevel,
    DensePrediction,
    LevelnessField,
    LevelSpec,
    PanopticMap,
    SegmentInfo,
    SemanticField,
    check_labels,
    default_level_specs,
    label_counts,
    plane_argmax,
    plane_sum,
    segment_labels,
    segment_table,
    softmax_field,
    upsample_nearest,
    validate_level_specs,
)
from densepanoptic.losses import _cross_entropy
from oracles import cross_entropy_rows_ref, label_counts_ref, softmax_rows_ref


class TestLevelSpec:
    def test_default_table(self):
        specs = default_level_specs()
        assert [s.stride for s in specs] == [8, 16, 32, 64, 128]
        assert [s.min_size for s in specs] == [0, 64, 128, 256, 512]
        assert [s.max_size for s in specs[:-1]] == [64, 128, 256, 512]
        assert math.isinf(specs[-1].max_size)
        validate_level_specs(specs)

    def test_single_level_covers_everything(self):
        (spec,) = default_level_specs(1)
        assert spec.stride == 8 and spec.min_size == 0 and math.isinf(spec.max_size)

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            LevelSpec(stride=8, min_size=10, max_size=10)
        with pytest.raises(ValueError):
            LevelSpec(stride=0, min_size=0, max_size=10)

    def test_validate_rejects_gaps(self):
        bad = [LevelSpec(8, 0, 64), LevelSpec(16, 100, math.inf)]
        with pytest.raises(ValueError):
            validate_level_specs(bad)

    def test_validate_rejects_finite_tail(self):
        with pytest.raises(ValueError):
            validate_level_specs([LevelSpec(8, 0, 64)])


class TestDenseBoxLevel:
    def _mk(self, h=4, w=6, t=3):
        return dict(
            stride=8,
            offsets=np.zeros((h, w, 4), np.float32),
            class_probs=np.zeros((h, w, t), np.float32),
            centerness=np.zeros((h, w), np.float32),
        )

    def test_ok(self):
        lv = DenseBoxLevel(**self._mk())
        assert lv.shape == (4, 6) and lv.n_thing_classes == 3

    def test_shape_mismatch(self):
        kw = self._mk()
        kw["offsets"] = np.zeros((4, 5, 4), np.float32)
        with pytest.raises(ValueError):
            DenseBoxLevel(**kw)

    def test_negative_offsets_rejected(self):
        kw = self._mk()
        kw["offsets"][0, 0, 2] = -1
        with pytest.raises(ValueError):
            DenseBoxLevel(**kw)

    def test_probability_range_enforced(self):
        kw = self._mk()
        kw["class_probs"][0, 0, 0] = 1.5
        with pytest.raises(ValueError):
            DenseBoxLevel(**kw)

    @pytest.mark.parametrize("name", ["class_probs", "centerness"])
    def test_nan_probability_rejected(self, name):
        kw = self._mk()
        kw[name][0, 0] = np.nan
        with pytest.raises(ValueError, match=name):
            DenseBoxLevel(**kw)


class TestSemanticField:
    def test_ok_and_argmax(self):
        probs = np.zeros((2, 2, 3), np.float32)
        probs[..., 1] = 1.0
        f = SemanticField(probs)
        assert (f.argmax_classes() == 2).all()

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            SemanticField(np.full((2, 2, 3), 0.5, np.float32))

    def test_rejects_out_of_range(self):
        probs = np.zeros((1, 1, 2), np.float32)
        probs[0, 0] = (1.5, -0.5)
        with pytest.raises(ValueError):
            SemanticField(probs)

    def test_rejects_nan(self):
        probs = np.zeros((2, 2, 3), np.float32)
        probs[..., 0] = 1.0
        probs[1, 1, 2] = np.nan
        with pytest.raises(ValueError):
            SemanticField(probs)

    def test_class_ids_fit_uint16(self):
        """Channel 65535 would be class 65536, which argmax_classes wraps to void."""
        probs = np.zeros((1, 1, 65535), np.float32)
        probs[..., -1] = 1.0
        assert SemanticField(probs).argmax_classes().tolist() == [[65535]]
        with pytest.raises(ValueError, match="^a semantic field holds at most 65535 classes "
                                             r"\(uint16 ids\), got 65536$"):
            SemanticField(np.pad(probs, ((0, 0), (0, 0), (0, 1))))


class TestLevelnessField:
    def test_argmax_levels(self):
        logits = np.zeros((2, 2, 3), np.float32)
        logits[0, 0, 2] = 5.0
        f = LevelnessField(logits)
        assert f.n_levels == 2
        sel = f.argmax_levels()
        assert sel[0, 0] == 2 and sel[1, 1] == 0

    def test_rejects_single_channel(self):
        with pytest.raises(ValueError):
            LevelnessField(np.zeros((2, 2, 1), np.float32))

    def test_rejects_nonfinite(self):
        logits = np.zeros((1, 1, 3), np.float32)
        logits[0, 0, 0] = np.inf
        with pytest.raises(ValueError):
            LevelnessField(logits)


class TestDensePrediction:
    def _pred(self):
        q = (4, 4)
        return DensePrediction(
            levels=[DenseBoxLevel(stride=8, offsets=np.zeros((2, 2, 4), np.float32),
                                  class_probs=np.zeros((2, 2, 1), np.float32),
                                  centerness=np.zeros((2, 2), np.float32))],
            semantic_logits=np.zeros((*q, 3), np.float32),
            levelness_logits=np.zeros((*q, 2), np.float32),
            specs=default_level_specs(1), n_stuff=2, n_things=1, image_hw=(16, 16))

    @pytest.mark.parametrize("name", ["semantic_logits", "levelness_logits"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_logits_rejected(self, name, bad):
        pred = self._pred()
        logits = getattr(pred, name).copy()
        logits[1, 2, 0] = bad
        with pytest.raises(ValueError, match="must be finite"):
            dataclasses.replace(pred, **{name: logits})

    def test_logits_are_read_only_views_of_owned_planes(self, tmp_path):
        rng = np.random.default_rng(0)
        sem = rng.normal(0, 4, (4, 4, 3)).astype(np.float32)
        lev_planes = rng.normal(0, 4, (2, 4, 4)).astype(np.float32)
        lev = np.moveaxis(lev_planes, 0, -1)  # a writable view of planes is copied too
        pred = dataclasses.replace(self._pred(), semantic_logits=sem, levelness_logits=lev)
        for got, given in ((pred.semantic_logits, sem), (pred.levelness_logits, lev)):
            assert got.shape == given.shape and got.tobytes() == given.tobytes()
            assert not np.shares_memory(got, given)
            assert np.moveaxis(got, -1, 0).flags.c_contiguous
            with pytest.raises(ValueError, match="read-only"):
                got[0, 0, 0] = 1.0
        field = pred.levelness_field()
        assert pred.levelness_field() is field
        assert np.shares_memory(field.planes, pred.levelness_logits)
        assert field.planes.tobytes() == lev_planes.tobytes()
        save_predictions(tmp_path / "preds", pred)  # the (h, w, C) bytes, as before
        inputs = [sem, lev] + [getattr(lv, name) for lv in pred.levels
                               for name in ("offsets", "class_probs", "centerness")]
        assert (tmp_path / "preds" / "tensors.bin").read_bytes() == b"".join(a.tobytes() for a in inputs)

    def test_negative_class_counts_rejected(self):
        pred = self._pred()
        level = dataclasses.replace(pred.levels[0], class_probs=np.zeros((2, 2, 4), np.float32))
        with pytest.raises(ValueError, match="class counts must be nonnegative"):
            dataclasses.replace(pred, levels=[level], n_stuff=-1, n_things=4)


class TestPanopticMap:
    @pytest.mark.parametrize("class_map, instance_map, named", [
        pytest.param([[70000, -1]], [[0, 2]], "class_map", id="class-out-of-range"),
        pytest.param([[1, 1]], [[0.7, 2.0]], "instance_map", id="fractional-instance"),
        pytest.param([[np.nan, 1]], [[0, 0]], "class_map", id="nan-class"),
        pytest.param([[1, 1]], [[0, np.inf]], "instance_map", id="inf-instance"),
    ])
    def test_rejects_values_a_uint16_cast_would_change(self, class_map, instance_map, named):
        with pytest.raises(ValueError, match=f"^{named} must hold integers in \\[0, 65535\\]$"):
            PanopticMap(np.array(class_map), np.array(instance_map))

    def test_integer_valued_maps_are_cast(self):
        pm = PanopticMap(np.array([[65535.0, 1.0]]), np.array([[0, 2]], np.int64))
        assert pm.class_map.dtype == pm.instance_map.dtype == np.uint16
        assert pm.class_map.tolist() == [[65535, 1]] and pm.instance_map.tolist() == [[0, 2]]

    def test_validate_ok(self):
        cm = np.array([[1, 1], [4, 4]], np.uint16)
        im = np.array([[0, 0], [1, 1]], np.uint16)
        pm = PanopticMap(cm, im, [SegmentInfo(1, 4, 2, 0.9)])
        pm.validate()

    def test_validate_catches_class_split(self):
        cm = np.array([[4, 5]], np.uint16)
        im = np.array([[1, 1]], np.uint16)
        pm = PanopticMap(cm, im, [SegmentInfo(1, 4, 2, 0.9)])
        with pytest.raises(ValueError):
            pm.validate()

    def test_validate_catches_missing_segment(self):
        cm = np.array([[4, 4]], np.uint16)
        im = np.array([[1, 2]], np.uint16)
        pm = PanopticMap(cm, im, [SegmentInfo(1, 4, 1, 0.9)])
        with pytest.raises(ValueError):
            pm.validate()

    def test_validate_catches_wrong_area(self):
        cm = np.array([[4, 4]], np.uint16)
        im = np.array([[1, 1]], np.uint16)
        pm = PanopticMap(cm, im, [SegmentInfo(1, 4, 5, 0.9)])
        with pytest.raises(ValueError):
            pm.validate()

    def test_instance_pixel_with_void_class_rejected(self):
        cm = np.array([[0]], np.uint16)
        im = np.array([[1]], np.uint16)
        pm = PanopticMap(cm, im, [SegmentInfo(1, 0, 1, 0.5)])
        with pytest.raises(ValueError):
            pm.validate()

    # class 1 stuff on three instance-0 pixels, class 2 stuff absent, one class-4 instance
    STUFF_CM = np.array([[1, 1, 4], [1, 4, 0]], np.uint16)
    STUFF_IM = np.array([[0, 0, 1], [0, 1, 0]], np.uint16)

    def test_stuff_segments_checked_against_the_map(self):
        PanopticMap(self.STUFF_CM, self.STUFF_IM, [SegmentInfo(1, 4, 2, 0.9), SegmentInfo(0, 1, 3, 1.0)]).validate()

    @pytest.mark.parametrize("stuff, message", [
        pytest.param([SegmentInfo(0, 1, 4, 1.0)], "area 4", id="wrong-area"),
        pytest.param([SegmentInfo(0, 1, 3, 1.0), SegmentInfo(0, 1, 3, 1.0)], "duplicate stuff", id="duplicate"),
        pytest.param([SegmentInfo(0, 2, 1, 1.0)], "no pixels", id="absent-class"),
        pytest.param([SegmentInfo(0, 0, 1, 1.0)], "nonzero class", id="void-class"),
    ])
    def test_bad_stuff_segment_rejected(self, stuff, message):
        pm = PanopticMap(self.STUFF_CM, self.STUFF_IM, [SegmentInfo(1, 4, 2, 0.9)] + stuff)
        with pytest.raises(ValueError, match=message):
            pm.validate()


class TestSegmentLabels:
    def test_labels_ascend_in_pair_order_and_divmod_to_the_pair(self):
        cm = np.array([[0, 3, 5], [0, 1, 2], [3, 5, 1]], np.uint16)
        im = np.array([[7, 0, 2], [0, 2, 1], [1, 0, 2]], np.uint16)
        labels, n_inst, n = segment_labels(cm, im)
        assert (n_inst, n) == (8, 48) and labels.dtype == np.uint16
        pairs = [divmod(k, n_inst) for k in labels.ravel().tolist()]
        assert pairs == list(zip(cm.ravel().tolist(), im.ravel().tolist()))
        uniq = np.unique(labels).tolist()
        assert [divmod(k, n_inst) for k in uniq] == sorted(set(pairs))
        assert labels.max() < n

    @pytest.mark.parametrize("max_class, max_inst, dtype", [
        (4, 13106, np.uint16),  # n = 5 * 13107 = 65535
        (254, 255, np.uint16),  # n = 255 * 256 = 65280
        (255, 255, np.uint32),  # n = 256 * 256 = 65536
        (65535, 0, np.uint32),  # n = 65536
        (0, 65535, np.uint32),  # n = 65536
    ])
    def test_labels_are_uint16_below_65536(self, max_class, max_inst, dtype):
        cm = np.array([[0, max_class]], np.uint16)
        im = np.array([[max_inst, 0]], np.uint16)
        labels, n_inst, n = segment_labels(cm, im)
        assert n == (max_class + 1) * (max_inst + 1)
        assert labels.dtype == dtype
        assert [divmod(k, n_inst) for k in labels.ravel().tolist()] == [(0, max_inst), (max_class, 0)]

    def test_largest_pair_reaches_the_top_uint32_label(self):
        cm = np.array([[65535, 0], [1, 65535]], np.uint16)
        im = np.array([[65535, 0], [65535, 0]], np.uint16)
        labels, n_inst, n = segment_labels(cm, im)
        assert (n_inst, n) == (1 << 16, 1 << 32) and labels.dtype == np.uint32
        assert labels.tolist() == [[2 ** 32 - 1, 0], [2 * 65536 - 1, 65535 * 65536]]

    def test_segment_table(self):
        cm = np.array([[1, 1, 4], [2, 5, 0], [3, 3, 3]], np.uint16)
        im = np.array([[0, 0, 1], [0, 2, 0], [0, 0, 0]], np.uint16)
        table = segment_table(cm, im, [(4, 0.9), (5, 0.7), (4, 0.5)], n_stuff=2, scale=16)
        assert table == [SegmentInfo(1, 4, 16, 0.9), SegmentInfo(2, 5, 16, 0.7), SegmentInfo(3, 4, 0, 0.5),
                         SegmentInfo(0, 1, 32, 1.0), SegmentInfo(0, 2, 16, 1.0)]


def _assert_census(cm, im):
    classes, ids, counts = label_counts(cm, im)
    rows = list(zip(classes.tolist(), ids.tolist()))
    assert rows == sorted(set(rows))
    assert dict(zip(rows, counts.tolist())) == label_counts_ref(cm.tolist(), im.tolist())


class TestLabelCounts:
    """label_counts, and segment_table built on it, against a pixel-by-pixel Counter."""

    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([3, 999]))
    @settings(max_examples=60, deadline=None)
    def test_random_maps_on_both_paths(self, seed, top):
        # ids up to 3 on at least 16 pixels take the run-length bincount; a
        # pixel of id 999 in both maps on under 400 pixels forces the sort
        rng = np.random.default_rng(seed)
        h, w = (int(v) for v in rng.integers(4, 20, 2))
        cm = rng.integers(0, top + 1, (h, w)).astype(np.uint16)
        im = np.where(rng.random((h, w)) < 0.5, 0, rng.integers(0, top + 1, (h, w))).astype(np.uint16)
        cm[0, 0] = im[0, 0] = top
        _assert_census(cm, im)

    def test_top_ids_take_the_sort_path(self):
        cm = np.array([[65535, 65535, 0], [1, 65535, 65535]], np.uint16)
        im = np.array([[65535, 65535, 0], [0, 0, 65535]], np.uint16)
        _assert_census(cm, im)
        assert [c.tolist() for c in label_counts(cm, im)] == [[0, 1, 65535, 65535], [0, 0, 0, 65535],
                                                              [1, 1, 1, 3]]

    @pytest.mark.parametrize("shape", [(0, 0), (0, 5), (3, 0)])
    def test_empty_maps_have_no_rows(self, shape):
        cm = np.zeros(shape, np.uint16)
        assert [c.size for c in label_counts(cm, cm)] == [0, 0, 0]
        assert segment_table(cm, cm, [(3, 0.5)], n_stuff=2) == [SegmentInfo(1, 3, 0, 0.5)]

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_segment_table_matches_the_counter(self, seed):
        rng = np.random.default_rng(seed)
        h, w = (int(v) for v in rng.integers(1, 24, 2))
        n_stuff, n_inst = int(rng.integers(0, 5)), int(rng.integers(0, 6))
        cm = rng.integers(0, n_stuff + 4, (h, w)).astype(np.uint16)
        # ids up to n_inst + 2: pixels of ids past the instance list count nowhere
        im = np.where(rng.random((h, w)) < 0.6, 0, rng.integers(0, n_inst + 3, (h, w))).astype(np.uint16)
        instances = [(int(rng.integers(1, 9)), float(rng.random())) for _ in range(n_inst)]
        scale = int(rng.integers(1, 17))
        ref = label_counts_ref(cm.tolist(), im.tolist())
        inst_area = {k: sum(n for (_, i), n in ref.items() if i == k) for k in range(1, n_inst + 1)}
        expect = [SegmentInfo(k, c, inst_area[k] * scale, s) for k, (c, s) in enumerate(instances, start=1)]
        expect += [SegmentInfo(0, c, n * scale, 1.0) for (c, i), n in sorted(ref.items())
                   if i == 0 and 1 <= c <= n_stuff]
        assert segment_table(cm, im, instances, n_stuff, scale=scale) == expect


class TestCheckLabels:
    # class 9 exceeds n_stuff + n_things = 2 unless n_things grows; class 2 lies on instance 0
    CM = np.array([[1, 2, 2], [1, 1, 2]], np.uint16)

    @pytest.mark.parametrize("maps, n_things, message", [
        pytest.param((CM, np.zeros_like(CM)), 1, r"^x has thing class 2 on instance 0 \(n_stuff = 1\); "
                     "thing-class pixels must belong to an instance$", id="orphan"),
        pytest.param((np.where(CM == 2, 9, CM), (CM == 2).astype(np.uint16)), 1,
                     r"^x: class id 9 exceeds n_stuff \+ n_things = 2$", id="range"),
    ])
    def test_pixel_maps_and_rows_agree(self, maps, n_things, message):
        for classes, instances in (maps, label_counts(*maps)[:2]):
            with pytest.raises(ValueError, match=message):
                check_labels(classes, instances, 1, n_things, "x")

    def test_legal_labelings_pass(self):
        im = (self.CM == 2).astype(np.uint16)
        check_labels(self.CM, im, 1, 1, "x")
        check_labels(self.CM, np.zeros_like(self.CM), 2, 0, "x")
        check_labels(np.where(self.CM == 2, 9, self.CM), im, 1, 8, "x")
        check_labels(*label_counts(np.zeros((0, 3), np.uint16), np.zeros((0, 3), np.uint16))[:2], 0, 0, "x")


class TestUpsample:
    def test_factor_two(self):
        g = np.array([[1, 2], [3, 4]])
        up = upsample_nearest(g, 2)
        assert up.shape == (4, 4)
        assert (up[:2, :2] == 1).all() and (up[2:, 2:] == 4).all()
        assert (up[:2, 2:] == 2).all() and (up[2:, :2] == 3).all()

    def test_identity(self):
        g = np.arange(12).reshape(3, 4)
        assert (upsample_nearest(g, 1) == g).all()

    def test_one_by_three(self):
        g = np.array([[5, 6, 7]])
        up = upsample_nearest(g, 3)
        assert up.shape == (3, 9)
        assert (up[:, :3] == 5).all() and (up[:, 3:6] == 6).all() and (up[:, 6:] == 7).all()

    def test_channels_preserved(self):
        g = np.random.default_rng(0).random((2, 3, 5))
        up = upsample_nearest(g, 2)
        assert up.shape == (4, 6, 5)
        assert (up[0, 0] == g[0, 0]).all()

    def test_bad_factor(self):
        with pytest.raises(ValueError):
            upsample_nearest(np.zeros((2, 2)), 0)

    @pytest.mark.parametrize("shape", [(3, 4), (1, 5), (3, 4, 2), (1, 1, 3)])
    @pytest.mark.parametrize("factor", [1, 2, 3])
    def test_returns_a_writable_copy(self, shape, factor):
        g = np.arange(np.prod(shape)).reshape(shape)
        up = upsample_nearest(g, factor)
        assert up.flags.writeable and not np.shares_memory(up, g)
        assert np.array_equal(up, g.repeat(factor, axis=0).repeat(factor, axis=1))
        up[0, 0] = -1
        assert (g >= 0).all() and (up[1:, 1:] >= 0).all()


class TestSoftmax:
    def test_symmetry(self):
        out = softmax_field(np.zeros((1, 1, 2)))
        assert out[0, 0] == pytest.approx([0.5, 0.5])

    def test_closed_form(self):
        out = softmax_field(np.array([[[math.log(2), 0.0]]]))
        assert out[0, 0, 0] == pytest.approx(2 / 3, abs=1e-12)
        assert out[0, 0, 1] == pytest.approx(1 / 3, abs=1e-12)

    def test_stability(self):
        out = softmax_field(np.array([[[1000.0, 0.0]]], dtype=np.float32))
        assert np.isfinite(out).all()
        assert out[0, 0, 0] == 1.0 and out[0, 0, 1] == 0.0

    @given(st.integers(0, 2 ** 32 - 1))
    def test_normalization_property(self, seed):
        rng = np.random.default_rng(seed)
        logits = rng.normal(0, 5, (4, 5, 6)).astype(np.float32)
        f = SemanticField(softmax_field(logits))  # constructor checks sums
        assert f.planes.shape == (6, 4, 5)


def _planes(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(np.moveaxis(x, -1, 0))


def _prediction(semantic_logits: np.ndarray) -> DensePrediction:
    """A 16x24 prediction with these (4, 6, C) semantic logits, one stuff class."""
    n_ch = semantic_logits.shape[2]
    return DensePrediction(
        levels=[DenseBoxLevel(stride=8, offsets=np.zeros((2, 3, 4), np.float32),
                              class_probs=np.zeros((2, 3, n_ch - 1), np.float32),
                              centerness=np.zeros((2, 3), np.float32))],
        semantic_logits=semantic_logits, levelness_logits=np.zeros((4, 6, 2), np.float32),
        specs=default_level_specs(1), n_stuff=1, n_things=n_ch - 1, image_hw=(16, 24))


# per-pixel logit rows of extreme spread: float32 extremes, one-hot with margin
# 1000, ties among a few values, subnormals, and wide normal spreads
_EXTREME_ROWS = (
    lambda rng, c: rng.choice(np.array([-3e38, 3e38], np.float32), c),
    lambda rng, c: np.where(np.arange(c) == rng.integers(c), 1000.0, 0.0),
    lambda rng, c: rng.choice(np.array([-1.0, -0.0, 0.0, 2.0], np.float32), c),
    lambda rng, c: rng.integers(-3, 4, c) * np.float32(1e-45),
    lambda rng, c: rng.normal(0, 1, c) * 10.0 ** rng.integers(-30, 39, c),
)


class TestPlaneReductions:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 30), st.floats(0.0, 0.3))
    def test_plane_sum_is_numpy_sum_at_every_channel_count(self, seed, spread, zeros):
        """Pins numpy's pairwise summation order: a numpy release that changes
        it fails here rather than silently moving construction and loss bits."""
        rng = np.random.default_rng(seed)
        for n_ch in range(1, 141):
            x = rng.normal(0, 1, (3, 5, n_ch)) * 10.0 ** rng.integers(-spread, spread + 1, (3, 5, n_ch))
            x[rng.random(x.shape) < zeros] = -0.0
            for dtype in (np.float32, np.float64):
                xd = x.astype(dtype)
                assert plane_sum(_planes(xd)).tobytes() == xd.sum(axis=-1).tobytes(), (n_ch, dtype)
            x32 = x.astype(np.float32)  # the semantic sum check accumulates float32 in float64
            want = x32.sum(axis=-1, dtype=np.float64)
            assert plane_sum(_planes(x32), dtype=np.float64).tobytes() == want.tobytes(), n_ch

    def test_naive_plane_sum_would_differ(self):
        """The order matters: at 19 channels a sequential plane sum is off."""
        x = np.random.default_rng(3).normal(0, 1, (64, 64, 19)).astype(np.float32)
        sequential = _planes(x).sum(axis=0)
        assert sequential.tobytes() != x.sum(axis=-1).tobytes()
        assert plane_sum(_planes(x)).tobytes() == x.sum(axis=-1).tobytes()

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 20))
    def test_plane_argmax_takes_the_first_maximum(self, seed, n_ch):
        rng = np.random.default_rng(seed)
        # few distinct values, signed zeros among them: ties are everywhere
        x = rng.choice(np.array([-1.0, -0.0, 0.0, 2.0], np.float32), (6, 7, n_ch))
        got = plane_argmax(_planes(x))
        assert got.dtype == np.uint16
        assert (got == np.argmax(x, axis=-1)).all()

    @pytest.mark.parametrize("n_ch, ref_view", [
        pytest.param(n_ch, ref_view, id=f"{n_ch}-ref-view" if ref_view else str(n_ch))
        for n_ch, ref_view in ((3, False), (6, False), (19, False), (133, False), (19, True), (133, True))])
    def test_semantic_field_is_the_row_softmax(self, n_ch, ref_view):
        rng = np.random.default_rng(n_ch)
        logits = rng.normal(0, 4, (4, 6, n_ch)).astype(np.float32)
        pred = _prediction(logits)
        sem = pred.semantic_field()
        # the reference given the prediction's planes view must read it as rows
        want = softmax_rows_ref(pred.semantic_logits if ref_view else logits)
        assert sem.planes.tobytes() == _planes(want).tobytes()
        assert softmax_field(logits).tobytes() == want.tobytes()
        assert (sem.argmax_classes() == np.argmax(want, axis=-1) + 1).all()

    @pytest.mark.parametrize("n_ch, planar, ref_view", [
        pytest.param(n_ch, planar, False, id=f"{n_ch}-planes-view" if planar else str(n_ch))
        for planar in (False, True) for n_ch in (1, 6, 19, 133)] + [
        pytest.param(n_ch, True, True, id=f"{n_ch}-ref-view") for n_ch in (19, 133)])
    def test_cross_entropy_is_the_row_form(self, n_ch, planar, ref_view):
        rng = np.random.default_rng(n_ch)
        logits = rng.normal(0, 4, (16, 24, n_ch)).astype(np.float32)
        targets = rng.integers(0, n_ch, (16, 24))
        # a DensePrediction holds a view of planes; the reference sums rows of either
        given = np.moveaxis(_planes(logits), 0, -1) if planar else logits
        got = _cross_entropy(given, targets)
        assert got.tobytes() == cross_entropy_rows_ref(given if ref_view else logits, targets).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 140))
    def test_library_softmax_passes_the_public_check(self, seed, n_ch):
        """The check `semantic_field()` skips cannot fail on the library's own
        softmax, at 1-140 channels and extreme logit spreads."""
        rng = np.random.default_rng(seed)
        rows = [_EXTREME_ROWS[k](rng, n_ch) for k in rng.integers(len(_EXTREME_ROWS), size=24)]
        logits = np.clip(np.array(rows, np.float64), -3e38, 3e38).astype(np.float32).reshape(4, 6, n_ch)
        with np.errstate(over="ignore"):  # -3e38 - 3e38 overflows to -inf, whose exp is 0
            checked = SemanticField(softmax_field(logits))
            trusted = _prediction(logits).semantic_field()
        assert trusted.planes.tobytes() == checked.planes.tobytes()
        assert trusted.planes.shape == (n_ch, 4, 6) and not trusted.planes.flags.writeable

    def test_field_views_are_read_only(self):
        sem = SemanticField(np.full((2, 3, 4), 0.25, np.float32))
        lev = LevelnessField(np.zeros((2, 3, 2), np.float32))
        for view in (sem.planes, lev.planes):
            with pytest.raises(ValueError, match="read-only"):
                view[0, 0, 0] = 1.0
        planes = np.full((4, 2, 3), 0.25, np.float32)
        sem = SemanticField(np.moveaxis(planes, 0, 2))  # a view of planes is taken as is
        assert np.shares_memory(sem.planes, planes) and (sem.shape, sem.n_classes) == ((2, 3), 4)
        planes[0, 0, 0] = 0.5  # the caller's array stays writable
