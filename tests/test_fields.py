import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from densepanoptic.fields import (
    DenseBoxLevel,
    DensePrediction,
    LevelnessField,
    LevelSpec,
    GlobalBoxField,
    PanopticMap,
    SegmentInfo,
    SemanticField,
    default_level_specs,
    softmax_field,
    upsample_nearest,
    validate_level_specs,
)


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


class TestGlobalBoxField:
    def test_shape_checks(self):
        with pytest.raises(ValueError):
            GlobalBoxField(boxes=np.zeros((2, 2, 3), np.float32))
        with pytest.raises(ValueError):
            GlobalBoxField(boxes=np.zeros((2, 4), np.float32))


class TestPanopticMap:
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
        assert f.probs.shape == (4, 5, 6)
