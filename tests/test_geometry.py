import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from densepanoptic.geometry import (
    box_iou,
    boxes_to_offsets,
    _area,
    _max_iou,
    centerness,
    max_offset,
    offsets_to_boxes,
    receptive_centers,
)

from oracles import box_to_offsets_ref, centerness_ref, iou_ref, offsets_to_box_ref, receptive_center_ref


class TestIoU:
    def test_identical(self):
        assert box_iou((0, 0, 2, 2), (0, 0, 2, 2)) == 1.0

    def test_disjoint(self):
        assert box_iou((0, 0, 1, 1), (5, 5, 6, 6)) == 0.0

    def test_one_seventh(self):
        assert box_iou((0, 0, 2, 2), (1, 1, 3, 3)) == pytest.approx(1 / 7, abs=1e-12)

    def test_degenerate_pair(self):
        assert box_iou((1, 1, 1, 1), (1, 1, 1, 1)) == 0.0

    def test_degenerate_vs_proper(self):
        assert box_iou((2, 2, 2, 2), (0, 0, 4, 4)) == 0.0

    def test_touching_edges(self):
        assert box_iou((0, 0, 1, 1), (1, 0, 2, 1)) == 0.0

    def test_broadcasts_like_the_reference(self):
        rng = np.random.default_rng(4)
        a = rng.uniform(0, 30, (6, 4))
        b = rng.uniform(0, 30, (5, 4))
        for arr in (a, b):
            arr[:, 2:] = arr[:, :2] + rng.uniform(0, 12, (len(arr), 2))
        a[0] = (3, 3, 3, 9)  # zero width
        b[1] = a[1]
        pair = box_iou(a[:5], b)
        mat = box_iou(a[:, None], b[None])
        one = box_iou(a[2], b[3])
        assert pair.shape == (5,) and mat.shape == (6, 5) and one.shape == ()
        assert pair.dtype == mat.dtype == one.dtype == np.float64
        for i in range(6):
            for j in range(5):
                assert mat[i, j] == iou_ref(a[i].tolist(), b[j].tolist())
        assert pair.tolist() == [iou_ref(a[i].tolist(), b[i].tolist()) for i in range(5)]
        assert one == iou_ref(a[2].tolist(), b[3].tolist())
        assert box_iou(a, b[4]).tolist() == mat[:, 4].tolist()


class TestBoxOffsets:
    def test_max(self):
        off = np.array([(1, 7, 3, 2), (0, 0, 0, 0), (9, 1, 1, 1)], np.float32)
        assert max_offset(off).tolist() == [7, 0, 9]
        assert max_offset(off).tolist() == off.max(axis=1).tolist()


class TestOffsets:
    def test_encode_examples(self):
        got = boxes_to_offsets([(10, 20, 50, 60), (0, 0, 4, 4), (0, 0, 4, 4)],
                               np.array([30, 0, 2]), np.array([40, 0, 2]))
        assert got.tolist() == [[20, 20, 20, 20], [0, 0, 4, 4], [2, 2, 2, 2]]

    def test_encode_outside_errors(self):
        # the scalar reference raises; the array encoding leaves the check
        # to its callers through the sign of the offsets
        assert boxes_to_offsets((0, 0, 4, 4), 5, 2).tolist() == [5, 2, -1, 2]
        with pytest.raises(ValueError):
            box_to_offsets_ref((0, 0, 4, 4), 5, 2)

    def test_decode_examples(self):
        off = np.array([(20, 20, 20, 20), (0, 0, 0, 0), (1, 2, 3, 4)])
        got = offsets_to_boxes(off, np.array([30, 5, 10]), np.array([40, 5, 10]))
        assert got.tolist() == [[10, 20, 50, 60], [5, 5, 5, 5], [9, 8, 13, 14]]


class TestCenterness:
    def test_centered(self):
        for k in (0.5, 1, 7):
            assert centerness((k, k, k, k)) == 1.0

    def test_edge_zero(self):
        assert centerness((0, 2, 3, 2)) == 0.0

    def test_example(self):
        assert centerness((1, 2, 3, 2)) == pytest.approx(math.sqrt(1 / 3), abs=1e-9)
        assert centerness((1, 2, 3, 2)) == pytest.approx(0.57735, abs=1e-5)

    def test_degenerate_axis(self):
        assert centerness((0, 1, 0, 1)) == 0.0

    # pixel distances: exactly 0 or at least 1e-6 (see the centerness docstring)
    @given(st.lists(st.tuples(*(st.one_of(st.just(0.0), st.floats(1e-6, 1e4)) for _ in range(4))),
                    min_size=1, max_size=20))
    def test_matches_reference(self, offs):
        got = centerness(np.array(offs, np.float64))
        assert got.dtype == np.float64 and got.shape == (len(offs),)
        for g, o in zip(got.tolist(), offs):
            assert g == pytest.approx(centerness_ref(o), rel=1e-12, abs=1e-12)


class TestReceptiveCenter:
    def test_examples(self):
        got = receptive_centers(8, np.array([0, 3, 2]))
        assert got.dtype == np.int64 and got.tolist() == [4, 28, 20]
        assert receptive_centers(1, [7, 9]).tolist() == [7, 9]
        for z, ix, iy in [(8, 0, 0), (8, 3, 2), (16, 5, 1)]:
            assert tuple(receptive_centers(z, [ix, iy]).tolist()) == receptive_center_ref(z, ix, iy)

    def test_invalid_stride(self):
        with pytest.raises(ValueError):
            receptive_centers(0, [0])


finite = st.floats(min_value=-500, max_value=500, allow_nan=False, allow_infinity=False)


def box_strategy():
    return st.tuples(finite, finite, finite, finite).map(
        lambda t: (min(t[0], t[2]), min(t[1], t[3]), max(t[0], t[2]), max(t[1], t[3])))


class TestProperties:
    @given(box_strategy(), box_strategy())
    def test_iou_symmetric_and_bounded(self, a, b):
        v = box_iou(a, b)
        assert v == box_iou(b, a)
        assert 0.0 <= v <= 1.0

    @given(box_strategy())
    def test_iou_self(self, a):
        expect = 1.0 if (a[2] - a[0]) * (a[3] - a[1]) > 0 else 0.0
        assert box_iou(a, a) == expect

    @given(st.tuples(*(st.integers(-8000, 8000) for _ in range(4))),
           st.integers(0, 16), st.integers(0, 16))
    def test_offset_round_trip_exact_on_dyadics(self, coords, nx, ny):
        # sixteenths: every intermediate value is exactly representable
        x1, x2 = sorted((coords[0] / 16, coords[2] / 16))
        y1, y2 = sorted((coords[1] / 16, coords[3] / 16))
        b = (x1, y1, x2, y2)
        px = x1 + (nx / 16) * (x2 - x1)
        py = y1 + (ny / 16) * (y2 - y1)
        off = boxes_to_offsets(b, px, py)
        assert off.tolist() == list(box_to_offsets_ref(b, px, py))
        assert offsets_to_boxes(off, px, py).tolist() == list(b)

    @given(box_strategy(), st.floats(0, 1), st.floats(0, 1))
    def test_offset_round_trip_close_on_floats(self, b, fx, fy):
        px = min(max(b[0] + fx * (b[2] - b[0]), b[0]), b[2])
        py = min(max(b[1] + fy * (b[3] - b[1]), b[1]), b[3])
        off = boxes_to_offsets(b, px, py)
        assert off.min() >= 0
        back = offsets_to_boxes(off, px, py)
        assert back.tolist() == list(offsets_to_box_ref(box_to_offsets_ref(b, px, py), px, py))
        for got, want in zip(back.tolist(), b):
            assert got == pytest.approx(want, abs=1e-9)

    @given(st.floats(0, 50), st.floats(0, 50), st.floats(0, 50), st.floats(0, 50))
    def test_centerness_swap_invariance(self, l, t, r, b):
        assert centerness((l, t, r, b)) == centerness((r, t, l, b))
        assert centerness((l, t, r, b)) == centerness((l, b, r, t))

    @given(st.floats(0.01, 50), st.floats(0.01, 50), st.floats(0.01, 50), st.floats(0.01, 50))
    def test_centerness_one_iff_balanced(self, l, t, r, b):
        v = centerness((l, t, r, b))
        assert 0.0 <= v <= 1.0
        if v == 1.0:
            assert l == r and t == b
        if l == r and t == b:
            assert v == 1.0

    def test_centerness_maximized_near_center(self):
        # exhaustive scan of small integer boxes
        for w, h in [(4, 4), (5, 3), (8, 6)]:
            xs, ys = np.meshgrid(np.arange(w + 1), np.arange(h + 1), indexing="ij")
            c = centerness(boxes_to_offsets((0, 0, w, h), xs.ravel(), ys.ravel()))
            best = int(np.argmax(c))
            bx, by = xs.ravel()[best], ys.ravel()[best]
            assert abs(bx - w / 2) <= 0.5 and abs(by - h / 2) <= 0.5


class TestVectorized:
    def test_iou_grid_matches_scalar(self):
        rng = np.random.default_rng(0)
        boxes = rng.uniform(0, 60, (7, 9, 4)).astype(np.float32)
        boxes[..., 2:] += boxes[..., :2]  # ensure x2 >= x1, y2 >= y1
        boxes = np.concatenate([np.minimum(boxes[..., :2], boxes[..., 2:]),
                                np.maximum(boxes[..., :2], boxes[..., 2:])], axis=-1)
        q = (10.0, 10.0, 50.0, 45.0)
        grid = _max_iou([boxes], [_area(boxes)], q)
        for y in range(7):
            for x in range(9):
                ref = iou_ref(boxes[y, x].tolist(), q)
                assert grid[y, x] == pytest.approx(ref, abs=1e-6)

    def test_iou_grid_degenerate_rows(self):
        boxes = np.zeros((2, 2, 4), dtype=np.float32)
        q = (0.0, 0.0, 10.0, 10.0)
        assert (_max_iou([boxes], [_area(boxes)], q) == 0).all()

    def test_iou_elementwise_and_matrix(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(0, 40, (20, 4))
        b = rng.uniform(0, 40, (20, 4))
        for arr in (a, b):
            arr[:, 2:] = np.maximum(arr[:, :2], arr[:, 2:]) + rng.uniform(0, 10, (20, 2))
        ew = box_iou(a, b)
        mat = box_iou(a[:, None], b[None])
        for i in range(20):
            ref = iou_ref(a[i].tolist(), b[i].tolist())
            assert ew[i] == pytest.approx(ref, abs=1e-12)
            assert mat[i, i] == pytest.approx(ref, abs=1e-12)
