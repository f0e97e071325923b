import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from densepanoptic.geometry import (
    BoundingBox,
    BoxOffsets,
    box_to_offsets,
    centerness,
    iou,
    iou_elementwise,
    iou_grid,
    iou_matrix,
    offsets_to_box,
    receptive_center,
)

from oracles import iou_ref


def B(*coords):
    return BoundingBox(*coords)


class TestBoundingBox:
    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            B(2, 0, 1, 5)
        with pytest.raises(ValueError):
            B(0, 2, 5, 1)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            B(0, 0, math.inf, 1)
        with pytest.raises(ValueError):
            B(math.nan, 0, 1, 1)

    def test_area_and_contains(self):
        b = B(1, 2, 4, 6)
        assert b.area == 12
        assert b.contains(1, 2) and b.contains(4, 6) and b.contains(2.5, 3)
        assert not b.contains(0.9, 3)

    def test_degenerate_area(self):
        assert B(3, 3, 3, 3).area == 0.0
        assert B(0, 0, 5, 0).area == 0.0


class TestBoxOffsets:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            BoxOffsets(-0.1, 0, 0, 0)

    def test_max(self):
        assert BoxOffsets(1, 7, 3, 2).max() == 7


class TestIoU:
    def test_identical(self):
        assert iou(B(0, 0, 2, 2), B(0, 0, 2, 2)) == 1.0

    def test_disjoint(self):
        assert iou(B(0, 0, 1, 1), B(5, 5, 6, 6)) == 0.0

    def test_one_seventh(self):
        assert iou(B(0, 0, 2, 2), B(1, 1, 3, 3)) == pytest.approx(1 / 7, abs=1e-12)

    def test_degenerate_pair(self):
        assert iou(B(1, 1, 1, 1), B(1, 1, 1, 1)) == 0.0

    def test_degenerate_vs_proper(self):
        assert iou(B(2, 2, 2, 2), B(0, 0, 4, 4)) == 0.0

    def test_touching_edges(self):
        assert iou(B(0, 0, 1, 1), B(1, 0, 2, 1)) == 0.0


class TestOffsets:
    def test_encode_examples(self):
        assert box_to_offsets(B(10, 20, 50, 60), 30, 40) == BoxOffsets(20, 20, 20, 20)
        assert box_to_offsets(B(0, 0, 4, 4), 0, 0) == BoxOffsets(0, 0, 4, 4)
        assert box_to_offsets(B(0, 0, 4, 4), 2, 2) == BoxOffsets(2, 2, 2, 2)

    def test_encode_outside_errors(self):
        with pytest.raises(ValueError):
            box_to_offsets(B(0, 0, 4, 4), 5, 2)

    def test_decode_examples(self):
        assert offsets_to_box(BoxOffsets(20, 20, 20, 20), 30, 40) == B(10, 20, 50, 60)
        assert offsets_to_box(BoxOffsets(0, 0, 0, 0), 5, 5) == B(5, 5, 5, 5)
        assert offsets_to_box(BoxOffsets(1, 2, 3, 4), 10, 10) == B(9, 8, 13, 14)


class TestCenterness:
    def test_centered(self):
        for k in (0.5, 1, 7):
            assert centerness(BoxOffsets(k, k, k, k)) == 1.0

    def test_edge_zero(self):
        assert centerness(BoxOffsets(0, 2, 3, 2)) == 0.0

    def test_example(self):
        assert centerness(BoxOffsets(1, 2, 3, 2)) == pytest.approx(math.sqrt(1 / 3), abs=1e-9)
        assert centerness(BoxOffsets(1, 2, 3, 2)) == pytest.approx(0.57735, abs=1e-5)

    def test_degenerate_axis(self):
        assert centerness(BoxOffsets(0, 1, 0, 1)) == 0.0


class TestReceptiveCenter:
    def test_examples(self):
        assert receptive_center(8, 0, 0) == (4, 4)
        assert receptive_center(8, 3, 2) == (28, 20)
        assert receptive_center(1, 7, 9) == (7, 9)

    def test_invalid_stride(self):
        with pytest.raises(ValueError):
            receptive_center(0, 0, 0)


finite = st.floats(min_value=-500, max_value=500, allow_nan=False, allow_infinity=False)


def box_strategy():
    return st.tuples(finite, finite, finite, finite).map(
        lambda t: BoundingBox(min(t[0], t[2]), min(t[1], t[3]), max(t[0], t[2]), max(t[1], t[3]))
    )


class TestProperties:
    @given(box_strategy(), box_strategy())
    def test_iou_symmetric_and_bounded(self, a, b):
        v = iou(a, b)
        assert v == iou(b, a)
        assert 0.0 <= v <= 1.0

    @given(box_strategy())
    def test_iou_self(self, a):
        expect = 1.0 if a.area > 0 else 0.0
        assert iou(a, a) == expect

    @given(st.tuples(*(st.integers(-8000, 8000) for _ in range(4))),
           st.integers(0, 16), st.integers(0, 16))
    def test_offset_round_trip_exact_on_dyadics(self, coords, nx, ny):
        # sixteenths: every intermediate value is exactly representable
        x1, x2 = sorted((coords[0] / 16, coords[2] / 16))
        y1, y2 = sorted((coords[1] / 16, coords[3] / 16))
        b = BoundingBox(x1, y1, x2, y2)
        px = b.x1 + (nx / 16) * (b.x2 - b.x1)
        py = b.y1 + (ny / 16) * (b.y2 - b.y1)
        off = box_to_offsets(b, px, py)
        back = offsets_to_box(off, px, py)
        assert back.x1 == b.x1 and back.y1 == b.y1
        assert back.x2 == b.x2 and back.y2 == b.y2

    @given(box_strategy(), st.floats(0, 1), st.floats(0, 1))
    def test_offset_round_trip_close_on_floats(self, b, fx, fy):
        px = min(max(b.x1 + fx * (b.x2 - b.x1), b.x1), b.x2)
        py = min(max(b.y1 + fy * (b.y2 - b.y1), b.y1), b.y2)
        off = box_to_offsets(b, px, py)
        back = offsets_to_box(off, px, py)
        for got, want in [(back.x1, b.x1), (back.y1, b.y1), (back.x2, b.x2), (back.y2, b.y2)]:
            assert got == pytest.approx(want, abs=1e-9)

    @given(st.floats(0, 50), st.floats(0, 50), st.floats(0, 50), st.floats(0, 50))
    def test_centerness_swap_invariance(self, l, t, r, b):
        assert centerness(BoxOffsets(l, t, r, b)) == centerness(BoxOffsets(r, t, l, b))
        assert centerness(BoxOffsets(l, t, r, b)) == centerness(BoxOffsets(l, b, r, t))

    @given(st.floats(0.01, 50), st.floats(0.01, 50), st.floats(0.01, 50), st.floats(0.01, 50))
    def test_centerness_one_iff_balanced(self, l, t, r, b):
        v = centerness(BoxOffsets(l, t, r, b))
        assert 0.0 <= v <= 1.0
        if v == 1.0:
            assert l == r and t == b
        if l == r and t == b:
            assert v == 1.0

    def test_centerness_maximized_near_center(self):
        # exhaustive scan of small integer boxes
        for w, h in [(4, 4), (5, 3), (8, 6)]:
            box = BoundingBox(0, 0, w, h)
            best = max(
                ((centerness(box_to_offsets(box, x, y)), (x, y))
                 for x in range(w + 1) for y in range(h + 1)),
                key=lambda p: p[0],
            )
            bx, by = best[1]
            assert abs(bx - w / 2) <= 0.5 and abs(by - h / 2) <= 0.5


class TestVectorized:
    def test_iou_grid_matches_scalar(self):
        rng = np.random.default_rng(0)
        boxes = rng.uniform(0, 60, (7, 9, 4)).astype(np.float32)
        boxes[..., 2:] += boxes[..., :2]  # ensure x2 >= x1, y2 >= y1
        boxes = np.concatenate([np.minimum(boxes[..., :2], boxes[..., 2:]),
                                np.maximum(boxes[..., :2], boxes[..., 2:])], axis=-1)
        q = (10.0, 10.0, 50.0, 45.0)
        grid = iou_grid(boxes, q)
        for y in range(7):
            for x in range(9):
                ref = iou_ref(boxes[y, x].tolist(), q)
                assert grid[y, x] == pytest.approx(ref, abs=1e-6)

    def test_iou_grid_degenerate_rows(self):
        boxes = np.zeros((2, 2, 4), dtype=np.float32)
        q = (0.0, 0.0, 10.0, 10.0)
        assert (iou_grid(boxes, q) == 0).all()

    def test_iou_elementwise_and_matrix(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(0, 40, (20, 4))
        b = rng.uniform(0, 40, (20, 4))
        for arr in (a, b):
            arr[:, 2:] = np.maximum(arr[:, :2], arr[:, 2:]) + rng.uniform(0, 10, (20, 2))
        ew = iou_elementwise(a, b)
        mat = iou_matrix(a, b)
        for i in range(20):
            ref = iou_ref(a[i].tolist(), b[i].tolist())
            assert ew[i] == pytest.approx(ref, abs=1e-12)
            assert mat[i, i] == pytest.approx(ref, abs=1e-12)
