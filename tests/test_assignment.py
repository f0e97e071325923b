import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from densepanoptic.assignment import (
    GroundTruthScene,
    assign_foreground,
    build_targets,
    levels_for,
    owner_offsets,
)
from densepanoptic.fields import PanopticMap, SegmentInfo, default_level_specs
from densepanoptic.synth import SceneConfig, generate_scene

from oracles import assign_levels_ref, box_to_offsets_ref, centerness_ref, receptive_center_ref


def make_scene(h, w, rects, n_stuff=1, n_things=1, bg_class=1, boxes=None):
    """Scene from inclusive pixel rects (r0, c0, r1, c1, class_id); id = index+1.

    boxes overrides the tight per-instance box when given (weak-mode tests
    use boxes larger than the painted masks).
    """
    cm = np.full((h, w), bg_class, np.uint16)
    im = np.zeros((h, w), np.uint16)
    tight = []
    for k, (r0, c0, r1, c1, cls) in enumerate(rects):
        cm[r0:r1 + 1, c0:c1 + 1] = cls
        im[r0:r1 + 1, c0:c1 + 1] = k + 1
        tight.append((c0, r0, c1 + 1, r1 + 1))
    segs = []
    for cls in np.unique(cm[im == 0]):
        segs.append(SegmentInfo(0, int(cls), int(((cm == cls) & (im == 0)).sum()), 1.0))
    for k, (_, _, _, _, cls) in enumerate(rects):
        segs.append(SegmentInfo(k + 1, cls, int((im == k + 1).sum()), 1.0))
    return GroundTruthScene(
        panoptic=PanopticMap(cm, im, segs),
        boxes=np.array(boxes if boxes is not None else tight, np.float32).reshape(-1, 4),
        instance_classes=np.array([r[4] for r in rects], np.uint16),
        n_stuff=n_stuff,
        n_things=n_things,
    )


class TestSceneValidation:
    def test_mask_outside_box_rejected(self):
        with pytest.raises(ValueError):
            make_scene(16, 16, [(4, 4, 11, 11, 2)], boxes=[(4, 4, 10, 10)])

    def test_unknown_instance_id_rejected(self):
        cm = np.full((8, 8), 2, np.uint16)
        im = np.full((8, 8), 3, np.uint16)
        with pytest.raises(ValueError):
            GroundTruthScene(
                panoptic=PanopticMap(cm, im, [SegmentInfo(3, 2, 64, 1.0)]),
                boxes=np.zeros((1, 4), np.float32),
                instance_classes=np.array([2], np.uint16),
                n_stuff=1,
                n_things=1,
            )

    def test_stuff_class_as_instance_rejected(self):
        with pytest.raises(ValueError):
            make_scene(16, 16, [(4, 4, 11, 11, 1)], n_stuff=1, n_things=1)

    def test_class_above_class_counts_rejected(self):
        # stuff class 3 on a scene with n_stuff + n_things = 2
        with pytest.raises(ValueError, match=r"class id 3 exceeds n_stuff \+ n_things = 2"):
            make_scene(16, 16, [(4, 4, 11, 11, 2)], bg_class=3)

    def test_lowest_spilling_instance_named(self):
        # instances 2 and 3 both spill out of their boxes; instance 3 comes
        # first in raster order, instance 2 is still the one named
        rects = [(0, 0, 3, 3, 2), (8, 8, 11, 11, 2), (0, 8, 3, 11, 2)]
        boxes = [(0, 0, 4, 4), (9, 8, 12, 12), (9, 0, 12, 4)]
        with pytest.raises(ValueError, match="^instance 2 has mask pixels outside its box$"):
            make_scene(16, 16, rects, boxes=boxes)

    def test_unowned_thing_pixels_rejected(self):
        # background pixels carry thing class 2 but no instance owns them
        with pytest.raises(ValueError, match="thing-class pixels must belong to an instance"):
            make_scene(16, 16, [(4, 4, 11, 11, 2)], n_stuff=1, n_things=1, bg_class=2)

    def test_instance_class_must_match_its_pixels(self):
        sc = generate_scene(SceneConfig(width=256, height=256, seed=1))
        classes = sc.instance_classes.copy()
        classes[0] = sc.n_stuff + 1 if classes[0] != sc.n_stuff + 1 else sc.n_stuff + 2
        with pytest.raises(ValueError, match="^instance 1 has pixels of a class other than its own$"):
            GroundTruthScene(sc.panoptic, sc.boxes, classes, sc.n_stuff, sc.n_things)

    @pytest.mark.parametrize("classes", [[65538], [-65534], [2.5]])
    def test_instance_classes_a_uint16_cast_would_change_rejected(self, classes):
        # each value would wrap or truncate to 2, the class of the scene's one instance
        sc = make_scene(16, 16, [(4, 4, 11, 11, 2)])
        with pytest.raises(ValueError, match=r"^instance_classes must hold integers in \[0, 65535\]$"):
            GroundTruthScene(sc.panoptic, sc.boxes, np.array(classes), 1, 1)

    @pytest.mark.parametrize("box", [(np.nan, 4, 12, 12), (4, 4, np.inf, 12), (-np.inf, -np.inf, np.inf, np.inf)])
    def test_non_finite_box_rejected(self, box):
        with pytest.raises(ValueError, match="instance boxes must be finite"):
            make_scene(16, 16, [(4, 4, 11, 11, 2)], boxes=[box])

    def test_inverted_box_rejected(self):
        # instance 2 owns no pixel, so only the order check sees its box
        sc = make_scene(16, 16, [(4, 4, 11, 11, 2)])
        with pytest.raises(ValueError, match=r"x1 <= x2 and y1 <= y2"):
            GroundTruthScene(sc.panoptic, [(4, 4, 12, 12), (10, 2, 2, 10)], np.array([2, 2], np.uint16), 1, 1)

    def test_quarter_maps_sample_centers(self):
        sc = make_scene(16, 16, [(0, 0, 7, 7, 2)])
        qi = sc.quarter_instance_map()
        assert qi.shape == (4, 4)
        # quarter pixel (j, i) reads full-res (2+4j, 2+4i)
        assert qi[0, 0] == 1 and qi[1, 1] == 1 and qi[2, 2] == 0
        qc = sc.quarter_class_map()
        assert qc[0, 0] == 2 and qc[3, 3] == 1


class TestAssignForeground:
    def test_full_returns_masks(self):
        sc = make_scene(16, 16, [(2, 2, 5, 5, 2)])
        fg = assign_foreground(sc, "full")
        assert (fg == sc.panoptic.instance_map).all()
        assert fg[3, 3] == 1 and fg[10, 10] == 0

    def test_full_ignores_boxes(self):
        # pixel inside the (enlarged) box but outside the mask stays background
        sc = make_scene(16, 16, [(2, 2, 5, 5, 2)], boxes=[(0, 0, 12, 12)])
        fg = assign_foreground(sc, "full")
        assert fg[10, 10] == 0

    def test_weak_prefers_smallest_box(self):
        # masks are single pixels; boxes overlap with areas 100 and 400
        cm = np.full((32, 32), 1, np.uint16)
        im = np.zeros((32, 32), np.uint16)
        cm[2, 2] = 2
        im[2, 2] = 1
        cm[20, 20] = 2
        im[20, 20] = 2
        segs = [
            SegmentInfo(0, 1, int((im == 0).sum()), 1.0),
            SegmentInfo(1, 2, 1, 1.0),
            SegmentInfo(2, 2, 1, 1.0),
        ]
        sc = GroundTruthScene(
            panoptic=PanopticMap(cm, im, segs),
            boxes=np.array([(0, 0, 10, 10), (5, 5, 25, 25)], np.float32),
            instance_classes=np.array([2, 2], np.uint16),
            n_stuff=1,
            n_things=1,
        )
        fg = assign_foreground(sc, "weak")
        assert fg[8, 8] == 1  # both boxes cover it; area 100 beats 400
        assert fg[20, 20] == 2  # only the large box
        assert fg[0, 0] == 1
        assert fg[30, 30] == 0

    def test_weak_ties_break_to_lowest_id(self):
        sc = make_scene(
            16, 16,
            [(1, 1, 1, 1, 2), (1, 12, 1, 12, 2)],
            boxes=[(0, 0, 10, 10), (5, 0, 15, 10)],
        )
        fg = assign_foreground(sc, "weak")
        assert fg[5, 7] == 1  # equal areas, overlap goes to instance 1

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_weak_painting_is_the_boolean_mask_form(self, data):
        """Slice painting against boolean row and column masks, on boxes with
        fractional, negative and beyond-frame corners, zero width or height,
        and equal areas (translated copies of earlier boxes)."""
        from oracles import weak_owners_ref

        h, w = 12, 20
        coord = st.one_of(st.integers(-6, 26).map(float), st.floats(-6, 26, width=32),
                          st.sampled_from([-0.5, 0.5, 11.5, 12.0, 19.5, 20.0]))
        side = st.one_of(st.just(0.0), st.integers(0, 24).map(float), st.floats(0, 30, width=32))
        boxes = [[x, y, x + bw, y + bh] for x, y, bw, bh in data.draw(st.lists(st.tuples(coord, coord, side, side),
                                                                               min_size=1, max_size=6))]
        for k, x, y in data.draw(st.lists(st.tuples(st.integers(0, 5), coord, coord), max_size=3)):
            x1, y1, x2, y2 = boxes[k % len(boxes)]
            boxes.append([x, y, x + (x2 - x1), y + (y2 - y1)])
        boxes = np.array(boxes, np.float32)
        boxes[:, 2:] = np.maximum(boxes[:, 2:], boxes[:, :2])  # float32 rounding must keep them ordered
        panoptic = PanopticMap(np.ones((h, w), np.uint16), np.zeros((h, w), np.uint16),
                               [SegmentInfo(0, 1, h * w, 1.0)])
        sc = GroundTruthScene(panoptic=panoptic, boxes=boxes, instance_classes=np.full(len(boxes), 2, np.uint16),
                              n_stuff=1, n_things=1)
        got = assign_foreground(sc, "weak")
        assert got.dtype == np.uint16 and np.array_equal(got, weak_owners_ref(boxes, h, w))

    def test_bad_mode(self):
        sc = make_scene(16, 16, [(2, 2, 5, 5, 2)])
        with pytest.raises(ValueError):
            assign_foreground(sc, "boxes")


class TestOwnerOffsets:
    @pytest.mark.parametrize("empty", [False, True], ids=["random", "empty"])
    @pytest.mark.parametrize("stride", [4, 8, 16])
    def test_matches_reference(self, stride, empty):
        rng = np.random.default_rng(stride)
        k, h, w = 5, 64, 96
        owners = np.zeros((h, w), np.uint16) if empty else rng.integers(0, k + 1, (h, w)).astype(np.uint16)
        # every box covers the frame, so each centre lies inside its owner's box
        boxes = np.concatenate([rng.uniform(-8, 0, (k, 2)), rng.uniform(w, w + 8, (k, 2))], axis=1)
        rows, cols, ids, off = owner_offsets(owners, boxes, stride)
        want = []
        for gy in range(h // stride):
            for gx in range(w // stride):
                cx, cy = receptive_center_ref(stride, gx, gy)
                owner = int(owners[cy, cx])
                if owner:
                    want.append((gy, gx, owner, box_to_offsets_ref(boxes[owner - 1].tolist(), cx, cy)))
        got = [(r, c, i, tuple(o)) for r, c, i, o in zip(rows.tolist(), cols.tolist(), ids.tolist(), off.tolist())]
        assert got == want
        assert len(want) > 0 or empty
        assert ids.dtype == np.int64 and off.shape == (len(want), 4)


class TestAssignLevels:
    def test_frozen_examples(self):
        assert levels_for([50, 100, 600], default_level_specs()).tolist() == [0, 1, 4]

    def test_boundaries_are_half_open(self):
        got = levels_for(np.array([64, 64.5, 512, 513], np.float32), default_level_specs())
        assert got.tolist() == [0, 1, 3, 4]

    def test_zero_offsets_select_nothing(self):
        with pytest.raises(ValueError):
            levels_for([5.0, 0.0], default_level_specs())

    @given(st.floats(min_value=1e-3, max_value=4096.0, allow_nan=False))
    def test_partition_property(self, v):
        specs = default_level_specs()
        hits = [s.min_size < v <= s.max_size for s in specs]
        assert sum(hits) == 1
        assert levels_for([v], specs).tolist() == [hits.index(True)] == [assign_levels_ref((v, 0, 0, 0), specs)]


class TestBuildTargets:
    def test_empty_scene_all_background(self):
        sc = make_scene(128, 128, [])
        levels, glob = build_targets(sc, default_level_specs())
        for lt in levels:
            assert not lt.foreground.any()
            assert not lt.offsets.any() and not lt.centerness.any() and not lt.class_ids.any()
        assert not glob.levelness.any()
        assert (glob.semantics == 1).all()

    def test_small_instance_lands_on_first_level(self):
        # 40x40 instance, box (104, 104, 144, 144) in a 256x256 image: its
        # center (124, 124) is a stride-8 receptive center with l=t=r=b=20
        sc = make_scene(256, 256, [(104, 104, 143, 143, 2)])
        levels, glob = build_targets(sc, default_level_specs())
        assert levels[0].foreground.sum() == 25  # centers 108..140 squared
        for lt in levels[1:]:
            assert not lt.foreground.any()
        gy = gx = (124 - 4) // 8
        assert levels[0].foreground[gy, gx]
        assert levels[0].centerness[gy, gx] == 1.0
        assert levels[0].class_ids[gy, gx] == 2
        assert (levels[0].offsets[gy, gx] == 20).all()
        # levelness is 1 (level 0 + 1) exactly on in-box quarter pixels
        qin = glob.levelness == 1
        assert qin.sum() == 10 * 10
        assert set(np.unique(glob.levelness)) == {0, 1}
        assert (glob.semantics[qin] == 2).all()

    def test_large_instance_lands_on_later_level(self):
        # 200-wide instance: max offset from any interior center is in (64, 200)
        sc = make_scene(256, 256, [(24, 24, 223, 223, 2)])
        levels, _ = build_targets(sc, default_level_specs())
        fg_levels = {i for i, lt in enumerate(levels) if lt.foreground.any()}
        assert 0 not in fg_levels  # every center has some offset > 64
        assert fg_levels <= {1, 2}

    def test_weak_equals_full_for_rectangles(self):
        sc = make_scene(128, 128, [(8, 8, 39, 55, 2), (64, 72, 119, 103, 3)],
                        n_things=2)
        lf, gf = build_targets(sc, default_level_specs(), "full")
        lw, gw = build_targets(sc, default_level_specs(), "weak")
        for a, b in zip(lf, lw):
            assert (a.foreground == b.foreground).all()
            assert (a.offsets == b.offsets).all()
            assert (a.class_ids == b.class_ids).all()
            assert (a.centerness == b.centerness).all()
        assert (gf.levelness == gw.levelness).all()
        assert (gf.semantics == gw.semantics).all()

    def test_indivisible_resolution_rejected(self):
        sc = make_scene(96, 96, [])
        with pytest.raises(ValueError):
            build_targets(sc, default_level_specs())  # 96 % 128 != 0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_brute_force_oracle(self, seed):
        rng = np.random.default_rng(seed)
        rects = []
        occupied = np.zeros((64, 64), bool)
        for k in range(rng.integers(1, 4)):
            for _ in range(30):
                r0, c0 = rng.integers(0, 48, 2)
                hh, ww = rng.integers(6, 17, 2)
                r1, c1 = min(63, r0 + hh), min(63, c0 + ww)
                if not occupied[r0:r1 + 1, c0:c1 + 1].any():
                    occupied[r0:r1 + 1, c0:c1 + 1] = True
                    rects.append((int(r0), int(c0), int(r1), int(c1), 2))
                    break
        sc = make_scene(64, 64, rects)
        specs = default_level_specs(4)  # strides 8..64 all divide 64
        levels, glob = build_targets(sc, specs)
        im = sc.panoptic.instance_map
        for li, spec in enumerate(specs):
            z = spec.stride
            lt = levels[li]
            for gy in range(64 // z):
                for gx in range(64 // z):
                    cy, cx = z // 2 + gy * z, z // 2 + gx * z
                    k = int(im[cy, cx])
                    expect_fg = False
                    if k > 0:
                        off = box_to_offsets_ref(sc.boxes[k - 1].tolist(), float(cx), float(cy))
                        expect_fg = spec.min_size < max(off) <= spec.max_size
                    assert lt.foreground[gy, gx] == expect_fg
                    if expect_fg:
                        assert lt.class_ids[gy, gx] == 2
                        assert np.allclose(lt.offsets[gy, gx], off)
                        assert lt.centerness[gy, gx] == pytest.approx(
                            centerness_ref(off), abs=1e-6)
        # global maps: quarter pixels carry 1 + level of their own offsets
        for qy in range(16):
            for qx in range(16):
                cy, cx = 2 + 4 * qy, 2 + 4 * qx
                k = int(im[cy, cx])
                if k == 0:
                    assert glob.levelness[qy, qx] == 0
                else:
                    off = box_to_offsets_ref(sc.boxes[k - 1].tolist(), float(cx), float(cy))
                    if max(off) > 0:
                        assert glob.levelness[qy, qx] == 1 + assign_levels_ref(off, specs)
                assert glob.semantics[qy, qx] == sc.panoptic.class_map[cy, cx]

    def test_foreground_partitions_across_levels(self):
        # a location inside a mask is kept by exactly one level's size range
        sc = make_scene(256, 256, [(32, 32, 191, 191, 2)])
        specs = default_level_specs()
        levels, _ = build_targets(sc, specs)
        im = sc.panoptic.instance_map
        box = sc.boxes[0].tolist()
        for li, spec in enumerate(specs):
            z = spec.stride
            for gy in range(256 // z):
                for gx in range(256 // z):
                    cy, cx = z // 2 + gy * z, z // 2 + gx * z
                    if im[cy, cx] == 0:
                        assert not levels[li].foreground[gy, gx]
                        continue
                    off = box_to_offsets_ref(box, float(cx), float(cy))
                    claimed = [
                        s.min_size < max(off) <= s.max_size for s in specs]
                    assert sum(claimed) == 1
                    assert levels[li].foreground[gy, gx] == claimed[li]
