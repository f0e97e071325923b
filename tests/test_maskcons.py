import numpy as np
import pytest

from densepanoptic.fields import GlobalBoxField, SemanticField
from densepanoptic.geometry import _area
from densepanoptic.maskcons import _max_iou, construct_masks, fuse_panoptic
from query_rows import query_set, row


def sb(x1, y1, x2, y2, cls=2, score=0.9, level=0):
    return row(x1, y1, x2, y2, cls, score, level)


def uniform_semantics(h, w, n_classes, cls):
    probs = np.zeros((h, w, n_classes), np.float32)
    probs[..., cls - 1] = 1.0
    return SemanticField(probs)


def location_probability(box_fields, box):
    return _max_iou(box_fields, [_area(f) for f in box_fields], box)


class TestLocationProbability:
    def _field(self):
        boxes = np.zeros((2, 3, 4), np.float32)
        boxes[0, 0] = (0, 0, 10, 10)
        boxes[0, 1] = (5, 0, 15, 10)
        boxes[0, 2] = (100, 100, 110, 110)
        boxes[1, 0] = (50, 50, 50, 50)  # background point box
        boxes[1, 1] = (0, 0, 10, 10)
        boxes[1, 2] = (2, 2, 6, 6)
        return GlobalBoxField(boxes=boxes)

    def test_identity_and_zero(self):
        p = location_probability([self._field().boxes], (0, 0, 10, 10))
        assert p[0, 0] == 1.0  # equal boxes
        assert p[0, 2] == 0.0  # disjoint
        assert p[1, 0] == 0.0  # background point box

    def test_association_outside_query_box(self):
        # the pixel at grid (1,1) is spatially wherever it is; only its
        # PREDICTED box matters, so a perfect prediction scores 1 even for a
        # pixel whose own location is outside the query box
        p = location_probability([self._field().boxes], (0, 0, 10, 10))
        assert p[1, 1] == 1.0

    def test_partial_overlap_value(self):
        p = location_probability([self._field().boxes], (0, 0, 10, 10))
        assert p[0, 1] == pytest.approx(1 / 3, abs=1e-6)  # 50 / 150


class TestConstructMasks:
    def _setup(self, h=8, w=8):
        rng = np.random.default_rng(42)
        boxes = rng.uniform(0, 20, (h, w, 4)).astype(np.float32)
        boxes[..., 2:] += boxes[..., :2]  # make x2>=x1, y2>=y1
        bg = rng.random((h, w)) < 0.2
        boxes[bg, 2:] = boxes[bg, :2]  # background pixels carry point boxes
        field = GlobalBoxField(boxes=boxes)
        logits = rng.normal(0, 2, (h, w, 4)).astype(np.float32)
        e = np.exp(logits - logits.max(-1, keepdims=True))
        sem = SemanticField((e / e.sum(-1, keepdims=True)).astype(np.float32))
        queries = query_set([
            sb(2, 2, 14, 12, cls=3, score=0.9),
            sb(0, 5, 9, 19, cls=4, score=0.6),
            sb(6, 1, 19, 9, cls=3, score=0.5),
        ])
        return field, sem, queries

    def test_matches_naive_oracle(self):
        from oracles import construct_masks_ref

        field, sem, queries = self._setup()
        got = construct_masks(queries, sem, n_stuff=2, sigma=0.3, global_boxes=field)
        want = np.array(construct_masks_ref(
            field.boxes.tolist(), sem.probs.tolist(),
            [(q.box, q.class_id) for q in queries],
            0.3), dtype=bool)
        assert got.shape == want.shape
        assert (got == want).all()

    def test_thread_count_does_not_change_output(self):
        field, sem, queries = self._setup()
        one = construct_masks(queries, sem, n_stuff=2, global_boxes=field, threads=1)
        four = construct_masks(queries, sem, n_stuff=2, global_boxes=field, threads=4)
        assert (one == four).all()

    def test_requires_exactly_one_source(self):
        field, sem, queries = self._setup()
        with pytest.raises(ValueError):
            construct_masks(queries, sem, n_stuff=2)
        with pytest.raises(ValueError):
            construct_masks(queries, sem, n_stuff=2, global_boxes=field, levels=[])

    def test_empty_query_set(self):
        field, sem, _ = self._setup()
        out = construct_masks(query_set([]), sem, n_stuff=2, global_boxes=field)
        assert out.shape == (0, 8, 8)

    @staticmethod
    def _row_mask(pixel_boxes, thing_probs, sigma, cls=2):
        """Mask of one query (0, 0, 10, 10) of class `cls` over a 1 x n field
        with n_stuff = 1, semantic channels (1 - p, p)."""
        p = np.array([thing_probs], np.float32)
        sem = SemanticField(np.stack([1 - p, p], axis=-1))
        field = GlobalBoxField(boxes=np.array([pixel_boxes], np.float32))
        masks = construct_masks(query_set([sb(0, 0, 10, 10, cls=cls)]), sem, n_stuff=1,
                                sigma=sigma, global_boxes=field)
        return masks[0, 0].tolist()

    def test_product(self):
        # IoU 0.8 x p 0.5 = 0.4, while each factor alone clears 0.41
        assert self._row_mask([(0, 0, 10, 8)], [0.5], 0.39) == [True]
        assert self._row_mask([(0, 0, 10, 8)], [0.5], 0.41) == [False]

    def test_semantic_zero_annihilates(self):
        assert self._row_mask([(0, 0, 10, 10)], [0.0], 0.01) == [False]

    def test_both_one(self):
        assert self._row_mask([(0, 0, 10, 10)], [1.0], 0.99) == [True]

    def test_strictness_at_default_sigma(self):
        boxes = [(0, 0, 10, 10)] * 3
        assert self._row_mask(boxes, [0.31, 0.29, 0.30], 0.3) == [True, False, False]

    def test_sigma_range_enforced(self):
        for sigma in (0.0, 1.0):
            with pytest.raises(ValueError, match="sigma"):
                self._row_mask([(0, 0, 10, 10)], [0.5], sigma)

    def test_stuff_class_rejected(self):
        with pytest.raises(ValueError, match="not a thing class"):
            self._row_mask([(0, 0, 10, 10)], [0.5], 0.3, cls=1)


class TestFusion:
    def test_single_instance_plus_stuff(self):
        masks = np.zeros((1, 4, 4), bool)
        masks[0, :2, :2] = True
        sem = uniform_semantics(4, 4, 3, cls=1)  # stuff class 1 everywhere
        queries = query_set([sb(0, 0, 8, 8, cls=2, score=0.9)])
        pm = fuse_panoptic(masks, queries, sem, n_stuff=1, stuff_area_min=0)
        pm.validate()
        inst, cls = pm.instance_map[::4, ::4], pm.class_map[::4, ::4]
        assert inst[0, 0] == 1 and cls[0, 0] == 2
        assert inst[3, 3] == 0 and cls[3, 3] == 1
        ids = {(s.segment_id, s.class_id) for s in pm.segments}
        assert ids == {(1, 2), (0, 1)}

    def test_greedy_overlap_goes_to_higher_score(self):
        masks = np.zeros((2, 4, 4), bool)
        masks[0, :, :3] = True
        masks[1, :, 1:] = True
        sem = uniform_semantics(4, 4, 3, cls=1)
        queries = query_set([
            sb(0, 0, 3, 4, cls=2, score=0.9),
            sb(1, 0, 4, 4, cls=3, score=0.8),
        ])
        pm = fuse_panoptic(masks, queries, sem, n_stuff=1, stuff_area_min=0)
        inst = pm.instance_map[::4, ::4]
        assert (inst[:, 1:3] == 1).all()  # overlap kept by query 1
        assert (inst[:, 3] == 2).all()
        assert pm.class_map[::4, ::4][0, 3] == 3

    def test_scores_must_be_descending(self):
        masks = np.zeros((2, 4, 4), bool)
        queries = query_set([sb(0, 0, 2, 2, score=0.5), sb(0, 0, 2, 2, score=0.9)])
        sem = uniform_semantics(4, 4, 3, cls=1)
        with pytest.raises(ValueError):
            fuse_panoptic(masks, queries, sem, n_stuff=1)

    def test_small_stuff_region_voided(self):
        # 10 quarter pixels (160 full-res) of stuff class 2 inside a 246-pixel
        # class-1 field with a 200-pixel minimum: class 2 is voided, class 1
        # survives
        probs = np.zeros((16, 16, 3), np.float32)
        probs[..., 0] = 1.0
        probs[0, :5, 0] = 0.0
        probs[0, :5, 1] = 1.0
        probs[1, :5, 0] = 0.0
        probs[1, :5, 1] = 1.0
        sem = SemanticField(probs)
        pm = fuse_panoptic(np.zeros((0, 16, 16), bool), query_set([]), sem,
                           n_stuff=2, stuff_area_min=200)
        cls = pm.class_map[::4, ::4]
        assert (cls[:2, :5] == 0).all()  # 160 px < 200 -> void
        assert (cls[2:] == 1).all()
        assert {s.class_id for s in pm.segments} == {1}

    def test_stuff_filter_counts_fullres_pixels(self):
        # class 2 covers 7 quarter pixels = 112 full-res pixels, which
        # clears a 100-pixel minimum even though 7 < 100 at quarter res
        probs = np.zeros((4, 4, 2), np.float32)
        probs[..., 0] = 1.0
        probs[0, :, 0] = 0.0
        probs[0, :, 1] = 1.0
        probs[1, :3, 0] = 0.0
        probs[1, :3, 1] = 1.0
        sem = SemanticField(probs)
        pm = fuse_panoptic(np.zeros((0, 4, 4), bool), query_set([]), sem,
                           n_stuff=2, stuff_area_min=100)
        assert pm.shape == (16, 16)
        assert (pm.class_map[0:4, :] == 2).all()
        assert (pm.class_map[4:8, :12] == 2).all()
        assert (pm.class_map[4:8, 12:] == 1).all()
        assert (pm.class_map[8:, :] == 1).all()
        seg = {s.class_id: s.area for s in pm.segments}
        assert seg[2] == 112 and seg[1] == 144

    def test_unclaimed_thing_argmax_becomes_void(self):
        probs = np.zeros((4, 4, 3), np.float32)
        probs[..., 2] = 1.0  # thing class 3 everywhere, no queries claim it
        sem = SemanticField(probs)
        pm = fuse_panoptic(np.zeros((0, 4, 4), bool), query_set([]), sem,
                           n_stuff=1, stuff_area_min=0)
        assert (pm.class_map == 0).all() and (pm.instance_map == 0).all()
        assert pm.segments == []

    def test_empty_masks_skipped_and_ids_follow_claim_order(self):
        masks = np.zeros((3, 4, 4), bool)
        masks[0, 0, 0] = True
        # query 2's mask is empty; query 3 claims a pixel and gets id 2
        masks[2, 3, 3] = True
        sem = uniform_semantics(4, 4, 4, cls=1)
        queries = query_set([
            sb(0, 0, 1, 1, cls=2, score=0.9),
            sb(0, 0, 1, 1, cls=3, score=0.8),
            sb(3, 3, 4, 4, cls=4, score=0.7),
        ])
        pm = fuse_panoptic(masks, queries, sem, n_stuff=1, stuff_area_min=0)
        inst, cls = pm.instance_map[::4, ::4], pm.class_map[::4, ::4]
        assert inst[0, 0] == 1 and cls[0, 0] == 2
        assert inst[3, 3] == 2 and cls[3, 3] == 4
        assert {(s.segment_id, s.class_id) for s in pm.segments} \
            == {(1, 2), (2, 4), (0, 1)}

    def test_upsample_expands_blocks(self):
        masks = np.zeros((1, 2, 2), bool)
        masks[0, 0, 0] = True
        sem = uniform_semantics(2, 2, 3, cls=1)
        queries = query_set([sb(0, 0, 4, 4, cls=2, score=0.9)])
        pm = fuse_panoptic(masks, queries, sem, n_stuff=1, stuff_area_min=0)
        assert pm.shape == (8, 8)
        assert (pm.instance_map[:4, :4] == 1).all()
        assert (pm.instance_map[4:, :] == 0).all()
        thing = [s for s in pm.segments if s.segment_id == 1][0]
        assert thing.area == 16 and thing.score == pytest.approx(0.9)

    def test_every_pixel_has_one_label(self):
        rng = np.random.default_rng(9)
        masks = rng.random((4, 8, 8)) < 0.3
        scores = [0.9, 0.8, 0.7, 0.6]
        queries = query_set([
            sb(0, 0, 4, 4, cls=2 + (i % 2), score=s) for i, s in enumerate(scores)])
        logits = rng.normal(0, 1, (8, 8, 4)).astype(np.float32)
        e = np.exp(logits)
        sem = SemanticField((e / e.sum(-1, keepdims=True)).astype(np.float32))
        pm = fuse_panoptic(masks, queries, sem, n_stuff=1, stuff_area_min=0)
        pm.validate()  # checks class/id consistency and segment areas
        # all pixels of an id share one class
        for s in pm.segments:
            if s.segment_id > 0:
                sel = pm.instance_map == s.segment_id
                assert set(np.unique(pm.class_map[sel])) == {s.class_id}
