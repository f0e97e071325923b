"""Per-query windows change no output bit.

`construct_masks` and `mask_loss` score each query only inside the window
`geometry.iou_windows` gives it. Here both are compared bit for bit with
full-frame references written out below, on hand-built fields that stress
the window bound: boxes far from their pixels, point boxes, boxes wider than
the grid, pixel IoUs a few ulps from sigma and offsets near float32 max.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from densepanoptic.fields import DenseBoxLevel, GlobalBoxField, SemanticField, default_level_specs
from densepanoptic.geometry import _area, _iou_grid_from_areas, box_iou, iou_windows, receptive_centers
from densepanoptic.losses import mask_loss, match_queries
from densepanoptic.maskcons import _max_iou, construct_masks
from densepanoptic.pipeline import ConstructionParams, select_queries
from densepanoptic.selection import QuerySet, assemble_global_boxes, resample_level_boxes
from densepanoptic.synth import NoiseConfig, SceneConfig, generate_scene, ideal_predictions, perturb

F32_MAX = float(np.finfo(np.float32).max)
N_STUFF, N_CLASSES = 1, 3
STRIDES = (8, 16)


def iou_grid(boxes: np.ndarray, box) -> np.ndarray:
    """IoU of every box of one whole field against `box`."""
    return _iou_grid_from_areas(boxes, _area(boxes), box)


def full_masks(box_fields, sem: SemanticField, queries: QuerySet, sigma: float) -> np.ndarray:
    """The full-frame rule: every pixel of every query is scored."""
    h, w = sem.shape
    out = np.zeros((len(queries), h, w), dtype=bool)
    for i, (box, c) in enumerate(zip(queries.boxes.tolist(), queries.classes.tolist())):
        out[i] = _max_iou(box_fields, [_area(f) for f in box_fields], box) * sem.probs[..., c - 1] > sigma
    return out


def full_mask_loss(global_boxes: GlobalBoxField, queries: QuerySet, gt_boxes, gt_instances) -> float:
    """The mask loss with IoUs computed over the whole field."""
    g = np.asarray(gt_boxes, dtype=np.float64).reshape(-1, 4)
    if len(queries) == 0 or len(g) == 0:
        return 0.0
    qboxes = queries.boxes
    terms = []
    for i, (box, j) in enumerate(zip(qboxes.tolist(), match_queries(qboxes, g).tolist())):
        if j < 0:
            continue
        inside = gt_instances == j + 1
        n_j = int(inside.sum())
        if n_j == 0:
            continue
        ious = iou_grid(global_boxes.boxes, box).astype(np.float64)
        e_fn = float((1.0 - ious[inside]).sum())
        e_fp = float(ious[~inside].sum())
        terms.append(box_iou(qboxes[i], g[j]) / n_j * (e_fp + e_fn))
    return float(np.mean(terms)) if terms else 0.0


def sample_points(h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Full-resolution sample points of the quarter grid, (h, w) each."""
    px = receptive_centers(4, np.arange(w)).astype(np.float64)
    py = receptive_centers(4, np.arange(h)).astype(np.float64)
    return np.broadcast_to(px, (h, w)), np.broadcast_to(py[:, None], (h, w))


def hand_field(rng, h: int, w: int, kinds: list[str]) -> np.ndarray:
    """(h, w, 4) float32 boxes; each pixel draws one of `kinds`."""
    px, py = sample_points(h, w)
    kind = rng.choice(kinds, size=(h, w))
    near = rng.uniform(0, 30, (h, w, 4))
    for axis in (0, 1):  # move some sample points onto a box edge, keeping the extent
        edge = rng.random((h, w)) < 0.3
        side = axis + 2 * rng.integers(0, 2, (h, w))
        for k, other in ((axis, axis + 2), (axis + 2, axis)):
            move = edge & (side == k)
            near[move, other] += near[move, k]
            near[move, k] = 0.0
    boxes = np.stack([px - near[..., 0], py - near[..., 1], px + near[..., 2], py + near[..., 3]], -1)
    far = rng.uniform(-2e4, 2e4, (h, w, 2))
    size = rng.uniform(0.5, 40, (h, w, 2))
    pick = kind == "far"
    boxes[pick] = np.concatenate([far, far + size], -1)[pick]
    pick = kind == "shifted"  # a few pixels off its sample point
    boxes[pick] += np.tile(rng.uniform(-30, 30, (h, w, 2)), 2)[pick]
    pick = kind == "point"
    boxes[pick] = np.stack([px, py, px, py], -1)[pick]
    pick = kind == "wide"
    span = 4.0 * max(h, w)
    lo = rng.uniform(-3 * span, 0, (h, w, 2))
    boxes[pick] = np.concatenate([lo, lo + rng.uniform(2 * span, 5 * span, (h, w, 2))], -1)[pick]
    pick = kind == "huge"
    boxes[pick] = np.stack([px - F32_MAX, py - rng.uniform(0, 1, (h, w)) * F32_MAX,
                            px + F32_MAX, py + 3.0], -1)[pick]
    return boxes.astype(np.float32)


def hand_levels(rng, h: int, w: int, huge: bool) -> list[DenseBoxLevel]:
    """Stride-8 and stride-16 levels tiling an (h, w) quarter grid."""
    levels = []
    for z in STRIDES:
        lh, lw = h * 4 // z, w * 4 // z
        off = rng.uniform(0, 2.5 * z, (lh, lw, 4))
        off[rng.random((lh, lw)) < 0.2] = 0.0  # point boxes
        if huge:
            off[rng.random((lh, lw)) < 0.2] = F32_MAX * rng.uniform(0.5, 1.0, 4)
        levels.append(DenseBoxLevel(z, off.astype(np.float32), np.zeros((lh, lw, 2), np.float32),
                                    np.zeros((lh, lw), np.float32)))
    return levels


def semantics(rng, h: int, w: int) -> SemanticField:
    """Mostly confident pixels: one-hot, some at 1 + 1e-6, the rest soft."""
    logits = rng.normal(0, 2, (h, w, N_CLASSES))
    probs = np.exp(logits) / np.exp(logits).sum(-1, keepdims=True)
    hard = rng.random((h, w)) < 0.7
    onehot = np.eye(N_CLASSES)[rng.integers(0, N_CLASSES, (h, w))]
    onehot *= np.where(rng.random((h, w)) < 0.3, 1 + 1e-6, 1.0)[..., None]
    probs[hard] = onehot[hard]
    return SemanticField(probs.astype(np.float32))


def queries_for(rng, fields: list[np.ndarray], sem: SemanticField, sigma: float, n: int,
                huge: bool) -> QuerySet:
    """Queries around the grid, point boxes, boxes wider than the grid and
    boxes cut from a pixel box so that their IoU lies a few ulps from sigma."""
    h, w = sem.shape
    span = 4.0 * max(h, w)
    boxes, classes = [], []
    for k in range(n):
        kind = k % 5
        cls = int(rng.integers(N_STUFF + 1, N_CLASSES + 1))
        if kind == 0:
            x, y = rng.uniform(-8, 4 * w + 8), rng.uniform(-8, 4 * h + 8)
            bw, bh = rng.uniform(0.5, 30, 2)
            boxes.append((x, y, x + bw, y + bh))
        elif kind == 1:
            x, y = rng.uniform(0, 4 * w), rng.uniform(0, 4 * h)
            boxes.append((x, y, x, y) if rng.random() < 0.5 else (x, y, x + rng.uniform(0, 20), y))
        elif kind == 2:
            lo = rng.uniform(-2 * span, 0, 2)
            boxes.append((*lo, *(lo + rng.uniform(span, 4 * span, 2))))
        else:
            # cut one side off a pixel's box, IoU = sigma * (1 + t); the side
            # the pixel's sample point lies on leaves it farthest outside
            field = fields[rng.integers(len(fields))].astype(np.float64)
            i, j = int(rng.integers(h)), int(rng.integers(w))
            axis = int(rng.integers(2))
            if rng.random() < 0.5:  # the widest or tallest finite box
                extent = field[..., axis + 2] - field[..., axis]
                extent[~(np.isfinite(field).all(-1) & (np.abs(field).max(-1) < 1e6))] = -1
                i, j = np.unravel_index(int(np.argmax(extent)), (h, w))
            b = field[i, j]
            if not (np.isfinite(b).all() and (b[2:] - b[:2]).min() > 0 and np.abs(b).max() < 1e6):
                b = np.array([4.0, 4.0, 30.0, 20.0])
            point = np.array([2 + 4 * j, 2 + 4 * i] * 2, dtype=np.float64)
            on_edge = [e for e in (axis, axis + 2) if b[e] == point[e]]
            side = on_edge[0] if on_edge else axis + 2 * int(rng.integers(2))
            t = float(rng.integers(-6, 7)) * 2.0 ** -23
            cut = (b[axis + 2] - b[axis]) * (1 - sigma * (1 + t))
            b[side] += cut if side < 2 else -cut
            boxes.append(tuple(b))
            hot = int(np.argmax(sem.probs[i, j])) + 1
            cls = hot if hot > N_STUFF else cls
        classes.append(cls)
    if huge:
        boxes += [(-F32_MAX, -F32_MAX / 2, F32_MAX, 3.0), (1e30, 1e30, 3e38, 3e38)]
        classes += [N_CLASSES, N_CLASSES]
    boxes = np.array(boxes, dtype=np.float64).reshape(-1, 4)
    return QuerySet(boxes, classes, np.linspace(1.0, 0.1, len(boxes)), np.zeros(len(boxes)))


SIGMAS = st.sampled_from([0.3, 0.05, 0.5, 0.95])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # float32 overflow near the float32 max
@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), hq=st.integers(1, 12), wq=st.integers(1, 12), sigma=SIGMAS,
       kinds=st.lists(st.sampled_from(["shifted", "far", "point", "wide", "huge"]), max_size=3, unique=True))
def test_levelness_masks_match_full_frame(seed, hq, wq, sigma, kinds):
    rng = np.random.default_rng(seed)
    h, w = 4 * hq, 4 * wq
    field = GlobalBoxField(hand_field(rng, h, w, ["near"] * 4 + kinds))
    sem = semantics(rng, h, w)
    queries = queries_for(rng, [field.boxes], sem, sigma, int(rng.integers(1, 12)), "huge" in kinds)
    want = full_masks([field.boxes], sem, queries, sigma)
    for threads in (1, 2):
        got = construct_masks(queries, sem, N_STUFF, sigma=sigma, global_boxes=field, threads=threads)
        assert np.array_equal(got, want)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), hq=st.integers(1, 12), wq=st.integers(1, 12), sigma=SIGMAS,
       huge=st.booleans())
def test_max_iou_masks_match_full_frame(seed, hq, wq, sigma, huge):
    rng = np.random.default_rng(seed)
    h, w = 4 * hq, 4 * wq
    levels = hand_levels(rng, h, w, huge)
    fields = [resample_level_boxes(lv, (h, w)) for lv in levels]
    sem = semantics(rng, h, w)
    queries = queries_for(rng, fields, sem, sigma, int(rng.integers(1, 12)), huge)
    want = full_masks(fields, sem, queries, sigma)
    for threads in (1, 2):
        got = construct_masks(queries, sem, N_STUFF, sigma=sigma, levels=levels, threads=threads)
        assert np.array_equal(got, want)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), hq=st.integers(1, 12), wq=st.integers(1, 12),
       kinds=st.lists(st.sampled_from(["shifted", "far", "point", "wide", "huge"]), max_size=3, unique=True),
       cut=st.sampled_from([0.3, 0.01]))
def test_mask_loss_matches_full_frame(seed, hq, wq, kinds, cut):
    rng = np.random.default_rng(seed)
    h, w = 4 * hq, 4 * wq
    field = GlobalBoxField(hand_field(rng, h, w, ["near"] * 4 + kinds))
    # cut = 0.01 leaves queries overlapping a pixel box by a sliver only
    queries = queries_for(rng, [field.boxes], semantics(rng, h, w), cut, int(rng.integers(1, 10)),
                          "huge" in kinds)
    # gt boxes near the queries, so that most queries are matched
    gt = queries.boxes[rng.permutation(len(queries))[: int(rng.integers(1, len(queries) + 1))]]
    gt = gt + rng.uniform(-3, 3, gt.shape)
    gt[:, 2:] = np.maximum(gt[:, 2:], gt[:, :2] + 1)
    gt_instances = rng.integers(0, len(gt) + 1, (h, w))
    assert mask_loss(field, queries, gt, gt_instances) == full_mask_loss(field, queries, gt, gt_instances)


def assert_windows_hold_positive_iou(fields: list[np.ndarray], query_boxes: np.ndarray) -> None:
    """No pixel of any field outside a query's window has a positive IoU with it."""
    for (ys, xs), box in zip(iou_windows(fields, query_boxes), query_boxes.tolist()):
        for field in fields:
            outside = iou_grid(field, box) > 0
            outside[ys, xs] = False
            assert not outside.any()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), hq=st.integers(1, 12), wq=st.integers(1, 12),
       cut=st.sampled_from([0.3, 0.01]), levels=st.booleans(),
       kinds=st.lists(st.sampled_from(["shifted", "far", "point", "wide", "huge"]), max_size=3, unique=True))
def test_windows_hold_every_pixel_that_can_pass(seed, hq, wq, cut, levels, kinds):
    """Outside its window no pixel of any field has a positive IoU with the
    query, so none can pass any threshold."""
    rng = np.random.default_rng(seed)
    h, w = 4 * hq, 4 * wq
    if levels:
        fields = [resample_level_boxes(lv, (h, w)) for lv in hand_levels(rng, h, w, "huge" in kinds)]
    else:
        fields = [hand_field(rng, h, w, ["near"] * 4 + kinds)]
    # cut = 0.01 leaves queries overlapping a pixel box by a sliver only
    queries = queries_for(rng, fields, semantics(rng, h, w), cut, int(rng.integers(1, 12)), "huge" in kinds)
    assert_windows_hold_positive_iou(fields, queries.boxes)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), hq=st.integers(1, 12), wq=st.integers(1, 12),
       n_fields=st.integers(1, 2), frac=st.sampled_from([0.02, 0.2, 0.6]))
def test_windows_hold_every_positive_iou_pixel_of_non_finite_fields(seed, hq, wq, n_fields, frac):
    """NaN and +-inf coordinates poison the column and row extents of the
    fields they sit in; every pixel of positive IoU still lies in its window."""
    rng = np.random.default_rng(seed)
    h, w = 4 * hq, 4 * wq
    fields = [hand_field(rng, h, w, ["near"] * 4 + ["wide", "point"]) for _ in range(n_fields)]
    queries = queries_for(rng, fields, semantics(rng, h, w), 0.01, int(rng.integers(1, 12)), False)
    for field in fields:
        hit = rng.random(field.shape) < frac
        field[hit] = rng.choice(np.array([np.nan, np.inf, -np.inf], np.float32), size=int(hit.sum()))
    assert_windows_hold_positive_iou(fields, queries.boxes)


def test_a_box_beyond_every_pixel_box_gets_an_empty_window():
    """A small query right of every pixel box, one of which reaches from far
    left across many columns: no column can meet it."""
    h, w = 8, 32
    field = hand_field(np.random.default_rng(7), h, w, ["near"])
    field[0, 0] = (-100.0, 0.0, 60.0, 8.0)
    box = (4.0 * w + 70, 10.0, 4.0 * w + 71, 11.0)
    assert field[..., 2].max() <= box[0]
    (ys, xs), = iou_windows([field], np.array([box]))
    assert xs.start == xs.stop and ys.stop > ys.start
    assert not iou_grid(field, box).any()


def test_windows_need_a_box_field():
    with pytest.raises(ValueError):
        iou_windows([], np.zeros((1, 4)))


def test_noisy_city_frame_matches_full_frame():
    """A seeded noisy 1024x2048 frame: windowed masks in both modes and the
    mask loss equal their full-frame references, and the windows are small."""
    scene = generate_scene(SceneConfig(width=2048, height=1024, instances=40, max_size=256,
                                       min_stuff_area=4096, seed=3))
    pred = perturb(ideal_predictions(scene, default_level_specs(5)),
                   NoiseConfig(offset_std=2.0, semantic_flip_prob=0.05, centerness_std=0.1,
                               levelness_flip_prob=0.1, seed=3))
    queries = select_queries(pred, ConstructionParams())
    sem = pred.semantic_field()
    gb = assemble_global_boxes(pred.levels, pred.levelness_field())
    masks = construct_masks(queries, sem, pred.n_stuff, global_boxes=gb)
    assert len(queries) > 20 and masks.any()
    assert np.array_equal(masks, full_masks([gb.boxes], sem, queries, 0.3))
    fields = [resample_level_boxes(lv, sem.shape) for lv in pred.levels]
    assert np.array_equal(construct_masks(queries, sem, pred.n_stuff, levels=pred.levels),
                          full_masks(fields, sem, queries, 0.3))
    inst = scene.quarter_instance_map()
    assert mask_loss(gb, queries, scene.boxes, inst) == full_mask_loss(gb, queries, scene.boxes, inst)
    area = sum((ys.stop - ys.start) * (xs.stop - xs.start)
               for ys, xs in iou_windows([gb.boxes], queries.boxes))
    assert area < 0.2 * len(queries) * sem.shape[0] * sem.shape[1]
