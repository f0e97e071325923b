"""End-to-end acceptance suite.

Each test checks one headline guarantee of the library and prints a
terminal-visible PASS/FAIL line with the measured numbers, so a full run
doubles as a release report. Test 7 is split in two. The vectorized vs
naive half runs on every machine. The thread half measures real wall-clock
parallelism, so it is skipped where fewer than 4 CPUs are usable
(`os.sched_getaffinity(0)`, or `os.cpu_count()` where affinity is not
available) and runs, and can fail, everywhere else.
"""

import math
import os
import time

import numpy as np
import pytest

from oracles import (
    construct_masks_ref,
    focal_loss_ref,
    iou_loss_ref,
    centerness_loss_ref,
    levelness_loss_ref,
    mask_loss_ref,
    match_queries_ref,
    miou_ref,
    nms_ref,
    pq_ref,
    semantic_loss_ref,
)
from query_rows import query_set

from densepanoptic.assignment import build_targets
from densepanoptic.bundle import TargetBundle
from densepanoptic.fields import (
    PanopticMap,
    SegmentInfo,
    SemanticField,
    default_level_specs,
    softmax_field,
)
from densepanoptic.geometry import box_iou, centerness, offsets_to_boxes, receptive_centers
from densepanoptic.losses import (
    centerness_loss,
    focal_classification_loss,
    iou_loss,
    levelness_loss,
    mask_loss,
    match_queries,
    semantic_loss,
    total_loss,
)
from densepanoptic.maskcons import construct_masks
from densepanoptic.metrics import SegmentMatch, evaluate_panoptic, panoptic_quality
from densepanoptic.pipeline import (
    ConstructionParams,
    compute_loss_report,
    construct_panoptic,
)
from densepanoptic.selection import QuerySet, nms
from densepanoptic.synth import (
    NoiseConfig,
    SceneConfig,
    generate_scene,
    ideal_predictions,
    perturb,
)

TOL = 1e-6


def _usable_cpus() -> int:
    """CPUs this process may run on: the affinity set where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _announce(capfd, name: str, ok: bool, detail: str) -> None:
    with capfd.disabled():
        print(f"\n[acceptance] {name}: {'PASS' if ok else 'FAIL'} - {detail}",
              flush=True)


def _pmap(cm, im) -> PanopticMap:
    cm = np.asarray(cm, np.uint16)
    im = np.asarray(im, np.uint16)
    segs = []
    packed = cm.astype(np.int64) << 16 | im.astype(np.int64)
    for key in np.unique(packed):
        c, i = int(key) >> 16, int(key) & 0xFFFF
        if c == 0:
            continue
        segs.append(SegmentInfo(i, c, int((packed == key).sum()), 1.0))
    return PanopticMap(cm, im, segs)


def _random_pmap(rng, h, w, n_stuff, n_things, max_inst=4, p_void=0.1):
    cm = rng.integers(0, n_stuff + n_things + 1, (h, w)).astype(np.uint16)
    im = np.zeros((h, w), np.uint16)
    thing = cm > n_stuff
    im[thing] = rng.integers(1, max_inst + 1, int(thing.sum()))
    cm[thing] = (n_stuff + 1 + (im[thing] - 1) % n_things).astype(np.uint16)
    cm[rng.random((h, w)) < p_void] = 0
    im[cm <= n_stuff] = 0
    return _pmap(cm, im)


def _rand_boxes(rng, n, span=12.0):
    x1 = rng.uniform(0, span, n)
    y1 = rng.uniform(0, span, n)
    return np.stack([x1, y1,
                     x1 + rng.uniform(0.2, span, n),
                     y1 + rng.uniform(0.2, span, n)], axis=1)


def test_01_exact_recovery_on_seeded_scenes(capfd):
    """Ideal predictions round-trip through the full pipeline untouched."""
    specs = default_level_specs(5)
    params = ConstructionParams()
    n_scenes = 50
    t0 = time.perf_counter()
    failures = []
    for seed in range(n_scenes):
        cfg = SceneConfig(width=512, height=512, instances=seed % 10 + 1,
                          thing_classes=3, stuff_classes=3,
                          min_stuff_area=4096, seed=seed)
        scene = generate_scene(cfg)
        pred = ideal_predictions(scene, specs)
        pmap, _ = construct_panoptic(pred, params)
        rep = evaluate_panoptic(pmap, scene.panoptic, scene.n_stuff, scene.n_things)
        if rep.pq != 1.0 or rep.miou != 1.0:
            failures.append((seed, rep.pq, rep.miou))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    detail = (f"{n_scenes} scenes 512x512 (1-10 instances): "
              f"{n_scenes - len(failures)}/{n_scenes} exact PQ=mIoU=1.0, "
              f"{elapsed:.1f}s (< 60s)")
    _announce(capfd, "exact recovery", ok, detail)
    assert ok, detail


def test_02_vectorized_stages_match_scalar_references(capfd):
    """1000 randomized cases per subsystem against naive scalar loops."""
    cases = 1000
    devs = {}

    # mask construction
    rng = np.random.Generator(np.random.PCG64(20))
    for case in range(cases):
        big = case < 5
        h = 32 if big else int(rng.integers(2, 13))
        w = 32 if big else int(rng.integers(2, 13))
        n_classes = int(rng.integers(2, 7))
        n_stuff = int(rng.integers(1, n_classes))
        bg = rng.random((h, w)) < 0.3
        boxes = np.zeros((h, w, 4))
        boxes[..., 0] = rng.uniform(0, 8, (h, w))
        boxes[..., 1] = rng.uniform(0, 8, (h, w))
        boxes[..., 2] = boxes[..., 0] + rng.uniform(0.1, 8, (h, w))
        boxes[..., 3] = boxes[..., 1] + rng.uniform(0.1, 8, (h, w))
        boxes[bg, 2] = boxes[bg, 0]
        boxes[bg, 3] = boxes[bg, 1]
        probs = rng.random((h, w, n_classes))
        probs /= probs.sum(axis=-1, keepdims=True)
        field = boxes.astype(np.float32)
        sem = SemanticField(probs)
        nq = 100 if big else int(rng.integers(1, 8))
        qb = _rand_boxes(rng, nq, span=8.0)
        qcls = rng.integers(n_stuff + 1, n_classes + 1, nq)
        queries = QuerySet(qb, qcls, 1.0 - np.arange(nq) * 1e-4, np.zeros(nq))
        got = construct_masks(queries, sem, n_stuff, sigma=0.3, global_boxes=field)
        want = construct_masks_ref(field, np.moveaxis(sem.planes, 0, 2),
                                   [(tuple(qb[i]), int(qcls[i])) for i in range(nq)], 0.3)
        assert np.array_equal(got, np.asarray(want, dtype=bool))
    devs["mask"] = 0.0

    # class-wise NMS
    rng = np.random.Generator(np.random.PCG64(21))
    for case in range(cases):
        n = int(rng.integers(50, 101)) if case % 25 == 0 else int(rng.integers(1, 31))
        cands = []
        for _ in range(n):
            x1 = float(rng.integers(0, 12)) + float(rng.random()) * 0.5
            y1 = float(rng.integers(0, 12)) + float(rng.random()) * 0.5
            b = (x1, y1, x1 + float(rng.integers(2, 10)), y1 + float(rng.integers(2, 10)))
            cands.append((b, int(rng.integers(1, 5)),
                          float(rng.random()), int(rng.integers(0, 4))))
        thr = float(rng.uniform(0.2, 0.8))
        got = list(nms(query_set(cands), iou_thresh=thr))
        want = nms_ref(cands, thr)
        assert len(got) == len(want)
        for g, t in zip(got, want):
            assert (g.box == t[0]
                    and g.class_id == t[1] and g.score == t[2] and g.level == t[3])
    devs["nms"] = 0.0

    # box regression loss
    rng = np.random.Generator(np.random.PCG64(22))
    worst = 0.0
    for _ in range(cases):
        n = int(rng.integers(1, 101))
        pred = _rand_boxes(rng, n)
        tgt = _rand_boxes(rng, n)
        tgt[rng.random(n) < 0.05] += 40.0  # disjoint pairs hit the clamp
        fg = rng.random(n) < 0.7
        worst = max(worst, abs(iou_loss(pred, tgt, fg)
                               - iou_loss_ref(pred, tgt, fg)))
    devs["iou_loss"] = worst

    # centerness loss
    rng = np.random.Generator(np.random.PCG64(23))
    worst = 0.0
    for _ in range(cases):
        n = int(rng.integers(1, 101))
        pred = rng.uniform(1e-6, 1 - 1e-6, n)
        tgt = rng.random(n)
        pin = rng.random(n) < 0.1
        tgt[pin] = np.round(tgt[pin])
        fg = rng.random(n) < 0.7
        worst = max(worst, abs(centerness_loss(pred, tgt, fg)
                               - centerness_loss_ref(pred, tgt, fg)))
    devs["centerness_loss"] = worst

    # levelness loss
    rng = np.random.Generator(np.random.PCG64(24))
    worst = 0.0
    for _ in range(cases):
        h, w = (int(v) for v in rng.integers(1, 33, 2))
        n_lv = int(rng.integers(2, 8))
        logits = rng.normal(0, 3, (h, w, n_lv))
        tgt = rng.integers(0, n_lv, (h, w))
        worst = max(worst, abs(levelness_loss(logits, tgt)
                               - levelness_loss_ref(logits.reshape(-1, n_lv), tgt.ravel())))
    devs["levelness_loss"] = worst

    # focal classification loss
    rng = np.random.Generator(np.random.PCG64(25))
    worst = 0.0
    for _ in range(cases):
        n = int(rng.integers(1, 101))
        n_ch = int(rng.integers(1, 6))
        n_stuff = int(rng.integers(0, 4))
        p = rng.random((n, n_ch))
        p[rng.random((n, n_ch)) < 0.05] = 0.0
        p[rng.random((n, n_ch)) < 0.05] = 1.0
        fg = rng.random(n) < 0.5
        cls = np.zeros(n, dtype=np.int64)
        cls[fg] = n_stuff + 1 + rng.integers(0, n_ch, int(fg.sum()))
        worst = max(worst, abs(
            focal_classification_loss(p, cls, fg, n_stuff=n_stuff)
            - focal_loss_ref(p, cls, fg, n_stuff, 0.25, 2.0)))
    devs["focal_loss"] = worst

    # bootstrapped semantic loss
    rng = np.random.Generator(np.random.PCG64(26))
    worst = 0.0
    for _ in range(cases):
        h, w = (int(v) for v in rng.integers(1, 33, 2))
        n_classes = int(rng.integers(2, 9))
        logits = rng.normal(0, 3, (h, w, n_classes))
        tgt = rng.integers(1, n_classes + 1, (h, w))
        worst = max(worst, abs(semantic_loss(logits, tgt)
                               - semantic_loss_ref(logits.reshape(-1, n_classes), tgt.ravel())))
    devs["semantic_loss"] = worst

    # query matching + mask loss
    rng = np.random.Generator(np.random.PCG64(27))
    worst = 0.0
    for case in range(cases):
        hq = int(rng.integers(17, 33)) if case % 50 == 0 else int(rng.integers(2, 17))
        wq = int(rng.integers(17, 33)) if case % 50 == 0 else int(rng.integers(2, 17))
        n_gt = int(rng.integers(1, 7))
        gt_inst = rng.integers(0, n_gt + 1, (hq, wq))
        span = 4.0 * max(hq, wq)
        gt_boxes = _rand_boxes(rng, n_gt, span=span)
        boxes = np.zeros((hq, wq, 4))
        boxes[..., 0] = rng.uniform(0, span, (hq, wq))
        boxes[..., 1] = rng.uniform(0, span, (hq, wq))
        boxes[..., 2] = boxes[..., 0] + rng.uniform(0.1, span, (hq, wq))
        boxes[..., 3] = boxes[..., 1] + rng.uniform(0.1, span, (hq, wq))
        bg = rng.random((hq, wq)) < 0.2
        boxes[bg, 2] = boxes[bg, 0]
        boxes[bg, 3] = boxes[bg, 1]
        field = boxes.astype(np.float32)
        m = int(rng.integers(1, 13))
        qb = _rand_boxes(rng, m, span=span)
        qb[rng.random(m) < 0.1] += 10 * span  # some queries match nothing
        queries = QuerySet(qb, np.ones(m), 1.0 - np.arange(m) * 1e-4, np.zeros(m))
        assert np.array_equal(match_queries(qb, gt_boxes),
                              np.asarray(match_queries_ref(qb, gt_boxes)))
        worst = max(worst, abs(mask_loss(field, queries, gt_boxes, gt_inst)
                               - mask_loss_ref(field, qb, gt_boxes, gt_inst)))
    devs["mask_loss"] = worst

    # PQ and mIoU
    rng = np.random.Generator(np.random.PCG64(28))
    worst = 0.0
    for _ in range(cases):
        h, w = (int(v) for v in rng.integers(4, 33, 2))
        n_stuff = int(rng.integers(1, 4))
        n_things = int(rng.integers(1, 4))
        gt = _random_pmap(rng, h, w, n_stuff, n_things)
        pred = _random_pmap(rng, h, w, n_stuff, n_things)
        rep = evaluate_panoptic(pred, gt, n_stuff, n_things)
        pq, pq_th, pq_st, _ = pq_ref(pred.class_map, pred.instance_map,
                                     gt.class_map, gt.instance_map, n_stuff)
        miou, _ = miou_ref(pred.class_map, gt.class_map)
        worst = max(worst, abs(rep.pq - pq), abs(rep.pq_things - pq_th),
                    abs(rep.pq_stuff - pq_st), abs(rep.miou - miou))
    devs["pq_miou"] = worst

    ok = all(v <= TOL for v in devs.values())
    top = max(devs.values())
    detail = (f"{cases} cases per subsystem ({len(devs)} subsystems), "
              f"max deviation {top:.2e} (tol 1e-06)")
    _announce(capfd, "scalar-reference equivalence", ok, detail)
    assert ok, detail


def test_03_closed_form_spot_checks(capfd):
    """Hand-derivable values for the geometric and loss primitives."""
    checks = []

    got = box_iou((0, 0, 2, 2), (1, 1, 3, 3))
    checks.append(("iou=1/7", got == 1 / 7))

    got = centerness((1, 2, 3, 2))
    checks.append(("centerness=0.57735", abs(got - 0.57735) < 1e-5))

    pq, _, _, _ = panoptic_quality([SegmentMatch((4, 1), (4, 1), 0.8)],
                                   {(4, 2)}, set(), n_stuff=3)
    checks.append(("pq=0.8/1.5", abs(pq - 0.8 / 1.5) < 1e-12))

    # two-channel logits with per-pixel CE of exactly 1..10; worst 3 -> 9
    v = np.arange(1, 11, dtype=np.float64)
    logits = np.zeros((1, 10, 2))
    logits[0, :, 1] = np.log(np.expm1(v))
    got = semantic_loss(logits, np.ones((1, 10), dtype=np.int64))
    checks.append(("bootstrap_ce=9", abs(got - 9.0) < 1e-9))

    r1 = total_loss(1, 1, 1, 1, 1, 1, semantic_weight=1.0)
    r04 = total_loss(1, 1, 1, 1, 1, 1, semantic_weight=0.4)
    checks.append(("total@1=6", math.isclose(r1.total, 6.0, rel_tol=1e-12)))
    checks.append(("total@0.4=5.4", math.isclose(r04.total, 5.4, rel_tol=1e-12)))

    bad = [name for name, ok in checks if not ok]
    ok = not bad
    detail = f"{len(checks)} closed-form values" + ("" if ok else f"; failed: {bad}")
    _announce(capfd, "closed-form spot checks", ok, detail)
    assert ok, detail


def test_04_zero_loss_on_ideal_predictions(capfd):
    """Every loss term is exactly 0.0 on ideal predictions of scenes whose
    instances occupy a single perfectly centered grid location."""
    specs = default_level_specs(5)
    worst = 0.0
    n_scenes = 8
    for seed in range(n_scenes):
        cfg = SceneConfig(width=256, height=256, instances=3 + seed % 4,
                          thing_classes=3, stuff_classes=3, centered=True,
                          seed=seed)
        scene = generate_scene(cfg)
        pred = ideal_predictions(scene, specs)
        level_targets, global_targets = build_targets(scene, specs)
        tb = TargetBundle(level_targets=level_targets, global_targets=global_targets,
                          gt_boxes=scene.boxes, gt_classes=scene.instance_classes,
                          gt_instances_quarter=scene.quarter_instance_map(),
                          specs=specs, n_stuff=scene.n_stuff, n_things=scene.n_things,
                          image_hw=(scene.height, scene.width), mode="full")
        rep = compute_loss_report(pred, tb)
        for v in (rep.box_regression, rep.centerness, rep.levelness,
                  rep.box_classification, rep.semantics, rep.mask, rep.total):
            worst = max(worst, abs(v))
    ok = worst == 0.0
    detail = f"{n_scenes} non-overlapping scenes, all 6 terms: max |loss| = {worst}"
    _announce(capfd, "zero loss on ideal predictions", ok, detail)
    assert ok, detail


def test_05_assembly_mode_parity_and_robustness(capfd):
    """Single-level: both assemblies agree bitwise. Multi-level with a
    corrupted levelness head: per-level max-IoU recovery scores at least
    as well."""
    mismatches = 0
    specs1 = default_level_specs(1)
    for seed in range(5):
        cfg = SceneConfig(width=256, height=256, instances=4,
                          min_stuff_area=4096, seed=100 + seed)
        scene = generate_scene(cfg)
        base = ideal_predictions(scene, specs1)
        noisy = perturb(base, NoiseConfig(offset_std=3.0, centerness_std=0.1,
                                          seed=seed))
        for pred in (base, noisy):
            a, _ = construct_panoptic(pred, ConstructionParams(assembly="levelness"))
            b, _ = construct_panoptic(pred, ConstructionParams(assembly="max-iou"))
            if not (np.array_equal(a.class_map, b.class_map)
                    and np.array_equal(a.instance_map, b.instance_map)):
                mismatches += 1

    specs5 = default_level_specs(5)
    lv_pq, mx_pq = [], []
    for seed in range(20):
        cfg = SceneConfig(width=256, height=256, instances=5,
                          min_stuff_area=4096, seed=200 + seed)
        scene = generate_scene(cfg)
        pred = perturb(ideal_predictions(scene, specs5),
                       NoiseConfig(levelness_flip_prob=0.4, seed=seed))
        a, _ = construct_panoptic(pred, ConstructionParams(assembly="levelness"))
        b, _ = construct_panoptic(pred, ConstructionParams(assembly="max-iou"))
        lv_pq.append(evaluate_panoptic(a, scene.panoptic, 3, 3).pq)
        mx_pq.append(evaluate_panoptic(b, scene.panoptic, 3, 3).pq)
    lv_mean = float(np.mean(lv_pq))
    mx_mean = float(np.mean(mx_pq))
    ok = mismatches == 0 and mx_mean >= lv_mean
    detail = (f"single-level parity {10 - mismatches}/10 bitwise; corrupted "
              f"levelness over 20 scenes: max-IoU PQ {mx_mean:.3f} >= "
              f"levelness PQ {lv_mean:.3f}")
    _announce(capfd, "assembly ablation", ok, detail)
    assert ok, detail


def test_06_deterministic_across_threads_and_runs(capfd):
    """Identical outputs for 1/2/8 worker threads and for repeated runs."""

    def build():
        cfg = SceneConfig(width=256, height=256, instances=5,
                          min_stuff_area=4096, seed=7)
        scene = generate_scene(cfg)
        return perturb(ideal_predictions(scene, default_level_specs(5)),
                       NoiseConfig(offset_std=2.0, semantic_flip_prob=0.05,
                                   centerness_std=0.05, levelness_flip_prob=0.05,
                                   seed=7))

    def same(a: PanopticMap, b: PanopticMap) -> bool:
        return (np.array_equal(a.class_map, b.class_map)
                and np.array_equal(a.instance_map, b.instance_map)
                and a.segments == b.segments)

    pred = build()
    maps = [construct_panoptic(pred, ConstructionParams(threads=t))[0]
            for t in (1, 2, 8)]
    threads_ok = all(same(maps[0], m) for m in maps[1:])
    rerun = construct_panoptic(build(), ConstructionParams(threads=2))[0]
    rerun_ok = same(maps[0], rerun)
    ok = threads_ok and rerun_ok
    detail = (f"threads 1/2/8 bitwise equal: {threads_ok}; "
              f"same-seed rerun bitwise equal: {rerun_ok}")
    _announce(capfd, "determinism & parallel safety", ok, detail)
    assert ok, detail


def make_bench_inputs(height: int, width: int, n_queries: int, seed: int = 0):
    """Random but realistic quarter-resolution inputs for the mask stage.

    Returns ((h, w, 4) float32 boxes, SemanticField, QuerySet) with n_queries thing
    queries over 2 stuff + 4 thing classes; roughly a fifth of the pixels
    are background.
    """
    if height < 4 or width < 4 or n_queries < 1:
        raise ValueError("bench inputs need a real grid and at least one query")
    rng = np.random.Generator(np.random.PCG64(seed))
    n_stuff, n_things = 2, 4
    cx = np.broadcast_to(receptive_centers(4, np.arange(width)), (height, width))
    cy = np.broadcast_to(receptive_centers(4, np.arange(height))[:, None], (height, width))
    jitter = rng.normal(0, 30.0, (height, width, 2))
    half_w = rng.uniform(20.0, 150.0, (height, width))
    half_h = rng.uniform(20.0, 150.0, (height, width))
    boxes = offsets_to_boxes(np.stack([half_w, half_h, half_w, half_h], axis=2),
                             cx + jitter[:, :, 0], cy + jitter[:, :, 1]).astype(np.float32)
    ys, xs = np.nonzero(rng.random((height, width)) < 0.2)
    boxes[ys, xs] = offsets_to_boxes(np.zeros((ys.size, 4)), cx[ys, xs], cy[ys, xs])
    sem = SemanticField(softmax_field(rng.normal(0, 2.0, (height, width, n_stuff + n_things)).astype(np.float32)))
    qboxes = np.empty((n_queries, 4))
    classes = np.empty(n_queries, dtype=np.int64)
    scores = np.empty(n_queries)
    for i in range(n_queries):
        qx = rng.uniform(0, 4 * width)
        qy = rng.uniform(0, 4 * height)
        hw = rng.uniform(30.0, 180.0)
        hh = rng.uniform(30.0, 180.0)
        qboxes[i] = (qx - hw, qy - hh, qx + hw, qy + hh)
        classes[i] = n_stuff + 1 + rng.integers(n_things)
        scores[i] = rng.uniform(0.1, 1.0)
    return boxes, sem, QuerySet(qboxes, classes, scores, np.zeros(n_queries, dtype=np.int64)).ordered()


def _seconds(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _median_mask_seconds(gb, sem, queries, threads: int) -> float:
    """Median wall time of 3 `construct_masks` calls (2 stuff classes)."""
    return float(np.median([
        _seconds(lambda: construct_masks(queries, sem, 2, global_boxes=gb, threads=threads))
        for _ in range(3)]))


def test_07_mask_construction_speedups(capfd):
    """Vectorized mask construction is at least 5x faster than the scalar
    oracle. Runs on every machine; the thread half is test_07_thread_speedup."""
    gb, sem, queries = make_bench_inputs(256, 512, 50, seed=0)
    vectorized = _median_mask_seconds(gb, sem, queries, threads=1)
    boxes, probs = gb.tolist(), np.moveaxis(sem.planes, 0, 2).tolist()
    rows = list(zip(queries.boxes.tolist(), queries.classes.tolist()))
    naive = _seconds(lambda: construct_masks_ref(boxes, probs, rows, sigma=0.3))
    speedup = naive / vectorized
    ok = speedup >= 5.0
    detail = f"vectorized vs naive {speedup:.0f}x (need >= 5x)"
    _announce(capfd, "construction speedup", ok, detail)
    assert ok, detail


@pytest.mark.skipif(_usable_cpus() < 4,
                    reason=f"needs >= 4 usable CPUs, found {_usable_cpus()}")
def test_07_thread_speedup(capfd):
    """Mask construction with 4 worker threads is at least 2x faster than
    with 1 (needs >= 4 usable CPUs)."""
    gb, sem, queries = make_bench_inputs(256, 512, 50, seed=0)
    speedup = (_median_mask_seconds(gb, sem, queries, threads=1)
               / _median_mask_seconds(gb, sem, queries, threads=4))
    ok = speedup >= 2.0
    detail = (f"4 threads vs 1 {speedup:.2f}x (need >= 2x); "
              f"{_usable_cpus()} usable cpu(s)")
    _announce(capfd, "construction thread speedup", ok, detail)
    assert ok, detail


def test_08_box_only_supervision_parity(capfd):
    """Box-only (weak) targets are bit-exact on non-overlapping rectangle
    scenes, and the weak pipeline keeps >= 90% of full-supervision PQ on
    occluded elliptical scenes."""
    specs = default_level_specs(5)
    exact = True
    for seed in range(10):
        cfg = SceneConfig(width=256, height=256, instances=4,
                          max_same_class_iou=0.0, max_cross_class_iou=0.0,
                          seed=300 + seed)
        scene = generate_scene(cfg)
        full = build_targets(scene, specs, mode="full")
        weak = build_targets(scene, specs, mode="weak")
        for a, b in zip(full[0], weak[0]):
            exact &= (np.array_equal(a.offsets, b.offsets)
                      and np.array_equal(a.class_ids, b.class_ids)
                      and np.array_equal(a.centerness, b.centerness)
                      and np.array_equal(a.foreground, b.foreground))
        exact &= (np.array_equal(full[1].levelness, weak[1].levelness)
                  and np.array_equal(full[1].semantics, weak[1].semantics))

    full_pq, weak_pq = [], []
    for seed in range(20):
        cfg = SceneConfig(width=256, height=256, instances=6, shape="ellipse",
                          min_stuff_area=4096, seed=400 + seed)
        scene = generate_scene(cfg)
        for mode, acc in (("full", full_pq), ("weak", weak_pq)):
            pred = ideal_predictions(scene, specs, mode=mode)
            pm, _ = construct_panoptic(pred, ConstructionParams())
            acc.append(evaluate_panoptic(pm, scene.panoptic, 3, 3).pq)
    f_mean = float(np.mean(full_pq))
    w_mean = float(np.mean(weak_pq))
    ratio = w_mean / f_mean if f_mean else 0.0
    ok = exact and ratio >= 0.9
    detail = (f"10 rectangle scenes bit-exact: {exact}; occluded scenes: "
              f"weak PQ {w_mean:.3f} vs full PQ {f_mean:.3f} "
              f"(ratio {ratio:.3f}, need >= 0.9)")
    _announce(capfd, "box-only supervision parity", ok, detail)
    assert ok, detail
