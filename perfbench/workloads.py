"""Seeded workloads of the densepanoptic benchmark.

Each workload builds a small pool of synthetic scenes and predictions from
``densepanoptic.synth`` in set-up, then processes one image per call of
``run_image``. Image ``k`` takes scene ``(k // n_cases) % pool`` and case
``k % n_cases``, so a *round* of ``n_cases`` consecutive images covers each
case once on one scene and a *cycle* of ``pool * n_cases`` images covers the
whole pool. README.md says why each workload exists.

Every image returns its step times, the failures its checks found, and a
sha256 over its outputs; the same seed gives the same inputs and the same
outputs, so every later image of a pool slot must repeat the first digest.
"""

from __future__ import annotations

import hashlib
import shutil
import statistics
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from densepanoptic import bundle, metrics, pipeline
from densepanoptic.assignment import build_targets
from densepanoptic.fields import default_level_specs
from densepanoptic.maskcons import construct_masks
from densepanoptic.pipeline import ConstructionParams
from densepanoptic.selection import assemble_global_boxes
from densepanoptic.synth import NoiseConfig, SceneConfig, generate_scene, ideal_predictions, perturb

SPECS = default_level_specs(5)
# Cityscapes-sized frames: about 40 instances up to 256 px across all levels
CITY = dict(width=2048, height=1024, instances=40, max_size=256, min_stuff_area=4096)
# exact recovery (PQ = mIoU = 1.0 on ideal predictions) needs every stuff
# region to reach fusion's default stuff_area_min of 4096 pixels
SMALL = dict(width=512, height=512, instances=8, min_stuff_area=4096)
NOISE = dict(offset_std=2.0, semantic_flip_prob=0.05, centerness_std=0.1, levelness_flip_prob=0.1)
_GEN_ATTEMPTS = 8


def derive_seed(*parts: int) -> int:
    """A 32-bit seed that depends on every part; stable across platforms."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


@dataclass
class Image:
    """What one image of a workload produced."""

    steps: dict[str, float]
    digest: bytes
    failures: list[str] = field(default_factory=list)
    quality: dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return sum(self.steps.values())


@dataclass
class Slot:
    scene: object
    preds: dict


class _Digest:
    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def array(self, a: np.ndarray) -> None:
        a = np.ascontiguousarray(a)
        self._h.update(f"{a.dtype.str}{a.shape}".encode())
        self._h.update(a.tobytes())

    def floats(self, *values: float) -> None:
        self._h.update(struct.pack(f"<{len(values)}d", *values))

    def text(self, s: str) -> None:
        self._h.update(s.encode())

    def digest(self) -> bytes:
        return self._h.digest()


def _digest_construction(pmap, queries, report) -> bytes:
    d = _Digest()
    d.array(pmap.class_map)
    d.array(pmap.instance_map)
    d.text(";".join(f"{s.segment_id},{s.class_id},{s.area},{s.score!r}" for s in pmap.segments))
    d.array(queries.box_array())
    d.array(np.array([q.class_id for q in queries], dtype=np.int64))
    d.array(np.array([q.score for q in queries], dtype=np.float64))
    d.array(np.array([q.level for q in queries], dtype=np.int64))
    d.floats(report.pq, report.pq_things, report.pq_stuff, report.miou)
    return d.digest()


def _validate(pmap, failures: list[str]) -> None:
    try:
        pmap.validate()
    except ValueError as exc:
        failures.append(f"PanopticMap.validate: {exc}")


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _pred_arrays(pred) -> list[np.ndarray]:
    out = [pred.semantic_logits, pred.levelness_logits]
    for lv in pred.levels:
        out += [lv.offsets, lv.class_probs, lv.centerness]
    return out


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir())


class Workload:
    """Pool set-up plus the per-image step chain of one workload."""

    name = ""
    scene_cfg: dict = {}
    cases: tuple = ()
    steps: tuple = ()

    def __init__(self, seed: int, pool: int, workdir: Path) -> None:
        self.seed = seed
        self.pool_size = pool
        self.workdir = workdir
        self.slots: list[Slot] = []
        self.generate_s: list[float] = []
        self.predict_s: list[float] = []

    @property
    def cycle(self) -> int:
        return self.pool_size * len(self.cases)

    def locate(self, k: int) -> tuple[Slot, object]:
        return self.slots[(k // len(self.cases)) % self.pool_size], self.cases[k % len(self.cases)]

    # ---------------------------------------------------------- set-up
    def make_preds(self, scene, index: int) -> dict:
        return {"noisy": self.noisy(ideal_predictions(scene, SPECS), index)}

    def _scene(self, index: int):
        """Scene ``index`` of the pool; a placement failure moves on to the
        next derived seed, so every workload seed yields a full pool."""
        for attempt in range(_GEN_ATTEMPTS):
            cfg = SceneConfig(**self.scene_cfg, seed=derive_seed(self.seed, index, attempt))
            try:
                return generate_scene(cfg)
            except ValueError:
                continue
        raise RuntimeError(f"no scene placed for pool slot {index} in {_GEN_ATTEMPTS} attempts")

    def setup(self) -> float:
        """Build the pool from the seed; returns the seconds it took."""
        self.slots = []
        t0 = time.perf_counter()
        for i in range(self.pool_size):
            t1 = time.perf_counter()
            scene = self._scene(i)
            t2 = time.perf_counter()
            preds = self.make_preds(scene, i)
            t3 = time.perf_counter()
            self.generate_s.append(t2 - t1)
            self.predict_s.append(t3 - t2)
            self.slots.append(Slot(scene, preds))
        return time.perf_counter() - t0

    def noisy(self, pred, index: int):
        return perturb(pred, NoiseConfig(**NOISE, seed=derive_seed(self.seed, index, 1 << 16)))

    def input_digest(self) -> str:
        """sha256 over every generated scene and prediction array."""
        d = _Digest()
        for slot in self.slots:
            pm = slot.scene.panoptic
            d.array(pm.class_map)
            d.array(pm.instance_map)
            d.array(slot.scene.boxes)
            d.array(slot.scene.instance_classes)
            for key in sorted(slot.preds):
                for a in _pred_arrays(slot.preds[key]):
                    d.array(a)
        return d.digest().hex()

    # ----------------------------------------------------------- images
    def run_image(self, k: int, tracer) -> Image:
        raise NotImplementedError

    def close(self) -> None:
        """Remove the scratch directory; only this run writes to it."""
        shutil.rmtree(self.workdir, ignore_errors=True)


class InferCity(Workload):
    """1024x2048 noisy frames: construct_panoptic, then evaluate_panoptic."""

    name = "infer_city"
    scene_cfg = CITY
    cases = ("levelness",)
    steps = ("construct", "evaluate")

    def run_image(self, k, tracer):
        slot, _ = self.locate(k)
        scene, pred = slot.scene, slot.preds["noisy"]
        t0 = time.perf_counter()
        with tracer.span("pipeline.construct"):
            pmap, queries = pipeline.construct_panoptic(pred, ConstructionParams())
        t1 = time.perf_counter()
        with tracer.span("metrics.evaluate"):
            report = metrics.evaluate_panoptic(pmap, scene.panoptic, scene.n_stuff, scene.n_things)
        t2 = time.perf_counter()
        img = Image(steps={"construct": t1 - t0, "evaluate": t2 - t1},
                    digest=_digest_construction(pmap, queries, report),
                    quality={"pq": report.pq, "miou": report.miou})
        _validate(pmap, img.failures)
        return img

    def thread_speedup(self, nproc: int, reps: int = 3) -> tuple[float, list[str]]:
        """construct_masks at threads=1 over threads=nproc on pool slot 0.

        Returns the ratio of median times and any failure (the masks must
        be identical for both thread counts)."""
        pred = self.slots[0].preds["noisy"]
        params = ConstructionParams()
        queries = pipeline.select_queries(pred, params)
        sem = pred.semantic_field()
        gb = assemble_global_boxes(pred.levels, pred.levelness_field())
        times: dict[int, list[float]] = {1: [], nproc: []}
        masks = {}
        for r in range(reps):
            for threads in ((1, nproc) if r % 2 == 0 else (nproc, 1)):
                t0 = time.perf_counter()
                masks[threads] = construct_masks(queries, sem, pred.n_stuff, sigma=params.sigma,
                                                 global_boxes=gb, threads=threads)
                times[threads].append(time.perf_counter() - t0)
        failures = [] if _same_bits(masks[1], masks[nproc]) else [
            f"construct_masks differs between 1 and {nproc} threads"]
        return statistics.median(times[1]) / statistics.median(times[nproc]), failures


class CliSmall(Workload):
    """512x512 scenes along the CLI's file path: save and load the
    predictions, construct, save and load the panoptic archive, evaluate."""

    name = "cli_small"
    scene_cfg = SMALL
    cases = (("ideal", "levelness"), ("ideal", "max-iou"), ("noisy", "levelness"), ("noisy", "max-iou"))
    steps = ("io", "construct", "evaluate")

    def make_preds(self, scene, index):
        ideal = ideal_predictions(scene, SPECS)
        return {"ideal": ideal, "noisy": self.noisy(ideal, index)}

    def run_image(self, k, tracer):
        slot, (kind, assembly) = self.locate(k)
        scene, pred = slot.scene, slot.preds[kind]
        # fresh files in a fresh directory, removed once the image is done:
        # rewriting the same files in place made ext4 flush each rewrite to
        # the disk (auto_da_alloc), so the shared disk's load showed in io
        # times; deleted before writeback, the bytes never leave the page cache
        base = self.workdir / f"image-{k}"
        preds_dir, pan_dir = base / "preds", base / "panoptic"
        t0 = time.perf_counter()
        with tracer.span("bundle.save_predictions"):
            bundle.save_predictions(preds_dir, pred)
        t1 = time.perf_counter()
        with tracer.span("bundle.load_predictions"):
            loaded = bundle.load_predictions(preds_dir)
        t2 = time.perf_counter()
        with tracer.span("pipeline.construct"):
            pmap, queries = pipeline.construct_panoptic(loaded, ConstructionParams(assembly=assembly))
        t3 = time.perf_counter()
        with tracer.span("bundle.save_panoptic"):
            bundle.save_panoptic(pan_dir, pmap, loaded.n_stuff, loaded.n_things)
        with tracer.span("bundle.load_panoptic"):
            back, _ = bundle.load_panoptic(pan_dir)
        t5 = time.perf_counter()
        with tracer.span("metrics.evaluate"):
            report = metrics.evaluate_panoptic(back, scene.panoptic, scene.n_stuff, scene.n_things)
        t6 = time.perf_counter()
        img = Image(steps={"io": (t2 - t0) + (t5 - t3), "construct": t3 - t2, "evaluate": t6 - t5},
                    digest=_digest_construction(back, queries, report),
                    quality={"pq": report.pq, "miou": report.miou})
        if tracer.enabled:
            size = _dir_bytes(preds_dir) + _dir_bytes(pan_dir)
            tracer.count("bundle.bytes_written", size)
            tracer.count("bundle.bytes_read", size)
        _validate(pmap, img.failures)
        if not all(_same_bits(a, b) for a, b in zip(_pred_arrays(pred), _pred_arrays(loaded))):
            img.failures.append("prediction arrays changed in a bundle round trip")
        if (loaded.specs, loaded.n_stuff, loaded.n_things, loaded.image_hw) != (
                pred.specs, pred.n_stuff, pred.n_things, pred.image_hw):
            img.failures.append("prediction metadata changed in a bundle round trip")
        if not (_same_bits(back.class_map, pmap.class_map)
                and _same_bits(back.instance_map, pmap.instance_map)
                and back.segments == pmap.segments):
            img.failures.append("panoptic map changed in a bundle round trip")
        if kind == "ideal" and not (report.pq == 1.0 and report.miou == 1.0):
            img.failures.append(f"ideal {assembly} image: PQ {report.pq!r}, mIoU {report.miou!r}")
        shutil.rmtree(base)
        return img


class TrainTargets(Workload):
    """1024x2048 frames, alternating full and weak supervision: build_targets,
    then compute_loss_report of noisy predictions against those targets."""

    name = "train_targets"
    scene_cfg = CITY
    cases = ("full", "weak")
    steps = ("targets", "loss")

    def run_image(self, k, tracer):
        slot, mode = self.locate(k)
        scene, pred = slot.scene, slot.preds["noisy"]
        t0 = time.perf_counter()
        with tracer.span("assignment.targets"):
            level_targets, global_targets = build_targets(scene, SPECS, mode)
        targets = bundle.TargetBundle(
            level_targets=level_targets, global_targets=global_targets,
            gt_boxes=scene.boxes, gt_classes=scene.instance_classes,
            gt_instances_quarter=scene.quarter_instance_map(), specs=SPECS,
            n_stuff=scene.n_stuff, n_things=scene.n_things,
            image_hw=(scene.height, scene.width), mode=mode)
        t1 = time.perf_counter()
        with tracer.span("pipeline.loss_report"):
            report = pipeline.compute_loss_report(pred, targets)
        t2 = time.perf_counter()
        d = _Digest()
        for t in level_targets:
            for a in (t.offsets, t.class_ids, t.centerness, t.foreground):
                d.array(a)
        d.array(global_targets.levelness)
        d.array(global_targets.semantics)
        losses = report.as_dict()
        d.floats(*losses.values())
        img = Image(steps={"targets": t1 - t0, "loss": t2 - t1}, digest=d.digest())
        if tracer.enabled:
            tracer.count("assignment.fg_locations", sum(int(t.foreground.sum()) for t in level_targets))
        bad = [k for k, v in losses.items() if not np.isfinite(v)]
        if bad:
            img.failures.append(f"non-finite loss terms: {bad}")
        return img


WORKLOADS = {w.name: w for w in (InferCity, CliSmall, TrainTargets)}
# pool sizes: enough scenes that a run's median does not hang on one scene,
# few enough that three set-ups of a large-frame pool stay near five seconds
POOL = {"infer_city": 4, "cli_small": 32, "train_targets": 4}


def make_workload(name: str, seed: int, workdir: Path, pool: int | None = None) -> Workload:
    """Workload ``name`` for ``seed``; only ``cli_small`` writes, under ``workdir``."""
    return WORKLOADS[name](seed, POOL[name] if pool is None else pool, workdir)
