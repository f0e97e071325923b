import dataclasses
import json
import math
import re
import shutil

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from bundle_bytes import edit_manifest, read_tensor, set_value, splice, tensor_span
from densepanoptic.assignment import GlobalTargets, build_targets
from densepanoptic.bundle import (
    DTYPES,
    TargetBundle,
    colorize,
    load_panoptic,
    load_predictions,
    load_scene,
    load_targets,
    read_bundle,
    save_panoptic,
    save_predictions,
    save_scene,
    save_targets,
    write_bundle,
    write_ppm,
)
from densepanoptic.fields import LevelSpec, PanopticMap, SegmentInfo, default_level_specs
from densepanoptic.pipeline import compute_loss_report
from densepanoptic.synth import NoiseConfig, SceneConfig, generate_scene, ideal_predictions, perturb


class TestRawBundle:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        tensors = {
            "a": rng.random((3, 4)).astype(np.float32),
            "b": rng.integers(0, 60000, (5,)).astype(np.uint16),
            "c": (rng.random((2, 2, 2)) < 0.5).astype(np.uint8),
        }
        write_bundle(tmp_path / "b", tensors, meta={"kind": "test", "note": 7})
        back, meta = read_bundle(tmp_path / "b")
        assert set(back) == set(tensors)
        for k in tensors:
            assert back[k].dtype == tensors[k].dtype
            assert (back[k] == tensors[k]).all()
        assert meta["note"] == 7

    def test_rejects_unsupported_dtype(self, tmp_path):
        with pytest.raises(ValueError):
            write_bundle(tmp_path / "b", {"a": np.zeros(3, np.int32)})

    def test_rejects_bad_tensor_name(self, tmp_path):
        with pytest.raises(ValueError):
            write_bundle(tmp_path / "b", {"../evil": np.zeros(3, np.float32)})

    def test_byte_length_validated(self, tmp_path):
        write_bundle(tmp_path / "b", {"a": np.zeros((2, 2), np.float32)})
        raw = tmp_path / "b" / "tensors.bin"
        raw.write_bytes(raw.read_bytes()[:-4])
        with pytest.raises(ValueError, match="byte"):
            read_bundle(tmp_path / "b")

    def test_manifest_must_exist(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(ValueError, match="manifest"):
            read_bundle(tmp_path / "empty")

    def test_manifest_is_json(self, tmp_path):
        write_bundle(tmp_path / "b", {"a": np.zeros(2, np.float32)})
        manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert manifest["format"] == "tensor-bundle-v2"
        assert manifest["tensors"] == [{"name": "a", "dtype": "f32", "shape": [2]}]


class TestManifestSchema:
    def _bundle(self, tmp_path):
        tensors = {"a": np.arange(6, dtype=np.float32).reshape(2, 3),
                   "b": np.arange(4, dtype=np.uint16)}
        write_bundle(tmp_path / "b", tensors)
        mpath = tmp_path / "b" / "manifest.json"
        return tensors, mpath, json.loads(mpath.read_text())

    def test_file_outside_bundle_rejected(self, tmp_path):
        # entries name no file: one that carries a `file` key, the v1 one or
        # any other, is refused
        _, mpath, manifest = self._bundle(tmp_path)
        (tmp_path / "outside.bin").write_bytes(np.zeros(6, np.float32).tobytes())
        for file in ("../outside.bin", "a.bin"):
            manifest["tensors"][0]["file"] = file
            mpath.write_text(json.dumps(manifest))
            with pytest.raises(ValueError, match="manifest entry"):
                read_bundle(tmp_path / "b")

    def test_missing_dtype_is_value_error(self, tmp_path):
        _, mpath, manifest = self._bundle(tmp_path)
        del manifest["tensors"][1]["dtype"]
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="'name': 'b'"):
            read_bundle(tmp_path / "b")

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 1), st.sampled_from(["name", "dtype", "shape", None]),
           st.sampled_from([None, 0, -1, 6, 2.0, True, "a", "b", "c", "a.bin", "b.bin", "c.bin",
                            "../outside.bin", "/etc/passwd", "f32", "u16", "u8", "i64",
                            [], [6], [3, 2], [2, 3], [4], [2, 2], [-1, -6], [2.0, 3], [True, 6],
                            {}, ["f32"]]),
           st.booleans())
    def test_mutated_manifest_is_rejected_or_exact(self, tmp_path_factory, index, key, value, drop):
        # a tensor's bytes follow from its place in the manifest, so an edited
        # name reads the original bytes under that name
        tmp_path = tmp_path_factory.mktemp("m")
        tensors, mpath, manifest = self._bundle(tmp_path)
        entries = manifest["tensors"]
        if key is None:
            entries[index] = value
        elif drop:
            del entries[index][key]
        else:
            entries[index][key] = value
        mpath.write_text(json.dumps(manifest))
        try:
            back, _ = read_bundle(tmp_path / "b")
        except ValueError:
            return
        assert list(back) == [e["name"] for e in entries]
        for arr, want in zip(back.values(), tensors.values()):
            assert arr.dtype == want.dtype
            assert arr.tobytes() == want.tobytes()


class TestDataFile:
    """One data file per bundle: tensors back to back in manifest order."""

    def test_a_v1_bundle_is_refused(self, tmp_path):
        root = tmp_path / "v1"
        root.mkdir()
        (root / "a.bin").write_bytes(np.arange(4, dtype=np.float32).tobytes())
        (root / "manifest.json").write_text(json.dumps({
            "format": "tensor-bundle-v1", "meta": {},
            "tensors": [{"name": "a", "dtype": "f32", "shape": [4], "file": "a.bin"}]}))
        with pytest.raises(ValueError, match="unsupported bundle format 'tensor-bundle-v1'"):
            read_bundle(root)

    def test_a_missing_data_file_is_one_value_error(self, tmp_path):
        write_bundle(tmp_path / "b", {"a": np.zeros(3, np.float32)})
        (tmp_path / "b" / "tensors.bin").unlink()
        with pytest.raises(ValueError, match="missing tensors.bin") as exc:
            read_bundle(tmp_path / "b")
        assert len(str(exc.value).splitlines()) == 1

    def test_trailing_bytes_are_refused(self, tmp_path):
        write_bundle(tmp_path / "b", {"a": np.zeros(3, np.float32)})
        with open(tmp_path / "b" / "tensors.bin", "ab") as f:
            f.write(b"\0")
        with pytest.raises(ValueError, match="13 bytes, 1 past the 12 the manifest implies"):
            read_bundle(tmp_path / "b")

    def test_a_truncation_names_the_first_tensor_past_the_end(self, tmp_path):
        write_bundle(tmp_path / "b", {"a": np.zeros(3, np.float32), "b": np.zeros(2, np.uint16),
                                      "c": np.zeros(5, np.uint8)})
        data = tmp_path / "b" / "tensors.bin"
        data.write_bytes(data.read_bytes()[:13])  # a ends at byte 12, b at 16
        with pytest.raises(ValueError, match="^tensor b: tensors.bin holds 13 bytes"):
            read_bundle(tmp_path / "b")

    def test_duplicate_names_are_refused(self, tmp_path):
        write_bundle(tmp_path / "b", {"a": np.zeros(2, np.float32), "b": np.ones(2, np.float32)})
        edit_manifest(tmp_path / "b", lambda m: m["tensors"][1].__setitem__("name", "a"))
        with pytest.raises(ValueError, match="tensor a is listed twice"):
            read_bundle(tmp_path / "b")

    def test_zero_size_and_odd_length_tensors_round_trip(self, tmp_path):
        # a 5-byte u8 tensor puts the f32 one after it at an odd offset
        tensors = {"empty": np.zeros((0, 3), np.float32), "odd": np.arange(5, dtype=np.uint8),
                   "f": np.array([1.5, -0.0, np.inf, np.nan, 3e38], np.float32),
                   "none": np.zeros(0, np.uint16), "ids": np.arange(7, dtype=np.uint16).reshape(7, 1)}
        write_bundle(tmp_path / "b", tensors)
        back, _ = read_bundle(tmp_path / "b")
        assert list(back) == list(tensors)
        for name, arr in tensors.items():
            assert (back[name].dtype, back[name].shape) == (arr.dtype, arr.shape)
            assert back[name].tobytes() == arr.tobytes(), name
        assert (tmp_path / "b" / "tensors.bin").stat().st_size == sum(a.nbytes for a in tensors.values())
        manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert tensor_span(manifest, "f") == (5, 25)

    @pytest.mark.parametrize("view", [False, True])
    def test_a_saved_bundle_holds_the_manifest_and_one_data_file(self, tmp_path, view):
        sc = generate_scene(SceneConfig(width=128, height=128, instances=2, seed=5))
        save_predictions(tmp_path / "preds", ideal_predictions(sc, default_level_specs()))
        save_panoptic(tmp_path / "pan", sc.panoptic, sc.n_stuff, sc.n_things, write_view=view)
        assert sorted(p.name for p in (tmp_path / "preds").iterdir()) == ["manifest.json", "tensors.bin"]
        assert sorted(p.name for p in (tmp_path / "pan").iterdir()) == (
            ["manifest.json", "tensors.bin"] + ["view.ppm"] * view)

    @pytest.mark.parametrize("tensors", [
        pytest.param({"a": np.zeros(3, np.float32), "../evil": np.zeros(3, np.float32)}, id="name"),
        pytest.param({"a": np.zeros(3, np.float32), "b": np.zeros(3, np.int32)}, id="dtype"),
    ])
    def test_bad_input_writes_nothing(self, tmp_path, tensors):
        with pytest.raises(ValueError):
            write_bundle(tmp_path / "b", tensors)
        assert not (tmp_path / "b").exists()


class TestSceneBundle:
    def test_round_trip(self, tmp_path):
        sc = generate_scene(SceneConfig(width=256, height=128, instances=4, seed=3))
        save_scene(tmp_path / "scene", sc)
        back = load_scene(tmp_path / "scene")
        assert (back.panoptic.class_map == sc.panoptic.class_map).all()
        assert (back.panoptic.instance_map == sc.panoptic.instance_map).all()
        assert (back.boxes == sc.boxes).all()
        assert (back.instance_classes == sc.instance_classes).all()
        assert back.n_stuff == sc.n_stuff and back.n_things == sc.n_things
        assert len(back.panoptic.segments) == len(sc.panoptic.segments)

    def test_kind_checked(self, tmp_path):
        write_bundle(tmp_path / "x", {"a": np.zeros(1, np.float32)}, meta={"kind": "other"})
        with pytest.raises(ValueError):
            load_scene(tmp_path / "x")


class TestPredictionBundle:
    def test_round_trip(self, tmp_path):
        sc = generate_scene(SceneConfig(width=256, height=128, instances=4, seed=5))
        pred = perturb(ideal_predictions(sc, default_level_specs()),
                       NoiseConfig(offset_std=2.0, centerness_std=0.1, seed=1))
        save_predictions(tmp_path / "preds", pred)
        back = load_predictions(tmp_path / "preds")
        assert len(back.levels) == len(pred.levels)
        for a, b in zip(back.levels, pred.levels):
            assert a.stride == b.stride
            assert (a.offsets == b.offsets).all()
            assert (a.class_probs == b.class_probs).all()
            assert (a.centerness == b.centerness).all()
        assert (back.semantic_logits == pred.semantic_logits).all()
        assert (back.levelness_logits == pred.levelness_logits).all()
        assert back.image_hw == pred.image_hw
        assert [s.max_size for s in back.specs] == [s.max_size for s in pred.specs]

    @pytest.mark.parametrize("value, ok", [pytest.param(3e38, False, id="overflowing"),
                                           pytest.param(1e18, True, id="large")])
    def test_offsets_need_a_finite_box_area(self, tmp_path, value, ok):
        # 3e38 is a finite float32, but (l + r) * (t + b) of its box overflows
        sc = generate_scene(SceneConfig(width=128, height=128, instances=2, seed=5))
        pred = ideal_predictions(sc, default_level_specs())
        pred.levels[0].offsets[1, 2] = (1.0, 2.0, value, 3.0)
        save_predictions(tmp_path / "preds", pred)
        if ok:
            assert load_predictions(tmp_path / "preds").levels[0].offsets[1, 2, 2] == np.float32(value)
            return
        with pytest.raises(ValueError, match="tensor 'level0_offsets' must be offsets with a finite box area") as exc:
            load_predictions(tmp_path / "preds")
        assert len(str(exc.value).splitlines()) == 1

    def test_construction_checks_the_box_area(self):
        # 3e38 is a finite, nonnegative float32, but the area (l + r) * (t + b) of
        # its box overflows, and with it every IoU of the box
        sc = generate_scene(SceneConfig(width=512, height=512, seed=1))
        pred = ideal_predictions(sc, default_level_specs())
        y, x = np.argwhere(pred.levels[0].centerness > 0)[0]
        pred.levels[0].offsets[y, x, 2] = 3e38
        with pytest.raises(ValueError, match=re.escape(
                "tensor 'level0_offsets' must be offsets with a finite box area (l + r) * (t + b)")) as exc:
            dataclasses.replace(pred)
        assert len(str(exc.value).splitlines()) == 1


def _target_fields(sc, specs) -> dict:
    """The keyword arguments of a valid full-mode TargetBundle of `sc`."""
    levels, glob = build_targets(sc, specs, "full")
    return dict(level_targets=levels, global_targets=glob,
                gt_boxes=sc.boxes, gt_classes=sc.instance_classes,
                gt_instances_quarter=sc.quarter_instance_map(),
                specs=specs, n_stuff=sc.n_stuff, n_things=sc.n_things,
                image_hw=(sc.height, sc.width), mode="full")


def _targets_of(sc, specs) -> TargetBundle:
    return TargetBundle(**_target_fields(sc, specs))


def _level0(kw):
    return kw["level_targets"][0]


def _first_fg(kw) -> tuple[int, int]:
    """Grid index of the first level-0 foreground cell."""
    return tuple(np.argwhere(_level0(kw).foreground)[0])


def _put(arr, index, value):
    arr[index] = value


# case -> (an edit of valid fields of a 256x128 scene that breaks one rule, the error it raises)
_TARGET_VIOLATIONS = {
    "nan-offsets": (lambda kw: _put(_level0(kw).offsets, _first_fg(kw), np.nan),
                    "tensor 'level0_offsets' must be finite and >= 0"),
    "centerness-above-1": (lambda kw: _put(_level0(kw).centerness, _first_fg(kw), 1.5),
                           "tensor 'level0_centerness' must be in [0, 1]"),
    "levelness-above-L": (lambda kw: _put(kw["global_targets"].levelness, (0, 0), 6),
                          "tensor 'levelness' must be level ids in [0, 5]"),
    "semantics-void": (lambda kw: _put(kw["global_targets"].semantics, (0, 0), 0),
                       "tensor 'semantics' must be class ids in [1, 6]"),
    "stuff-class-on-a-level": (lambda kw: _put(_level0(kw).class_ids, _first_fg(kw), 1),
                               "tensor 'level0_class' must be 0 or a thing class in [4, 6]"),
    "transposed-level-grid": (lambda kw: setattr(_level0(kw), "class_ids", _level0(kw).class_ids.T),
                              "tensor 'level0_class' must be of shape (16, 32)"),
    "instance-past-the-boxes": (lambda kw: _put(kw["gt_instances_quarter"], (0, 0), len(kw["gt_boxes"]) + 1),
                                "tensor 'gt_instances_quarter' must be instance ids at most the box count"),
    "gt-classes-short": (lambda kw: kw.update(gt_classes=kw["gt_classes"][:-1]),
                         "tensor 'gt_classes' must be one thing class in [4, 6] per gt_boxes row"),
    "mode": (lambda kw: kw.update(mode="bogus"), "mode must be one of ('full', 'weak')"),
    "spec-count": (lambda kw: kw.update(specs=default_level_specs(4)),
                   "level targets must match the specs one to one, stride for stride"),
    "invalid-specs": (lambda kw: kw.update(specs=[LevelSpec(8, 0.0, 64.0), LevelSpec(8, 64.0, math.inf)]),
                      "strides must increase with level"),
    "level-stride": (lambda kw: setattr(kw["level_targets"][1], "stride", 32),
                     "level targets must match the specs one to one, stride for stride"),
}


def _loss_bits(report) -> bytes:
    return np.array(list(report.as_dict().values()), dtype=np.float64).tobytes()


class TestTargetBundle:
    @pytest.mark.parametrize("case", sorted(_TARGET_VIOLATIONS))
    def test_construction_checks_every_value(self, case):
        # the rules of a loaded bundle hold for targets built in memory too
        sc = generate_scene(SceneConfig(width=256, height=128, instances=4, seed=7))
        kw = _target_fields(sc, default_level_specs())
        TargetBundle(**kw)
        edit, message = _TARGET_VIOLATIONS[case]
        edit(kw)
        with pytest.raises(ValueError, match=re.escape(message)) as exc:
            TargetBundle(**kw)
        assert len(str(exc.value).splitlines()) == 1

    def test_a_bad_mode_is_refused_before_saving(self, tmp_path):
        # load_targets refuses meta 'mode' outside MODES, so save must not write one
        sc = generate_scene(SceneConfig(width=128, height=128, instances=3, seed=5))
        with pytest.raises(ValueError, match="mode must be one of"):
            save_targets(tmp_path / "targets", TargetBundle(**{**_target_fields(sc, default_level_specs()),
                                                               "mode": "bogus"}))
        assert not (tmp_path / "targets").exists()

    def test_round_trip(self, tmp_path):
        sc = generate_scene(SceneConfig(width=256, height=128, instances=4, seed=7))
        bundle = _targets_of(sc, default_level_specs())
        levels, glob = bundle.level_targets, bundle.global_targets
        save_targets(tmp_path / "targets", bundle)
        back = load_targets(tmp_path / "targets")
        assert back.mode == "full"
        assert back.image_hw == (128, 256)
        for a, b in zip(back.level_targets, levels):
            assert a.stride == b.stride
            assert (a.offsets == b.offsets).all()
            assert (a.class_ids == b.class_ids).all()
            assert (a.centerness == b.centerness).all()
            assert (a.foreground == b.foreground).all()
        assert (back.global_targets.levelness == glob.levelness).all()
        assert (back.global_targets.semantics == glob.semantics).all()
        assert (back.gt_boxes == sc.boxes).all()
        assert (back.gt_instances_quarter == sc.quarter_instance_map()).all()

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    def test_integer_levelness_saves_as_u16(self, tmp_path, dtype):
        sc = generate_scene(SceneConfig(width=128, height=128, instances=3, seed=7))
        bundle = _targets_of(sc, default_level_specs())
        save_targets(tmp_path / "u16", bundle)
        glob = bundle.global_targets
        bundle.global_targets = GlobalTargets(levelness=glob.levelness.astype(dtype), semantics=glob.semantics)
        save_targets(tmp_path / "other", bundle)
        files = sorted(p.name for p in (tmp_path / "u16").iterdir())
        assert files == sorted(p.name for p in (tmp_path / "other").iterdir())
        for name in files:
            assert (tmp_path / "other" / name).read_bytes() == (tmp_path / "u16" / name).read_bytes(), name
        assert (load_targets(tmp_path / "other").global_targets.levelness == glob.levelness).all()

    def test_a_class_id_past_uint16_is_refused_on_save(self, tmp_path):
        sc = generate_scene(SceneConfig(width=128, height=128, instances=3, seed=7))
        bundle = _targets_of(sc, default_level_specs())
        t = bundle.level_targets[0]
        t.class_ids = t.class_ids.astype(np.int64)
        t.class_ids[0, 0] = 70000
        with pytest.raises(ValueError, match="tensor 'level0_class' must hold integers in") as exc:
            save_targets(tmp_path / "targets", bundle)
        assert len(str(exc.value).splitlines()) == 1

    def test_a_stored_foreground_tensor_is_ignored(self, tmp_path):
        # foreground is class != 0 and is not saved; a leftover level0_foreground
        # tensor (older bundles wrote one) that disagrees with level0_class
        # changes no loss bit
        sc = generate_scene(SceneConfig(width=256, height=128, instances=4, seed=7))
        specs = default_level_specs()
        pred = perturb(ideal_predictions(sc, specs),
                       NoiseConfig(offset_std=2.0, centerness_std=0.1, semantic_flip_prob=0.05, seed=1))
        bundle = _targets_of(sc, specs)
        save_targets(tmp_path / "targets", bundle)
        tensors, meta = read_bundle(tmp_path / "targets")
        assert not any("foreground" in name for name in tensors)
        stale = (tensors["level0_class"] == 0).astype(np.uint8)
        write_bundle(tmp_path / "stale", {**tensors, "level0_foreground": stale}, meta)
        expect = _loss_bits(compute_loss_report(pred, bundle))
        assert _loss_bits(compute_loss_report(pred, load_targets(tmp_path / "targets"))) == expect
        assert _loss_bits(compute_loss_report(pred, load_targets(tmp_path / "stale"))) == expect


class TestPanopticArchive:
    def test_round_trip_and_validation(self, tmp_path):
        sc = generate_scene(SceneConfig(width=256, height=128, instances=3, seed=9))
        save_panoptic(tmp_path / "pan", sc.panoptic, sc.n_stuff, sc.n_things)
        back, meta = load_panoptic(tmp_path / "pan")
        assert (back.class_map == sc.panoptic.class_map).all()
        assert (back.instance_map == sc.panoptic.instance_map).all()
        assert meta["n_stuff"] == sc.n_stuff
        assert len(back.segments) == len(sc.panoptic.segments)

    def test_tampered_segments_rejected(self, tmp_path):
        sc = generate_scene(SceneConfig(width=256, height=128, instances=3, seed=9))
        save_panoptic(tmp_path / "pan", sc.panoptic, sc.n_stuff, sc.n_things)
        mpath = tmp_path / "pan" / "manifest.json"
        manifest = json.loads(mpath.read_text())
        manifest["meta"]["segments"][0]["area"] += 1
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(ValueError):
            load_panoptic(tmp_path / "pan")

    def _refused_on_save_and_load(self, tmp_path, pmap, good, bad, message):
        """`save_panoptic` under the `bad` counts raises and writes nothing; an archive
        saved under the `good` counts and edited to the `bad` ones does not load."""
        with pytest.raises(ValueError, match=message) as exc:
            save_panoptic(tmp_path / "pan", pmap, *bad, write_view=True)
        assert len(str(exc.value).splitlines()) == 1
        assert not (tmp_path / "pan").exists()
        save_panoptic(tmp_path / "pan", pmap, *good)
        assert load_panoptic(tmp_path / "pan")[0].segments == pmap.segments
        edit_manifest(tmp_path / "pan", lambda m: m["meta"].update(n_stuff=bad[0], n_things=bad[1]))
        with pytest.raises(ValueError, match=message) as exc:
            load_panoptic(tmp_path / "pan")
        assert len(str(exc.value).splitlines()) == 1

    def test_class_above_meta_counts_rejected(self, tmp_path):
        cm = np.array([[1, 1, 9], [1, 9, 9]], np.uint16)
        im = np.array([[0, 0, 1], [0, 1, 1]], np.uint16)
        pmap = PanopticMap(cm, im, [SegmentInfo(1, 9, 3, 1.0), SegmentInfo(0, 1, 3, 1.0)])
        self._refused_on_save_and_load(tmp_path, pmap, (1, 8), (1, 1), "class id 9 exceeds n_stuff \\+ n_things = 2")

    def test_thing_class_on_instance_zero_rejected(self, tmp_path):
        cm = np.array([[1, 2, 2], [1, 1, 2]], np.uint16)
        pmap = PanopticMap(cm, np.zeros_like(cm), [SegmentInfo(0, 1, 3, 1.0), SegmentInfo(0, 2, 3, 1.0)])
        self._refused_on_save_and_load(tmp_path, pmap, (2, 0), (1, 1), "thing class 2 on instance 0 \\(n_stuff = 1\\)")

    def test_save_refuses_negative_class_counts(self, tmp_path):
        pmap = PanopticMap(np.zeros((2, 3), np.uint16), np.zeros((2, 3), np.uint16))
        with pytest.raises(ValueError, match="class counts must be nonnegative ints, got -1 and 4"):
            save_panoptic(tmp_path / "pan", pmap, n_stuff=-1, n_things=4)
        assert not (tmp_path / "pan").exists()

    @pytest.mark.parametrize("score", [math.nan, math.inf, -math.inf, True, np.bool_(False)],
                             ids=["nan", "inf", "-inf", "True", "np.False_"])
    def test_save_refuses_a_score_the_loader_refuses(self, tmp_path, score):
        cm = np.array([[4, 1]], np.uint16)
        pmap = PanopticMap(cm, np.array([[1, 0]], np.uint16), [SegmentInfo(1, 4, 1, score)])
        with pytest.raises(ValueError, match="^segment 1 score must be a finite number, got ") as exc:
            save_panoptic(tmp_path / "pan", pmap, n_stuff=1, n_things=3)
        assert len(str(exc.value).splitlines()) == 1
        assert not (tmp_path / "pan").exists()

    def test_numpy_float_scores_save_as_floats(self, tmp_path):
        cm = np.array([[4, 1]], np.uint16)
        pmap = PanopticMap(cm, np.array([[1, 0]], np.uint16), [SegmentInfo(1, 4, 1, np.float64(0.25))])
        save_panoptic(tmp_path / "pan", pmap, n_stuff=1, n_things=3)
        assert load_panoptic(tmp_path / "pan")[0].segments == [SegmentInfo(1, 4, 1, 0.25)]

    def test_view_ppm_written(self, tmp_path):
        sc = generate_scene(SceneConfig(width=256, height=128, instances=3, seed=9))
        save_panoptic(tmp_path / "pan", sc.panoptic, sc.n_stuff, sc.n_things,
                      write_view=True)
        ppm = (tmp_path / "pan" / "view.ppm").read_bytes()
        assert ppm.startswith(b"P6\n")
        header, rest = ppm.split(b"255\n", 1)
        assert b"256 128" in header
        assert len(rest) == 256 * 128 * 3


class TestColorize:
    def test_deterministic_and_distinct(self):
        cm = np.array([[1, 1, 4], [4, 5, 0]], np.uint16)
        im = np.array([[0, 0, 1], [2, 1, 0]], np.uint16)
        a = colorize(cm, im)
        b = colorize(cm, im)
        assert (a == b).all()
        assert a.shape == (2, 3, 3) and a.dtype == np.uint8
        assert (a[1, 2] == 0).all()  # void is black
        assert not (a[0, 2] == a[1, 0]).all()  # same class, different instance
        assert not (a[0, 0] == a[0, 2]).all()  # different class

    def test_matches_palette_per_pixel(self):
        from densepanoptic.bundle import _palette_color

        rng = np.random.default_rng(5)
        cm = rng.integers(0, 8, (24, 40)).astype(np.uint16)
        im = rng.integers(0, 4, (24, 40)).astype(np.uint16)
        assert ((cm == 0) & (im != 0)).any()
        out = colorize(cm, im)
        ref = np.array([[_palette_color(c, i) for c, i in zip(rc, ri)]
                        for rc, ri in zip(cm.tolist(), im.tolist())], dtype=np.uint8)
        assert out.dtype == np.uint8 and out.tobytes() == ref.tobytes()
        assert (out[cm == 0] == 0).all()

    def test_integer_maps_render_as_uint16(self):
        cm = np.array([[0, 3, 65535], [1, 1, 2]])
        im = np.array([[7, 0, 65535], [0, 2, 1]])
        want = colorize(cm.astype(np.uint16), im.astype(np.uint16))
        for dtype in (np.int64, np.int32, np.uint32, np.float64):
            assert colorize(cm.astype(dtype), im.astype(dtype)).tobytes() == want.tobytes(), dtype
        assert colorize(cm.tolist(), im.tolist()).tobytes() == want.tobytes()

    @pytest.mark.parametrize("cm, im, name", [
        pytest.param([[70000]], [[0]], "class_map", id="class-above-65535"),
        pytest.param([[-1]], [[0]], "class_map", id="negative-class"),
        pytest.param([[4]], [[-1]], "instance_map", id="negative-instance"),
        pytest.param([[4]], [[1.5]], "instance_map", id="fractional-instance"),
    ])
    def test_values_a_uint16_cast_would_change_raise(self, cm, im, name):
        with pytest.raises(ValueError, match=f"{name} must hold integers in \\[0, 65535\\]"):
            colorize(np.array(cm), np.array(im))

    def test_ppm_writer_shape_checked(self, tmp_path):
        with pytest.raises(ValueError):
            write_ppm(tmp_path / "x.ppm", np.zeros((4, 4), np.uint8))


# edits of a saved bundle directory, each breaking one rule of its kind
def _drop_tensor(name):
    return lambda path: splice(path, name, None)


def _pop_meta(key):
    return lambda path: edit_manifest(path, lambda m: m["meta"].pop(key))


def _set_meta(key, value):
    return lambda path: edit_manifest(path, lambda m: m["meta"].__setitem__(key, value))


def _set_first(key, field, value):
    return lambda path: edit_manifest(path, lambda m: m["meta"][key][0].__setitem__(field, value))


_LOADERS = {"scene": load_scene, "predictions": load_predictions, "targets": load_targets,
            "panoptic": load_panoptic}


@pytest.fixture(scope="module")
def bundles(tmp_path_factory):
    """A saved 128x128 bundle of each kind, in a subdirectory named by the kind."""
    root = tmp_path_factory.mktemp("kinds")
    sc = generate_scene(SceneConfig(width=128, height=128, instances=2, seed=5))
    specs = default_level_specs()
    lt, gt = build_targets(sc, specs)
    save_scene(root / "scene", sc)
    save_predictions(root / "predictions", ideal_predictions(sc, specs))
    save_targets(root / "targets", TargetBundle(
        level_targets=lt, global_targets=gt, gt_boxes=sc.boxes, gt_classes=sc.instance_classes,
        gt_instances_quarter=sc.quarter_instance_map(), specs=specs, n_stuff=sc.n_stuff,
        n_things=sc.n_things, image_hw=(128, 128), mode="full"))
    save_panoptic(root / "panoptic", sc.panoptic, sc.n_stuff, sc.n_things)
    return root


class TestMetaSchema:
    @pytest.mark.parametrize("kind", sorted(_LOADERS))
    def test_untouched_bundles_load(self, bundles, kind):
        _LOADERS[kind](bundles / kind)

    @pytest.mark.parametrize("kind, edit, named", [
        pytest.param("predictions", _pop_meta("n_stuff"), "'n_stuff'", id="predictions-n_stuff-1"),
        pytest.param("predictions", _set_first("levels", "stride", "x"), "'levels'", id="predictions-levels-1"),
        pytest.param("predictions", _set_meta("levels", 5), "'levels'", id="predictions-levels-2"),
        pytest.param("predictions", _set_first("levels", "max_size", "inf"), "'levels'", id="predictions-levels-3"),
        pytest.param("predictions", _set_meta("n_things", True), "'n_things'", id="predictions-n_things-1"),
        pytest.param("predictions", _set_meta("height", 128.0), "'height'", id="predictions-height-1"),
        pytest.param("predictions", _drop_tensor("level3_offsets"), "'level3_offsets'", id="predictions-level3_offsets-1"),
        pytest.param("predictions", _drop_tensor("semantic_logits"), "'semantic_logits'", id="predictions-semantic_logits-1"),
        pytest.param("scene", _pop_meta("segments"), "'segments'", id="scene-segments-1"),
        pytest.param("scene", _set_meta("n_stuff", -1), "'n_stuff'", id="scene-n_stuff-1"),
        pytest.param("scene", _drop_tensor("boxes"), "'boxes'", id="scene-boxes-1"),
        pytest.param("targets", _set_meta("mode", "boxes"), "'mode'", id="targets-mode-1"),
        pytest.param("targets", _set_first("levels", "min_size", None), "'levels'", id="targets-levels-1"),
        pytest.param("targets", _drop_tensor("level0_class"), "'level0_class'", id="targets-level0_class-1"),
        pytest.param("panoptic", _set_first("segments", "score", "high"), "'segments'", id="panoptic-segments-1"),
        pytest.param("panoptic", _set_first("segments", "area", False), "'segments'", id="panoptic-segments-2"),
        pytest.param("panoptic", _pop_meta("n_things"), "'n_things'", id="panoptic-n_things-1"),
        pytest.param("panoptic", _drop_tensor("instance_map"), "'instance_map'", id="panoptic-instance_map-1"),
    ])
    def test_bad_meta_is_one_value_error_naming_the_key(self, bundles, tmp_path, kind, edit, named):
        path = tmp_path / kind
        shutil.copytree(bundles / kind, path)
        edit(path)
        with pytest.raises(ValueError, match=named) as exc:
            _LOADERS[kind](path)
        assert len(str(exc.value).splitlines()) == 1


def _pred_arrays(pred) -> dict:
    return {"semantic_logits": pred.semantic_logits, "levelness_logits": pred.levelness_logits,
            **{f"level{i}_{name}": getattr(lv, name) for i, lv in enumerate(pred.levels)
               for name in ("offsets", "class_probs", "centerness")}}


# kind -> every array of a loaded value by its tensor name in the bundle
_LOADED_ARRAYS = {
    "scene": lambda sc: {"class_map": sc.panoptic.class_map, "instance_map": sc.panoptic.instance_map,
                         "boxes": sc.boxes, "instance_classes": sc.instance_classes},
    "predictions": _pred_arrays,
    "targets": lambda t: t.tensors(),
    "panoptic": lambda loaded: {"class_map": loaded[0].class_map, "instance_map": loaded[0].instance_map},
}


def _shapes(shape: list) -> list:
    """Manifest shapes near `shape`: permuted, flattened, padded, resized or hostile."""
    return [shape, shape[::-1], [math.prod(shape)], [*shape, 1], [1, *shape], [shape[0] + 1, *shape[1:]],
            [0], [], [2 ** 40], [-1, *shape[1:]], [float(shape[0]), *shape[1:]]]


class TestOneEditOfAKind:
    """Every loader refuses a bundle with one edit, with exactly one ValueError,
    or returns exactly the arrays the edited bundle holds."""

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(sorted(_LOADERS)), st.data())
    def test_one_edit_is_refused_or_exact(self, bundles, tmp_path_factory, kind, data):
        path = tmp_path_factory.mktemp("edit") / kind
        shutil.copytree(bundles / kind, path)
        manifest = json.loads((path / "manifest.json").read_text())
        expect = {e["name"]: read_tensor(path, e["name"]) for e in manifest["tensors"]}
        floats = [name for name, arr in expect.items() if arr.dtype == np.float32 and arr.size]
        edit = data.draw(st.sampled_from(["key", "length"] + ["value"] * bool(floats)), label="edit")
        if edit == "key":
            entry = data.draw(st.sampled_from(manifest["tensors"]), label="entry")
            key = data.draw(st.sampled_from(["name", "dtype", "shape", "file"]), label="key")
            value = data.draw(st.sampled_from({
                "name": [*expect, "zz", "level9_offsets", "../class_map"],
                "dtype": [*DTYPES, "i64", None],
                "shape": _shapes(entry["shape"]),
                "file": [entry["name"] + ".bin"]}[key]), label="value")
            index = manifest["tensors"].index(entry)
            edit_manifest(path, lambda m: m["tensors"][index].__setitem__(key, value))
        elif edit == "length":
            size = (path / "tensors.bin").stat().st_size
            cut = data.draw(st.integers(-4, -1) | st.integers(1, size), label="bytes cut (< 0 appends)")
            with open(path / "tensors.bin", "r+b") as f:
                f.truncate(size - cut)
        else:
            name = data.draw(st.sampled_from(floats), label="tensor")
            index = data.draw(st.integers(0, expect[name].size - 1), label="index")
            value = data.draw(st.sampled_from([np.nan, np.inf, -np.inf, 3e38, -3e38]), label="value")
            set_value(path, name, index, value)
            expect[name].flat[index] = value
        try:
            loaded = _LOADERS[kind](path)
        except ValueError as exc:
            assert len(str(exc).splitlines()) == 1
            event(f"{edit} refused")
            return
        event(f"{edit} accepted")
        got = _LOADED_ARRAYS[kind](loaded)
        assert got.keys() == expect.keys()
        for name, arr in got.items():
            assert (arr.dtype, arr.shape) == (expect[name].dtype, expect[name].shape), name
            assert arr.tobytes() == expect[name].tobytes(), name
