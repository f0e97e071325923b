import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from densepanoptic.assignment import build_targets
from densepanoptic.bundle import (
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
from densepanoptic.fields import default_level_specs
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
        raw = tmp_path / "b" / "a.bin"
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
        assert manifest["format"] == "tensor-bundle-v1"
        (entry,) = [t for t in manifest["tensors"] if t["name"] == "a"]
        assert entry["dtype"] == "f32" and entry["shape"] == [2]


class TestManifestSchema:
    def _bundle(self, tmp_path):
        tensors = {"a": np.arange(6, dtype=np.float32).reshape(2, 3),
                   "b": np.arange(4, dtype=np.uint16)}
        write_bundle(tmp_path / "b", tensors)
        mpath = tmp_path / "b" / "manifest.json"
        return tensors, mpath, json.loads(mpath.read_text())

    def test_file_outside_bundle_rejected(self, tmp_path):
        _, mpath, manifest = self._bundle(tmp_path)
        (tmp_path / "outside.bin").write_bytes(np.zeros(6, np.float32).tobytes())
        manifest["tensors"][0]["file"] = "../outside.bin"
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
    @given(st.integers(0, 1), st.sampled_from(["name", "dtype", "shape", "file", None]),
           st.sampled_from([None, 0, -1, 6, 2.0, True, "a", "b", "c", "a.bin", "b.bin", "c.bin",
                            "../outside.bin", "/etc/passwd", "f32", "u16", "u8", "i64",
                            [], [6], [3, 2], [2, 3], [4], [2, 2], [-1, -6], [2.0, 3], [True, 6],
                            {}, ["f32"]]),
           st.booleans())
    def test_mutated_manifest_is_rejected_or_exact(self, tmp_path_factory, index, key, value, drop):
        tmp_path = tmp_path_factory.mktemp("m")
        tensors, mpath, manifest = self._bundle(tmp_path)
        (tmp_path / "outside.bin").write_bytes(np.zeros(6, np.float32).tobytes())
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
        for name, arr in back.items():
            assert arr.dtype == tensors[name].dtype
            assert arr.tobytes() == tensors[name].tobytes()


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


class TestTargetBundle:
    def test_round_trip(self, tmp_path):
        sc = generate_scene(SceneConfig(width=256, height=128, instances=4, seed=7))
        specs = default_level_specs()
        levels, glob = build_targets(sc, specs, "full")
        bundle = TargetBundle(
            level_targets=levels, global_targets=glob,
            gt_boxes=sc.boxes, gt_classes=sc.instance_classes,
            gt_instances_quarter=sc.quarter_instance_map(),
            specs=specs, n_stuff=sc.n_stuff, n_things=sc.n_things,
            image_hw=(sc.height, sc.width), mode="full")
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

    def test_ppm_writer_shape_checked(self, tmp_path):
        with pytest.raises(ValueError):
            write_ppm(tmp_path / "x.ppm", np.zeros((4, 4), np.uint8))
