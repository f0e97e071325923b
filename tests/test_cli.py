import argparse

import numpy as np
import pytest

from bundle_bytes import edit_manifest, read_tensor, set_value, splice
from densepanoptic import cli
from densepanoptic.bundle import load_panoptic, load_scene
from densepanoptic.cli import build_parser, main
from densepanoptic.pipeline import ConstructionParams


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSynthCommand:
    def test_writes_scene(self, tmp_path, capsys):
        code, out, err = run(capsys, "synth", "--out", str(tmp_path / "scene"),
                             "--width", "256", "--height", "128",
                             "--instances", "3", "--seed", "4")
        assert code == 0, err
        sc = load_scene(tmp_path / "scene")
        assert sc.n_instances == 3
        assert sc.height == 128 and sc.width == 256

    def test_writes_predictions_with_noise(self, tmp_path, capsys):
        code, _, err = run(capsys, "synth", "--out", str(tmp_path / "scene"),
                           "--width", "256", "--height", "128",
                           "--instances", "3", "--seed", "4",
                           "--preds-out", str(tmp_path / "preds"),
                           "--noise-offset-std", "2.0", "--noise-seed", "9")
        assert code == 0, err
        from densepanoptic.bundle import load_predictions

        pred = load_predictions(tmp_path / "preds")
        assert pred.image_hw == (128, 256)
        assert len(pred.levels) == 5

    def test_default_predictions_are_the_ideal_ones(self, tmp_path, capsys):
        from densepanoptic.bundle import save_predictions
        from densepanoptic.fields import default_level_specs
        from densepanoptic.synth import ideal_predictions

        code, _, err = run(capsys, "synth", "--out", str(tmp_path / "scene"), "--width", "256",
                           "--height", "128", "--instances", "3", "--seed", "3",
                           "--preds-out", str(tmp_path / "preds"))
        assert code == 0, err
        save_predictions(tmp_path / "ideal", ideal_predictions(load_scene(tmp_path / "scene"),
                                                               default_level_specs(5)))
        files = sorted(f.name for f in (tmp_path / "ideal").iterdir())
        assert files == sorted(f.name for f in (tmp_path / "preds").iterdir())
        for name in files:
            assert (tmp_path / "preds" / name).read_bytes() == (tmp_path / "ideal" / name).read_bytes()

    def test_failure_is_single_line_nonzero(self, tmp_path, capsys):
        code, out, err = run(capsys, "synth", "--out", str(tmp_path / "s"),
                             "--width", "100")  # not divisible by 128
        assert code == 1
        assert err.strip().startswith("error:")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("flag, value", [("--noise-offset-std", "nan"), ("--noise-semantic-flip", "nan"),
                                             ("--noise-centerness-std", "nan"), ("--noise-levelness-flip", "nan"),
                                             ("--noise-centerness-std", "inf")])
    def test_non_finite_noise_is_rejected(self, tmp_path, capsys, flag, value):
        code, out, err = run(capsys, "synth", "--out", str(tmp_path / "scene"), "--width", "128",
                             "--height", "128", "--instances", "2", "--preds-out", str(tmp_path / "preds"),
                             flag, value)
        assert (code, out) == (1, "") and not (tmp_path / "scene").exists()
        assert len(err.strip().splitlines()) == 1 and err.startswith("error: noise ")
        assert flag.removeprefix("--noise-").split("-")[0] in err

    def test_unknown_flag_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--out", str(tmp_path / "s"), "--bogus", "1"])
        assert exc.value.code != 0


class TestPipelineCommands:
    @pytest.fixture()
    def scene_and_preds(self, tmp_path, capsys):
        code, _, err = run(capsys, "synth", "--out", str(tmp_path / "scene"),
                           "--width", "256", "--height", "256",
                           "--instances", "4", "--seed", "11",
                           "--min-stuff-area", "4096",
                           "--preds-out", str(tmp_path / "preds"))
        assert code == 0, err
        return tmp_path

    def test_targets_construct_evaluate(self, scene_and_preds, capsys):
        d = scene_and_preds
        code, _, err = run(capsys, "targets", "--scene", str(d / "scene"),
                           "--out", str(d / "targets"))
        assert code == 0, err

        code, _, err = run(capsys, "construct", "--preds", str(d / "preds"),
                           "--out", str(d / "pan"))
        assert code == 0, err
        pm, meta = load_panoptic(d / "pan")
        assert pm.shape == (256, 256)

        code, out, err = run(capsys, "evaluate", "--pred", str(d / "pan"),
                             "--gt", str(d / "scene"))
        assert code == 0, err
        assert "PQ      : 1.000000" in out
        assert "mIoU    : 1.000000" in out

    def test_loss_zero_on_ideal_centered_scene(self, tmp_path, capsys):
        # centered family: one foreground location per instance, centerness
        # target exactly 1, so the ideal-prediction loss report is all zeros
        code, _, err = run(capsys, "synth", "--out", str(tmp_path / "scene"),
                           "--width", "256", "--height", "256",
                           "--instances", "4", "--seed", "11", "--centered",
                           "--preds-out", str(tmp_path / "preds"))
        assert code == 0, err
        code, _, err = run(capsys, "targets", "--scene", str(tmp_path / "scene"),
                           "--out", str(tmp_path / "targets"))
        assert code == 0, err

        code, out, err = run(capsys, "loss", "--preds", str(tmp_path / "preds"),
                             "--targets", str(tmp_path / "targets"))
        assert code == 0, err
        assert "total" in out
        for line in out.splitlines():
            if ":" in line and "weight" not in line:
                assert float(line.rsplit(":", 1)[1]) == 0.0

    def test_evaluate_accepts_archive_gt(self, scene_and_preds, capsys):
        d = scene_and_preds
        run(capsys, "construct", "--preds", str(d / "preds"), "--out", str(d / "pan"))
        code, out, err = run(capsys, "evaluate", "--pred", str(d / "pan"),
                             "--gt", str(d / "pan"))
        assert code == 0, err
        assert "PQ      : 1.000000" in out

    def test_evaluate_writes_report_file(self, scene_and_preds, capsys):
        d = scene_and_preds
        run(capsys, "construct", "--preds", str(d / "preds"), "--out", str(d / "pan"))
        code, _, _ = run(capsys, "evaluate", "--pred", str(d / "pan"),
                         "--gt", str(d / "scene"), "--out", str(d / "report.txt"))
        assert code == 0
        assert "PQ" in (d / "report.txt").read_text()

    def test_construct_thread_parity(self, scene_and_preds, capsys):
        d = scene_and_preds
        run(capsys, "construct", "--preds", str(d / "preds"), "--out", str(d / "p1"),
            "--threads", "1")
        run(capsys, "construct", "--preds", str(d / "preds"), "--out", str(d / "p4"),
            "--threads", "4")
        a, _ = load_panoptic(d / "p1")
        b, _ = load_panoptic(d / "p4")
        assert (a.class_map == b.class_map).all()
        assert (a.instance_map == b.instance_map).all()

    def test_assembly_parity_on_single_level(self, tmp_path, capsys):
        code, _, err = run(capsys, "synth", "--out", str(tmp_path / "scene"),
                           "--width", "256", "--height", "256",
                           "--instances", "4", "--seed", "13",
                           "--min-stuff-area", "4096",
                           "--levels", "1",
                           "--preds-out", str(tmp_path / "preds"))
        assert code == 0, err
        run(capsys, "construct", "--preds", str(tmp_path / "preds"),
            "--out", str(tmp_path / "lv"), "--assembly", "levelness")
        run(capsys, "construct", "--preds", str(tmp_path / "preds"),
            "--out", str(tmp_path / "mx"), "--assembly", "max-iou")
        a, _ = load_panoptic(tmp_path / "lv")
        b, _ = load_panoptic(tmp_path / "mx")
        assert (a.class_map == b.class_map).all()
        assert (a.instance_map == b.instance_map).all()

    def test_construct_ppm_flag(self, scene_and_preds, capsys):
        d = scene_and_preds
        code, _, _ = run(capsys, "construct", "--preds", str(d / "preds"),
                         "--out", str(d / "pan"), "--ppm")
        assert code == 0
        assert (d / "pan" / "view.ppm").read_bytes().startswith(b"P6\n")

    def test_construct_without_ppm_leaves_no_stale_view(self, scene_and_preds, capsys):
        d = scene_and_preds
        for flags in (["--ppm"], []):
            code, _, err = run(capsys, "construct", "--preds", str(d / "preds"), "--out", str(d / "pan_view"), *flags)
            assert code == 0, err
        assert sorted(p.name for p in (d / "pan_view").iterdir()) == ["manifest.json", "tensors.bin"]
        assert "view" not in load_panoptic(d / "pan_view")[1]

    def test_weak_mode_targets(self, scene_and_preds, capsys):
        d = scene_and_preds
        code, _, err = run(capsys, "targets", "--scene", str(d / "scene"),
                           "--out", str(d / "tw"), "--mode", "weak")
        assert code == 0, err
        from densepanoptic.bundle import load_targets

        assert load_targets(d / "tw").mode == "weak"

    def test_loss_lambda_flag(self, scene_and_preds, capsys):
        d = scene_and_preds
        run(capsys, "targets", "--scene", str(d / "scene"), "--out", str(d / "targets"))
        code, out, err = run(capsys, "loss", "--preds", str(d / "preds"),
                             "--targets", str(d / "targets"), "--lambda", "0.4")
        assert code == 0, err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-0.5"])
    def test_loss_rejects_a_non_finite_or_negative_lambda(self, scene_and_preds, capsys, value):
        d = scene_and_preds
        run(capsys, "targets", "--scene", str(d / "scene"), "--out", str(d / "targets"))
        code, out, err = run(capsys, "loss", "--preds", str(d / "preds"),
                             "--targets", str(d / "targets"), f"--lambda={value}")
        assert (code, out) == (1, "")
        assert err.startswith("error: semantic_weight must be a finite number >= 0")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("value", ["nan", "inf", "-0.01"])
    def test_construct_and_loss_reject_a_bad_score_thresh(self, scene_and_preds, capsys, value):
        d = scene_and_preds
        run(capsys, "targets", "--scene", str(d / "scene"), "--out", str(d / "targets"))
        for argv in (["construct", "--preds", str(d / "preds"), "--out", str(d / "pan")],
                     ["loss", "--preds", str(d / "preds"), "--targets", str(d / "targets")]):
            code, out, err = run(capsys, *argv, f"--score-thresh={value}")
            assert (code, out) == (1, ""), argv[0]
            assert err.startswith("error: score_thresh must be a finite number >= 0")
            assert len(err.strip().splitlines()) == 1
        assert not (d / "pan").exists()

    def test_nan_prediction_bundle_is_clean_error(self, scene_and_preds, capsys):
        d = scene_and_preds
        set_value(d / "preds", "semantic_logits", 17, np.nan)
        code, _, err = run(capsys, "construct", "--preds", str(d / "preds"),
                           "--out", str(d / "pan"))
        assert code == 1
        assert err.strip().startswith("error:") and "finite" in err
        assert len(err.strip().splitlines()) == 1
        assert not (d / "pan").exists()

    def test_missing_bundle_is_clean_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "construct", "--preds", str(tmp_path / "nope"),
                           "--out", str(tmp_path / "pan"))
        assert code == 1
        assert err.strip().startswith("error:")

    @pytest.mark.parametrize("raw", [b"not json", '{"format": "\u00e9"}'.encode("latin-1")],
                             ids=["not-json", "not-utf8"])
    def test_an_undecodable_manifest_is_named(self, scene_and_preds, capsys, raw):
        d = scene_and_preds
        (d / "preds" / "manifest.json").write_bytes(raw)
        code, out, err = run(capsys, "construct", "--preds", str(d / "preds"), "--out", str(d / "pan"))
        assert code == 1 and out == ""
        assert err.startswith(f"error: {d / 'preds' / 'manifest.json'} is not a JSON manifest: ")
        assert len(err.strip().splitlines()) == 1

    def test_zero_semantic_classes_are_refused(self, scene_and_preds, capsys):
        d = scene_and_preds
        splice(d / "preds", "semantic_logits", read_tensor(d / "preds", "semantic_logits")[..., :0])
        for i in range(5):
            splice(d / "preds", f"level{i}_class_probs", read_tensor(d / "preds", f"level{i}_class_probs")[..., :0])
        edit_manifest(d / "preds", lambda m: m["meta"].update(n_stuff=0, n_things=0))
        code, out, err = run(capsys, "construct", "--preds", str(d / "preds"), "--out", str(d / "pan"))
        assert code == 1 and out == ""
        assert err == "error: predictions need a semantic class, got n_stuff = n_things = 0\n"


class TestMetaErrors:
    @pytest.mark.parametrize("edit, named", [
        pytest.param(lambda p: edit_manifest(p, lambda m: m["meta"].pop("n_stuff")), "'n_stuff'", id="no-n_stuff"),
        pytest.param(lambda p: edit_manifest(p, lambda m: m["meta"]["levels"][0].__setitem__("stride", "x")),
                     "'levels'", id="stride-x"),
        pytest.param(lambda p: edit_manifest(p, lambda m: m["meta"].__setitem__("levels", 5)), "'levels'",
                     id="levels-5"),
        pytest.param(lambda p: splice(p, "level3_offsets", None), "'level3_offsets'", id="no-level3_offsets"),
    ])
    def test_construct_names_the_bad_key(self, tmp_path, capsys, edit, named):
        code, _, err = run(capsys, "synth", "--out", str(tmp_path / "scene"),
                           "--width", "128", "--height", "128", "--instances", "2",
                           "--preds-out", str(tmp_path / "preds"))
        assert code == 0, err
        edit(tmp_path / "preds")
        code, _, err = run(capsys, "construct", "--preds", str(tmp_path / "preds"),
                           "--out", str(tmp_path / "pan"))
        assert code == 1
        assert err.startswith("error:") and named in err
        assert len(err.strip().splitlines()) == 1

    def test_evaluate_names_missing_segments(self, tmp_path, capsys):
        run(capsys, "synth", "--out", str(tmp_path / "scene"), "--width", "128", "--height", "128",
            "--instances", "2")
        edit_manifest(tmp_path / "scene", lambda m: m["meta"].pop("segments"))
        code, _, err = run(capsys, "evaluate", "--pred", str(tmp_path / "scene"),
                           "--gt", str(tmp_path / "scene"))
        assert code == 1
        assert err.startswith("error:") and "'segments'" in err
        assert len(err.strip().splitlines()) == 1


def test_evaluate_rejects_tampered_stuff_segments(tmp_path, capsys):
    run(capsys, "synth", "--out", str(tmp_path / "scene"), "--width", "256", "--height", "256",
        "--instances", "4", "--seed", "11", "--min-stuff-area", "4096", "--preds-out", str(tmp_path / "preds"))
    run(capsys, "construct", "--preds", str(tmp_path / "preds"), "--out", str(tmp_path / "pan"))

    def tamper(manifest):
        segments = manifest["meta"]["segments"]
        next(s for s in segments if s["id"] == 0 and s["class_id"] == 1)["area"] += 12345
        segments.append({"id": 0, "class_id": 77, "area": 5, "score": 1.0})

    edit_manifest(tmp_path / "pan", tamper)
    code, _, err = run(capsys, "evaluate", "--pred", str(tmp_path / "pan"), "--gt", str(tmp_path / "scene"))
    assert code == 1
    assert err.startswith("error:") and "stuff segment of class 1" in err
    assert len(err.strip().splitlines()) == 1


def test_evaluate_reads_each_bundle_once(tmp_path, capsys, monkeypatch):
    from densepanoptic import bundle

    run(capsys, "synth", "--out", str(tmp_path / "scene"), "--width", "128", "--height", "128",
        "--instances", "2", "--preds-out", str(tmp_path / "preds"))
    run(capsys, "construct", "--preds", str(tmp_path / "preds"), "--out", str(tmp_path / "pan"))
    reads = []
    original = bundle.read_bundle

    def counting(path):
        reads.append(str(path))
        return original(path)

    monkeypatch.setattr(bundle, "read_bundle", counting)
    code, out, err = run(capsys, "evaluate", "--pred", str(tmp_path / "pan"), "--gt", str(tmp_path / "scene"))
    assert code == 0, err
    assert "PQ" in out
    assert reads == [str(tmp_path / "pan"), str(tmp_path / "scene")]


def test_evaluate_rejects_class_above_meta_counts(tmp_path, capsys):
    from densepanoptic.bundle import save_panoptic
    from densepanoptic.fields import PanopticMap, SegmentInfo

    cm = np.array([[1, 1, 9], [1, 9, 9]], np.uint16)
    im = np.array([[0, 0, 1], [0, 1, 1]], np.uint16)
    pmap = PanopticMap(cm, im, [SegmentInfo(1, 9, 3, 1.0), SegmentInfo(0, 1, 3, 1.0)])
    save_panoptic(tmp_path / "pan", pmap, n_stuff=1, n_things=8)  # save refuses n_things=1
    edit_manifest(tmp_path / "pan", lambda m: m["meta"].update(n_things=1))
    code, out, err = run(capsys, "evaluate", "--pred", str(tmp_path / "pan"), "--gt", str(tmp_path / "pan"))
    assert code == 1 and out == ""
    assert err.startswith("error:") and "class id 9 exceeds n_stuff + n_things = 2" in err
    assert len(err.strip().splitlines()) == 1


def test_evaluate_rejects_thing_class_on_instance_zero(tmp_path, capsys):
    from densepanoptic.bundle import save_panoptic
    from densepanoptic.fields import PanopticMap, SegmentInfo

    cm = np.array([[1, 2, 2], [1, 1, 2]], np.uint16)
    pmap = PanopticMap(cm, np.zeros_like(cm), [SegmentInfo(0, 1, 3, 1.0), SegmentInfo(0, 2, 3, 1.0)])
    save_panoptic(tmp_path / "pan", pmap, n_stuff=2, n_things=0)  # save refuses n_stuff=1, n_things=1
    edit_manifest(tmp_path / "pan", lambda m: m["meta"].update(n_stuff=1, n_things=1))
    code, out, err = run(capsys, "evaluate", "--pred", str(tmp_path / "pan"), "--gt", str(tmp_path / "pan"))
    assert code == 1 and out == ""
    assert err.startswith("error:") and "thing class 2 on instance 0 (n_stuff = 1)" in err
    assert len(err.strip().splitlines()) == 1


def test_targets_rejects_class_above_meta_counts(tmp_path, capsys):
    scene = tmp_path / "scene"
    run(capsys, "synth", "--out", str(scene), "--width", "128", "--height", "128", "--instances", "2")
    cm = read_tensor(scene, "class_map")
    cm[cm == 1] = 9
    splice(scene, "class_map", cm)
    edit_manifest(scene, lambda m: next(s for s in m["meta"]["segments"]
                                        if s["id"] == 0 and s["class_id"] == 1).__setitem__("class_id", 9))
    code, out, err = run(capsys, "targets", "--scene", str(scene), "--out", str(tmp_path / "targets"))
    assert code == 1 and out == ""
    assert err.startswith("error:") and "class id 9 exceeds n_stuff + n_things = 6" in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "targets").exists()


def test_loss_rejects_class_counts_differing_from_targets(tmp_path, capsys):
    size = ("--width", "128", "--height", "128", "--instances", "2")
    run(capsys, "synth", "--out", str(tmp_path / "scene"), *size)
    run(capsys, "synth", "--out", str(tmp_path / "other"), *size, "--stuff-classes", "2",
        "--thing-classes", "4", "--preds-out", str(tmp_path / "preds"))
    run(capsys, "targets", "--scene", str(tmp_path / "scene"), "--out", str(tmp_path / "targets"))
    code, out, err = run(capsys, "loss", "--preds", str(tmp_path / "preds"),
                         "--targets", str(tmp_path / "targets"))
    assert code == 1 and out == ""
    assert err.startswith("error:") and "(2, 4, (128, 128))" in err and "(3, 3, (128, 128))" in err
    assert len(err.strip().splitlines()) == 1


def _relabel_stuff_class_1_as_5(scene):
    cm = read_tensor(scene, "class_map")
    cm[cm == 1] = 5
    splice(scene, "class_map", cm)
    edit_manifest(scene, lambda m: next(s for s in m["meta"]["segments"]
                                        if s["id"] == 0 and s["class_id"] == 1).__setitem__("class_id", 5))


def _relabel_instance_1(scene):
    ic = read_tensor(scene, "instance_classes")
    set_value(scene, "instance_classes", 0, 4 if ic[0] != 4 else 5)


def _nan_box_1(scene):
    set_value(scene, "boxes", 0, np.nan)


@pytest.mark.parametrize("tamper, message", [
    pytest.param(_relabel_stuff_class_1_as_5, "thing-class pixels must belong to an instance", id="unowned-thing"),
    pytest.param(_relabel_instance_1, "instance 1 has pixels of a class other than its own", id="instance-class"),
    pytest.param(_nan_box_1, "instance boxes must be finite", id="nan-box"),
])
def test_targets_rejects_inconsistent_scene(tmp_path, capsys, tamper, message):
    scene = tmp_path / "scene"
    run(capsys, "synth", "--out", str(scene), "--width", "128", "--height", "128", "--instances", "2")
    tamper(scene)
    code, out, err = run(capsys, "targets", "--scene", str(scene), "--out", str(tmp_path / "targets"))
    assert code == 1 and out == ""
    assert err.startswith("error:") and message in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "targets").exists()


def _retype(bundle_dir, tensor, dtype):
    """Rewrite `tensor` of a bundle as element type `dtype`, its values cast."""
    from densepanoptic.bundle import DTYPES

    splice(bundle_dir, tensor, read_tensor(bundle_dir, tensor).astype(DTYPES[dtype]))


@pytest.mark.parametrize("bundle_dir, tensor, dtype, written, argv", [
    pytest.param("scene", "instance_classes", "f32", "u16", ["targets", "--scene", "scene", "--out", "t2"],
                 id="scene"),
    pytest.param("preds", "level0_centerness", "u8", "f32", ["construct", "--preds", "preds", "--out", "p2"],
                 id="predictions"),
    pytest.param("targets", "level0_class", "f32", "u16",
                 ["loss", "--preds", "preds", "--targets", "targets"], id="targets"),
    pytest.param("pan", "class_map", "f32", "u16", ["evaluate", "--pred", "pan", "--gt", "scene"], id="panoptic"),
])
def test_loaders_reject_a_tensor_of_another_dtype(tmp_path, capsys, monkeypatch, bundle_dir, tensor, dtype,
                                                  written, argv):
    monkeypatch.chdir(tmp_path)
    run(capsys, "synth", "--out", "scene", "--width", "128", "--height", "128", "--instances", "2",
        "--preds-out", "preds")
    run(capsys, "targets", "--scene", "scene", "--out", "targets")
    run(capsys, "construct", "--preds", "preds", "--out", "pan")
    _retype(tmp_path / bundle_dir, tensor, dtype)
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and f"tensor '{tensor}' must be {written}, got {dtype}" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("tensor, value", [
    pytest.param("gt_boxes", np.nan, id="nan-gt-box"),
    pytest.param("level0_offsets", np.nan, id="nan-offset"),
    pytest.param("level0_centerness", np.inf, id="inf-centerness"),
    pytest.param("level0_centerness", 5.0, id="centerness-above-1"),
])
def test_loss_rejects_bad_target_values(tmp_path, capsys, tensor, value):
    run(capsys, "synth", "--out", str(tmp_path / "scene"), "--width", "128", "--height", "128",
        "--instances", "2", "--preds-out", str(tmp_path / "preds"))
    run(capsys, "targets", "--scene", str(tmp_path / "scene"), "--out", str(tmp_path / "targets"))
    # a foreground cell, where the tampered value reaches a loss
    fg = np.flatnonzero(read_tensor(tmp_path / "targets", "level0_class"))
    index = {"gt_boxes": 0, "level0_offsets": 4 * fg[0], "level0_centerness": fg[0]}[tensor]
    set_value(tmp_path / "targets", tensor, index, value)
    code, out, err = run(capsys, "loss", "--preds", str(tmp_path / "preds"), "--targets", str(tmp_path / "targets"))
    assert code == 1 and out == ""
    assert err.startswith("error:") and f"tensor '{tensor}' must be" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("tensor, shape", [
    pytest.param("level0_class", (32, 64), id="class"),
    pytest.param("level0_offsets", (32, 64, 4), id="offsets"),
    pytest.param("level0_centerness", (32, 64), id="centerness"),
    pytest.param("semantics", (64, 128), id="semantics"),
])
def test_loss_rejects_a_transposed_target_tensor(tmp_path, capsys, tensor, shape):
    run(capsys, "synth", "--out", str(tmp_path / "scene"), "--width", "512", "--height", "256",
        "--instances", "4", "--preds-out", str(tmp_path / "preds"))
    run(capsys, "targets", "--scene", str(tmp_path / "scene"), "--out", str(tmp_path / "targets"))
    grid = read_tensor(tmp_path / "targets", tensor)
    assert grid.shape == shape
    splice(tmp_path / "targets", tensor, grid.swapaxes(0, 1))
    code, out, err = run(capsys, "loss", "--preds", str(tmp_path / "preds"), "--targets", str(tmp_path / "targets"))
    assert code == 1 and out == ""
    assert err.startswith("error:") and f"tensor '{tensor}' must be of shape {shape}" in err
    assert len(err.strip().splitlines()) == 1


def test_loss_rejects_instance_ids_past_the_boxes(tmp_path, capsys):
    run(capsys, "synth", "--out", str(tmp_path / "scene"), "--width", "128", "--height", "128",
        "--instances", "2", "--preds-out", str(tmp_path / "preds"))
    run(capsys, "targets", "--scene", str(tmp_path / "scene"), "--out", str(tmp_path / "targets"))
    set_value(tmp_path / "targets", "gt_instances_quarter", 0, 3)
    code, out, err = run(capsys, "loss", "--preds", str(tmp_path / "preds"), "--targets", str(tmp_path / "targets"))
    assert code == 1 and out == ""
    assert "tensor 'gt_instances_quarter' must be instance ids at most the box count" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("tensor, value, expect", [
    pytest.param("level0_class", 9, "0 or a thing class in [4, 6]", id="class-above-things"),
    pytest.param("level0_class", 2, "0 or a thing class in [4, 6]", id="class-stuff"),
    pytest.param("semantics", 9, "class ids in [1, 6]", id="semantics-above-classes"),
    pytest.param("semantics", 0, "class ids in [1, 6]", id="semantics-void"),
    pytest.param("levelness", 6, "level ids in [0, 5]", id="levelness-above-levels"),
])
def test_loss_rejects_out_of_range_target_labels(tmp_path, capsys, tensor, value, expect):
    run(capsys, "synth", "--out", str(tmp_path / "scene"), "--width", "128", "--height", "128",
        "--instances", "2", "--preds-out", str(tmp_path / "preds"))
    run(capsys, "targets", "--scene", str(tmp_path / "scene"), "--out", str(tmp_path / "targets"))
    set_value(tmp_path / "targets", tensor, -1, value)
    code, out, err = run(capsys, "loss", "--preds", str(tmp_path / "preds"), "--targets", str(tmp_path / "targets"))
    assert code == 1 and out == ""
    assert err.startswith("error:") and f"tensor '{tensor}' must be {expect}" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("classes", [
    pytest.param(lambda c: np.full(7, 999, c.dtype), id="seven-for-the-boxes"),
    pytest.param(lambda c: np.concatenate([c, c[:1]]), id="one-extra"),
    pytest.param(lambda c: np.full_like(c, 3), id="stuff-class"),
    pytest.param(lambda c: np.full_like(c, 7), id="above-things"),
])
def test_loss_rejects_bad_gt_classes(tmp_path, capsys, classes):
    run(capsys, "synth", "--out", str(tmp_path / "scene"), "--width", "128", "--height", "128",
        "--instances", "3", "--preds-out", str(tmp_path / "preds"))
    run(capsys, "targets", "--scene", str(tmp_path / "scene"), "--out", str(tmp_path / "targets"))
    splice(tmp_path / "targets", "gt_classes", classes(read_tensor(tmp_path / "targets", "gt_classes")))
    code, out, err = run(capsys, "loss", "--preds", str(tmp_path / "preds"), "--targets", str(tmp_path / "targets"))
    assert code == 1 and out == ""
    assert err.startswith("error:") and "tensor 'gt_classes' must be one thing class in [4, 6] per gt_boxes row" in err
    assert len(err.strip().splitlines()) == 1


def test_docstring_names_every_subcommand():
    """The module docstring's `a | b | ...` list is the registered CLI surface."""
    listed = cli.__doc__.splitlines()[0].split(":", 1)[1].rstrip(".").split("|")
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert [name.strip() for name in listed] == list(sub.choices)


def test_construct_and_loss_defaults_are_the_construction_params():
    d = ConstructionParams()
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    construct = sub.choices["construct"].parse_args(["--preds", "p", "--out", "o"])
    assert (construct.sigma, construct.nms_iou, construct.score_thresh, construct.topk, construct.assembly,
            construct.stuff_area_min, construct.threads) == (d.sigma, d.nms_iou, d.score_thresh, d.topk_per_level,
                                                             d.assembly, d.stuff_area_min, d.threads)
    loss = sub.choices["loss"].parse_args(["--preds", "p", "--targets", "t"])
    assert (loss.nms_iou, loss.score_thresh) == (d.nms_iou, d.score_thresh)


@pytest.mark.parametrize("value, code", [pytest.param(3e38, 1, id="overflowing"), pytest.param(1e18, 0, id="large")])
def test_construct_checks_the_decoded_box_area(tmp_path, capsys, value, code):
    import warnings

    run(capsys, "synth", "--out", str(tmp_path / "scene"), "--width", "128", "--height", "128",
        "--instances", "2", "--preds-out", str(tmp_path / "preds"))
    # the right offset of the most central level-0 cell, which becomes a query
    cent = read_tensor(tmp_path / "preds", "level0_centerness")
    set_value(tmp_path / "preds", "level0_offsets", 4 * int(np.argmax(cent)) + 2, value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning would fail the command
        got, out, err = run(capsys, "construct", "--preds", str(tmp_path / "preds"), "--out", str(tmp_path / "pan"))
    assert got == code, err
    if code:
        assert out == "" and len(err.strip().splitlines()) == 1
        assert "tensor 'level0_offsets' must be offsets with a finite box area (l + r) * (t + b)" in err
