import numpy as np
import pytest

from densepanoptic.bundle import load_panoptic, load_scene
from densepanoptic.cli import main


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

    def test_failure_is_single_line_nonzero(self, tmp_path, capsys):
        code, out, err = run(capsys, "synth", "--out", str(tmp_path / "s"),
                             "--width", "100")  # not divisible by 128
        assert code == 1
        assert err.strip().startswith("error:")
        assert len(err.strip().splitlines()) == 1

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

    def test_nan_prediction_bundle_is_clean_error(self, scene_and_preds, capsys):
        d = scene_and_preds
        raw = d / "preds" / "semantic_logits.bin"
        logits = np.frombuffer(raw.read_bytes(), dtype="<f4").copy()
        logits[17] = np.nan
        raw.write_bytes(logits.tobytes())
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


class TestBenchCommand:
    def test_tiny_bench_runs(self, capsys):
        code, out, err = run(capsys, "bench", "--width", "64", "--height", "32",
                             "--queries", "4", "--threads", "2", "--repeat", "1")
        assert code == 0, err
        assert "construct" in out
        assert "speedup" in out

    def test_no_naive_skips_oracle(self, capsys):
        code, out, _ = run(capsys, "bench", "--width", "64", "--height", "32",
                           "--queries", "4", "--threads", "2", "--repeat", "1",
                           "--no-naive")
        assert code == 0
        assert "naive" not in out
