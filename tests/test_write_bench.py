import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
import write_bench  # noqa: E402

IN, OUT = "0d134dc9" * 8, "3639357c" * 8


def transcript(workload: str, trace: int, failed: int = 0) -> str:
    """Standard output of one `perfbench/run.py` run."""
    metrics = {"selection.nms_ms": 2.5} if trace else {"image_p50_ms": 12.5, "peak_rss_mb": 130.0}
    result = {"correct": not failed, "attempted": 11, "failed": failed,
              "metrics": {k: {"value": v, "unit": "ms"} for k, v in metrics.items()}}
    return ('environment: {"nproc": 2, "numpy": "2.4.6", "python": "3.11.7", "src_lines": 2933, '
            '"threads_pinned": {}}\n'
            f"workload {workload} seed 1: 11 images attempted, {failed} failed; input sha256 {IN}; "
            f"output sha256 {OUT}\n  image_p50_ms = 12.5 ms\n{json.dumps(result)}\n")


def fake_tree(tmp_path, monkeypatch, fail=None):
    """A repository root with the real BENCHMARK.json, one 3-line module and
    perfbench stubbed: the run named `fail` (workload, trace) fails an image."""
    shutil.copy(write_bench.ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "src" / "densepanoptic").mkdir(parents=True)
    (tmp_path / "src" / "densepanoptic" / "a.py").write_text("a = 1\nb = 2\nc = 3\n")
    calls = []

    def fake_run(root, workload, seed, seconds, trace=0):
        calls.append((root, workload, seed, seconds, trace))
        stdout = transcript(workload, trace, failed=int((workload, trace) == fail))
        return subprocess.CompletedProcess(["run.py"], 0, stdout, "")

    monkeypatch.setattr(write_bench, "ROOT", tmp_path)
    monkeypatch.setattr(write_bench, "run_perfbench", fake_run)
    return calls


def test_writes_six_runs_with_digests_and_environment(tmp_path, monkeypatch, capsys):
    calls = fake_tree(tmp_path, monkeypatch)
    assert write_bench.main(["21"]) == 0
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    assert calls == [(tmp_path, name, 1, spec["run_seconds"], trace) for name in names for trace in (0, 1)]
    bench = json.loads((tmp_path / "BENCH_21.json").read_text())
    assert bench["pr"] == 21 and bench["seed"] == 1 and bench["seconds"] == spec["run_seconds"]
    assert bench["environment"] == {"nproc": 2, "numpy": "2.4.6", "python": "3.11.7", "src_lines": 3}
    assert [(r["workload"], r["trace"]) for r in bench["runs"]] == [(n, t) for n in names for t in (0, 1)]
    first, traced = bench["runs"][:2]
    assert first == {"workload": names[0], "trace": 0, "attempted": 11, "failed": 0, "input_sha256": IN,
                     "output_sha256": OUT, "metrics": {"image_p50_ms": 12.5, "peak_rss_mb": 130.0}}
    assert traced["metrics"] == {"selection.nms_ms": 2.5}
    assert capsys.readouterr().out.splitlines()[-1] == "wrote BENCH_21.json"


def test_a_failed_image_writes_nothing(tmp_path, monkeypatch, capsys):
    calls = fake_tree(tmp_path, monkeypatch, fail=("cli_small", 1))
    assert write_bench.main(["21"]) == 1
    assert not (tmp_path / "BENCH_21.json").exists()
    assert capsys.readouterr().out.splitlines()[-1] == "cli_small trace 1: failed 1 of 11 images"
    assert (calls[-1][1], calls[-1][4]) == ("cli_small", 1)  # no run after the failed one


def test_a_run_without_a_result_is_refused():
    crashed = subprocess.CompletedProcess(["run.py"], 1, "Traceback (most recent call last):\n", "")
    assert write_bench.run_record("infer_city", 0, crashed) == (None, "exited 1 without a result")


def test_environment_line():
    assert write_bench.parse_environment(transcript("infer_city", 0)) == {
        "nproc": 2, "numpy": "2.4.6", "python": "3.11.7"}
    assert write_bench.parse_environment("") is None


def test_usage_needs_one_pr_number():
    assert write_bench.main([]) == 2
    assert write_bench.main(["next"]) == 2
