import importlib.util
import subprocess
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_digests.py"
_spec = importlib.util.spec_from_file_location("compare_digests", SCRIPT)
compare_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_digests)

IN = "0d134dc9b86d889df190c3b4e6b3d2971141ca09e874b131a769769cf9b4f90e"
OUT = "3639357c99b0a0caec06225d4d13f9cdf45dd006eedab58b94d3780c243483eb"


def transcript(failed=0, output=OUT):
    """Standard output of one `perfbench/run.py --trace 0` run."""
    return (
        'environment: {"nproc": 2, "numpy": "2.4.6", "python": "3.11.7", "src_lines": 3163}\n'
        f"workload infer_city seed 1: 11 images attempted, {failed} failed; "
        f"input sha256 {IN}; output sha256 {output}\n"
        "  image_p50_ms = 79.9634 ms\n"
        "  setup_s = 0.635415 s\n"
        f'{{"correct": {str(not failed).lower()}, "attempted": 11, "failed": {failed}, "metrics": {{}}}}\n'
    )


def test_parses_the_result_line():
    assert compare_digests.parse_run(transcript()) == {
        "workload": "infer_city", "seed": 1, "attempted": 11, "failed": 0, "input": IN, "output": OUT}


def test_no_result_line_parses_to_none():
    assert compare_digests.parse_run("Traceback (most recent call last):\n  ...\n") is None
    assert compare_digests.parse_run("") is None


def test_compare_flags_digests_failures_and_missing_runs():
    run = compare_digests.parse_run(transcript())
    assert compare_digests.compare(run, run) == (True, "ok")
    other = compare_digests.parse_run(transcript(output="f" * 64))
    assert compare_digests.compare(run, other) == (False, "output sha256 differs")
    failed = compare_digests.parse_run(transcript(failed=2))
    assert compare_digests.compare(run, failed) == (False, "tree failed 2 of 11")
    assert compare_digests.compare(None, run) == (False, "no result line from the ref run")


def test_usage_without_a_ref():
    assert compare_digests.main([]) == 2


def test_src_lines_counts_newlines_of_the_package_modules(tmp_path):
    pkg = tmp_path / "src" / "densepanoptic"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\ny = 2\n")
    (pkg / "b.py").write_text("z = 3\n\n\n")
    (pkg / "notes.txt").write_text("not\ncounted\n")
    (tmp_path / "src" / "other.py").write_text("not counted\n")
    assert compare_digests.src_lines(tmp_path) == 5
    assert compare_digests.src_lines(compare_digests.ROOT) > 0


def test_traced_runs_must_exit_0_and_match_the_untraced_digests():
    untraced = compare_digests.parse_run(transcript())

    def proc(stdout, code=0):
        return subprocess.CompletedProcess(["run.py"], code, stdout, "")

    assert compare_digests.check_traced(untraced, proc(transcript())) == (True, "ok")
    assert compare_digests.check_traced(untraced, proc(transcript(failed=1))) == (False, "traced failed 1 of 11")
    assert compare_digests.check_traced(untraced, proc(transcript(output="f" * 64))) == (
        False, "output sha256 differs")
    assert compare_digests.check_traced(untraced, proc("Traceback (most recent call last):\n", 1)) == (
        False, "traced run exited 1; no result line from the traced run")
    assert compare_digests.check_traced(None, proc(transcript())) == (
        False, "no result line from the untraced run")


def test_run_perfbench_passes_the_trace_flag(monkeypatch, tmp_path):
    calls = []

    def fake_run(cmd, **kwargs):
        calls.append((cmd, kwargs["cwd"]))
        return subprocess.CompletedProcess(cmd, 0, transcript(), "")

    monkeypatch.setattr(compare_digests.subprocess, "run", fake_run)
    for trace in (0, 1):
        proc = compare_digests.run_perfbench(tmp_path, "infer_city", 2, trace=trace)
        assert proc.stdout == transcript()
        cmd, cwd = calls[-1]
        assert cwd == tmp_path and cmd[1] == "perfbench/run.py"
        assert cmd[2:] == ["--workload", "infer_city", "--seed", "2", "--seconds", str(compare_digests.SECONDS),
                           "--trace", str(trace)]
