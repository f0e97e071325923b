"""Tests of the benchmark itself: seeded inputs and outputs are reproducible,
and the command refuses to run without the library's sources.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracing  # noqa: E402
import workloads  # noqa: E402


def _digests(name: str, seed: int, workdir: Path) -> tuple[str, list[bytes]]:
    w = workloads.make_workload(name, seed, workdir, pool=1)
    try:
        w.setup()
        images = [w.run_image(k, tracing.NullTracer()) for k in range(w.cycle)]
    finally:
        w.close()
    assert all(not img.failures for img in images), [img.failures for img in images]
    return w.input_digest(), [img.digest for img in images]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_fixes_inputs_and_outputs(name, tmp_path):
    inputs, outputs = _digests(name, 3, tmp_path / "a")
    again_inputs, again_outputs = _digests(name, 3, tmp_path / "b")
    other_inputs, _ = _digests(name, 4, tmp_path / "c")
    assert inputs == again_inputs
    assert outputs == again_outputs
    assert other_inputs != inputs


def test_traced_pass_keeps_outputs(tmp_path):
    w = workloads.make_workload("cli_small", 5, tmp_path, pool=1)
    try:
        w.setup()
        plain = [w.run_image(k, tracing.NullTracer()).digest for k in range(w.cycle)]
        tr = tracing.Tracer()
        with tracing.instrument(tr):
            traced = [w.run_image(k, tr).digest for k in range(w.cycle)]
    finally:
        w.close()
    assert traced == plain
    assert {s[0] for s in tr.spans} >= {"selection.decode", "maskcons.masks", "maskcons.masks_maxiou",
                                        "bundle.save_predictions", "metrics.match"}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli_small", "--seed", "1",
                          "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
