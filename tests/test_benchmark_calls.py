"""The benchmark's own calls into the library keep working.

perfbench's `InferCity.thread_speedup` calls `assemble_global_boxes` and
`construct_masks(..., global_boxes=, threads=)` directly, outside the
untraced image loop, and its tracer rebinds library names by their
attribute paths; only a traced `infer_city` run would reach either
otherwise.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def infer_city(tmp_path_factory):
    w = workloads.make_workload("infer_city", 1, tmp_path_factory.mktemp("infer_city"), pool=1)
    try:
        w.setup()
        yield w
    finally:
        w.close()


def test_infer_city_thread_speedup_reports_no_failure(infer_city):
    speedup, failures = infer_city.thread_speedup(2, reps=1)
    assert failures == []
    assert speedup > 0


def test_traced_infer_city_image_keeps_its_digest_and_spans(infer_city):
    untraced = infer_city.run_image(0, tracing.NullTracer())
    tr = tracing.Tracer()
    with tracing.instrument(tr):
        traced = infer_city.run_image(0, tr)
    assert untraced.failures == traced.failures == []
    assert traced.digest == untraced.digest
    names = {span[0] for span in tr.spans}
    assert {"fields.semantic_softmax", "maskcons.masks", "maskcons.fusion"} <= names
