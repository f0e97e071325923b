"""The benchmark's own calls into the library keep working.

perfbench's `InferCity.thread_speedup` calls `assemble_global_boxes` and
`construct_masks(..., global_boxes=, threads=)` directly, outside the
untraced image loop, so only a traced `infer_city` run would reach it
otherwise.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402


def test_infer_city_thread_speedup_reports_no_failure(tmp_path):
    w = workloads.make_workload("infer_city", 1, tmp_path, pool=1)
    try:
        w.setup()
        speedup, failures = w.thread_speedup(2, reps=1)
    finally:
        w.close()
    assert failures == []
    assert speedup > 0
