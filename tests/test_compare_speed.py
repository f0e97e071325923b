import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
import compare_speed  # noqa: E402

SPEC = json.loads((compare_speed.ROOT / "BENCHMARK.json").read_text())["end_to_end"]
IN, OUT = "0d134dc9" * 8, "3639357c" * 8


def transcript(p50: float, per_s: float) -> str:
    """Standard output of one `perfbench/run.py --trace 0` run."""
    metrics = {"setup_s": (0.5, "s"), "images_per_s": (per_s, "1/s"), "image_p50_ms": (p50, "ms"),
               "image_tail_ms": (p50 + 10, "ms"), "peak_rss_mb": (130.0, "MB")}
    result = {"correct": True, "attempted": 11, "failed": 0,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return (f"workload train_targets seed 1: 11 images attempted, 0 failed; input sha256 {IN}; "
            f"output sha256 {OUT}\n  image_p50_ms = {p50:g} ms\n{json.dumps(result)}\n")


def test_parses_the_result_object():
    got = compare_speed.parse_metrics(transcript(124.5, 8.0))
    assert got == {"setup_s": 0.5, "images_per_s": 8.0, "image_p50_ms": 124.5, "image_tail_ms": 134.5,
                   "peak_rss_mb": 130.0}
    assert compare_speed.parse_metrics("Traceback (most recent call last):\n  ...\n") is None
    assert compare_speed.parse_metrics("") is None


def test_summary_of_ten_pairs():
    ref = [120.0, 124.0, 118.0, 130.0, 126.0, 122.0, 125.0, 121.0, 119.0, 128.0]
    tree = [90.0, 93.0, 88.0, 95.0, 92.0, 91.0, 94.0, 89.0, 125.0, 96.0]  # pair 9 lost
    pairs = [(compare_speed.parse_metrics(transcript(r, 1000 / r)), compare_speed.parse_metrics(transcript(t, 1000 / t)))
             for r, t in zip(ref, tree)]
    rows = {row["name"]: row for row in compare_speed.summarize(pairs, SPEC)}
    p50 = rows["image_p50_ms"]
    assert p50["ref"] == pytest.approx((120.25, 123.0, 125.75))
    assert p50["tree"] == pytest.approx((90.25, 92.5, 94.75))
    assert (p50["ref_wins"], p50["tree_wins"], p50["pairs"], p50["gain"]) == (1, 9, 10, True)
    assert rows["images_per_s"]["tree_wins"] == 9 and rows["images_per_s"]["gain"]  # higher is better
    peak = rows["peak_rss_mb"]  # ties count for neither side
    assert (peak["ref_wins"], peak["tree_wins"], peak["gain"]) == (0, 0, False)
    lines = compare_speed.format_rows(list(rows.values()))
    assert len(lines) == 1 + len(SPEC)
    assert lines[3].split() == ["image_p50_ms", "lower", "123", "[120.2,", "125.8]", "92.5", "[90.25,",
                                "94.75]", "1/9/10", "yes"]


def test_gain_needs_nine_tenths_and_a_gap_wider_than_the_ref_spread():
    def gain(ref, tree):
        pairs = [({"image_p50_ms": r}, {"image_p50_ms": t}) for r, t in zip(ref, tree)]
        return compare_speed.summarize(pairs, [{"name": "image_p50_ms", "better": "lower"}])[0]["gain"]

    ref = [100.0 + k for k in range(10)]
    assert gain(ref, [r - 10 for r in ref])
    assert not gain(ref, [r - 10 for r in ref[:8]] + ref[8:])  # 8 of 10 wins
    assert not gain(ref, [r - 1 for r in ref])  # 10 of 10, inside the ref's IQR of 4.5


def test_usage_errors():
    with pytest.raises(SystemExit):
        compare_speed.main([])
    with pytest.raises(SystemExit):
        compare_speed.main(["HEAD", "--workload", "train_targets", "--pairs", "0"])
