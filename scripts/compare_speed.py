"""Time the working tree against a git ref on one perfbench workload, in pairs.

Run from anywhere inside the repository:

    python3 scripts/compare_speed.py HEAD~1 --workload train_targets --pairs 10 --seconds 8 --seed 1

The ref is extracted with ``git archive`` into a temporary directory, as
``compare_digests.py`` does. Each pair runs ``perfbench/run.py --trace 0`` once
on the ref and once on the working tree, with the same seed and run length;
the first pair starts with the ref and later pairs alternate which side runs
first. One line per pair gives every end-to-end metric of ``BENCHMARK.json``
on both sides. The summary gives, per metric, each side's median and
quartiles, the pairs each side won (ties count for neither) and whether
the gain rule holds: the tree wins at least nine tenths of the pairs and its
median is better than the ref's by more than the ref's interquartile range.
The exit status is 1 if any run printed no result, failed an image or
computed other digests than its pair; otherwise 0.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from compare_digests import ROOT, compare, extract, parse_run, run_perfbench


def parse_metrics(stdout: str) -> dict | None:
    """The end-to-end metric values of one perfbench transcript, from its
    last line (the result object), or None if it holds no result."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    if not isinstance(result, dict) or "metrics" not in result:
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (inclusive method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> list[dict]:
    """Per end-to-end metric of `metrics` (BENCHMARK.json entries with `name`
    and `better`), the ref's and tree's quartiles over the (ref, tree) metric
    dicts of `pairs`, the pairs each side won and whether the gain rule holds."""
    rows = []
    for spec in metrics:
        name, lower = spec["name"], spec["better"] == "lower"
        ref = [r[name] for r, _ in pairs]
        tree = [t[name] for _, t in pairs]
        tree_wins = sum((t < r) if lower else (t > r) for r, t in zip(ref, tree))
        ref_wins = sum((t > r) if lower else (t < r) for r, t in zip(ref, tree))
        rq, tq = quartiles(ref), quartiles(tree)
        gap = (rq[1] - tq[1]) if lower else (tq[1] - rq[1])
        rows.append({"name": name, "better": spec["better"], "ref": rq, "tree": tq, "ref_wins": ref_wins,
                     "tree_wins": tree_wins, "pairs": len(pairs),
                     "gain": tree_wins >= math.ceil(0.9 * len(pairs)) and gap > rq[2] - rq[0]})
    return rows


def format_rows(rows: list[dict]) -> list[str]:
    out = [f"{'metric':<16s} {'better':<6s} {'ref median [q1, q3]':>28s} {'tree median [q1, q3]':>28s} "
           f"{'wins ref/tree/pairs':>19s}  gain"]
    for row in rows:
        ref, tree = (f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]" for q in (row["ref"], row["tree"]))
        wins = f"{row['ref_wins']}/{row['tree_wins']}/{row['pairs']}"
        out.append(f"{row['name']:<16s} {row['better']:<6s} {ref:>28s} {tree:>28s} "
                   f"{wins:>19s}  {'yes' if row['gain'] else 'no'}")
    return out


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("ref")
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    if args.pairs < 1 or not args.seconds > 0:
        p.error("--pairs and --seconds must be positive")
    all_ok = True
    pairs = []
    with tempfile.TemporaryDirectory(prefix="compare-speed-") as tmp:
        try:
            extract(args.ref, Path(tmp))
        except subprocess.CalledProcessError as exc:
            print(f"error: git archive {args.ref}: {exc.stderr.decode().strip()}", file=sys.stderr)
            return 2
        for k in range(args.pairs):
            sides = [Path(tmp), ROOT] if k % 2 == 0 else [ROOT, Path(tmp)]
            out = {side: run_perfbench(side, args.workload, args.seed, args.seconds).stdout for side in sides}
            ref_out, tree_out = out[Path(tmp)], out[ROOT]
            ok, why = compare(parse_run(ref_out), parse_run(tree_out))
            values = parse_metrics(ref_out), parse_metrics(tree_out)
            if ok and None in values:
                ok, why = False, "no result object"
            all_ok &= ok
            shown = ", ".join(f"{n} {values[0][n]:.4g} -> {values[1][n]:.4g}" for n in values[0]) if ok else why
            print(f"pair {k + 1} ({'ref' if k % 2 == 0 else 'tree'} first): {shown}", flush=True)
            if ok:
                pairs.append(values)
    if pairs:
        print(f"workload {args.workload} seed {args.seed}, {args.seconds:g} s runs, {len(pairs)} pairs, ref -> tree")
        print("\n".join(format_rows(summarize(pairs, spec["end_to_end"]))))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
