"""Write BENCH_<pr>.json, the perfbench numbers that perf claims cite.

Run from anywhere inside the repository:

    python3 scripts/write_bench.py 21

Every workload of ``BENCHMARK.json`` runs ``perfbench/run.py`` at seed 1 for
the file's ``run_seconds``, once with ``--trace 0`` (end-to-end metrics) and
once with ``--trace 1`` (per-layer metrics), one run at a time.
``BENCH_<pr>.json`` at the repository root then holds one record per run
(workload, trace flag, attempted and failed image counts, input and output
sha256 and the metrics of its result line) and the environment: nproc and
the numpy and Python versions of perfbench's ``environment:`` line, and the
``src/densepanoptic/*.py`` line count. If a run exits non-zero, prints no
result or fails an image, the file is not written and the exit status is 1.
"""

from __future__ import annotations

import json
import subprocess
import sys

from compare_digests import ROOT, parse_run, run_perfbench, src_lines
from compare_speed import parse_metrics

SEED = 1
_ENV = "environment: "


def parse_environment(stdout: str) -> dict | None:
    """nproc and the numpy and Python versions of a perfbench transcript's
    environment line, or None if it holds none."""
    line = next((line for line in stdout.splitlines() if line.startswith(_ENV)), None)
    if line is None:
        return None
    env = json.loads(line[len(_ENV):])
    return {key: env[key] for key in ("nproc", "numpy", "python")}


def run_record(workload: str, trace: int, proc: subprocess.CompletedProcess) -> tuple[dict | None, str]:
    """The record of one perfbench run, or None, with the reason."""
    run, metrics = parse_run(proc.stdout), parse_metrics(proc.stdout)
    if proc.returncode or run is None or metrics is None:
        return None, f"exited {proc.returncode} without a result"
    if run["failed"]:
        return None, f"failed {run['failed']} of {run['attempted']} images"
    return {"workload": workload, "trace": trace, "attempted": run["attempted"], "failed": run["failed"],
            "input_sha256": run["input"], "output_sha256": run["output"], "metrics": metrics}, "ok"


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1 or not argv[0].isdigit():
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs, env = [], None
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = run_perfbench(ROOT, workload, SEED, spec["run_seconds"], trace=trace)
            record, why = run_record(workload, trace, proc)
            print(f"{workload} trace {trace}: {why}", flush=True)
            if record is None:
                return 1
            runs.append(record)
            env = env or parse_environment(proc.stdout)
    out = ROOT / f"BENCH_{argv[0]}.json"
    out.write_text(json.dumps({"pr": int(argv[0]), "seed": SEED, "seconds": spec["run_seconds"],
                               "environment": {**(env or {}), "src_lines": src_lines(ROOT)}, "runs": runs},
                              indent=2) + "\n")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
