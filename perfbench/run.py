"""Scene-driven benchmark of densepanoptic, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload infer_city --seed 1 --seconds 30 --trace 0

One client in one process sends each image only after the previous one has
finished (a closed loop at threads=1). The library is imported from ``src/``
of the checkout this file sits in. With ``--trace 0`` the run times the
untraced step chains and reports the end-to-end metrics; with ``--trace 1``
untraced and traced passes of each image alternate, and the run reports the
per-layer metrics from the traced passes plus the cost of tracing. Every
metric is printed by name and unit; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full result, with the environment and the output digest, goes to
``.perfbench_out/`` and the spans of a traced run beside it.
"""

import os

# pinned before numpy is imported, so BLAS never adds threads of its own
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPS = 3
MAX_FAILURE_LINES = 5

# the metrics of the result line, with their units, come from BENCHMARK.json
SPEC = ROOT / "BENCHMARK.json"


def parse_args(argv, spec: dict):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def import_library():
    """Import densepanoptic from this checkout's src/, never from elsewhere."""
    if not (SRC / "densepanoptic" / "__init__.py").is_file():
        raise SystemExit(f"error: no densepanoptic sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import densepanoptic

    if SRC.resolve() not in Path(densepanoptic.__file__).resolve().parents:
        raise SystemExit(f"error: densepanoptic was imported from {densepanoptic.__file__}")


def environment() -> dict:
    import numpy

    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {"nproc": len(os.sched_getaffinity(0)), "numpy": numpy.__version__,
            "python": platform.python_version(), "src_lines": src_lines,
            "threads_pinned": {v: os.environ[v] for v in
                               ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}}


def round_medians(images: dict[int, object], n_cases: int, key) -> float:
    """Median over complete rounds of the mean per-image value of ``key``.

    A round holds one image of each case; taking its mean first keeps the
    median of a workload whose cases differ in cost inside one round rather
    than at the edge between two clusters of cases."""
    rounds: dict[int, list[float]] = {}
    for k, img in images.items():
        rounds.setdefault(k // n_cases, []).append(key(img))
    means = [sum(v) / n_cases for v in rounds.values() if len(v) == n_cases]
    return statistics.median(means)


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value,
    percentile, sample count). Below eleven samples it is the maximum."""
    s = sorted(values)
    n = len(s)
    if n < 11:
        return s[-1], 100.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n


class WarningCounter(logging.Handler):
    """Counts the library's log records per layer instead of printing them,
    as an application that configures logging would."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.counts: dict[str, int] = {}

    def emit(self, record: logging.LogRecord) -> None:
        key = record.name.rsplit(".", 1)[-1] + ".warnings"
        self.counts[key] = self.counts.get(key, 0) + 1


class Loop:
    """Closed loop over a workload's images with checks and digests."""

    def __init__(self, workload, trace: bool):
        import tracing

        self.w = workload
        self.trace = trace
        self.tracer = tracing.Tracer()
        self.null = tracing.NullTracer()
        self.instrument = tracing.instrument
        self.untraced: dict[int, object] = {}
        self.traced: dict[int, object] = {}
        self.first: dict[int, bytes] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0

    def one(self, k: int, traced: bool):
        self.attempted += 1
        try:
            if traced:
                self.tracer.image = k
                with self.instrument(self.tracer):
                    img = self.w.run_image(k, self.tracer)
            else:
                img = self.w.run_image(k, self.null)
        except Exception as exc:  # the loop goes on; the image counts as failed
            self.failed += 1
            self.failures.append(f"image {k}: {type(exc).__name__}: {exc}")
            return None
        slot = k % self.w.cycle
        expect = self.first.setdefault(slot, img.digest)
        if img.digest != expect:
            img.failures.append(f"output digest differs from the first image of pool slot {slot}")
        if img.failures:
            self.failed += 1
            self.failures += [f"image {k}: {f}" for f in img.failures]
            return None
        return img

    def run(self, seconds: float) -> None:
        self.one(0, False)  # warm-up: lazy imports and first-touch allocations, untimed
        self.start = start = time.perf_counter()
        k = 0
        while k < self.w.cycle or time.perf_counter() - start < seconds:
            # whole rounds alternate which pass goes first, so neither the
            # traced nor the untraced pass always meets a warm cache
            order = (False, True) if (k // len(self.w.cases)) % 2 == 0 else (True, False)
            for traced in (order if self.trace else (False,)):
                img = self.one(k, traced)
                if img is not None:
                    (self.traced if traced else self.untraced)[k] = img
            k += 1

    def output_digest(self) -> str:
        h = hashlib.sha256()
        for slot in range(self.w.cycle):
            h.update(self.first.get(slot, b""))
        return h.hexdigest()


def end_to_end(loop: Loop, setup_times: list[float]) -> tuple[dict, dict]:
    w, imgs = loop.w, loop.untraced
    if not imgs:
        raise SystemExit(f"error: no image completed; first failures: {loop.failures[:MAX_FAILURE_LINES]}")
    n = len(w.cases)
    chain = [img.seconds for img in imgs.values()]
    value, pct, count = tail(chain)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "images_per_s": len(chain) / sum(chain),
        "image_p50_ms": round_medians(imgs, n, lambda i: i.seconds) * 1e3,
        "image_tail_ms": value * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {f"{step}_p50_ms": round_medians(imgs, n, lambda i, s=step: i.steps[s]) * 1e3
             for step in w.steps}
    for q in next(iter(imgs.values())).quality:
        extra[q] = statistics.mean(i.quality[q] for i in imgs.values())
    extra["failed_frac"] = loop.failed / loop.attempted
    extra["image_tail_percentile"] = pct
    extra["image_samples"] = count
    return metrics, extra


def per_layer(loop: Loop, thread_speedup: float | None) -> dict:
    import tracing

    rows = loop.tracer.per_image()
    for row in rows.values():
        if "selection.candidates" in row:
            row["selection.nms_keep_ratio"] = row["selection.queries"] / row["selection.candidates"]
        if row.get("maskcons.queries"):
            row["maskcons.mask_hit_ratio"] = row["maskcons.mask_pixels"] / (
                row["maskcons.queries"] * row["maskcons.quarter_pixels"])
            if row["maskcons.mask_pixels"]:
                row["maskcons.claim_ratio"] = row["maskcons.claimed_pixels"] / row["maskcons.mask_pixels"]
    out = tracing.medians(list(rows.values()))
    n = len(loop.w.cases)
    traced = round_medians(loop.traced, n, lambda i: i.seconds)
    untraced = round_medians({k: loop.untraced[k] for k in loop.traced if k in loop.untraced},
                             n, lambda i: i.seconds)
    out["trace.overhead_frac"] = traced / untraced - 1.0
    out["synth.generate_ms"] = statistics.median(loop.w.generate_s) * 1e3
    out["synth.predict_ms"] = statistics.median(loop.w.predict_s) * 1e3
    if thread_speedup is not None:
        out["maskcons.thread_speedup"] = thread_speedup
    return out


# unit of every other printed metric, by the end of its name
_SUFFIX_UNITS = (("_per_s", "1/s"), ("_ms", "ms"), ("_s", "s"), ("_mb", "MB"), ("_ratio", "ratio"),
                 ("_frac", "ratio"), ("pq", "ratio"), ("miou", "ratio"), ("_percentile", "%"),
                 ("_speedup", "x"), ("bytes_written", "B"), ("bytes_read", "B"))


def unit_of(name: str) -> str:
    return next((u for suffix, u in _SUFFIX_UNITS if name.endswith(suffix)), "count")


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text())
    args = parse_args(argv, spec)
    if args.seconds <= 0:
        raise SystemExit("error: --seconds must be positive")
    import_library()
    import workloads

    env = environment()
    warnings = WarningCounter()
    logging.getLogger("densepanoptic").addHandler(warnings)
    OUT.mkdir(exist_ok=True)
    w = workloads.make_workload(args.workload, args.seed, OUT / f"tmp-{os.getpid()}")
    try:
        setup_times = [w.setup() for _ in range(SETUP_REPS)]
        loop = Loop(w, trace=bool(args.trace))
        loop.run(args.seconds)
        speedup = None
        if args.trace and isinstance(w, workloads.InferCity):
            speedup, fails = w.thread_speedup(env["nproc"])
            loop.attempted += 1
            loop.failed += bool(fails)
            loop.failures += fails
        e2e, extra = end_to_end(loop, setup_times)
        extra.update(warnings.counts)
        layers = per_layer(loop, speedup) if args.trace else {}
        input_digest = w.input_digest()
    finally:
        w.close()

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "setup_runs_s": setup_times,
              "end_to_end": e2e, "workload_metrics": extra, "per_layer": layers,
              "attempted": loop.attempted, "failed": loop.failed,
              "failures": loop.failures[:MAX_FAILURE_LINES],
              "input_digest": input_digest, "output_digest": loop.output_digest(),
              "image_seconds": [[k, img.seconds] for k, img in sorted(loop.untraced.items())]}
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    if args.trace:
        (OUT / f"spans-{tag}.json").write_text(json.dumps(loop.tracer.dump(loop.start)))

    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: {loop.attempted} images attempted, "
          f"{loop.failed} failed; input sha256 {input_digest}; output sha256 {record['output_digest']}")
    for line in loop.failures[:MAX_FAILURE_LINES]:
        print(f"failure: {line}", file=sys.stderr)
    shown = {**e2e, **extra, **layers}
    for name in sorted(shown):
        print(f"  {name} = {shown[name]:.6g} {unit_of(name)}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    source = layers if args.trace else e2e
    result = {"correct": loop.failed == 0, "attempted": loop.attempted, "failed": loop.failed,
              "metrics": {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in wanted}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
