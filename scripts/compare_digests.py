"""Check that the working tree computes what a git ref computes, digest for digest.

Run from anywhere inside the repository:

    python3 scripts/compare_digests.py HEAD~1

The ref is extracted with ``git archive`` into a temporary directory. Both
checkouts then run ``perfbench/run.py --trace 0`` for every workload of the
working tree's ``BENCHMARK.json`` at seeds 1-3, one run at a time, each for a
short time (a run always covers every pool slot once). One line per run
compares the input and output sha256 of the two checkouts. A first line
gives the ``src/densepanoptic/*.py`` line count of the ref and of the working
tree. The exit status is 1 if any digest differs, any run failed an image, or
any run printed no result line; otherwise 0.
"""

from __future__ import annotations

import io
import json
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
SECONDS = 1.0

# perfbench/run.py prints this line once per run, before the metrics
_RUN_LINE = re.compile(
    r"^workload (?P<workload>\S+) seed (?P<seed>-?\d+): (?P<attempted>\d+) images attempted, "
    r"(?P<failed>\d+) failed; input sha256 (?P<input>[0-9a-f]{64}); "
    r"output sha256 (?P<output>[0-9a-f]{64})$", re.MULTILINE)


def parse_run(stdout: str) -> dict | None:
    """The workload, seed, attempted and failed counts and both digests of
    one perfbench transcript, or None if it holds no result line."""
    m = _RUN_LINE.search(stdout)
    if m is None:
        return None
    run = m.groupdict()
    for key in ("seed", "attempted", "failed"):
        run[key] = int(run[key])
    return run


def compare(ref_run: dict | None, tree_run: dict | None) -> tuple[bool, str]:
    """Whether two parsed runs agree and have no failed image, with the reason."""
    if ref_run is None or tree_run is None:
        side = "ref" if ref_run is None else "tree"
        return False, f"no result line from the {side} run"
    problems = [f"{key} sha256 differs" for key in ("input", "output") if ref_run[key] != tree_run[key]]
    problems += [f"{side} failed {run['failed']} of {run['attempted']}"
                 for side, run in (("ref", ref_run), ("tree", tree_run)) if run["failed"]]
    return not problems, "; ".join(problems) or "ok"


def src_lines(root: Path) -> int:
    """Lines of the package's modules, src/densepanoptic/*.py under `root`, as `wc -l` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (root / "src" / "densepanoptic").glob("*.py"))


def run_perfbench(root: Path, workload: str, seed: int) -> str:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(SECONDS), "--trace", "0"],
                          cwd=root, capture_output=True, text=True)
    if proc.returncode:
        sys.stderr.write(proc.stderr)
    return proc.stdout


def extract(ref: str, dest: Path) -> None:
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", ref],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1 or argv[0].startswith("-"):
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    all_ok = True
    with tempfile.TemporaryDirectory(prefix="compare-digests-") as tmp:
        try:
            extract(argv[0], Path(tmp))
        except subprocess.CalledProcessError as exc:
            print(f"error: git archive {argv[0]}: {exc.stderr.decode().strip()}", file=sys.stderr)
            return 2
        print(f"src/densepanoptic/*.py lines: ref {src_lines(Path(tmp))}, tree {src_lines(ROOT)}", flush=True)
        for workload in workloads:
            for seed in SEEDS:
                ref_run = parse_run(run_perfbench(Path(tmp), workload, seed))
                tree_run = parse_run(run_perfbench(ROOT, workload, seed))
                ok, why = compare(ref_run, tree_run)
                all_ok &= ok
                digest = (tree_run or ref_run or {}).get("output", "-")[:12]
                print(f"{workload} seed {seed}: output {digest} {'ok' if ok else 'MISMATCH: ' + why}",
                      flush=True)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
