"""Smoke test of the benchmark itself; not part of the repository's test suite.

Runs every workload untraced with ``--seconds 3`` (at least one block of ops)
and traced (its fixed op set, about one cycle), and checks that each run
passes its output checks and prints every metric BENCHMARK.json
names, with its unit, plus the layers each workload is meant to exercise.
Then checks that the benchmark fails, printing no result, in a directory that
holds only BENCHMARK.json and the benchmark's own files.

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# layers that must see calls on each workload, and ones that must not
EXERCISED = {
    "resolve-small": ["resolve3d.resolve", "resolve3d.canonical_modification", "classify.index_one_cover",
                      "hilbert.floor_facets", "cones.extreme_rays", "lattice.smith_normal_form",
                      "resolve3d.PolygonComplex.tags", "resolve3d.envelope_subdivision"],
    "classify": ["classify.classify", "hilbert.hilbert_basis", "classify.grading_slab", "classify.is_nakajima"],
    "cli-completions": ["cli.main", "cli.parse_job", "cli.serialize", "resolve3d.completion_for_bits",
                        "divisors.is_strictly_upper_convex"],
}
IDLE = {"classify": ["resolve3d.resolve", "cli.main"], "resolve-small": ["cli.main", "classify.classify"]}


def run(cwd: Path, workload: str, trace: int) -> tuple[int, list[str]]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "3", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout.splitlines()


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in EXERCISED:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            rc, lines = run(ROOT, workload, trace)
            if rc != 0 or not lines:
                problems.append(f"{workload} trace {trace}: exit code {rc}")
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"} or not result["correct"]:
                problems.append(f"{workload} trace {trace}: bad result {lines[-1][:200]}")
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            expected = {m["name"]: m["unit"] for m in bench[group]}
            if printed != expected:
                problems.append(f"{workload} trace {trace}: metrics differ: "
                                f"{sorted(set(printed) ^ set(expected))}")
            if trace:
                values = {k: v["value"] for k, v in result["metrics"].items()}
                problems += [f"{workload}: {layer} not exercised" for layer in EXERCISED[workload]
                             if not values.get(f"{layer}.calls", values.get(f"{layer}.self_s"))]
                problems += [f"{workload}: {layer} unexpectedly called" for layer in IDLE.get(workload, [])
                             if values[f"{layer}.calls"]]
            print(f"{workload} trace {trace}: {len(problems)} problems so far", flush=True)
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        rc, lines = run(Path(bare), "resolve-small", 0)
        if rc == 0 or any(line.startswith("{") for line in lines):
            problems.append(f"without the sources: exit code {rc}, output {lines[-1:]}")
        print(f"without the sources: exit code {rc}")
    for p in problems:
        print("PROBLEM", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
