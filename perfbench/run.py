"""Benchmark entry point: runs each workload in fresh processes and prints its metrics.

    python3 perfbench/run.py --workload resolve-small --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

With ``--trace 0`` the last line is the JSON result with the end-to-end
metrics of BENCHMARK.json; with ``--trace 1`` it carries the per-layer
metrics.  Set-up time is measured here, from starting a worker process to
its READY line, in several workers spread before and after the measured one,
and reported as the minimum.  Unlike the op times, it is not scaled by host
speed (see hostspeed.py): set-up time follows the reference kernel's swings
only in part, and scaling made it spread more, not less.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
DEFAULT_SEED = 1
# Set-up-only workers run before and after the measured one, on each side at
# least this many and for at least this long, and the least sample is kept.
# A slow spell of the host only adds time, and the measured worker parts the
# two groups by the length of a run, so a spell seldom covers every sample.
SETUP_SIDE_COUNT, SETUP_SIDE_S = 2, 1.0


class WorkerFailed(RuntimeError):
    pass


def spawn(args: list[str]) -> tuple[float, dict | None]:
    """Run one worker; (seconds from start to READY, its RESULT or None)."""
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args], stdout=subprocess.PIPE, text=True, cwd=ROOT
    )
    ready, result = None, None
    try:
        for line in proc.stdout:
            if ready is None and line == "READY\n":
                ready = perf_counter() - t0
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            else:
                sys.stdout.write(line)
        rc = proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if rc != 0 or ready is None:
        raise WorkerFailed(f"worker {' '.join(args)} exited with code {rc}")
    return ready, result


def setup_samples(args: list[str]) -> list[float]:
    samples, t0 = [], perf_counter()
    while len(samples) < SETUP_SIDE_COUNT or perf_counter() - t0 < SETUP_SIDE_S:
        samples.append(spawn(args + ["--setup-only"])[0])
    return samples


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "toresolve").rglob("*.py"))


def run_workload(name: str, seed: int, seconds: float, trace: int, bench: dict) -> dict:
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    setups = [] if trace else setup_samples(base)
    ready, result = spawn(base)
    setups += [ready] + ([] if trace else setup_samples(base))
    measured = dict(result["metrics"], setup_s=min(setups))
    measured["code.src_lines"] = src_lines()
    print(f"{name}: src/toresolve has {measured['code.src_lines']} lines (ungated)")
    if not trace:
        print(f"{name}: setup_s samples " + " ".join(f"{s:.4f}" for s in setups))
    metrics = {}
    for spec in bench["per_layer" if trace else "end_to_end"]:
        value = measured.get(spec["name"])
        if value is None and spec["name"] != "latency_tail_s":
            raise WorkerFailed(f"metric {spec['name']} was not measured")
        if value is not None:
            metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
            print(f"{name}: {spec['name']} = {value:.6g} {spec['unit']}")
    failed, attempted = result["failed"], result["attempted"]
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description="toresolve benchmark")
    parser.add_argument("--workload", required=True, choices=workloads + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "toresolve" / "__init__.py").is_file():
        print(f"no toresolve sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        for name in workloads if args.workload == "all" else [args.workload]:
            result = run_workload(name, args.seed, args.seconds, args.trace, bench)
            print(json.dumps(result), flush=True)
    except WorkerFailed as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
