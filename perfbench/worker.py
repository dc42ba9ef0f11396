"""One workload in one fresh process: set up, then a closed loop of ops.

Started by run.py, which times set-up from process start to the READY line
and reads the result from the line starting with RESULT.  The loop sends the
next op only after the previous one returned, one op at a time, on one
thread.  Every op's output is checked after its timed region; a failed op is
counted and the run goes on.

    python3 perfbench/worker.py --workload resolve-small --seed 1 --seconds 15 --trace 0
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
DIGESTS = HERE / "digests"
sys.path.insert(0, str(ROOT / "src"))

MIN_OPS = 11  # enough ops that latency_tail_s has 10 samples beyond it
WALL_CAP_S = 150  # stop taking new ops after this, so the process ends within 180 s
UNTRACED_CAP_S = 60  # end the traced run's untraced pass here, leaving time to trace its ops
TAIL_BEYOND = 10


def run_op(wl, spec, arg, workdir, recorded, tracer=None, op_id=None):
    """(wall seconds, output digest or None, failure message or None) of one op.

    With ``recorded`` None the output is checked but not compared with a digest.
    """
    if tracer is not None:
        tracer.op = op_id
    t0 = perf_counter()
    try:
        out = wl.run(arg, workdir)
    except Exception as e:  # a failing op is counted and reported; the loop goes on
        return perf_counter() - t0, None, f"raised {type(e).__name__}: {e}"
    finally:
        if tracer is not None:
            tracer.op = None
    dt = perf_counter() - t0
    try:
        err = wl.check(spec, out)
        digest = wl.digest(out)
    except Exception as e:  # a malformed output fails its op, not the run
        return dt, None, f"output check raised {type(e).__name__}: {e}"
    if err is None and recorded is not None and recorded.get(spec.key) != digest:
        err = f"digest {digest} differs from the recorded {recorded.get(spec.key)}"
    return dt, digest, err


class Failures:
    def __init__(self, workload: str):
        self.workload, self.count = workload, 0

    def add(self, spec, err) -> None:
        self.count += 1
        if self.count <= 5:
            print(f"{self.workload}: FAILED {spec.key}: {err}", file=sys.stderr)


def measure(wl, stream, workdir, recorded, seconds, started):
    from hostspeed import Scaler, harrell_davis

    lat, keys, failures, timed, scaler = [], [], Failures(wl.name), 0.0, Scaler()
    wall0, cpu0 = perf_counter(), process_time()
    for spec, arg in stream:
        scaler.before_op()
        dt, _digest, err = run_op(wl, spec, arg, workdir, recorded)
        timed += scaler.after_op(dt)
        lat.append(dt)
        keys.append(spec.key)
        if err:
            failures.add(spec, err)
        whole = len(lat) % wl.block == 0 and len(lat) >= MIN_OPS
        if (whole and timed >= seconds) or perf_counter() - started > WALL_CAP_S:
            break
    wall, cpu = perf_counter() - wall0, process_time() - cpu0
    n = len(lat)
    scaled = scaler.scaled(lat)
    # Equal inputs do equal work, so their times differ by noise alone: each
    # op's latency is the mean scaled time of the run's ops on its input.
    by_key = {}
    for key, t in zip(keys, scaled):
        by_key.setdefault(key, []).append(t)
    per_op = [statistics.fmean(by_key[key]) for key in keys]
    metrics = {
        "throughput_ops_per_s": n / sum(scaled),
        "latency_p50_s": harrell_davis(per_op, 0.5),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    ordered = sorted(lat)
    print(f"{wl.name}: {n} ops, {sum(lat):.3f} s timed ({timed:.3f} s scaled), {failures.count} failed "
          f"(failed_ops_ratio {failures.count / n:.6f}); loop used {cpu:.3f} s cpu in {wall:.3f} s wall")
    refs = sorted(scaler.samples)
    print(f"{wl.name}: {len(refs)} reference samples, median {refs[len(refs) // 2]:.6f} s "
          f"(range {refs[0]:.6f} to {refs[-1]:.6f}); unscaled throughput {n / sum(lat):.6g} 1/s, "
          f"unscaled plain median {(ordered[(n - 1) // 2] + ordered[n // 2]) / 2:.6g} s")
    if n <= TAIL_BEYOND:
        print(f"{wl.name}: latency_tail_s omitted: {n} ops")
    else:
        pct = (n - TAIL_BEYOND) / n
        metrics["latency_tail_s"] = harrell_davis(per_op, pct)
        print(f"{wl.name}: latency_tail_s is p{100 * pct:.2f} of {n} samples, {TAIL_BEYOND} beyond it; "
              f"unscaled order statistic {ordered[n - TAIL_BEYOND - 1]:.6g} s")
    return n, failures.count, metrics


def trace(wl, stream, workdir, recorded, seed, started):
    """Untraced pass, then the same ops traced; per-layer metrics and overhead.

    Both passes run one whole cycle, the ``wl.pool`` ops, so the
    per-layer counts repeat from run to run.  Only the wall-time caps, which
    keep the process within 180 s, can cut a pass short; the output then says
    so, and its counts are not comparable with other runs.
    """
    from tracer import Tracer

    ops = list(itertools.islice(stream, wl.pool))
    failures, untraced = Failures(wl.name), []
    for spec, arg in ops:
        result = run_op(wl, spec, arg, workdir, recorded)
        untraced.append(result)
        if result[2]:
            failures.add(spec, result[2])
        if perf_counter() - started > UNTRACED_CAP_S:
            break
    tracer = Tracer()
    tracer.install()
    traced = []
    try:
        for i, ((spec, arg), (_dt, base_digest, _err)) in enumerate(zip(ops, untraced)):
            if perf_counter() - started > WALL_CAP_S:
                break
            dt, digest, err = run_op(wl, spec, arg, workdir, recorded, tracer, i)
            if err is None and digest != base_digest:
                err = f"traced digest {digest} differs from untraced {base_digest}"
            if err:
                failures.add(spec, err)
            traced.append(dt)
    finally:
        tracer.uninstall()
    n = len(traced)
    if n < len(ops):
        print(f"{wl.name}: TRUNCATED: traced {n} of {len(ops)} ops before the wall-time cap; "
              "the per-layer counts of this run are not comparable with other runs")
    untraced_s = sum(r[0] for r in untraced[:n])
    covered = tracer.root_times()
    metrics = tracer.layer_metrics()
    metrics.update({
        "trace.ops": n,
        "trace.spans": len(tracer.spans),
        "trace.untraced_ops_per_s": n / untraced_s,
        "trace.traced_ops_per_s": n / sum(traced),
        "trace.overhead_ratio": sum(traced) / untraced_s,
        "trace.unattributed_s": sum(dt - covered[i] for i, dt in enumerate(traced)),
    })
    OUT_DIR.mkdir(exist_ok=True)
    spans_file = OUT_DIR / f"spans-{wl.name}-seed{seed}.json"
    tracer.write(str(spans_file))
    print(f"{wl.name}: traced {n} ops, {len(tracer.spans)} spans written to "
          f"{spans_file.relative_to(ROOT)}; {failures.count} failed")
    for name in tracer.missing:
        print(f"{wl.name}: {name} not found in toresolve; its metrics read 0")
    return len(untraced) + n, failures.count, metrics


def main(argv=None) -> int:
    started = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15,
                        help="timed op seconds of an untraced run; a traced run takes its fixed op set")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="exit after printing READY")
    args = parser.parse_args(argv)

    import toresolve

    source = Path(toresolve.__file__).resolve()
    if source.parent != ROOT / "src" / "toresolve":
        print(f"toresolve imported from {source}, not from this checkout", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    digest_file = DIGESTS / f"{wl.name}.json"
    recorded = json.loads(digest_file.read_text()) if digest_file.exists() else {}
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        stream = workloads.inputs(wl, args.seed, workdir)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            attempted, failed, metrics = trace(wl, stream, workdir, recorded, args.seed, started)
        else:
            attempted, failed, metrics = measure(wl, stream, workdir, recorded, args.seconds, started)
    print("RESULT " + json.dumps({"attempted": attempted, "failed": failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
