"""Benchmark of the wellclust pipeline and its baselines.

Run from the repository root:

    python3 perfbench/run.py --workload sbm9k_pipeline --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs one untraced round, then installs the span wrappers
(see ``tracing.py``) and reports the per-layer metrics of one traced round,
with the tracing overhead. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it print each metric with its unit and the
run record. ``--record-reference`` stores this seed's op outputs as the
reference later runs are checked against.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_REFERENCE = HERE / "reference.json"
DEFAULT_OUT = ROOT / ".perfbench_out"

# Instance generation is repeated this many times per run; setup_s is the
# import time plus the median.
SETUPS = 3

# Pinned before numpy loads (so numpy is imported only inside functions
# here): with the sweep's pool threads on every core, multithreaded BLAS
# would oversubscribe them.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s", "run_s": "s", "peak_rss_mb": "MB", "ok_frac": "frac",
    "op_p90_ms": "ms", "prunemerge_ms": "ms", "naive_ms": "ms",
}


def pin_threads() -> int:
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ["WELLCLUST_THREADS"] = str(min(8, nproc))
    return nproc


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every instance, for the tests")
    parser.add_argument("--reference", type=Path, default=DEFAULT_REFERENCE)
    parser.add_argument("--record-reference", action="store_true")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def timed(fn):
    gc.collect()
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def end_to_end(observed, failed, import_s, setup_times, round_times):
    import numpy as np

    # A mean, not a median: the ops of one algorithm fall in groups of
    # different cost (one per instance family), and the median lands on
    # the edge of a group, where it swings with the instances of the seed.
    def algo_ms(algo):
        vals = [o.ms for o in observed if o.algo == algo and o.ms is not None]
        return statistics.fmean(vals) if vals else 0.0

    ms = [o.ms for o in observed if o.ms is not None]
    return {
        "setup_s": import_s + statistics.median(setup_times),
        "run_s": statistics.median(round_times),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (len(observed) - failed) / len(observed),
        "op_p90_ms": float(np.percentile(ms, 90)) if ms else 0.0,
        "prunemerge_ms": algo_ms("prunemerge"),
        "naive_ms": algo_ms("naive"),
    }


def run_record(args, nproc, import_s, setup_times, round_times, observed,
               failed, checked) -> dict:
    import numpy
    import scipy
    from wellclust import experiment
    return {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "trace": args.trace, "seconds": args.seconds,
        "rounds": len(round_times), "setups": len(setup_times),
        "import_s": import_s, "setup_gen_s": setup_times,
        "round_s": round_times, "ops": len(observed), "failed": failed,
        "reference": "checked" if checked else "none for seed",
        "nproc": nproc, "os_cpu_count": os.cpu_count(),
        "pool_threads": experiment.default_thread_count(),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in (SRC / "wellclust").glob("*.py")),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = pin_threads()
    if not (SRC / "wellclust" / "__init__.py").is_file():
        print(f"perfbench: wellclust sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import wellclust
    if Path(wellclust.__file__).resolve().parent != SRC / "wellclust":
        print(f"perfbench: imported wellclust from {wellclust.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads
    import_s = time.perf_counter() - _START

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one "
              f"of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed, args.scale)
    reference = (json.loads(args.reference.read_text())
                 if args.reference.is_file() else {})
    expected = None if args.record_reference else reference.get(
        args.workload, {}).get(args.scale, {}).get(str(args.seed))

    traced = args.trace == 1 or args.record_reference
    tracer = tracing.Tracer() if traced else None
    setup_times = []
    for _ in range(1 if traced else SETUPS):
        if tracer is not None:
            tracer.install()
        try:
            setup_times.append(timed(workload.setup)[0])
        finally:
            if tracer is not None:
                tracer.uninstall()

    observed, round_times = [], []
    if not args.record_reference:
        start = time.perf_counter()
        while True:
            seconds, got = timed(workload.round)
            round_times.append(seconds)
            observed += got
            if traced or time.perf_counter() - start >= args.seconds:
                break
    if tracer is not None:
        tracer.phase = "run"
        tracer.install()
        try:
            traced_s, got = timed(workload.round)
        finally:
            tracer.uninstall()
        workloads.merge_traced(workload, tracer.op_spans("run"), got)
        observed += got

    failures = [
        f"{obs.key}: {obs.problem or ref_problem}"
        for obs, ref_problem in zip(
            observed, workloads.reference_problems(observed, expected))
        if obs.problem or ref_problem]
    failed = len(failures)

    if args.record_reference:
        if failed:
            print("\n".join(failures[:20]), file=sys.stderr)
            print("perfbench: not recording a reference from failing ops",
                  file=sys.stderr)
            return 1
        entry = {obs.key: obs.fields for obs in observed}
        reference.setdefault(args.workload, {}).setdefault(
            args.scale, {})[str(args.seed)] = entry
        args.reference.write_text(json.dumps(reference, indent=0,
                                             sort_keys=True) + "\n")
        print(f"recorded {len(entry)} ops for {args.workload} seed "
              f"{args.seed} in {args.reference}")
        return 0

    if traced:
        metrics = tracing.layer_metrics(tracer)
        untraced_s = statistics.median(round_times)
        metrics["trace.run_s"] = traced_s
        metrics["trace.untraced_run_s"] = untraced_s
        metrics["trace.overhead_s"] = traced_s - untraced_s
        units = {name: tracing.unit_of(name) for name in metrics}
    else:
        metrics = end_to_end(observed, failed, import_s, setup_times,
                             round_times)
        units = END_TO_END_UNITS

    record = run_record(args, nproc, import_s, setup_times, round_times,
                        observed, failed, expected is not None)
    for name, value in metrics.items():
        print(f"{name:34s} {value:16.6f} {units[name]}")
    for line in failures[:20]:
        print(f"FAILED {line}")
    print(json.dumps({"record": record}))
    op_ms = {}
    for obs in observed:
        if obs.ms is not None:
            op_ms.setdefault(obs.algo, []).append(obs.ms)
    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (args.out / f"{stem}.json").write_text(json.dumps(
        {"record": record, "metrics": metrics, "failures": failures,
         "op_ms": op_ms}, indent=1) + "\n")
    if tracer is not None:
        tracer.write(args.out / f"{stem}-spans.jsonl")
    print(json.dumps({
        "correct": failed == 0, "attempted": len(observed), "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # noqa: BLE001  (no result line on a crash)
        traceback.print_exc()
        sys.exit(1)
