"""grassatlas benchmark: one workload per run, end-to-end or traced per-layer metrics.

    python3 gabench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are ``verify_suite``, ``transport_n256`` and ``ladder_preservation``
(see ``workloads.py`` and ``README.md``).  ``--workload all`` runs the three in
turn.  With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it runs the same ops untraced and then traced, and reports the
per-layer metrics from the spans.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The exit code
is 0 when every output passed its gate and 1 otherwise.
"""

from __future__ import annotations

import os

# Single-threaded BLAS, pinned before numpy is imported anywhere.
BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PINS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 8

END_TO_END = (("setup_s", "s"), ("op_ms_p50", "ms"), ("op_ms_p90", "ms"),
              ("ops_per_s", "1/s"), ("peak_heap_mb", "MB"))


def _import_library():
    """Import grassatlas from this checkout's ``src`` and nowhere else."""
    if not (SRC / "grassatlas" / "__init__.py").is_file():
        raise SystemExit(f"error: no grassatlas sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import grassatlas
    if Path(grassatlas.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: grassatlas imported from {grassatlas.__file__}, not {SRC}")


def _environment(args, sizes) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": os.cpu_count(), "cpu": cpu, "blas_pins": BLAS_PINS,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "setup_repeats": SETUP_REPEATS, "sizes": sizes.__dict__}


def _cold_import_seconds() -> float:
    """Time a fresh interpreter takes to import grassatlas (what every CLI call pays).

    Measured inside the child, so interpreter start-up, which no change to the
    library can move, stays out of it.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = ("import time; start = time.perf_counter(); import grassatlas; "
            "print(time.perf_counter() - start)")
    child = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                           capture_output=True, text=True)
    return float(child.stdout)


def _errors():
    from grassatlas import GrassAtlasError
    # trace_pairing raises ArithmeticError, outside the GrassAtlasError hierarchy
    return (GrassAtlasError, ArithmeticError)


def run_ops(workload, *, until: float | None = None, count: int | None = None,
            first: int = 0, tracer=None) -> tuple[list[float], int]:
    """Closed loop: build op i, time its call, gate its output, then issue op i + 1.

    Runs ops ``first, first + 1, ...`` until the ``time.perf_counter()`` deadline
    ``until`` (at least one op) or exactly ``count`` ops.  Returns the per-op
    latencies in seconds and the number of failed ops.
    """
    errors = _errors()
    latencies: list[float] = []
    failed = 0
    index = first
    while (index < first + count) if count is not None else \
            (index == first or time.perf_counter() < until):
        ok = False
        start = time.perf_counter()
        try:
            op = workload.op(index)
            if tracer is not None:
                tracer.op, tracer.enabled = index, True
                with tracer.span(f"op.{op.kind}"):
                    start = time.perf_counter()
                    result = op.run()
                    elapsed = time.perf_counter() - start
                tracer.enabled = False
            else:
                start = time.perf_counter()
                result = op.run()
                elapsed = time.perf_counter() - start
            ok = bool(op.check(result))
        except errors as exc:
            elapsed = time.perf_counter() - start
            print(f"op {index} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        finally:
            if tracer is not None:
                tracer.enabled = False
        latencies.append(elapsed)
        failed += not ok
        index += 1
    return latencies, failed


def _timed_setup(workload) -> float:
    start = time.perf_counter()
    workload.setup()
    return time.perf_counter() - start


def _peak_heap_mb(workload) -> tuple[float, int]:
    """tracemalloc peak over set-up plus one untimed pass of every op kind."""
    tracemalloc.start()
    try:
        workload.setup()
        _, failed = run_ops(workload, count=len(workload.kinds))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2 ** 20, failed


def _quantile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def end_to_end(workload, seconds: float) -> tuple[dict, int, int]:
    """Untraced run: set-up time, latency percentiles, service rate, heap peak.

    The window is cut into SETUP_REPEATS segments, each opened by one timed
    set-up, so set-up and ops sample the same stretch of machine time.
    """
    peak_mb, failed = _peak_heap_mb(workload)
    setups: list[float] = []
    latencies: list[float] = []
    start = time.perf_counter()
    for part in range(1, SETUP_REPEATS + 1):
        setups.append(_cold_import_seconds() + _timed_setup(workload))
        until = start + seconds * part / SETUP_REPEATS
        segment, segment_failed = run_ops(workload, until=until, first=len(latencies))
        latencies += segment
        failed += segment_failed
    values = {
        "setup_s": statistics.median(setups),
        "op_ms_p50": statistics.median(latencies) * 1e3,
        "op_ms_p90": _quantile(latencies, 9) * 1e3,
        "ops_per_s": len(latencies) / sum(latencies),
        "peak_heap_mb": peak_mb,
    }
    return values, len(latencies) + len(workload.kinds), failed


def per_layer(workload, seconds: float) -> tuple[dict, int, int, list[str]]:
    """Untraced passes over the first ``trace_ops`` ops for half the time, then
    one traced pass over set-up and the same ops.

    Per-layer values are totals over that single traced pass, so they describe
    a fixed amount of work whatever the machine speed.
    """
    from grassatlas.verify import checks
    from spans import Tracer, missing_layers, per_layer_metrics

    check_names = [d.name for d in checks.registry()]
    count = workload.trace_ops
    workload.setup()
    plain, failed = [], 0
    until = time.perf_counter() + seconds / 2
    while not plain or time.perf_counter() < until:
        latencies, pass_failed = run_ops(workload, count=count)
        plain.append(sum(latencies))
        failed += pass_failed
    tracer = Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        workload.setup()
        tracer.enabled = False
        traced, traced_failed = run_ops(workload, count=count, tracer=tracer)
    finally:
        tracer.enabled = False
        tracer.uninstall()
    overhead = sum(traced) / statistics.median(plain) - 1.0
    values = per_layer_metrics(tracer, check_names, overhead)
    tracer.write(OUT / f"spans-{workload.name}.tsv")
    return (values, count * (len(plain) + 1), failed + traced_failed,
            missing_layers(tracer, workload.name, check_names))


def run(name: str, seed: int, seconds: float, trace: bool, sizes) -> dict:
    """One workload run; returns the result object printed as the last line."""
    from spans import per_layer_spec
    from workloads import WORKLOADS
    from grassatlas.verify import checks

    workload = WORKLOADS[name](seed, sizes)
    missing: list[str] = []
    if trace:
        values, attempted, failed, missing = per_layer(workload, seconds)
        spec = per_layer_spec([d.name for d in checks.registry()])
    else:
        values, attempted, failed = end_to_end(workload, seconds)
        spec = END_TO_END
    for layer in missing:
        print(f"{name}: predicted layer {layer} recorded no call", file=sys.stderr)
    metrics = {metric: {"value": values[metric], "unit": unit} for metric, unit in spec}
    return {"correct": failed == 0 and not missing, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def _print_human(name: str, result: dict) -> None:
    print(f"# {name}: attempted={result['attempted']} failed={result['failed']} "
          f"fail_frac={result['failed'] / result['attempted']:.4g} correct={result['correct']}")
    for metric, entry in result["metrics"].items():
        print(f"#   {metric} = {entry['value']:.6g} {entry['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify_suite", "transport_n256", "ladder_preservation", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_library()
    from workloads import WORKLOADS, Sizes

    sizes = Sizes()
    print("# env " + json.dumps(_environment(args, sizes), sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run(name, args.seed, args.seconds, bool(args.trace), sizes)
        _print_human(name, results[name])
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}.{metric}": entry for name, r in results.items()
                             for metric, entry in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
