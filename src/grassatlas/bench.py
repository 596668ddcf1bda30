"""Per-layer timer over the public API: charts, coordinates, transitions, pushforward.

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \\
        python -m grassatlas.bench --n 8,64,256,512 --out BENCH_6.json --label change

At each n, with k = n/2, the timer builds charts near one seeded base pair and
times chart construction (``ChartId.hilbert`` and a split ``ChartId``) and, with
source and target charts of each flavor, ``chart_forward``, ``transition_base``,
``transition_tangent``, ``transition_cotangent``, ``pushforward_factors`` and
``pushforward_tensor``.  Each layer runs once untimed, then ``REPEATS`` timed
calls; the median and interquartile range in milliseconds go under
``columns[LABEL]`` of the output file, next to the numpy and BLAS versions, the
CPU count and the thread pins.  Columns already in the file are kept, so one
file holds the timings of several checkouts.

The thread pins are recorded, not set: BLAS reads them when numpy is first
imported, which happens before this module runs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

import grassatlas as ga

THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
FLAVORS = ("hilbert", "split")
REPEATS = 7
SEED = 0
PERTURBATION = 0.05
POINT_SCALE = 0.1


def _cgauss(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _layers(n: int) -> dict:
    """Zero-argument calls, one per timed layer, on charts near one base pair.

    Every chart is a small perturbation of the base pair (F, F-perp), so each
    holds the base point and its neighbours with a wide domain margin at any n.
    """
    k = n // 2
    rng = np.random.default_rng(SEED)
    base = ga.haar_frame(n, k, rng)
    perp = ga.Subspace(base).complement().basis.matrix

    def perturbed(b: np.ndarray) -> ga.Subspace:
        return ga.Subspace.from_span(b + PERTURBATION * _cgauss(rng, b.shape) / math.sqrt(n))

    f, g = perturbed(base), perturbed(perp)
    calls = {"ChartId.hilbert": lambda: ga.ChartId.hilbert(f),
             "ChartId.split": lambda: ga.ChartId(f, g)}
    for flavor in FLAVORS:
        src, dst = (ga.ChartId.hilbert(perturbed(base)) if flavor == "hilbert"
                    else ga.ChartId(perturbed(base), perturbed(perp)) for _ in range(2))
        coord = POINT_SCALE / math.sqrt(n) * _cgauss(rng, (n - k, k))
        pt = ga.ChartPoint(src, ga.Operator(coord))
        h = ga.chart_inverse(pt)
        covector = ga.Covector(pt, ga.Operator(_cgauss(rng, (k, n - k))))
        # the covector's entries, transposed: a fresh draw would shift every later instance
        tangent = ga.TangentVector(pt, covector.form.transpose())
        tensor = ga.TensorCovector(pt, tuple((_cgauss(rng, k), _cgauss(rng, n - k))
                                             for _ in range(3)))
        factors = ga.pushforward_factors(pt, dst)
        calls.update({
            f"chart_forward[{flavor}]": lambda h=h, dst=dst: ga.chart_forward(h, dst),
            f"transition_base[{flavor}]": lambda pt=pt, dst=dst: ga.transition_base(pt, dst),
            f"transition_tangent[{flavor}]":
                lambda v=tangent, dst=dst: ga.transition_tangent(v, dst),
            f"transition_cotangent[{flavor}]":
                lambda c=covector, dst=dst: ga.transition_cotangent(c, dst),
            f"pushforward_factors[{flavor}]":
                lambda pt=pt, dst=dst: ga.pushforward_factors(pt, dst),
            f"pushforward_tensor[{flavor}]":
                lambda tc=tensor, fs=factors, dst=dst: ga.pushforward_tensor(tc, fs, dst),
        })
    return calls


def _time(call) -> dict:
    call()
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        call()
        samples.append((time.perf_counter() - start) * 1e3)
    q1, median, q3 = np.percentile(samples, [25, 50, 75])
    return {"median_ms": float(median), "iqr_ms": float(q3 - q1)}


def _environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas_name,
            "nproc": os.cpu_count(),
            "thread_pins": {var: os.environ.get(var) for var in THREAD_PINS},
            "repeats": REPEATS, "seed": SEED, "k": "n/2"}


def run(sizes: list[int]) -> dict:
    """One column: the environment and ``layers[layer][n]`` timing statistics."""
    layers: dict[str, dict[str, dict]] = {}
    for n in sizes:
        for layer, call in _layers(n).items():
            layers.setdefault(layer, {})[str(n)] = _time(call)
    return {"env": _environment(), "layers": layers}


def _sizes(text: str) -> list[int]:
    try:
        sizes = [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if any(n < 2 for n in sizes):
        raise argparse.ArgumentTypeError("every n must be at least 2")
    return sizes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", type=_sizes, default=[8, 64, 256, 512],
                        help="comma-separated ambient dimensions (default 8,64,256,512)")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write or extend")
    parser.add_argument("--label", default="current", help="column name for this run")
    args = parser.parse_args(argv)

    report = {"schema": 1, "columns": {}}
    if args.out.is_file():
        try:
            report = json.loads(args.out.read_text(encoding="utf-8"))
            report["columns"].keys()
        except (ValueError, KeyError, TypeError, AttributeError):
            parser.error(f"{args.out} exists and is not a bench report")
    report["columns"][args.label] = run(args.n)
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
