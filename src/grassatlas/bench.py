"""Per-layer timer over the public API: charts, coordinates, transitions, pushforward.

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \\
        python -m grassatlas.bench --n 8,64,256,512 --out BENCH_7.json --label change

At each n, with k = n/2, the timer builds charts near one seeded base pair and
times chart construction (``ChartId.hilbert`` and a split ``ChartId``) and, with
source and target charts of each flavor, ``chart_forward``, ``transition_base``,
``transition_tangent``, ``transition_cotangent``, ``pushforward_factors``,
``pushforward_tensor`` and ``pushforward`` (factors, then the tensor map, on one
point).  It also times both chart constructors on the coordinate blocks of the
(n - k, k) polarized model, ``ChartId.hilbert[coordinate]`` on H_plus and
``ChartId.split[coordinate]`` on (H_plus, H_minus), ``membership_report`` of a
perturbed H_plus in that model, and ``Subspace.distance_to`` between two
perturbed k-subspaces.  On the swap pair of the (k, k) polarized model, which is
the (n - k, k) model at even n, with the point at coordinate t I, it times
``chart_forward[coordinate]`` and ``transition_cotangent[coordinate]``: every
chart row there selects coordinates.
Every transition call starts from a fresh chart point, so no bundle map is
served by the transition its point memoized on an earlier call; the
``pushforward_factors`` row includes that record's left factor, and
``transition_base`` memoizes nothing.  Every membership and distance call gets
fresh subspace and model objects, so no state an object kept from an earlier
call serves a repeat.  Each layer
runs once untimed, then ``REPEATS`` timed calls, then once more untimed under
``tracemalloc``; the median, interquartile range and minimum in milliseconds,
and that call's peak of traced memory in MiB (``peak_mb``), go under
``columns[LABEL]`` of the output file, next to the numpy and BLAS versions, the
CPU count and the thread pins.  Columns already in the file are kept, so one
file holds the timings of several checkouts; columns written before
``peak_mb`` was recorded simply lack it.  An ``--out`` that is a directory, or
whose parent directory is missing, is refused before any layer is timed.

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
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np

import grassatlas as ga

THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
FLAVORS = ("hilbert", "split")
REPEATS = 7
SEED = 0
PERTURBATION = 0.05
POINT_SCALE = 0.1
SWAP_T = 1.5 + 0.5j


def _cgauss(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _layers(n: int) -> dict:
    """Per timed layer, a zero-argument factory that returns the call to time.

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
    layers = {"ChartId.hilbert": lambda: partial(ga.ChartId.hilbert, f),
              "ChartId.split": lambda: partial(ga.ChartId, f, g)}
    for flavor in FLAVORS:
        src, dst = (ga.ChartId.hilbert(perturbed(base)) if flavor == "hilbert"
                    else ga.ChartId(perturbed(base), perturbed(perp)) for _ in range(2))
        layers.update(_transition_layers(flavor, src, dst, rng))
    model = ga.PolarizedModel(n - k, k)
    w, near, far = (perturbed(b).basis.matrix
                    for b in (model.h_plus.basis.matrix, base, base))
    layers["ChartId.hilbert[coordinate]"] = lambda: partial(ga.ChartId.hilbert, model.h_plus)
    layers["ChartId.split[coordinate]"] = lambda: partial(ga.ChartId, model.h_plus,
                                                          model.h_minus)
    layers["membership_report"] = lambda: partial(
        ga.membership_report, ga.Subspace(w), ga.PolarizedModel(n - k, k), 1.0)
    layers["Subspace.distance_to"] = lambda: partial(ga.Subspace(near).distance_to,
                                                     ga.Subspace(far))
    layers.update(_coordinate_layers(k, rng))
    return layers


def _coordinate_layers(k: int, rng: np.random.Generator) -> dict:
    """Coordinate and cotangent factories on the swap pair of the (k, k) polarized model."""
    square = ga.PolarizedModel(k, k)
    point = ga.generate_restricted_point(square, 1, ga.DecayProfile.zero())
    src, dst, base = ga.swap_chart_family(SWAP_T)(square, point)
    coord = ga.chart_forward(base, src).coord
    form = ga.Operator(_cgauss(rng, (k, k)))
    return {
        "chart_forward[coordinate]": lambda: partial(ga.chart_forward, base, src),
        "transition_cotangent[coordinate]":
            lambda: partial(ga.transition_cotangent, ga.Covector(ga.ChartPoint(src, coord), form),
                            dst),
    }


def _transition_layers(flavor: str, src: ga.ChartId, dst: ga.ChartId,
                       rng: np.random.Generator) -> dict:
    """Transition factories from ``src`` to ``dst``.

    Each call gets a fresh ``ChartPoint``: a point keeps the last forward
    transition a bundle map made, so repeats on one point would time a memo hit.
    """
    n, k = src.ambient_dim, src.f.dim
    coord = ga.Operator(POINT_SCALE / math.sqrt(n) * _cgauss(rng, (n - k, k)))

    def fresh() -> ga.ChartPoint:
        return ga.ChartPoint(src, coord)

    h = ga.chart_inverse(fresh())
    form = ga.Operator(_cgauss(rng, (k, n - k)))
    # the covector's entries, transposed: a fresh draw would shift every later instance
    direction = ga.Operator(form.matrix.T)
    terms = tuple((_cgauss(rng, k), _cgauss(rng, n - k)) for _ in range(3))
    factors = ga.pushforward_factors(fresh(), dst)

    def pushforward(tc: ga.TensorCovector) -> ga.TensorCovector:
        # the transport op: factors, then the tensor map, on one point
        return ga.pushforward_tensor(tc, ga.pushforward_factors(tc.at, dst), dst)

    return {
        f"chart_forward[{flavor}]": lambda: partial(ga.chart_forward, h, dst),
        f"transition_base[{flavor}]": lambda: partial(ga.transition_base, fresh(), dst),
        f"transition_tangent[{flavor}]":
            lambda: partial(ga.transition_tangent, ga.TangentVector(fresh(), direction), dst),
        f"transition_cotangent[{flavor}]":
            lambda: partial(ga.transition_cotangent, ga.Covector(fresh(), form), dst),
        f"pushforward_factors[{flavor}]": lambda: partial(ga.pushforward_factors, fresh(), dst),
        f"pushforward_tensor[{flavor}]":
            lambda: partial(ga.pushforward_tensor, ga.TensorCovector(fresh(), terms), factors, dst),
        f"pushforward[{flavor}]": lambda: partial(pushforward, ga.TensorCovector(fresh(), terms)),
    }


def _time(prepare) -> dict:
    """Time the calls ``prepare()`` returns: one untimed, ``REPEATS`` timed, one traced."""
    prepare()()
    samples = []
    for _ in range(REPEATS):
        call = prepare()
        start = time.perf_counter()
        call()
        samples.append((time.perf_counter() - start) * 1e3)
    q1, median, q3 = np.percentile(samples, [25, 50, 75])
    return {"median_ms": float(median), "iqr_ms": float(q3 - q1), "min_ms": float(min(samples)),
            "peak_mb": _peak_mb(prepare())}


def _peak_mb(call) -> float:
    """Peak traced memory, in MiB, that ``call`` allocates; what it was handed is not counted."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


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
        for layer, prepare in _layers(n).items():
            layers.setdefault(layer, {})[str(n)] = _time(prepare)
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

    if args.out.is_dir() or not args.out.parent.is_dir():
        parser.error(f"{args.out} is a directory or its parent directory is missing")
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
