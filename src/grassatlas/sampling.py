"""Seeded random instances: subspaces, chart pairs, fiber data.

Every draw goes through an explicit ``numpy.random.Generator``; per-trial
generators are derived from a master seed by counter-style spawning so that
concurrent execution can never change results.
"""

from __future__ import annotations

import numpy as np

from .atlas import ChartId, ChartPoint, Subspace, in_chart_domain
from .errors import SplitFailure
from .operators import Operator, haar_frame, split_conditioning


def derive_rng(*parts: int) -> np.random.Generator:
    """Generator keyed by a tuple of integers (master seed, check, trial, ...)."""
    return np.random.default_rng(np.random.SeedSequence(list(parts)))


def random_subspace(n: int, k: int, rng: np.random.Generator) -> Subspace:
    return Subspace(haar_frame(n, k, rng))


def random_chart(n: int, k: int, rng: np.random.Generator, flavor: str = "split",
                 min_conditioning: float = 1e-3, max_tries: int = 200) -> ChartId:
    """Chart on a random pair; split pairs are re-drawn until well conditioned."""
    f = random_subspace(n, k, rng)
    if flavor == "hilbert":
        return ChartId.hilbert(f)
    for _ in range(max_tries):
        g = random_subspace(n, n - k, rng)
        if split_conditioning(f, g) > min_conditioning:
            return ChartId(f, g)
    raise SplitFailure(f"no complement with conditioning > {min_conditioning} found")


def random_chart_containing(h: Subspace, rng: np.random.Generator,
                            flavor: str = "split", min_domain: float = 5e-2,
                            min_conditioning: float = 1e-2,
                            max_tries: int = 200) -> ChartId:
    """Chart whose domain contains ``h`` with conditioning margin."""
    for _ in range(max_tries):
        chart = random_chart(h.ambient_dim, h.dim, rng, flavor=flavor,
                             min_conditioning=min_conditioning)
        if in_chart_domain(h, chart).conditioning > min_domain:
            return chart
    raise SplitFailure(f"no chart containing the subspace at margin {min_domain} found")


def random_fiber_matrix(rows: int, cols: int, rng: np.random.Generator,
                        scale: float = 0.5) -> np.ndarray:
    mat = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    return scale * mat


def random_chart_point(chart: ChartId, rng: np.random.Generator,
                       scale: float = 0.5) -> ChartPoint:
    coord = random_fiber_matrix(chart.g.dim, chart.f.dim, rng, scale)
    return ChartPoint(chart, Operator(coord))


def near_boundary_subspace(chart: ChartId, rng: np.random.Generator,
                           conditioning: float) -> Subspace:
    """Graph of a large rank-one coordinate, sitting at prescribed conditioning.

    For a hilbert-flavor chart the domain conditioning of the graph of ``t uv^H``
    is exactly ``1/sqrt(1 + t^2)``; choosing ``t`` accordingly parks the
    subspace at the requested distance from the chart boundary.
    """
    kf, kg = chart.f.dim, chart.g.dim
    t = float(np.sqrt(1.0 / conditioning ** 2 - 1.0))
    u = haar_frame(kg, 1, rng)[:, 0]
    v = haar_frame(kf, 1, rng)[:, 0]
    coord = t * np.outer(u, v.conj())
    graph = chart.f.basis.matrix + chart.g.basis.matrix @ coord
    q, _ = np.linalg.qr(graph)
    return Subspace(q)


def polarization_preserving_unitary(n_minus: int, n_plus: int,
                                    rng: np.random.Generator) -> np.ndarray:
    """Block-diagonal unitary respecting the polarization split."""
    u_minus = haar_frame(n_minus, n_minus, rng)
    u_plus = haar_frame(n_plus, n_plus, rng)
    out = np.zeros((n_minus + n_plus, n_minus + n_plus), dtype=complex)
    out[:n_minus, :n_minus] = u_minus
    out[n_minus:, n_minus:] = u_plus
    return out
