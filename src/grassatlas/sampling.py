"""Seeded random instances: subspaces, chart pairs, fiber data.

Every draw goes through an explicit ``numpy.random.Generator``; per-trial
generators are derived from a master seed by counter-style spawning so that
concurrent execution can never change results.

Charts are built from principal-angle closed forms (Bjorck & Golub, Math. Comp.
1973), not drawn and rejected, so the floors below hold at every n; Haar pairs lose
both conditionings like 1/n (Edelman, SIMAX 1988).  With orthonormal b_j in a
subspace and u_j in its complement, the columns (b_j + s_j u_j)/sqrt(1 + s_j^2) of
:func:`_tilted` are an orthonormal basis of the graph of sum_j s_j u_j b_j^H, and
each plane span(b_j, u_j) can be read on its own.

Split conditioning: lines meeting at cosine sin(delta) in a plane give [B_F | B_G]
the singular values sqrt(1 +- sin(delta)), so the split conditioning is c at
tan(delta) = (1/c - c)/2 (:func:`_tilt`), and a chart's is the least over its planes.
A split :func:`random_chart` tilts the complement of a Haar F toward F that far.

Margin: :func:`random_chart_containing` takes F0 = graph of K' over h.  In plane j
h's F0-coefficient is cos(psi_j), tan(psi_j) = s_j, so |K'|_2 = sqrt(1/m^2 - 1)
puts h at margin m in the hilbert chart (F0, F0-perp).  The split chart keeps
G = F0-perp and turns F0 by delta_j in each plane, which makes h's F-coefficient
along G cos(psi_j)/cos(delta_j) >= cos(psi_j).  Plane 0 stays unturned and sets
the margin to m; at rank one it is turned, and its coefficient is m (1 + c^2)/(2c).
The last plane is turned to the drawn c and the others to c_j drawn over [c, 1).  The
projection onto h along G, which bounds every transition into the chart, keeps
norm 1/m: one plane holding both c and m would need (1 + c^2)/(2 c m).
"""

from __future__ import annotations

import numpy as np

from .atlas import ChartId, ChartPoint, Subspace, chart_inverse
from .operators import Operator, haar_frame

SPLIT_FLOOR = 1e-2  # split conditioning of every sampled split chart
MARGIN_FLOOR = 5e-2  # domain margin of h in every chart random_chart_containing(h) draws
MARGIN_CEIL = 0.3  # margins are drawn over [MARGIN_FLOOR, MARGIN_CEIL)


def derive_rng(*parts: int) -> np.random.Generator:
    """Generator keyed by a tuple of integers (master seed, check, trial, ...)."""
    return np.random.default_rng(np.random.SeedSequence(list(parts)))


def random_subspace(n: int, k: int, rng: np.random.Generator) -> Subspace:
    return Subspace(haar_frame(n, k, rng))


def _log_uniform(low, high: float, rng: np.random.Generator, size=None):
    """Draw from [low, high) with log-uniform density."""
    return low * (high / low) ** rng.uniform(size=size)


def _tilt(cond):
    """Tangent of the in-plane tilt at which two lines have split conditioning ``cond``."""
    return (1.0 / cond - cond) / 2.0


def _tilted(base: np.ndarray, across: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Columns (b_j + sigma_j u_j)/sqrt(1 + sigma_j^2), then the rest of ``base``."""
    out = base.copy()
    r = sigma.size
    out[:, :r] = (base[:, :r] + across[:, :r] * sigma) / np.sqrt(1.0 + sigma * sigma)
    return out


def _random_pair(n: int, k: int, rng: np.random.Generator) -> tuple[Subspace, Subspace]:
    """The complementary pair (F, G) of :func:`random_chart`, with no chart built on it."""
    frame = haar_frame(n, n, rng)
    sigma = rng.uniform(size=min(k, n - k))
    sigma[:1] = 1.0
    g = _tilted(frame[:, k:], frame[:, :k], sigma * _tilt(_log_uniform(SPLIT_FLOOR, 1.0, rng)))
    return Subspace(frame[:, :k]), Subspace(g)


def random_chart(n: int, k: int, rng: np.random.Generator) -> ChartId:
    """Split chart on a random pair, its conditioning drawn over [SPLIT_FLOOR, 1)."""
    return ChartId(*_random_pair(n, k, rng))


def random_chart_containing(h: Subspace, rng: np.random.Generator,
                            flavor: str = "split") -> ChartId:
    """Chart holding ``h`` at a margin drawn over [MARGIN_FLOOR, MARGIN_CEIL).

    A split chart has split conditioning c drawn over [SPLIT_FLOOR, 1).  At rank
    one (dim h or its codimension is 1) the margin is m (1 + c^2)/(2c) instead,
    capped at 1 when dim h > 1 (h's directions outside the turned plane lie in F).
    """
    margin = _log_uniform(MARGIN_FLOOR, MARGIN_CEIL, rng)
    bh = h.basis.matrix
    # K' from the SVD of a Gaussian field projected (twice) off h: that is B_{h-perp} K
    # for a Gaussian K in any basis of h-perp, so none is formed
    field = random_fiber_matrix(*bh.shape, rng, scale=1.0)
    for _ in range(2):
        field -= bh @ (bh.conj().T @ field)
    u, sigma, vh = np.linalg.svd(field, full_matrices=False)
    rank = min(h.dim, h.ambient_dim - h.dim)
    sigma[rank:] = 0.0  # roundoff, paired with u_j outside h-perp
    if rank:
        sigma *= np.sqrt(1.0 / margin ** 2 - 1.0) / sigma[0]
    b = bh @ vh.conj().T
    f0 = _tilted(b, u, sigma)
    if flavor == "hilbert":
        return ChartId.hilbert(Subspace(f0))
    cond = _log_uniform(SPLIT_FLOOR, 1.0, rng)
    conds = _log_uniform(cond, 1.0, rng, size=rank)
    conds[:1] = 1.0
    conds[-1:] = cond
    # turn F0 by delta_j toward -G per plane and mix the columns by a Haar unitary; the
    # turned columns are orthonormal only up to a roundoff that grows with n
    # (1.4e-12 at n = 512), so they are orthonormalized as a span
    f = _tilted(f0, _tilted(u, b, -sigma), -_tilt(conds)) @ haar_frame(h.dim, h.dim, rng)
    return ChartId(Subspace.from_span(f), Subspace(f0).complement())


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
    t = float(np.sqrt(1.0 / conditioning ** 2 - 1.0))
    u = haar_frame(chart.g.dim, 1, rng)[:, 0]
    v = haar_frame(chart.f.dim, 1, rng)[:, 0]
    return chart_inverse(ChartPoint(chart, Operator(t * np.outer(u, v.conj()))))


def polarization_preserving_unitary(n_minus: int, n_plus: int,
                                    rng: np.random.Generator) -> np.ndarray:
    """Block-diagonal unitary respecting the polarization split."""
    u_minus = haar_frame(n_minus, n_minus, rng)
    u_plus = haar_frame(n_plus, n_plus, rng)
    out = np.zeros((n_minus + n_plus, n_minus + n_plus), dtype=complex)
    out[:n_minus, :n_minus] = u_minus
    out[n_minus:, n_minus:] = u_plus
    return out
