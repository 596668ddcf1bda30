"""Subspaces as Grassmannian points, chart domains, graph charts and base transitions.

A chart is indexed by an ordered complementary pair (F, G).  The chart sends a
subspace H complementary to G to the coordinate matrix of the operator F -> G
whose graph is H.  Two flavors exist: the general split pair, and the Hilbert
flavor where G is pinned to the orthogonal complement of F.  A chart caches its
coordinate rows, the row blocks of M^{-1} for M = [B_F | B_G], not projectors:
every chart coordinate and transition block is a product against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ChartDomainViolation, DimensionMismatch, SplitFailure
from .operators import Operator, as_matrix, oblique_projections

DEFAULT_TOL_DOMAIN = 1e-8
DEFAULT_TOL_EQ = 1e-10

_ORTHO_TOL = 1e-12


def _require_finite(mat: np.ndarray, what: str = "basis") -> None:
    # a NaN compares False against every tolerance, so the rank and
    # orthonormality checks would pass it
    if not np.isfinite(mat).all():
        raise ValueError(f"{what} has non-finite entries")


class Subspace:
    """A point of the Grassmannian, stored as an orthonormal basis.

    Equality of subspaces is basis independent: two subspaces coincide when
    their orthogonal projectors are close in operator norm.
    """

    def __init__(self, basis):
        mat = as_matrix(basis)
        n, k = mat.shape
        if k > n:
            raise DimensionMismatch(f"basis has more columns than ambient dimension: {k} > {n}")
        _require_finite(mat)
        gram = mat.conj().T @ mat
        if k and np.linalg.norm(gram - np.eye(k)) > _ORTHO_TOL:
            raise ValueError("basis columns are not orthonormal; use Subspace.from_span")
        self.basis = Operator(mat)
        self._projector: Operator | None = None

    @classmethod
    def from_span(cls, spanning) -> "Subspace":
        """Orthonormalize a spanning matrix; rejects rank-deficient input."""
        mat = as_matrix(spanning)
        _require_finite(mat)
        q, r = np.linalg.qr(mat)
        diag = np.abs(np.diagonal(r))
        if mat.shape[1] and (diag.size < mat.shape[1]
                             or np.any(diag <= mat.shape[0] * np.finfo(float).eps * diag.max(initial=0.0))):
            raise ValueError("spanning matrix is numerically rank deficient")
        return cls(q)

    @property
    def ambient_dim(self) -> int:
        return self.basis.rows

    @property
    def dim(self) -> int:
        return self.basis.cols

    @property
    def projector(self) -> Operator:
        """Orthogonal projector onto the subspace (Hermitian idempotent)."""
        if self._projector is None:
            mat = self.basis.matrix
            proj = mat @ mat.conj().T
            proj = (proj + proj.conj().T) / 2.0
            self._projector = Operator(proj)
        return self._projector

    def complement(self) -> "Subspace":
        """Orthogonal complement within the ambient space."""
        full, _ = np.linalg.qr(self.basis.matrix, mode="complete")
        return Subspace(full[:, self.dim:])

    def distance_to(self, other: "Subspace") -> float:
        """Operator-norm distance between the orthogonal projectors."""
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("subspaces live in different ambient spaces")
        if other is self:
            return 0.0
        return float(np.linalg.norm(self.projector.matrix - other.projector.matrix, 2))

    def is_same(self, other: "Subspace") -> bool:
        return self.dim == other.dim and self.distance_to(other) <= DEFAULT_TOL_EQ

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


@dataclass(frozen=True, eq=False)
class ChartId:
    """Ordered complementary pair (F, G) indexing a chart; caches coordinate rows, not projectors."""

    f: Subspace
    g: Subspace
    flavor: str = "split"

    def __post_init__(self):
        if self.flavor not in ("split", "hilbert"):
            raise ValueError(f"unknown chart flavor {self.flavor!r}")
        if self.f.ambient_dim != self.g.ambient_dim:
            raise DimensionMismatch("chart subspaces live in different ambient spaces")
        if self.f.dim + self.g.dim != self.f.ambient_dim:
            raise SplitFailure(
                f"chart pair dims {self.f.dim} + {self.g.dim} do not fill ambient "
                f"{self.f.ambient_dim}")
        rows_f, rows_g = self.f.basis.matrix.conj().T, self.g.basis.matrix.conj().T
        if self.flavor == "hilbert":
            # with dim F + dim G = n, |P_G - (I - P_F)| equals |B_F^H B_G|, the sine
            # of the largest principal angle between G and F-perp; past the check M
            # is unitary and its inverse rows are the adjoint bases
            gap = np.linalg.norm(rows_f @ self.g.basis.matrix, 2)
            if gap > DEFAULT_TOL_EQ:
                raise SplitFailure("hilbert flavor requires G to be the orthogonal complement of F")
        else:
            # raises SplitFailure when the pair is numerically singular
            onto_f, onto_g = oblique_projections(self.f, self.g)
            rows_f, rows_g = rows_f @ onto_f.matrix, rows_g @ onto_g.matrix
        object.__setattr__(self, "_rows", (rows_f, rows_g))

    @classmethod
    def hilbert(cls, v: Subspace) -> "ChartId":
        return cls(v, v.complement(), flavor="hilbert")

    @property
    def ambient_dim(self) -> int:
        return self.f.ambient_dim

    def same_chart(self, other: "ChartId") -> bool:
        return self.flavor == other.flavor and self.f.is_same(other.f) and self.g.is_same(other.g)

    def __repr__(self) -> str:
        return (f"ChartId(f_dim={self.f.dim}, g_dim={self.g.dim}, "
                f"ambient={self.ambient_dim}, flavor={self.flavor!r})")


@dataclass(frozen=True, eq=False)
class ChartPoint:
    """A subspace in chart coordinates: the F -> G operator whose graph it is.

    The point keeps its last forward transition, ``(target, tol, record)``, so
    the bundle maps from one point to one target share one evaluation.
    """

    chart: ChartId
    coord: Operator

    def __post_init__(self):
        coord = self.coord if isinstance(self.coord, Operator) else Operator(self.coord)
        expected = (self.chart.g.dim, self.chart.f.dim)
        if coord.shape != expected:
            raise DimensionMismatch(
                f"chart coordinate must have shape {expected}, got {coord.shape}")
        if not np.isfinite(coord.matrix).all():
            # no chart domain holds an infinite graph; the domain bounds read |A|_F
            raise ChartDomainViolation("chart coordinate has non-finite entries")
        object.__setattr__(self, "coord", coord)
        object.__setattr__(self, "_forward", None)


class DomainCheck(NamedTuple):
    contains: bool
    conditioning: float


def _domain_tol(tol_domain: float | None) -> float:
    tol = DEFAULT_TOL_DOMAIN if tol_domain is None else float(tol_domain)
    # a NaN tolerance decides nothing, and a negative one passes a singular block
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol_domain must be finite and >= 0, got {tol_domain!r}")
    return tol


def _domain_conditioning(block: np.ndarray) -> float:
    """Smallest singular value of a square domain block; an empty block counts as 1.0."""
    if block.size == 0:
        return 1.0
    return float(np.linalg.svd(block, compute_uv=False)[-1])


def _outside(what: str, cond: float, tol: float) -> ChartDomainViolation:
    return ChartDomainViolation(f"{what} (conditioning {cond:.3e} <= {tol:.1e})",
                                conditioning=cond, tol=tol)


def _coordinate_bound(coord: np.ndarray) -> float:
    """1/(sqrt(k) + |A|_F) <= 1/|B_F + B_G A|_2 for a k-column A; an empty graph reads +inf."""
    size = math.sqrt(coord.shape[1]) + float(np.linalg.norm(coord))
    return 1.0 / size if size else math.inf


def _require_domain(chart: ChartId, coord: np.ndarray, tol_domain: float | None,
                    what: str) -> None:
    """Raise :class:`ChartDomainViolation` unless the chart point (chart, A) is in a domain.

    Every domain block X decided here has X^{-1} equal to the graph B_F + B_G A
    up to an isometry, so sigma_min(X) = 1/|B_F + B_G A|_2.  The bound
    :func:`_coordinate_bound` passes the point once it clears 2 tol; below that
    the graph's 2-norm decides, and its reciprocal is the raised conditioning.
    """
    tol = _domain_tol(tol_domain)
    if _coordinate_bound(coord) > 2.0 * tol:
        return
    cond = 1.0 / float(np.linalg.norm(_graph(chart, coord), 2))
    if cond <= tol:
        raise _outside(what, cond, tol)


def _solve_in_domain(chart: ChartId, top: np.ndarray, bottom: np.ndarray,
                     tol_domain: float | None, what: str) -> np.ndarray:
    """The coordinate A = bottom top^{-1} in ``chart``, once :func:`_require_domain` passes it.

    ``top`` is singular exactly when the domain block is, so a ``LinAlgError``
    from the solve, or an A that overflows, reads as conditioning 0.0.
    """
    try:
        coord = np.linalg.solve(top.T, bottom.T).T
    except np.linalg.LinAlgError:
        coord = None
    if coord is None or not np.isfinite(coord).all():
        raise _outside(what, 0.0, _domain_tol(tol_domain))
    _require_domain(chart, coord, tol_domain, what)
    return coord


def _restricted_projection(h: Subspace, chart: ChartId) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate matrices of the chart projections restricted to H.

    Returns (C, D): C holds F-basis coefficients of the F-component of the
    columns of H's basis, D the G-basis coefficients of the G-component.
    """
    if h.ambient_dim != chart.ambient_dim:
        raise DimensionMismatch("subspace and chart live in different ambient spaces")
    if h.dim != chart.f.dim:
        raise DimensionMismatch(
            f"subspace dim {h.dim} differs from chart dim {chart.f.dim}")
    rows_f, rows_g = chart._rows
    bh = h.basis.matrix
    return rows_f @ bh, rows_g @ bh


def in_chart_domain(h: Subspace, chart: ChartId,
                    tol_domain: float | None = None) -> DomainCheck:
    """Whether the projection along G restricted to H is invertible.

    The conditioning is the smallest singular value of that restriction in
    orthonormal bases; the domain boundary is decided against ``tol_domain``.
    """
    c, _ = _restricted_projection(h, chart)
    cond = _domain_conditioning(c)
    return DomainCheck(cond > _domain_tol(tol_domain), cond)


def chart_forward(h: Subspace, chart: ChartId,
                  tol_domain: float | None = None) -> ChartPoint:
    """Chart coordinate of a subspace: solve the restricted projection system.

    Realizes A = (projection onto G)|_H composed with the inverse of
    (projection onto F)|_H, expressed in the chart's coordinate bases.
    """
    c, d = _restricted_projection(h, chart)
    # B_H c^{-1} = B_F + B_G A is the graph of the coordinate A = d c^{-1} being solved for
    return ChartPoint(chart, _solve_in_domain(chart, c, d, tol_domain,
                                              "subspace is outside the chart domain"))


def chart_forward_projector(h: Subspace, chart: ChartId,
                            tol_domain: float | None = None) -> ChartPoint:
    """Hilbert-flavor chart coordinate computed through orthogonal projectors.

    Independent route from :func:`chart_forward`: builds the compressions of
    the projector onto H to V and V-perp and solves, instead of projecting the
    stored basis.  Only valid for charts with G = F-perp.
    """
    if chart.flavor != "hilbert":
        raise ValueError("projector-formula chart requires the hilbert flavor")
    if h.ambient_dim != chart.ambient_dim or h.dim != chart.f.dim:
        raise DimensionMismatch("subspace does not match the chart dimensions")
    proj = h.projector.matrix
    bv = chart.f.basis.matrix
    bvp = chart.g.basis.matrix
    compressed = bv.conj().T @ proj @ bv
    crossed = bvp.conj().T @ proj @ bv
    # the compression's singular values are the squared cosines of the principal angles
    cond, tol = float(np.sqrt(_domain_conditioning(compressed))), _domain_tol(tol_domain)
    if cond <= tol:
        raise _outside("subspace is outside the chart domain", cond, tol)
    return ChartPoint(chart, np.linalg.solve(compressed.T, crossed.T).T)


def chart_inverse(pt: ChartPoint) -> Subspace:
    """Graph of the chart coordinate: span of {f + A f} over the F basis."""
    q, _ = np.linalg.qr(_graph(pt.chart, pt.coord.matrix))
    return Subspace(q)


def _graph(chart: ChartId, coord: np.ndarray) -> np.ndarray:
    """The graph basis B_F + B_G A of the chart point (chart, A), not orthonormalized."""
    return chart.f.basis.matrix + chart.g.basis.matrix @ coord


def _transition_blocks(src: ChartId, dst: ChartId) -> tuple[np.ndarray, ...]:
    """Coordinate blocks of the destination projections against source bases."""
    rows_f, rows_g = dst._rows
    bf, bg = src.f.basis.matrix, src.g.basis.matrix
    return rows_f @ bf, rows_f @ bg, rows_g @ bf, rows_g @ bg


class _Forward(NamedTuple):
    """What the bundle maps read of a forward transition: A', denom = a + b A, b and d."""

    coord: np.ndarray
    denom: np.ndarray
    b: np.ndarray
    d: np.ndarray

    @property
    def left(self) -> np.ndarray:
        """d - A' b, the left factor of the tangent fiber map X -> (d - A' b) X denom^{-1}."""
        return self.d - self.coord @ self.b


def _forward_transition(pt: ChartPoint, target: ChartId, tol_domain: float | None) -> _Forward:
    """The one transition every base and bundle map evaluates, kept on the source point.

    The source graph is B_F' denom + B_G' numer in the target bases, so
    graph denom^{-1} = B_F' + B_G' A' is the graph of the target point (target, A'):
    with graph = Q R, the domain block X = denom R^{-1} has X^{-1} = Q^H (B_F' + B_G' A'),
    and the coordinate being solved for decides the domain (:func:`_solve_in_domain`).

    The point holds the record of its last (target, tolerance); every input is
    frozen, so a hit needs no invalidation.  A raise leaves the memo untouched.
    """
    tol = _domain_tol(tol_domain)
    memo = pt._forward
    if memo is not None and memo[0] is target and memo[1] == tol:
        return memo[2]
    src = pt.chart
    if src.ambient_dim != target.ambient_dim:
        raise DimensionMismatch("charts live in different ambient spaces")
    if src.f.dim != target.f.dim:
        raise DimensionMismatch(
            f"transition requires equal chart dims, got {src.f.dim} and {target.f.dim}")
    a, b, c, d = _transition_blocks(src, target)
    coord = pt.coord.matrix
    denom = a + b @ coord
    fwd = _Forward(_solve_in_domain(target, denom, c + d @ coord, tol,
                                    "graph leaves the target chart domain"), denom, b, d)
    object.__setattr__(pt, "_forward", (target, tol, fwd))
    return fwd


def transition_base(pt: ChartPoint, target: ChartId,
                    tol_domain: float | None = None) -> ChartPoint:
    """Base-manifold transition: re-express a chart point in the target chart.

    Closed form in block coordinates: A' = (c + d A)(a + b A)^{-1} with the
    blocks built from the target chart's coordinate rows applied to the source
    bases.  Agrees with the graph route
    ``chart_forward(chart_inverse(pt), target)`` up to roundoff.
    """
    return ChartPoint(target, _forward_transition(pt, target, tol_domain).coord)
