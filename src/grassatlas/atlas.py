"""Subspaces as Grassmannian points, chart domains, graph charts and base transitions.

A chart is indexed by an ordered complementary pair (F, G).  The chart sends a
subspace H complementary to G to the coordinate matrix of the operator F -> G
whose graph is H.  Two flavors exist: the general split pair, and the Hilbert
flavor where G is pinned to the orthogonal complement of F.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ChartDomainViolation, DimensionMismatch, SplitFailure
from .operators import DEFAULT_TOL_SPLIT, Operator, as_matrix, oblique_projections

DEFAULT_TOL_DOMAIN = 1e-8
DEFAULT_TOL_EQ = 1e-10

_ORTHO_TOL = 1e-12


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
        gram = mat.conj().T @ mat
        if k and np.linalg.norm(gram - np.eye(k)) > _ORTHO_TOL:
            raise ValueError("basis columns are not orthonormal; use Subspace.from_span")
        self.basis = Operator(mat)
        self._projector: Operator | None = None

    @classmethod
    def from_span(cls, spanning) -> "Subspace":
        """Orthonormalize a spanning matrix; rejects rank-deficient input."""
        mat = as_matrix(spanning)
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
        return float(np.linalg.norm(self.projector.matrix - other.projector.matrix, 2))

    def is_same(self, other: "Subspace", tol: float = DEFAULT_TOL_EQ) -> bool:
        return self.dim == other.dim and self.distance_to(other) <= tol

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


@dataclass(frozen=True, eq=False)
class ChartId:
    """Ordered complementary pair (F, G) indexing a chart."""

    f: Subspace
    g: Subspace
    flavor: str = "split"
    tol_split: float = field(default=DEFAULT_TOL_SPLIT, repr=False)

    def __post_init__(self):
        if self.flavor not in ("split", "hilbert"):
            raise ValueError(f"unknown chart flavor {self.flavor!r}")
        if self.f.ambient_dim != self.g.ambient_dim:
            raise DimensionMismatch("chart subspaces live in different ambient spaces")
        if self.f.dim + self.g.dim != self.f.ambient_dim:
            raise SplitFailure(
                f"chart pair dims {self.f.dim} + {self.g.dim} do not fill ambient "
                f"{self.f.ambient_dim}")
        # materializes the oblique projections and raises SplitFailure if singular
        self._projections
        if self.flavor == "hilbert":
            # with dim F + dim G = n, |P_G - (I - P_F)| equals |B_F^H B_G|, the sine
            # of the largest principal angle between G and F-perp
            gap = np.linalg.norm(self.f.basis.matrix.conj().T @ self.g.basis.matrix, 2)
            if gap > DEFAULT_TOL_EQ:
                raise SplitFailure("hilbert flavor requires G to be the orthogonal complement of F")

    @classmethod
    def hilbert(cls, v: Subspace) -> "ChartId":
        return cls(v, v.complement(), flavor="hilbert")

    @cached_property
    def _projections(self) -> tuple[np.ndarray, np.ndarray]:
        onto_f, onto_g = oblique_projections(self.f, self.g, tol_split=self.tol_split)
        return onto_f.matrix, onto_g.matrix

    @property
    def ambient_dim(self) -> int:
        return self.f.ambient_dim

    def same_chart(self, other: "ChartId", tol: float = DEFAULT_TOL_EQ) -> bool:
        return (self.flavor == other.flavor
                and self.f.is_same(other.f, tol) and self.g.is_same(other.g, tol))

    def __repr__(self) -> str:
        return (f"ChartId(f_dim={self.f.dim}, g_dim={self.g.dim}, "
                f"ambient={self.ambient_dim}, flavor={self.flavor!r})")


@dataclass(frozen=True, eq=False)
class ChartPoint:
    """A subspace in chart coordinates: the F -> G operator whose graph it is."""

    chart: ChartId
    coord: Operator

    def __post_init__(self):
        coord = self.coord if isinstance(self.coord, Operator) else Operator(self.coord)
        expected = (self.chart.g.dim, self.chart.f.dim)
        if coord.shape != expected:
            raise DimensionMismatch(
                f"chart coordinate must have shape {expected}, got {coord.shape}")
        object.__setattr__(self, "coord", coord)


class DomainCheck(NamedTuple):
    contains: bool
    conditioning: float


def _domain_tol(tol_domain: float | None) -> float:
    return DEFAULT_TOL_DOMAIN if tol_domain is None else float(tol_domain)


def _domain_conditioning(block: np.ndarray) -> float:
    """Smallest singular value of a square domain block; an empty block counts as 1.0."""
    if block.size == 0:
        return 1.0
    return float(np.linalg.svd(block, compute_uv=False)[-1])


def _require_domain(cond: float, tol_domain: float | None, what: str) -> None:
    """Raise :class:`ChartDomainViolation` when ``cond`` is at or below the domain tolerance."""
    tol = _domain_tol(tol_domain)
    if cond <= tol:
        raise ChartDomainViolation(f"{what} (conditioning {cond:.3e} <= {tol:.1e})")


def _graph_conditioning(chart: ChartId, coord: np.ndarray, denom: np.ndarray) -> float:
    """Domain conditioning of a transition's solve matrix in the orthonormal gauge.

    ``denom`` acts on the chart's F-basis coefficients of the graph of ``coord``;
    re-expressing it against an orthonormal basis of that graph makes the
    value agree with :func:`in_chart_domain`.
    """
    graph = chart.f.basis.matrix + chart.g.basis.matrix @ coord
    r = np.linalg.qr(graph, mode="r")
    return _domain_conditioning(np.linalg.solve(r.T, denom.T).T)


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
    onto_f, onto_g = chart._projections
    bh = h.basis.matrix
    c = chart.f.basis.matrix.conj().T @ (onto_f @ bh)
    d = chart.g.basis.matrix.conj().T @ (onto_g @ bh)
    return c, d


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
    if c.shape[0] == 0:
        return ChartPoint(chart, np.zeros((chart.g.dim, 0)))
    _require_domain(_domain_conditioning(c), tol_domain, "subspace is outside the chart domain")
    return ChartPoint(chart, np.linalg.solve(c.T, d.T).T)


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
    if compressed.shape[0] == 0:
        return ChartPoint(chart, np.zeros((chart.g.dim, 0)))
    # the compression's singular values are the squared cosines of the principal angles
    cond = float(np.sqrt(_domain_conditioning(compressed)))
    _require_domain(cond, tol_domain, "subspace is outside the chart domain")
    return ChartPoint(chart, np.linalg.solve(compressed.T, crossed.T).T)


def chart_inverse(pt: ChartPoint) -> Subspace:
    """Graph of the chart coordinate: span of {f + A f} over the F basis."""
    chart = pt.chart
    graph = chart.f.basis.matrix + chart.g.basis.matrix @ pt.coord.matrix
    q, _ = np.linalg.qr(graph)
    return Subspace(q)


def _transition_blocks(src: ChartId, dst: ChartId) -> tuple[np.ndarray, ...]:
    """Coordinate blocks of the destination projections against source bases."""
    onto_f, onto_g = dst._projections
    bf, bg = src.f.basis.matrix, src.g.basis.matrix
    bfd = dst.f.basis.matrix.conj().T
    bgd = dst.g.basis.matrix.conj().T
    return (bfd @ onto_f @ bf, bfd @ onto_f @ bg,
            bgd @ onto_g @ bf, bgd @ onto_g @ bg)


def _forward_transition(pt: ChartPoint, target: ChartId, tol_domain: float | None):
    """Shared core of the base/tangent transitions.

    Returns (A', denom, blocks, conditioning) where A' is the target chart
    coordinate and denom = a + b A is the solve matrix of the transition.
    """
    src = pt.chart
    if src.ambient_dim != target.ambient_dim:
        raise DimensionMismatch("charts live in different ambient spaces")
    if src.f.dim != target.f.dim:
        raise DimensionMismatch(
            f"transition requires equal chart dims, got {src.f.dim} and {target.f.dim}")
    a, b, c, d = _transition_blocks(src, target)
    coord = pt.coord.matrix
    denom = a + b @ coord
    if denom.shape[0] == 0:
        return np.zeros((target.g.dim, 0)), denom, (a, b, c, d), 1.0
    cond = _graph_conditioning(src, coord, denom)
    _require_domain(cond, tol_domain, "graph leaves the target chart domain")
    numer = c + d @ coord
    aprime = np.linalg.solve(denom.T, numer.T).T
    return aprime, denom, (a, b, c, d), cond


def transition_base(pt: ChartPoint, target: ChartId,
                    tol_domain: float | None = None) -> ChartPoint:
    """Base-manifold transition: re-express a chart point in the target chart.

    Closed form in block coordinates: A' = (c + d A)(a + b A)^{-1} with the
    blocks built from the target chart's projections applied to the source
    bases.  Agrees with the graph route
    ``chart_forward(chart_inverse(pt), target)`` up to roundoff.
    """
    aprime, _, _, _ = _forward_transition(pt, target, tol_domain)
    return ChartPoint(target, aprime)
