"""Subspaces as Grassmannian points, chart domains, graph charts and base transitions.

A chart is indexed by an ordered complementary pair (F, G).  The chart sends a
subspace H complementary to G to the coordinate matrix of the operator F -> G
whose graph is H.  Two flavors exist: the general split pair, and the Hilbert
flavor where G is pinned to the orthogonal complement of F.  A chart's
coordinate rows are the row blocks of M^{-1} for M = [B_F | B_G]: every chart
coordinate and transition block is a product against them, and every such
product goes through one method, ``ChartId._apply``.  A chart keeps only what
its bases do not already hold.  When M is unitary (every hilbert chart) or a
permutation (a split chart on two coordinate bases), its rows are the adjoint
bases, read from the bases when applied, and the chart keeps no rows; a split
chart with a dense side keeps the dense rows B^H P of each side.  No subspace
or chart holds an n x n projector; distances between subspaces are read from
n x k residuals of one basis off the other.

Coordinate subspaces, spanned by standard basis vectors as the polarization
blocks H_minus and H_plus are, are handled exactly.  A subspace recognizes a
basis whose columns are distinct standard basis vectors when it is built
(:func:`_coordinate_rows`), which spares it the orthonormality check, and
records their rows.  A coordinate one keeps those rows and its shape and no
matrix: its basis is built, and not kept, only when read, so every reader that
needs only rows, the subspace-pair functions of ``operators`` among them,
reads the record first.  The complement of one is the slice of the remaining
coordinates, built from its rows; a split chart on a complementary pair of
them has 0/1 diagonal projections and a split conditioning of exactly 1, and a
hilbert chart on one has a gap of exactly 0, so none takes a factorization.
Coordinate bases and coordinate operands are applied by index, ``X[picks]``,
``B[cols]^H`` and ``R[:, cols]``, exactly the dense products, since 0/1
entries times finite numbers round nothing (principal angles between
coordinate subspaces are 0 or pi/2; Bjorck & Golub, Math. Comp. 1973).  Every
chart coordinate is one solve (:func:`_coordinates`): the chart's rows read on
a subspace's basis, or, for a transition, on the source graph B_F + B_G A
(:func:`_graph`), whose rows a coordinate target selects.  Between coordinate
charts d - A' b and the reverse L_r = d_r - A b_r are column gathers
(:func:`_left`).

The basis check reads the support (:func:`_row_support`).  A basis with at
most one nonzero in each row, as every decay graph and swap base of
``restricted`` has, has columns with disjoint supports, so B^H B is diagonal:
its gap from I is read from its column norms, over its nonzero entries alone,
with no conjugate copy and no Gram product (:func:`_orthonormality_gap`).  A
dense basis is turned away on its first row and takes the Gram product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ChartDomainViolation, DimensionMismatch, SplitFailure
from .operators import Operator, _require_finite, _rows_overlap, as_matrix, oblique_projections

DEFAULT_TOL_DOMAIN = 1e-8
DEFAULT_TOL_EQ = 1e-10

_ORTHO_TOL = 1e-12


def _row_support(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Row and column of each nonzero of ``mat`` when no row holds two, else ``None``.

    Columns whose nonzeros share no row have disjoint supports, so they are
    pairwise orthogonal.  A dense matrix is turned away on its first row, before
    the whole matrix is read; a single column, on itself when it holds two
    nonzeros, since its Gram product is no dearer than its norm.
    """
    if np.count_nonzero(mat[:1] if mat.shape[1] > 1 else mat) > 1:
        return None
    rows, cols = np.nonzero(mat != 0)  # in row order, so a row holding two repeats in turn
    return None if (rows[1:] == rows[:-1]).any() else (rows, cols)


def _coordinate_rows(mat: np.ndarray, support) -> np.ndarray | None:
    """Row of each column when every column of ``mat`` is a distinct e_r with entry exactly 1.

    Returns ``None`` for any other matrix.  ``support`` is the
    :func:`_row_support` of ``mat``: with no row holding two nonzeros, k
    entries equal to 1 that land in every column are distinct e_r.  The row of
    each column is scattered into a -1 sentinel, which stands in for
    ``np.unique`` (it would import ``numpy.ma``).
    """
    if support is None:
        return None
    rows, cols = support
    k = mat.shape[1]
    if rows.size != k or not (mat[rows, cols] == 1).all():
        return None
    found = np.full(k, -1, dtype=np.intp)
    found[cols] = rows
    return found if (found >= 0).all() else None


def _orthonormality_gap(mat: np.ndarray, support) -> float:
    """|B^H B - I|_F for a finite k-column basis B = ``mat`` with :func:`_row_support` ``support``.

    Columns with disjoint supports make B^H B diagonal, so the gap is the norm
    of (|b_j|^2 - 1)_j, read from the nonzero entries alone, with no n x k
    conjugate and no k x k Gram.  Any other basis takes the Gram product, unless
    an entry's modulus exceeds 1 + ``_ORTHO_TOL``: its column's norm does too,
    so the gap is past the tolerance, and it reads inf before a product that
    could overflow to NaN.
    """
    k = mat.shape[1]
    if support is None:
        if np.abs(mat).max() > 1.0 + _ORTHO_TOL:
            return math.inf
        return float(np.linalg.norm(mat.conj().T @ mat - np.eye(k)))
    rows, cols = support
    entries = mat[rows, cols]
    with np.errstate(over="ignore"):  # a square past the float range reads inf, refused
        squares = np.bincount(cols, weights=entries.real ** 2 + entries.imag ** 2, minlength=k)
    return float(np.linalg.norm(squares - 1.0))


class Subspace:
    """A point of the Grassmannian, stored as an orthonormal basis.

    Equality of subspaces is basis independent: two subspaces coincide when
    their distance |P_F - P_G|_2, read from the basis residual of one off the
    other, is within ``DEFAULT_TOL_EQ``.  The one basis check is here, and it
    reads the basis's support (:func:`_row_support`): a coordinate basis
    (:func:`_coordinate_rows`) is exactly orthonormal and records the row of
    each column; any other must be finite with orthonormal columns, else
    ``ValueError``, and records ``None``.  Columns on disjoint rows are
    checked by their norms, any others by their Gram product.
    A coordinate subspace keeps only those rows and its shape: its
    :attr:`basis` is the 0/1 matrix they select, built afresh on each read.
    """

    def __init__(self, basis):
        mat = as_matrix(basis)
        n, k = mat.shape
        if k > n:
            raise DimensionMismatch(f"basis has more columns than ambient dimension: {k} > {n}")
        support = _row_support(mat)
        self._coord_rows = _coordinate_rows(mat, support)
        if self._coord_rows is None:  # a coordinate basis needs no check
            _require_finite(mat)
            if k and not _orthonormality_gap(mat, support) <= _ORTHO_TOL:
                raise ValueError("basis columns are not orthonormal; use Subspace.from_span")
        self._shape = (n, k)
        self._basis = Operator(mat) if self._coord_rows is None else None

    @classmethod
    def _from_rows(cls, rows: np.ndarray, n: int) -> "Subspace":
        """The coordinate subspace spanned by e_r for r in ``rows``, distinct rows of an n-space."""
        space = object.__new__(cls)
        space._coord_rows, space._shape, space._basis = rows, (n, rows.size), None
        return space

    @property
    def basis(self) -> Operator:
        """The orthonormal basis; a coordinate one is the 0/1 matrix of its rows, never kept."""
        if self._basis is not None:
            return self._basis
        rows = self._coord_rows
        mat = np.zeros(self._shape, dtype=complex)
        mat[rows, np.arange(rows.size)] = 1.0
        mat.setflags(write=False)  # so the operator wraps it, uncopied
        return Operator(mat)

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
        q.setflags(write=False)  # so the subspace keeps it, uncopied
        return cls(q)

    @property
    def ambient_dim(self) -> int:
        return self._shape[0]

    @property
    def dim(self) -> int:
        return self._shape[1]

    def complement(self) -> "Subspace":
        """Orthogonal complement within the ambient space.

        A coordinate subspace gets the slice of the remaining coordinates, in
        increasing order, exactly; any other basis is completed by a full QR.
        """
        rows = self._coord_rows
        if rows is None:
            full = np.linalg.qr(self.basis.matrix, mode="complete")[0]  # R freed at once
            return Subspace(full[:, self.dim:])
        free = np.ones(self.ambient_dim, dtype=bool)
        free[rows] = False
        return Subspace._from_rows(np.flatnonzero(free), self.ambient_dim)

    def distance_to(self, other: "Subspace") -> float:
        """Operator-norm distance |P_F - P_G|_2 between the orthogonal projectors.

        Projectors of unequal rank are at distance exactly 1.  For equal dims the
        distance is sin(theta_max), the largest singular value of the n x k
        residual B_G - B_F (B_F^H B_G) of G off F; no n x n projector is formed.
        """
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("subspaces live in different ambient spaces")
        if other is self:
            return 0.0
        if self.dim != other.dim:
            return 1.0
        bf, bg = self.basis.matrix, other.basis.matrix
        return float(np.linalg.norm(bg - bf @ (bf.conj().T @ bg), 2))

    def is_same(self, other: "Subspace") -> bool:
        return self.dim == other.dim and self.distance_to(other) <= DEFAULT_TOL_EQ

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


@dataclass(frozen=True, eq=False)
class ChartId:
    """Ordered complementary pair (F, G) indexing a chart; keeps no projector and no basis copy.

    ``_rows`` is ``None`` when M = [B_F | B_G] is unitary (every hilbert chart)
    or a permutation (a split chart on two coordinate bases): M^{-1} is then
    M^H, whose rows are the adjoint bases.  Otherwise it is the pair of dense
    row blocks B^H P, with P the side's split projection; a coordinate B^H P
    is those rows of P.
    """

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
        coordinate = self.f._coord_rows is not None and self.g._coord_rows is not None
        object.__setattr__(self, "_rows", None)
        if self.flavor == "split":
            # raises SplitFailure when the pair is numerically singular
            projections = oblique_projections(self.f, self.g)
            if not coordinate:
                object.__setattr__(self, "_rows", tuple(
                    proj.matrix[side._coord_rows] if side._coord_rows is not None
                    else side.basis.matrix.conj().T @ proj.matrix
                    for side, proj in zip((self.f, self.g), projections)))
            return
        # with dim F + dim G = n, |P_G - (I - P_F)| equals |B_F^H B_G|, the sine of
        # the largest principal angle between G and F-perp; past the check M is
        # unitary.  Two coordinate bases share a coordinate (gap 1) or are
        # orthogonal (gap 0).
        gap = (float(_rows_overlap(self.f._coord_rows, self.g._coord_rows, self.ambient_dim))
               if coordinate else np.linalg.norm(self._apply(0, self.g), 2))
        if not gap <= DEFAULT_TOL_EQ:
            raise SplitFailure("hilbert flavor requires G to be the orthogonal complement of F")

    @classmethod
    def hilbert(cls, v: Subspace) -> "ChartId":
        return cls(v, v.complement(), flavor="hilbert")

    def opposite(self) -> "ChartId":
        """The chart on (G, F), with no new factorization.

        [B_G | B_F] is [B_F | B_G] with its column blocks swapped, so its inverse
        has this chart's coordinate rows swapped: a pair of dense rows is
        swapped, and ``None`` stays ``None``, since each side's rows are still
        read from its own basis.  Every check of construction is symmetric in
        (F, G): the dimensions, the hilbert gap |B_F^H B_G|_2 and the split
        conditioning, so each still holds.
        """
        chart = object.__new__(ChartId)
        for name, value in (("f", self.g), ("g", self.f), ("flavor", self.flavor),
                            ("_rows", None if self._rows is None else self._rows[::-1])):
            object.__setattr__(chart, name, value)
        return chart

    def _apply(self, side: int, operand: Subspace | np.ndarray) -> np.ndarray:
        """The coordinate rows of ``side`` (0 for F, 1 for G) times a subspace's basis or a matrix.

        The one place a chart's rows meet a matrix.  Kept dense rows R read
        ``R @ X``, or ``R[:, cols]`` on a coordinate subspace operand.  A chart
        that keeps no rows reads them from the side's own basis B: a coordinate
        side as the operand's rows, ``X[picks]``, and a dense one as ``B^H X``,
        or ``B[cols]^H`` on a coordinate operand.  Each equals the dense
        product exactly.
        """
        subspace = isinstance(operand, Subspace)
        # the record comes first: a coordinate operand's basis is built only when read
        cols = operand._coord_rows if subspace else None
        if self._rows is not None:
            rows = self._rows[side]
            if cols is not None:
                return rows[:, cols]
            return rows @ (operand.basis.matrix if subspace else operand)
        space = (self.f, self.g)[side]
        picks = space._coord_rows
        if picks is None and cols is not None:
            picked = space.basis.matrix[cols]
            return np.conjugate(picked, out=picked).T
        mat = operand.basis.matrix if subspace else operand
        return mat[picks] if picks is not None else space.basis.matrix.conj().T @ mat

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
    """A subspace in chart coordinates: the F -> G operator whose graph it is."""

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
    """1/(sqrt(k) + |A|_F) <= 1/|B_F + B_G A|_2 for a k-column A; an empty graph reads +inf.

    A finite A whose |A|_F overflows reads a bound of 0.0, which passes nothing.
    """
    with np.errstate(over="ignore"):
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
    if not cond > tol:
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


def _coordinates(chart: ChartId, operand: Subspace | np.ndarray, tol_domain: float | None,
                 what: str) -> tuple[np.ndarray, np.ndarray]:
    """The top block R_F X and the coordinate A = (R_G X)(R_F X)^{-1} of X in ``chart``.

    The one solve for a chart coordinate: X is a subspace's basis for
    :func:`chart_forward`, or the source graph B_F + B_G A of a transition.
    Any basis of H gives the same A, since a change of basis cancels.
    """
    top = chart._apply(0, operand)
    return top, _solve_in_domain(chart, top, chart._apply(1, operand), tol_domain, what)


def _require_restrictable(h: Subspace, chart: ChartId) -> None:
    """Raise :class:`DimensionMismatch` unless H shares the chart's ambient space and dim F.

    The chart rows then map H's basis to the chart projections restricted to H:
    C = rows_F B_H holds the F-basis coefficients of the F-components of its
    columns, and D = rows_G B_H the G-basis coefficients of the G-components.
    A transition passes the source chart's F, whose dim every graph in that
    chart shares.
    """
    if h.ambient_dim != chart.ambient_dim:
        raise DimensionMismatch("subspace and chart live in different ambient spaces")
    if h.dim != chart.f.dim:
        raise DimensionMismatch(
            f"subspace dim {h.dim} differs from chart dim {chart.f.dim}")


def in_chart_domain(h: Subspace, chart: ChartId,
                    tol_domain: float | None = None) -> DomainCheck:
    """Whether the projection along G restricted to H is invertible.

    The conditioning is the smallest singular value of that restriction in
    orthonormal bases; the domain boundary is decided against ``tol_domain``.
    The SVD is exact only to about eps sigma_max, while :func:`chart_forward`
    and the transitions decide by 1/|B_F + B_G A|_2 (:func:`_require_domain`),
    so within about 1e-8 relative of ``tol_domain`` the two can disagree.
    """
    _require_restrictable(h, chart)
    cond = _domain_conditioning(chart._apply(0, h))
    return DomainCheck(cond > _domain_tol(tol_domain), cond)


def chart_forward(h: Subspace, chart: ChartId,
                  tol_domain: float | None = None) -> ChartPoint:
    """Chart coordinate of a subspace: solve the restricted projection system.

    Realizes A = (projection onto G)|_H composed with the inverse of
    (projection onto F)|_H, expressed in the chart's coordinate bases.
    """
    _require_restrictable(h, chart)
    # B_H c^{-1} = B_F + B_G A is the graph of the coordinate A = d c^{-1} being solved for
    return ChartPoint(chart, _coordinates(chart, h, tol_domain,
                                          "subspace is outside the chart domain")[1])


def chart_forward_projector(h: Subspace, chart: ChartId,
                            tol_domain: float | None = None) -> ChartPoint:
    """Hilbert-flavor chart coordinate computed through orthogonal projectors.

    Independent route from :func:`chart_forward`: builds the compressions of
    the projector onto H to V and V-perp and solves, instead of projecting the
    stored basis.  Only valid for charts with G = F-perp.
    """
    if chart.flavor != "hilbert":
        raise ValueError("projector-formula chart requires the hilbert flavor")
    _require_restrictable(h, chart)
    bh = h.basis.matrix
    proj = bh @ bh.conj().T
    proj = (proj + proj.conj().T) / 2.0
    bv = chart.f.basis.matrix
    bvp = chart.g.basis.matrix
    compressed = bv.conj().T @ proj @ bv
    crossed = bvp.conj().T @ proj @ bv
    # the compression's singular values are the squared cosines of the principal angles
    cond, tol = float(np.sqrt(_domain_conditioning(compressed))), _domain_tol(tol_domain)
    if not cond > tol:
        raise _outside("subspace is outside the chart domain", cond, tol)
    return ChartPoint(chart, np.linalg.solve(compressed.T, crossed.T).T)


def chart_inverse(pt: ChartPoint) -> Subspace:
    """Graph of the chart coordinate: span of {f + A f} over the F basis."""
    q, _ = np.linalg.qr(_graph(pt.chart, pt.coord.matrix))
    q.setflags(write=False)  # so the subspace keeps it, uncopied
    return Subspace(q)


def _slots(chart: ChartId) -> np.ndarray | None:
    """Column of [B_F | B_G] holding each coordinate; ``None`` unless both bases are coordinate."""
    rows_f, rows_g = chart.f._coord_rows, chart.g._coord_rows
    if rows_f is None or rows_g is None:
        return None
    slots = np.empty(chart.ambient_dim, dtype=np.intp)
    slots[rows_f] = np.arange(rows_f.size)
    slots[rows_g] = np.arange(rows_f.size, slots.size)
    return slots


def _graph(chart: ChartId, coord: np.ndarray) -> np.ndarray:
    """The graph B_F + B_G A of the chart point (chart, A), not orthonormal.

    On two coordinate bases, e_j sits at row ``rows_F[j]`` and A's row l at row
    ``rows_G[l]``, placed by the bases' recorded rows.  A's rows are added to
    zeros, which reads -0 as +0 just as the dense sum does, so the rows are the
    dense ones bit for bit.
    """
    rows_f, rows_g = chart.f._coord_rows, chart.g._coord_rows
    if rows_f is None or rows_g is None:
        return chart.f.basis.matrix + chart.g.basis.matrix @ coord
    graph = np.zeros((chart.ambient_dim, rows_f.size), dtype=complex)
    graph[rows_f, np.arange(rows_f.size)] = 1.0
    graph[rows_g] += coord
    return graph


def _left(coord: np.ndarray, chart: ChartId, basis: Subspace) -> np.ndarray:
    """d - X b for X = ``coord``, with (b, d) the chart's rows applied to ``basis``.

    When the chart's bases and ``basis`` are coordinate, column j of b is e_l
    or 0 as basis coordinate cols[j] is column l of B_F or column i of B_G,
    where d has its one 1 in column j, at row i.  So X b gathers columns of X,
    subtracted from zeros as from the dense d, and no product is taken.
    """
    slots, cols = _slots(chart), basis._coord_rows
    if slots is None or cols is None:
        left = coord @ chart._apply(0, basis)
        np.subtract(chart._apply(1, basis), left, out=left)
    else:
        slots, k = slots[cols], chart.f.dim
        on_f = slots < k
        left = np.zeros((chart.g.dim, cols.size), dtype=complex)
        left[:, on_f] -= coord[:, slots[on_f]]
        left[slots[~on_f] - k, np.flatnonzero(~on_f)] = 1.0
    left.setflags(write=False)  # so an Operator keeps it, uncopied
    return left


def _forward_transition(pt: ChartPoint, target: ChartId, tol_domain: float | None
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one transition every bundle map evaluates: (A', denom = a + b A, left = d - A' b).

    It is :func:`transition_base` with the top block kept: the target's rows on
    the source graph G = B_F + B_G A give denom = R_F' G = a + b A, and A' solves
    A' denom = R_G' G (:func:`_coordinates`).  ``left`` = d - A' b reads the
    target's rows on the source's G basis (:func:`_left`).  Nothing is kept:
    the one reuse, ``pushforward_factors`` then ``pushforward_tensor``, travels
    on the factor pair.
    """
    tol = _domain_tol(tol_domain)
    src = pt.chart
    _require_restrictable(src.f, target)
    denom, moved = _coordinates(target, _graph(src, pt.coord.matrix), tol,
                                "graph leaves the target chart domain")
    denom.setflags(write=False)  # so pushforward_factors wraps it, uncopied
    return moved, denom, _left(moved, target, src.g)


def transition_base(pt: ChartPoint, target: ChartId,
                    tol_domain: float | None = None) -> ChartPoint:
    """Base-manifold transition: re-express a chart point in the target chart.

    A' = (R_G' G)(R_F' G)^{-1}, the target's coordinate rows R' read on the source
    graph G = B_F + B_G A: :func:`chart_forward` on G, without its QR, by the one
    solve every chart coordinate takes (:func:`_coordinates`), and the A' of
    :func:`_forward_transition` bit for bit.  Agrees with
    ``chart_forward(chart_inverse(pt), target)`` up to roundoff.
    """
    tol = _domain_tol(tol_domain)
    _require_restrictable(pt.chart.f, target)
    return ChartPoint(target, _coordinates(target, _graph(pt.chart, pt.coord.matrix), tol,
                                           "graph leaves the target chart domain")[1])
