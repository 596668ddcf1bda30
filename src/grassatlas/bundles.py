"""Tangent and cotangent fiber transitions, trace and tensor duality pairings.

Fiber conventions at a chart point over the pair (F, G):

* tangent directions are F -> G coordinate matrices, like the point itself;
* covectors are G -> F matrices paired with tangents through ``Tr(mu X)``;
* tensor covectors are finite sums of rank-one terms ``x (x) y`` with x in
  F-coordinates and y identified with G-coordinates through the chosen basis.

Dual maps are bilinear transposes for the trace pairing, never Hermitian
adjoints: the cotangent transition is the plain transpose of the inverse of
the forward tangent fiber map, derived from it rather than re-evaluated.  That
inverse is ``X' -> L_r X' S``, so on tensor covectors the transition is the one
operator pair ``x (x) y -> S x (x) L_r^T y`` and keeps the number of terms.

Every map here reads one forward transition per (point, target chart, domain
tolerance), made whole at once: A', the denominator and the left factor.  It is
``atlas.transition_base``'s solve on the source graph with the denominator
kept.  The source point keeps the last one, so a tangent and cotangent pair, or
``pushforward_factors`` followed by ``pushforward_tensor``, solves once.
``atlas.transition_base`` neither reads nor writes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import atlas
from .atlas import ChartId, ChartPoint
from .errors import ChartMismatch, DimensionMismatch, FactorMismatch, PairingMismatch
from .operators import Operator, _frozen, _require_finite, as_matrix


def _fiber_matrix(value, shape: tuple[int, int], what: str) -> Operator:
    """``value`` as a finite Operator of the fiber's ``shape``."""
    op = value if isinstance(value, Operator) else Operator(value)
    if op.shape != shape:
        raise DimensionMismatch(f"{what} must have shape {shape}, got {op.shape}")
    _require_finite(op.matrix, what)
    return op


@dataclass(frozen=True, eq=False)
class TangentVector:
    """Tangent direction attached to a chart point."""

    at: ChartPoint
    direction: Operator

    def __post_init__(self):
        object.__setattr__(self, "direction", _fiber_matrix(
            self.direction, self.at.coord.shape, "tangent direction"))


@dataclass(frozen=True, eq=False)
class Covector:
    """Cotangent fiber element: a G -> F matrix paired by the trace."""

    at: ChartPoint
    form: Operator

    def __post_init__(self):
        object.__setattr__(self, "form", _fiber_matrix(
            self.form, self.at.coord.shape[::-1], "covector"))


@dataclass(frozen=True, eq=False)
class TensorCovector:
    """Finite sum of rank-one tensors representing a predual fiber element."""

    at: ChartPoint
    terms: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __post_init__(self):
        kf, kg = self.at.coord.cols, self.at.coord.rows
        cleaned = []
        for x, y in self.terms:
            # kept or copied by the Operator rule, so no caller array is aliased or frozen
            x, y = _frozen(x, complex).reshape(-1), _frozen(y, complex).reshape(-1)
            if x.size != kf or y.size != kg:
                raise DimensionMismatch(
                    f"tensor term shapes ({x.size}, {y.size}) do not match chart ({kf}, {kg})")
            _require_finite(np.concatenate((x, y)), "tensor term")
            cleaned.append((x, y))
        object.__setattr__(self, "terms", tuple(cleaned))


def _absmax(mat: np.ndarray) -> float:
    return float(np.abs(mat).max(initial=0.0))


def _require_same_point(first: ChartPoint, second: ChartPoint) -> None:
    if not first.chart.same_chart(second.chart):
        raise ChartMismatch("fiber objects are attached to different charts")
    a, b = first.coord.matrix, second.coord.matrix
    if _absmax(a - b) > 1e-10 * (1.0 + _absmax(a)):
        raise ChartMismatch("fiber objects are attached to different chart points")


def transition_tangent(v: TangentVector, target: ChartId,
                       tol_domain: float | None = None) -> TangentVector:
    """Push a tangent vector to another chart.

    The fiber map is the derivative of the base transition at the base point,
    in closed form from the product-rule expansion of the solve:
    ``X -> (d - A' b) X (a + b A)^{-1}``, read from the point's forward transition.
    """
    fwd = atlas._forward_transition(v.at, target, tol_domain)
    pushed = np.linalg.solve(fwd.denom.T, (fwd.left @ v.direction.matrix).T).T
    return TangentVector(ChartPoint(target, fwd.coord), pushed)


def _invertible_transition(pt: ChartPoint, target: ChartId, tol_domain: float | None):
    """The forward transition, once the inverse map's domain is checked as well.

    With B_F + B_G A = Q R the source chart sees the graph through R^{-1}, so the
    margin is 1/|R|_2 = 1/|B_F + B_G A|_2: the point's own chart point
    (chart, A) decides it (:func:`atlas._require_domain`).
    """
    fwd = atlas._forward_transition(pt, target, tol_domain)
    atlas._require_domain(pt.chart, pt.coord.matrix, tol_domain,
                          "reverse transition leaves the chart domain")
    return fwd


def transition_cotangent(c: Covector, target: ChartId,
                         tol_domain: float | None = None) -> Covector:
    """Push a covector to another chart as the dual of the inverse tangent map.

    The inverse fiber map is ``X' -> L_r X' S`` with S = a + b A, the forward
    ``denom``, and L_r = (d - A' b)^{-1}, so the trace pairing forces
    ``mu' = S mu L_r``.  The inverse map's
    domain check reads the point's own coordinate (:func:`_invertible_transition`),
    and a tangent pushed from the same point to the same chart shares the transition.
    """
    fwd = _invertible_transition(c.at, target, tol_domain)
    pushed = np.linalg.solve(fwd.left.T, (fwd.denom @ c.form.matrix).T).T
    return Covector(ChartPoint(target, fwd.coord), pushed)


def pushforward_factors(pt: ChartPoint, target: ChartId,
                        tol_domain: float | None = None) -> tuple[Operator, Operator]:
    """The operator pair (S, L_r) of the inverse tangent fiber map ``X' -> L_r X' S``.

    S = a + b A is the forward ``denom``, and L_r = d_r - A b_r with d_r = R_G B_G'
    and b_r = R_F B_G' read from the source chart's rows: the reverse chart change's
    d - A' b (:func:`atlas._left`), a column gather of A between coordinate charts,
    found without inverting the forward ``left``.  Both are frozen where they are
    made, so the pair wraps them uncopied.  Domain checks as in
    :func:`transition_cotangent`; consumed by :func:`pushforward_tensor`, which on
    the same point and chart reuses the transition evaluated here.
    """
    fwd = _invertible_transition(pt, target, tol_domain)
    return Operator(fwd.denom), Operator(atlas._left(pt.coord.matrix, pt.chart, target.g))


def tensor_pushforward_terms(terms: Sequence[tuple[np.ndarray, np.ndarray]],
                             factors: tuple[Operator, Operator]
                             ) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Mechanical term map {(x_i, y_i)} -> {(S x_i, T^T y_i)} for the pair (S, T)."""
    s, t = _factor_pair(factors)
    if any(np.shape(x) != (s.shape[1],) or np.shape(y) != (t.shape[0],) for x, y in terms):
        raise DimensionMismatch(f"tensor terms do not match the factors {s.shape} and {t.shape}")
    return tuple((s @ x, t.T @ y) for x, y in terms)


def pushforward_tensor(tc: TensorCovector, factors: tuple[Operator, Operator],
                       target: ChartId, tol_domain: float | None = None) -> TensorCovector:
    """Push a tensor covector through a chart change in rank-one form, term by term.

    The supplied pair (S, T) must realize the inverse tangent fiber map: S must be
    kf x kf and T kg x kg, else :class:`DimensionMismatch`, and ``X' -> T X' S``
    must equal ``X' -> L_r X' S_r`` for every X', with S_r = a + b A and
    L_r = (d - A' b)^{-1} from the forward record, a route independent of the
    reverse rows ``pushforward_factors`` reads.  One exact identity decides that
    (:func:`_factor_residual`), and a pair off it raises :class:`FactorMismatch`.
    Domain checks as in :func:`transition_cotangent`; after
    :func:`pushforward_factors` on the same point and chart, the forward
    transition is not evaluated again.
    """
    fwd = _invertible_transition(tc.at, target, tol_domain)
    s, t = _factor_pair(factors)
    kf, kg = tc.at.coord.cols, tc.at.coord.rows
    if s.shape != (kf, kf) or t.shape != (kg, kg):
        raise DimensionMismatch(
            f"factors must be ({kf}, {kf}) and ({kg}, {kg}), got {s.shape} and {t.shape}")
    # both routes lose accuracy as the coordinates grow toward a chart boundary
    bound = 1e-12 * (1.0 + _absmax(tc.at.coord.matrix)) * (1.0 + _absmax(fwd.coord))
    # on a zero-dimensional fiber every pair of the right shapes realizes the map
    residual = _factor_residual(s, t, fwd.left, fwd.denom) if kf and kg else 0.0
    if not residual <= bound:
        raise FactorMismatch(
            f"factors deviate from the tangent fiber map by {residual:.3e} relative "
            f"(bound {bound:.1e})", residual=residual, bound=bound)
    return TensorCovector(ChartPoint(target, fwd.coord), tensor_pushforward_terms(tc.terms, (s, t)))


def _factor_pair(factors) -> tuple[np.ndarray, np.ndarray]:
    """The pair (S, T) as two finite matrices.

    Anything but one pair of matrices is a :class:`DimensionMismatch`; a
    non-finite entry is a ``ValueError``, as in the fiber classes.
    """
    try:
        s, t = factors
        s, t = as_matrix(s), as_matrix(t)
    except (TypeError, ValueError) as exc:
        raise DimensionMismatch(f"factors must be one pair (S, T) of matrices: {exc}") from None
    _require_finite(s, "factor S")
    _require_finite(t, "factor T")
    return s, t


def _factor_residual(s: np.ndarray, t: np.ndarray, left: np.ndarray, s_r: np.ndarray) -> float:
    """Larger relative residual of ``left T = lambda I`` and ``lambda S = S_r``.

    With left = L_r^{-1}, ``T X' S = L_r X' S_r`` for every X' exactly when
    T = lambda L_r and lambda S = S_r, with lambda = tr(left T)/kg.  Each
    residual is relative to the product it came from.  A zero lambda or a zero T
    reads inf, a zero S reads 1, and a non-finite product reads NaN, which fails
    every bound.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # overflow reads NaN or inf
        prod = left @ t
        kg = prod.shape[0]
        lam = complex(np.trace(prod)) / kg
        if lam == 0:
            return math.inf
        prod[np.diag_indices(kg)] -= lam
        on_t = _absmax(prod) / (kg * _absmax(left) * _absmax(t))
        on_s = _absmax(lam * s - s_r) / (abs(lam) * _absmax(s) + _absmax(s_r))
        return float(np.max([on_t, on_s]))


def trace_pairing(c: Covector, v: TangentVector) -> complex:
    """Duality pairing ``Tr(mu X) = sum mu_ij X_ji``, summed by F rows, by G rows and compared."""
    _require_same_point(c.at, v.at)
    terms = c.form.matrix * v.direction.matrix.T
    over_f = complex(terms.sum(axis=1).sum())
    over_g = complex(terms.sum(axis=0).sum())
    if abs(over_f - over_g) > 1e-10 * (1.0 + abs(over_f)):
        raise PairingMismatch("trace pairing differs between the two coordinate routes")
    return over_f


def tensor_pairing(v: TangentVector, tc: TensorCovector) -> complex:
    """Pairing ``sum_i <X x_i, y_i>`` with the bilinear coordinate pairing."""
    _require_same_point(v.at, tc.at)
    x_mat = v.direction.matrix
    total = 0j
    for x, y in tc.terms:
        total += complex(np.dot(y, x_mat @ x))
    return total


def tensor_to_operator(tc: TensorCovector) -> Covector:
    """Realize ``sum_i x_i (x) y_i`` as the matrix ``sum_i x_i y_i^T``."""
    kf, kg = tc.at.coord.cols, tc.at.coord.rows
    mu = np.zeros((kf, kg), dtype=complex)
    for x, y in tc.terms:
        mu += np.outer(x, y)
    return Covector(tc.at, mu)


def operator_to_tensor(c: Covector) -> TensorCovector:
    """SVD-minimal rank-one decomposition of a covector; zero maps to no terms."""
    mu = c.form.matrix
    if min(mu.shape) == 0:
        return TensorCovector(c.at, ())
    u, sv, vh = np.linalg.svd(mu, full_matrices=False)
    cut = sv > max(mu.shape) * np.finfo(float).eps * sv[0]
    terms = tuple((u[:, i] * sv[i], vh[i, :]) for i in range(sv.size) if cut[i])
    return TensorCovector(c.at, terms)
