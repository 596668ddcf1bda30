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
tolerance): the source point keeps the last one it evaluated, so a tangent and
cotangent pair, or ``pushforward_factors`` followed by ``pushforward_tensor``,
builds the transition blocks once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import atlas
from .atlas import ChartId, ChartPoint
from .errors import ChartMismatch, DimensionMismatch, FactorMismatch, PairingMismatch
from .operators import Operator, as_matrix

CLASS_TAGS = ("unrestricted", "trace_class_emulated")


@dataclass(frozen=True, eq=False)
class TangentVector:
    """Tangent direction attached to a chart point."""

    at: ChartPoint
    direction: Operator

    def __post_init__(self):
        direction = self.direction if isinstance(self.direction, Operator) \
            else Operator(self.direction)
        if direction.shape != self.at.coord.shape:
            raise DimensionMismatch(
                f"tangent direction must have shape {self.at.coord.shape}, "
                f"got {direction.shape}")
        atlas._require_finite(direction.matrix, "tangent direction")
        object.__setattr__(self, "direction", direction)


@dataclass(frozen=True, eq=False)
class Covector:
    """Cotangent fiber element: a G -> F matrix paired by the trace."""

    at: ChartPoint
    form: Operator
    class_tag: str = "unrestricted"
    metadata: dict | None = None

    def __post_init__(self):
        form = self.form if isinstance(self.form, Operator) else Operator(self.form)
        expected = (self.at.coord.cols, self.at.coord.rows)
        if form.shape != expected:
            raise DimensionMismatch(
                f"covector must have the transposed shape {expected}, got {form.shape}")
        atlas._require_finite(form.matrix, "covector")
        if self.class_tag not in CLASS_TAGS:
            raise ValueError(f"unknown covector class tag {self.class_tag!r}")
        if self.class_tag == "trace_class_emulated" and self.metadata is None:
            raise ValueError("trace_class_emulated covectors must carry decay metadata")
        object.__setattr__(self, "form", form)


@dataclass(frozen=True, eq=False)
class TensorCovector:
    """Finite sum of rank-one tensors representing a predual fiber element."""

    at: ChartPoint
    terms: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __post_init__(self):
        kf, kg = self.at.coord.cols, self.at.coord.rows
        cleaned = []
        for x, y in self.terms:
            x = np.asarray(x, dtype=complex).reshape(-1)
            y = np.asarray(y, dtype=complex).reshape(-1)
            if x.size != kf or y.size != kg:
                raise DimensionMismatch(
                    f"tensor term shapes ({x.size}, {y.size}) do not match chart ({kf}, {kg})")
            atlas._require_finite(np.concatenate((x, y)), "tensor term")
            x.setflags(write=False)
            y.setflags(write=False)
            cleaned.append((x, y))
        object.__setattr__(self, "terms", tuple(cleaned))


def _require_same_point(first: ChartPoint, second: ChartPoint) -> None:
    if not first.chart.same_chart(second.chart):
        raise ChartMismatch("fiber objects are attached to different charts")
    a, b = first.coord.matrix, second.coord.matrix
    scale = 1.0 + float(np.max(np.abs(a), initial=0.0))
    if float(np.max(np.abs(a - b), initial=0.0)) > 1e-10 * scale:
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
    ``mu' = S mu L_r``; the class tag travels unchanged.  The inverse map's
    domain check reads the point's own coordinate (:func:`_invertible_transition`),
    and a tangent pushed from the same point to the same chart shares the transition.
    """
    fwd = _invertible_transition(c.at, target, tol_domain)
    pushed = np.linalg.solve(fwd.left.T, (fwd.denom @ c.form.matrix).T).T
    return Covector(ChartPoint(target, fwd.coord), pushed,
                    class_tag=c.class_tag, metadata=c.metadata)


def pushforward_factors(pt: ChartPoint, target: ChartId,
                        tol_domain: float | None = None) -> tuple[Operator, Operator]:
    """The operator pair (S, L_r) of the inverse tangent fiber map ``X' -> L_r X' S``.

    S = a + b A is the forward ``denom``, and L_r = d_r - A b_r with d_r = R_G B_G'
    and b_r = R_F B_G' read from the source chart's rows, so L_r is found without
    inverting the forward ``left``.  Domain checks as in :func:`transition_cotangent`;
    consumed by :func:`pushforward_tensor`, which on the same point and chart
    reuses the transition evaluated here.
    """
    fwd = _invertible_transition(pt, target, tol_domain)
    (rows_f, rows_g), bg = pt.chart._rows, target.g.basis.matrix
    return Operator(fwd.denom), Operator(rows_g @ bg - pt.coord.matrix @ (rows_f @ bg))


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
    kf x kf and T kg x kg, else :class:`DimensionMismatch`, and probes check
    ``X' -> T X' S`` against L_r = (d - A' b)^{-1} and S = a + b A from the forward
    blocks, a route independent of the reverse rows ``pushforward_factors`` reads,
    and reject it with :class:`FactorMismatch`.  Domain checks as in
    :func:`transition_cotangent`; after :func:`pushforward_factors` on the same
    point and chart, the forward transition is not evaluated again.
    """
    fwd = _invertible_transition(tc.at, target, tol_domain)
    s, t = _factor_pair(factors)
    kf, kg = tc.at.coord.cols, tc.at.coord.rows
    if s.shape != (kf, kf) or t.shape != (kg, kg):
        raise DimensionMismatch(
            f"factors must be ({kf}, {kf}) and ({kg}, {kg}), got {s.shape} and {t.shape}")
    l_r = np.linalg.inv(fwd.left)
    scale = 1.0 + float(np.abs(l_r).max(initial=0.0)) * float(np.abs(fwd.denom).max(initial=0.0))
    worst = _factor_deviation(s, t, l_r, fwd.denom)
    if worst > 1e-8 * scale:
        raise FactorMismatch(
            f"factors deviate from the tangent fiber map by {worst:.3e} on probes")
    return TensorCovector(ChartPoint(target, fwd.coord), tensor_pushforward_terms(tc.terms, (s, t)))


def _factor_pair(factors) -> tuple[np.ndarray, np.ndarray]:
    """The pair (S, T) as two matrices; anything else is a :class:`DimensionMismatch`."""
    try:
        s, t = factors
        return as_matrix(s), as_matrix(t)
    except (TypeError, ValueError) as exc:
        raise DimensionMismatch(f"factors must be one pair (S, T) of matrices: {exc}") from None


def _probes(kg: int, kf: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Rank-one probe directions (u, v): the elementary basis up to 256 pairs, else 16 seeded."""
    if kg * kf <= 256:
        return [(u, v) for u in np.eye(kg) for v in np.eye(kf)]
    rng = np.random.default_rng(0)
    gauss = rng.standard_normal((16, kg + kf)) + 1j * rng.standard_normal((16, kg + kf))
    return [(row[:kg], row[kg:]) for row in gauss]


def _factor_deviation(s: np.ndarray, t: np.ndarray, l_r: np.ndarray, s_r: np.ndarray) -> float:
    """Largest entry of T (u v^T) S - L_r (u v^T) S_r over the probes.

    Each probe costs matrix-vector work: T (u v^T) S = (T u)(v^T S).  When S is
    S_r the difference is the rank-one (T u - L_r u)(v^T S), whose largest entry
    is |T u - L_r u|_inf |v^T S|_inf, so no kg x kf matrix is formed.
    """
    probes = _probes(l_r.shape[1], s_r.shape[0])
    if np.array_equal(s, s_r):
        return max((float(np.abs(t @ u - l_r @ u).max() * np.abs(v @ s).max())
                    for u, v in probes), default=0.0)
    return max((float(np.abs(np.outer(t @ u, v @ s) - np.outer(l_r @ u, v @ s_r)).max())
                for u, v in probes), default=0.0)


def trace_pairing(c: Covector, v: TangentVector) -> complex:
    """Duality pairing ``Tr(mu X)``; both trace orders are computed and compared."""
    _require_same_point(c.at, v.at)
    mu, x = c.form.matrix, v.direction.matrix
    over_f = complex(np.trace(mu @ x))
    over_g = complex(np.trace(x @ mu))
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
