"""Tangent and cotangent fiber transitions, trace and tensor duality pairings.

Fiber conventions at a chart point over the pair (F, G):

* tangent directions are F -> G coordinate matrices, like the point itself;
* covectors are G -> F matrices paired with tangents through ``Tr(mu X)``;
* tensor covectors are finite sums of rank-one terms ``x (x) y`` with x in
  F-coordinates and y identified with G-coordinates through the chosen basis.

Dual maps are bilinear transposes for the trace pairing, never Hermitian
adjoints: the cotangent transition is the plain transpose of the
reverse-direction tangent fiber map.
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
    ``X -> (d - A' b) X (a + b A)^{-1}``.
    """
    aprime, denom, (a, b, c, d), _ = atlas._forward_transition(v.at, target, tol_domain)
    left = d - aprime @ b
    pushed = np.linalg.solve(denom.T, (left @ v.direction.matrix).T).T
    return TangentVector(ChartPoint(target, aprime), pushed)


def _reverse_fiber(pt: ChartPoint, target: ChartId, tol_domain: float | None):
    """Data of the inverse-direction tangent fiber map, evaluated at the image point.

    Returns (A', M_r, L_r, b_r, d_r): the reverse fiber map sends a
    target-chart tangent X' to ``L_r X' M_r^{-1}`` back in the source chart;
    b_r and d_r are the raw blocks its two-term factorization is built from.
    """
    aprime, _, _, _ = atlas._forward_transition(pt, target, tol_domain)
    a_r, b_r, _, d_r = atlas._transition_blocks(target, pt.chart)
    m_r = a_r + b_r @ aprime
    atlas._require_domain(atlas._graph_conditioning(target, aprime, m_r), tol_domain,
                          "reverse transition leaves the chart domain")
    l_r = d_r - pt.coord.matrix @ b_r
    return aprime, m_r, l_r, b_r, d_r


def transition_cotangent(c: Covector, target: ChartId,
                         tol_domain: float | None = None) -> Covector:
    """Push a covector to another chart as the dual of the inverse tangent map.

    With the reverse fiber map ``X' -> L_r X' M_r^{-1}``, the trace pairing
    forces ``mu' = M_r^{-1} mu L_r``; the class tag travels unchanged.
    """
    aprime, m_r, l_r, _, _ = _reverse_fiber(c.at, target, tol_domain)
    pushed = np.linalg.solve(m_r, c.form.matrix) @ l_r
    return Covector(ChartPoint(target, aprime), pushed,
                    class_tag=c.class_tag, metadata=c.metadata)


def pushforward_factors(pt: ChartPoint, target: ChartId,
                        tol_domain: float | None = None
                        ) -> tuple[tuple[Operator, Operator], ...]:
    """Left/right multiplier pairs (S_j, T_j) of the inverse tangent fiber map.

    The reverse map factors as ``X' -> T_1 X' S_1 + T_2 X' S_2`` straight from
    the product rule: T_1 is the G'-to-G block, T_2 = -A b_r, and both share
    S = M_r^{-1}.  These are the factors consumed by :func:`pushforward_tensor`.
    """
    _, m_r, _, b_r, d_r = _reverse_fiber(pt, target, tol_domain)
    s = Operator(np.linalg.solve(m_r, np.eye(m_r.shape[0])))
    return ((s, Operator(d_r)), (s, Operator(-(pt.coord.matrix @ b_r))))


def tensor_pushforward_terms(terms: Sequence[tuple[np.ndarray, np.ndarray]],
                             factors: Sequence[tuple[Operator, Operator]]
                             ) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Mechanical term map {(x_i, y_i)} -> {(S_j x_i, T_j^T y_i)} over all i, j."""
    out = []
    for s, t in factors:
        s_mat, t_mat = as_matrix(s), as_matrix(t)
        for x, y in terms:
            out.append((s_mat @ x, t_mat.T @ y))
    return tuple(out)


def pushforward_tensor(tc: TensorCovector, factors: Sequence[tuple[Operator, Operator]],
                       target: ChartId, tol_domain: float | None = None,
                       factor_tol: float = 1e-8) -> TensorCovector:
    """Push a tensor covector through a chart change in rank-one form.

    The supplied factors must realize the inverse-direction tangent fiber map;
    they are checked against it on a probe basis and rejected with
    :class:`FactorMismatch` otherwise.
    """
    aprime, m_r, l_r, _, _ = _reverse_fiber(tc.at, target, tol_domain)
    s_r = np.linalg.solve(m_r, np.eye(m_r.shape[0]))
    pairs = [(as_matrix(s), as_matrix(t)) for s, t in factors]
    _check_factors(pairs, l_r, s_r, factor_tol)
    return TensorCovector(ChartPoint(target, aprime), tensor_pushforward_terms(tc.terms, pairs))


def _check_factors(pairs, l_r: np.ndarray, s_r: np.ndarray, tol: float) -> None:
    kg_t = pairs[0][1].shape[1] if pairs else l_r.shape[1]
    kf_t = pairs[0][0].shape[0] if pairs else s_r.shape[0]
    scale = 1.0 + float(np.abs(l_r).max(initial=0.0)) * float(np.abs(s_r).max(initial=0.0))
    if kg_t * kf_t <= 256:
        probes = [np.zeros((kg_t, kf_t), complex) for _ in range(kg_t * kf_t)]
        for idx, probe in enumerate(probes):
            probe[idx // kf_t, idx % kf_t] = 1.0
    else:
        # fibers too large for the elementary basis: seeded random probes
        rng = np.random.default_rng(0)
        probes = [rng.standard_normal((kg_t, kf_t)) + 1j * rng.standard_normal((kg_t, kf_t))
                  for _ in range(16)]
    worst = 0.0
    for probe in probes:
        expected = l_r @ probe @ s_r
        provided = sum(t @ probe @ s for s, t in pairs) if pairs else np.zeros_like(expected)
        worst = max(worst, float(np.abs(provided - expected).max(initial=0.0)))
    if worst > tol * scale:
        raise FactorMismatch(
            f"factors deviate from the tangent fiber map by {worst:.3e} on probes")


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


def operator_to_tensor(c: Covector, rank_tol: float | None = None) -> TensorCovector:
    """SVD-minimal rank-one decomposition of a covector; zero maps to no terms."""
    mu = c.form.matrix
    if min(mu.shape) == 0:
        return TensorCovector(c.at, ())
    u, sv, vh = np.linalg.svd(mu, full_matrices=False)
    if rank_tol is None:
        rank_tol = max(mu.shape) * np.finfo(float).eps
    cut = sv > rank_tol * (sv[0] if sv.size else 0.0)
    terms = tuple((u[:, i] * sv[i], vh[i, :]) for i in range(sv.size) if cut[i])
    return TensorCovector(c.at, terms)
