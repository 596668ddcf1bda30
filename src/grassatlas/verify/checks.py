"""Named invariant checks executed by the verification suites.

Every invariant declared by the library modules appears here exactly once,
keyed by a stable name.  A check is the body of one seeded trial,
``fn(cfg, trial, rng, n)``: ``cfg`` is the suite configuration, ``trial`` the
trial index, ``rng`` the trial's generator and ``n`` its ambient dimension.
An error check returns the trial's error; an exact check (tolerance zero)
returns whether the trial violated the invariant.  The trial loop, the worst
case and its seed tag live in :func:`grassatlas.verify.runner.run_suite`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..atlas import (DEFAULT_TOL_DOMAIN, ChartId, Subspace, chart_forward,
                     chart_forward_projector, chart_inverse, in_chart_domain,
                     transition_base)
from ..bundles import (Covector, TangentVector, TensorCovector,
                       pushforward_factors, pushforward_tensor, tensor_pairing,
                       tensor_to_operator, trace_pairing, transition_cotangent,
                       transition_tangent)
from ..errors import ChartDomainViolation
from ..operators import (DecayProfile, Operator, haar_frame, oblique_projections,
                         operator_norm, schatten_norm)
from ..restricted import (PolarizedModel, _graph_point, build_truncation_ladder,
                          generate_restricted_point, membership_report,
                          virtual_dimension, virtual_dimension_by_rank)
from ..sampling import (near_boundary_subspace, polarization_preserving_unitary,
                        random_chart, random_chart_containing, random_chart_point,
                        random_fiber_matrix, random_subspace)
from .oracles import complex_step_tangent, finite_difference_tangent


@dataclass(frozen=True)
class CheckDef:
    name: str
    suite: str
    tolerance: float
    fn: Callable
    pinned_trials: int | None = None


_REGISTRY: list[CheckDef] = []


def _check(name: str, suite: str, tolerance: float, trials: int | None = None):
    def wrap(fn):
        _REGISTRY.append(CheckDef(name, suite, tolerance, fn, trials))
        return fn
    return wrap


def registry() -> tuple[CheckDef, ...]:
    return tuple(_REGISTRY)


def _subspace_dim(rng: np.random.Generator, n: int) -> int:
    return int(rng.integers(1, n))


def _max_abs(a: np.ndarray) -> float:
    return float(np.abs(a).max(initial=0.0))


def _chart_chain(rng, n, k, count=3, scale=0.4):
    """A point on a random chart plus ``count - 1`` charts holding its graph with margin."""
    first = random_chart(n, k, rng)
    pt = random_chart_point(first, rng, scale=scale)
    h = chart_inverse(pt)
    return pt, [first] + [random_chart_containing(h, rng) for _ in range(count - 1)]


# ---------------------------------------------------------------------------
# operator foundation (runs with the atlas suite)

@_check("projection_identities", "atlas", 1e-12)
def _projection_identities(cfg, trial, rng, n):
    chart = random_chart(n, _subspace_dim(rng, n), rng)
    onto_f, onto_g = (p.matrix for p in oblique_projections(chart.f, chart.g))
    scale = 1.0 + np.linalg.norm(onto_f, 2)
    return max(
        np.linalg.norm(onto_f @ onto_f - onto_f, 2),
        np.linalg.norm(onto_f + onto_g - np.eye(n), 2),
    ) / scale


@_check("schatten_ideal", "atlas", 1e-10, trials=200)
def _schatten_ideal(cfg, trial, rng, n):
    n = 8
    p = (1.0, 2.0, 3.0)[trial % 3]
    t = random_fiber_matrix(n, n, rng)
    x = random_fiber_matrix(n, n, rng)
    s = random_fiber_matrix(n, n, rng)
    lhs = schatten_norm(t @ x @ s, p).value
    rhs = operator_norm(t) * schatten_norm(x, p).value * operator_norm(s)
    return (lhs - rhs) / (rhs + 1e-300)


@_check("schatten_unitary_invariance", "atlas", 1e-10)
def _schatten_unitary(cfg, trial, rng, n):
    cols = n if trial % 2 == 0 else max(1, n - 2)
    p = (1.0, 2.0, 3.0)[trial % 3]
    t = random_fiber_matrix(n, cols, rng)
    u = haar_frame(n, n, rng)
    v = haar_frame(cols, cols, rng)
    base = schatten_norm(t, p).value
    rotated = schatten_norm(u @ t @ v, p).value
    return abs(rotated - base) / (base + 1e-300)


@_check("schatten_monotonicity", "atlas", 1e-12)
def _schatten_monotonicity(cfg, trial, rng, n):
    t = random_fiber_matrix(n, n, rng)
    v1 = schatten_norm(t, 1.0).value
    v2 = schatten_norm(t, 2.0).value
    v3 = schatten_norm(t, 3.0).value
    top = operator_norm(t)
    return max(v2 - v1, v3 - v2, top - v3) / (1.0 + v1)


# ---------------------------------------------------------------------------
# atlas

@_check("chart_roundtrip_fiber", "atlas", 1e-10)
def _roundtrip_fiber(cfg, trial, rng, n):
    chart = random_chart(n, _subspace_dim(rng, n), rng)
    pt = random_chart_point(chart, rng)
    back = chart_forward(chart_inverse(pt), chart)
    return _max_abs(back.coord.matrix - pt.coord.matrix)


@_check("chart_roundtrip_subspace", "atlas", 1e-10)
def _roundtrip_subspace(cfg, trial, rng, n):
    h = random_subspace(n, _subspace_dim(rng, n), rng)
    chart = random_chart_containing(h, rng)
    return h.distance_to(chart_inverse(chart_forward(h, chart)))


@_check("transition_consistency", "atlas", 1e-10)
def _transition_consistency(cfg, trial, rng, n):
    pt, (_, dst) = _chart_chain(rng, n, _subspace_dim(rng, n), count=2, scale=0.5)
    direct = transition_base(pt, dst)
    oracle = chart_forward(chart_inverse(pt), dst)
    return _max_abs(direct.coord.matrix - oracle.coord.matrix)


@_check("transition_cocycle", "atlas", 1e-9)
def _transition_cocycle(cfg, trial, rng, n):
    pt, (_, c2, c3) = _chart_chain(rng, n, _subspace_dim(rng, n))
    through = transition_base(transition_base(pt, c2), c3)
    direct = transition_base(pt, c3)
    scale = 1.0 + _max_abs(direct.coord.matrix)
    return _max_abs(through.coord.matrix - direct.coord.matrix) / scale


@_check("chart_covering", "atlas", 0.0)
def _chart_covering(cfg, trial, rng, n):
    h = random_subspace(n, _subspace_dim(rng, n), rng)
    pool = [random_chart(n, h.dim, rng) for _ in range(8)]
    return not any(in_chart_domain(h, chart).conditioning > DEFAULT_TOL_DOMAIN
                   for chart in pool)


@_check("hilbert_specialization", "atlas", 1e-11)
def _hilbert_specialization(cfg, trial, rng, n):
    w = random_subspace(n, _subspace_dim(rng, n), rng)
    # the projector route squares the domain conditioning; stay off the boundary
    chart = random_chart_containing(w, rng, flavor="hilbert")
    general = chart_forward(w, chart)
    projector_route = chart_forward_projector(w, chart)
    return _max_abs(general.coord.matrix - projector_route.coord.matrix)


@_check("near_boundary_errors", "atlas", 0.0)
def _near_boundary(cfg, trial, rng, n):
    n = max(4, n)
    k = _subspace_dim(rng, n)
    chart = ChartId.hilbert(random_subspace(n, k, rng))
    target = 10.0 ** rng.uniform(-7.0, -5.0)
    h = near_boundary_subspace(chart, rng, target)
    dc = in_chart_domain(h, chart)
    ok = dc.contains and abs(dc.conditioning - target) <= 0.25 * target
    try:
        chart_forward(h, chart)  # default threshold sits below the band
    except ChartDomainViolation:
        ok = False
    try:
        chart_forward(h, chart, tol_domain=1e-4)
        ok = False  # must refuse once the threshold is raised above the band
    except ChartDomainViolation:
        pass
    return not ok


# ---------------------------------------------------------------------------
# bundles

def _fiber_instance(rng, n, k):
    pt, (src, dst) = _chart_chain(rng, n, k, count=2, scale=0.5)
    x = random_fiber_matrix(src.g.dim, src.f.dim, rng)
    mu = random_fiber_matrix(src.f.dim, src.g.dim, rng)
    return src, pt, dst, x, mu


def _jacobian_error(rng, n, oracle):
    """Relative gap between the closed-form tangent map and a derivative oracle."""
    _, pt, dst, x, _ = _fiber_instance(rng, n, _subspace_dim(rng, n))
    closed = transition_tangent(TangentVector(pt, Operator(x)), dst).direction.matrix
    scale = 1.0 + np.linalg.norm(closed)
    return float(np.linalg.norm(closed - oracle(pt, dst, x))) / scale


@_check("tangent_jacobian_fd", "bundles", 1e-6)
def _jacobian_fd(cfg, trial, rng, n):
    return _jacobian_error(rng, n, finite_difference_tangent)


@_check("tangent_jacobian_complex_step", "bundles", 1e-10)
def _jacobian_complex_step(cfg, trial, rng, n):
    return _jacobian_error(rng, n, complex_step_tangent)


@_check("duality_invariance", "bundles", 1e-9)
def _duality_invariance(cfg, trial, rng, n):
    _, pt, dst, x, mu = _fiber_instance(rng, n, _subspace_dim(rng, n))
    tangent = TangentVector(pt, Operator(x))
    covector = Covector(pt, Operator(mu))
    before = trace_pairing(covector, tangent)
    after = trace_pairing(transition_cotangent(covector, dst),
                          transition_tangent(tangent, dst))
    return abs(after - before) / (1.0 + abs(before))


@_check("cotangent_contravariance", "bundles", 1e-9)
def _cotangent_contravariance(cfg, trial, rng, n):
    pt, (c1, c2, c3) = _chart_chain(rng, n, _subspace_dim(rng, n))
    mu = Covector(pt, Operator(random_fiber_matrix(c1.f.dim, c1.g.dim, rng)))
    through = transition_cotangent(transition_cotangent(mu, c2), c3)
    direct = transition_cotangent(mu, c3)
    scale = 1.0 + _max_abs(direct.form.matrix)
    return _max_abs(through.form.matrix - direct.form.matrix) / scale


@_check("tensor_commuting_square", "bundles", 1e-10)
def _tensor_commuting_square(cfg, trial, rng, n):
    src, pt, dst, _, _ = _fiber_instance(rng, n, _subspace_dim(rng, n))
    terms = tuple(
        (random_fiber_matrix(src.f.dim, 1, rng)[:, 0],
         random_fiber_matrix(src.g.dim, 1, rng)[:, 0])
        for _ in range(3))
    tc = TensorCovector(pt, terms)
    factors = pushforward_factors(pt, dst)
    tensor_route = tensor_to_operator(pushforward_tensor(tc, factors, dst))
    operator_route = transition_cotangent(tensor_to_operator(tc), dst)
    scale = 1.0 + _max_abs(operator_route.form.matrix)
    return _max_abs(tensor_route.form.matrix - operator_route.form.matrix) / scale


@_check("pairing_bilinearity", "bundles", 1e-12)
def _pairing_bilinearity(cfg, trial, rng, n):
    chart = random_chart(n, _subspace_dim(rng, n), rng)
    pt = random_chart_point(chart, rng)
    kf, kg = chart.f.dim, chart.g.dim
    alpha = complex(rng.standard_normal(), rng.standard_normal())
    beta = complex(rng.standard_normal(), rng.standard_normal())
    x = TangentVector(pt, Operator(random_fiber_matrix(kg, kf, rng)))
    y = TangentVector(pt, Operator(random_fiber_matrix(kg, kf, rng)))
    mu = Covector(pt, Operator(random_fiber_matrix(kf, kg, rng)))
    nu = Covector(pt, Operator(random_fiber_matrix(kf, kg, rng)))
    combo = TangentVector(pt, Operator(alpha * x.direction.matrix
                                       + beta * y.direction.matrix))
    mixed = Covector(pt, Operator(alpha * mu.form.matrix + beta * nu.form.matrix))
    tc = TensorCovector(pt, tuple(
        (random_fiber_matrix(kf, 1, rng)[:, 0], random_fiber_matrix(kg, 1, rng)[:, 0])
        for _ in range(2)))
    lhs = trace_pairing(mu, combo)
    rhs = alpha * trace_pairing(mu, x) + beta * trace_pairing(mu, y)
    err = abs(lhs - rhs) / (1.0 + abs(rhs))
    lhs2 = trace_pairing(mixed, x)
    rhs2 = alpha * trace_pairing(mu, x) + beta * trace_pairing(nu, x)
    err = max(err, abs(lhs2 - rhs2) / (1.0 + abs(rhs2)))
    lhs3 = tensor_pairing(combo, tc)
    rhs3 = alpha * tensor_pairing(x, tc) + beta * tensor_pairing(y, tc)
    return max(err, abs(lhs3 - rhs3) / (1.0 + abs(rhs3)))


# ---------------------------------------------------------------------------
# restricted

def _matched_charts(model, vd, rng):
    """Two hilbert charts whose base subspaces carry the given virtual dimension."""
    v0, _ = _graph_point(model, DecayProfile.zero(), vd, 0)
    v1, _ = _graph_point(model, DecayProfile.geometric(0.45), vd,
                         int(rng.integers(2 ** 31)))
    return ChartId.hilbert(v0), ChartId.hilbert(v1)


@_check("virtual_dim_invariance", "restricted", 0.0)
def _virtual_dim_invariance(cfg, trial, rng, n):
    side = max(4, n // 2)
    model = PolarizedModel(side, side)
    vd = (-2, -1, 0, 1, 2)[trial % 5]
    point = generate_restricted_point(model, 1.0, DecayProfile.geometric(0.55),
                                      virtual_dim=vd, seed=int(rng.integers(2 ** 31)))
    chart0, chart1 = _matched_charts(model, vd, rng)
    pt = chart_forward(point.w, chart0)
    moved = chart_inverse(transition_base(pt, chart1))
    return (virtual_dimension(moved, model) != vd
            or virtual_dimension_by_rank(moved, model) != vd)


@_check("diff_norm_unitary_invariance", "restricted", 1e-10)
def _diff_norm_unitary(cfg, trial, rng, n):
    side = max(4, n // 2)
    model = PolarizedModel(side, side)
    p = (1.0, 2.0)[trial % 2]
    vd = (-1, 0, 1)[trial % 3]
    point = generate_restricted_point(model, p, DecayProfile.geometric(0.6),
                                      virtual_dim=vd, seed=int(rng.integers(2 ** 31)))
    u = polarization_preserving_unitary(side, side, rng)
    rotated = membership_report(Subspace(u @ point.w.basis.matrix), model, p)
    return abs(rotated.diff_norm - point.diff_norm) / (1.0 + point.diff_norm)


@_check("membership_envelope", "restricted", 0.0)
def _membership_envelope(cfg, trial, rng, n):
    side = max(4, n // 2)
    model = PolarizedModel(side, side)
    rate = float(rng.uniform(0.6, 0.8))
    vd = (-2, -1, 0, 1, 2)[trial % 5]
    point = generate_restricted_point(model, 1.0, DecayProfile.geometric(rate),
                                      virtual_dim=vd, seed=int(rng.integers(2 ** 31)))
    ok = point.plus_conditioning > 0.05
    a, b = point.minus_norm, point.diff_norm
    if a > 1e-15 or b > 1e-15:
        factor = max(a, b) / max(min(a, b), 1e-300)
        ok &= factor <= 2.0 + point.diff_norm + 1e-9
    return not ok


@_check("ladder_embedding_exact", "restricted", 0.0, trials=1)
def _ladder_embedding(cfg, trial, rng, n):
    # build_truncation_ladder raises LadderMismatch unless the rungs nest bit for bit
    build_truncation_ladder([(d, d) for d in cfg.ladder], 1.0, DecayProfile.geometric(0.5),
                            virtual_dim=0, seed=cfg.seed)
    return False
