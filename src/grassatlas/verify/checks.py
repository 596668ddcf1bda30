"""Named invariant checks executed by the verification suites.

Every invariant declared by the library modules appears here exactly once,
keyed by a stable name.  Checks report their worst error over seeded trials;
exact-integer checks report a violation count with tolerance zero.
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
from ..errors import ChartDomainViolation, LadderMismatch, SplitFailure
from ..operators import (DecayProfile, Operator, haar_frame, operator_norm,
                         schatten_norm)
from ..restricted import (PolarizedModel, _graph_point, build_truncation_ladder,
                          generate_restricted_point, membership_report,
                          virtual_dimension, virtual_dimension_by_rank)
from ..sampling import (derive_rng, near_boundary_subspace,
                        polarization_preserving_unitary, random_chart,
                        random_chart_containing, random_chart_point,
                        random_fiber_matrix, random_subspace)


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


class CheckContext:
    def __init__(self, cfg, index: int):
        self.cfg = cfg
        self.index = index

    def rng(self, trial: int) -> np.random.Generator:
        return derive_rng(self.cfg.seed, self.index, trial)

    def dim(self, trial: int) -> int:
        return self.cfg.dims[trial % len(self.cfg.dims)]

    def seed_tag(self, trial: int) -> str:
        return f"{self.cfg.seed}.{self.index}.{trial}"


class _Worst:
    """Tracks the largest error and the trial seed that produced it."""

    def __init__(self):
        self.error = 0.0
        self.tag = None

    def update(self, error: float, tag: str) -> None:
        if error > self.error:
            self.error = float(error)
            self.tag = tag

    def result(self) -> tuple[float, str | None]:
        return self.error, self.tag


def _subspace_dim(rng: np.random.Generator, n: int) -> int:
    return int(rng.integers(1, n))


def _transition_instance(rng, n, k, scale=0.5, tries=60):
    """Source chart + point + a second chart containing the graph, all well conditioned."""
    for _ in range(tries):
        src = random_chart(n, k, rng, min_conditioning=1e-2)
        pt = random_chart_point(src, rng, scale=scale)
        h = chart_inverse(pt)
        if in_chart_domain(h, src).conditioning < 5e-2:
            continue
        try:
            dst = random_chart_containing(h, rng, min_domain=5e-2)
        except SplitFailure:
            continue
        return src, pt, h, dst
    raise SplitFailure("no well-conditioned transition instance found")


def _chart_chain(rng, n, k, count=3, scale=0.4, tries=60):
    """A point plus ``count`` charts all containing its graph with margin."""
    for _ in range(tries):
        first = random_chart(n, k, rng, min_conditioning=1e-2)
        pt = random_chart_point(first, rng, scale=scale)
        h = chart_inverse(pt)
        if in_chart_domain(h, first).conditioning < 5e-2:
            continue
        try:
            charts = [first] + [random_chart_containing(h, rng, min_domain=5e-2)
                                for _ in range(count - 1)]
        except SplitFailure:
            continue
        return pt, charts
    raise SplitFailure("no well-conditioned chart chain found")


# ---------------------------------------------------------------------------
# operator foundation (runs with the atlas suite)

@_check("projection_identities", "atlas", 1e-12)
def _projection_identities(ctx: CheckContext, trials: int):
    worst = _Worst()
    for trial in range(trials):
        rng = ctx.rng(trial)
        n = ctx.dim(trial)
        chart = random_chart(n, _subspace_dim(rng, n), rng, min_conditioning=1e-3)
        onto_f, onto_g = chart._projections
        scale = 1.0 + np.linalg.norm(onto_f, 2)
        err = max(
            np.linalg.norm(onto_f @ onto_f - onto_f, 2),
            np.linalg.norm(onto_f + onto_g - np.eye(n), 2),
        ) / scale
        worst.update(err, ctx.seed_tag(trial))
    return worst.result()


@_check("schatten_ideal", "atlas", 1e-10, trials=200)
def _schatten_ideal(ctx: CheckContext, trials: int):
    worst = _Worst()
    for trial in range(trials):
        rng = ctx.rng(trial)
        n = 8
        p = (1.0, 2.0, 3.0)[trial % 3]
        t = random_fiber_matrix(n, n, rng)
        x = random_fiber_matrix(n, n, rng)
        s = random_fiber_matrix(n, n, rng)
        lhs = schatten_norm(t @ x @ s, p).value
        rhs = operator_norm(t) * schatten_norm(x, p).value * operator_norm(s)
        worst.update(max(0.0, (lhs - rhs) / (rhs + 1e-300)), ctx.seed_tag(trial))
    return worst.result()


@_check("schatten_unitary_invariance", "atlas", 1e-10)
def _schatten_unitary(ctx: CheckContext, trials: int):
    worst = _Worst()
    for trial in range(trials):
        rng = ctx.rng(trial)
        n = ctx.dim(trial)
        cols = n if trial % 2 == 0 else max(1, n - 2)
        p = (1.0, 2.0, 3.0)[trial % 3]
        t = random_fiber_matrix(n, cols, rng)
        u = haar_frame(n, n, rng)
        v = haar_frame(cols, cols, rng)
        base = schatten_norm(t, p).value
        rotated = schatten_norm(u @ t @ v, p).value
        worst.update(abs(rotated - base) / (base + 1e-300), ctx.seed_tag(trial))
    return worst.result()


@_check("schatten_monotonicity", "atlas", 1e-12)
def _schatten_monotonicity(ctx: CheckContext, trials: int):
    worst = _Worst()
    for trial in range(trials):
        rng = ctx.rng(trial)
        n = ctx.dim(trial)
        t = random_fiber_matrix(n, n, rng)
        v1 = schatten_norm(t, 1.0).value
        v2 = schatten_norm(t, 2.0).value
        v3 = schatten_norm(t, 3.0).value
        top = operator_norm(t)
        slack = max(v2 - v1, v3 - v2, top - v3) / (1.0 + v1)
        worst.update(max(0.0, slack), ctx.seed_tag(trial))
    return worst.result()


# ---------------------------------------------------------------------------
# atlas

@_check("chart_roundtrip_fiber", "atlas", 1e-10)
def _roundtrip_fiber(ctx: CheckContext, trials: int):
    worst = _Worst()
    for trial in range(trials):
        rng = ctx.rng(trial)
        n = ctx.dim(trial)
        chart = random_chart(n, _subspace_dim(rng, n), rng, min_conditioning=1e-2)
        pt = random_chart_point(chart, rng)
        back = chart_forward(chart_inverse(pt), chart)
        err = float(np.abs(back.coord.matrix - pt.coord.matrix).max(initial=0.0))
        worst.update(err, ctx.seed_tag(trial))
    return worst.result()


@_check("chart_roundtrip_subspace", "atlas", 1e-10)
def _roundtrip_subspace(ctx: CheckContext, trials: int):
    worst = _Worst()
    for trial in range(trials):
        rng = ctx.rng(trial)
        n = ctx.dim(trial)
        h = random_subspace(n, _subspace_dim(rng, n), rng)
        chart = random_chart_containing(h, rng)
        again = chart_inverse(chart_forward(h, chart))
        worst.update(h.distance_to(again), ctx.seed_tag(trial))
    return worst.result()


@_check("transition_consistency", "atlas", 1e-10)
def _transition_consistency(ctx: CheckContext, trials: int):
    worst = _Worst()
    for trial in range(trials):
        rng = ctx.rng(trial)
        n = ctx.dim(trial)
        src, pt, h, dst = _transition_instance(rng, n, _subspace_dim(rng, n))
        direct = transition_base(pt, dst)
        oracle = chart_forward(chart_inverse(pt), dst)
        err = float(np.abs(direct.coord.matrix - oracle.coord.matrix).max(initial=0.0))
        worst.update(err, ctx.seed_tag(trial))
    return worst.result()


@_check("transition_cocycle", "atlas", 1e-9)
def _transition_cocycle(ctx: CheckContext, trials: int):
    worst = _Worst()
    for trial in range(trials):
        rng = ctx.rng(trial)
        n = ctx.dim(trial)
        pt, (c1, c2, c3) = _chart_chain(rng, n, _subspace_dim(rng, n))
        through = transition_base(transition_base(pt, c2), c3)
        direct = transition_base(pt, c3)
        scale = 1.0 + float(np.abs(direct.coord.matrix).max(initial=0.0))
        err = float(np.abs(through.coord.matrix - direct.coord.matrix).max(initial=0.0))
        worst.update(err / scale, ctx.seed_tag(trial))
    return worst.result()


@_check("chart_covering", "atlas", 0.0)
def _chart_covering(ctx: CheckContext, trials: int):
    worst = _Worst()
    violations = 0
    for trial in range(trials):
        rng = ctx.rng(trial)
        n = ctx.dim(trial)
        h = random_subspace(n, _subspace_dim(rng, n), rng)
        pool = [random_chart(n, h.dim, rng, min_conditioning=1e-3) for _ in range(8)]
        if not any(in_chart_domain(h, chart).conditioning > DEFAULT_TOL_DOMAIN
                   for chart in pool):
            violations += 1
            worst.update(float(violations), ctx.seed_tag(trial))
    return float(violations), worst.tag


@_check("hilbert_specialization", "atlas", 1e-11)
def _hilbert_specialization(ctx: CheckContext, trials: int):
    worst = _Worst()
    for trial in range(trials):
        rng = ctx.rng(trial)
        n = ctx.dim(trial)
        k = _subspace_dim(rng, n)
        chart = ChartId.hilbert(random_subspace(n, k, rng))
        w = random_subspace(n, k, rng)
        # the projector route squares the domain conditioning; stay off the boundary
        while in_chart_domain(w, chart).conditioning < 5e-2:
            w = random_subspace(n, k, rng)
        general = chart_forward(w, chart)
        projector_route = chart_forward_projector(w, chart)
        err = float(np.abs(general.coord.matrix
                           - projector_route.coord.matrix).max(initial=0.0))
        worst.update(err, ctx.seed_tag(trial))
    return worst.result()


@_check("near_boundary_errors", "atlas", 0.0)
def _near_boundary(ctx: CheckContext, trials: int):
    violations = 0
    worst = _Worst()
    for trial in range(trials):
        rng = ctx.rng(trial)
        n = max(4, ctx.dim(trial))
        k = _subspace_dim(rng, n)
        chart = ChartId.hilbert(random_subspace(n, k, rng))
        target = 10.0 ** rng.uniform(-7.0, -5.0)
        h = near_boundary_subspace(chart, rng, target)
        ok = True
        dc = in_chart_domain(h, chart)
        ok &= dc.contains and abs(dc.conditioning - target) <= 0.25 * target
        try:
            chart_forward(h, chart)  # default threshold sits below the band
        except ChartDomainViolation:
            ok = False
        try:
            chart_forward(h, chart, tol_domain=1e-4)
            ok = False  # must refuse once the threshold is raised above the band
        except ChartDomainViolation:
            pass
        if not ok:
            violations += 1
            worst.update(float(violations), ctx.seed_tag(trial))
    return float(violations), worst.tag


# ---------------------------------------------------------------------------
# bundles

def _fiber_instance(rng, n, k):
    src, pt, h, dst = _transition_instance(rng, n, k)
    x = random_fiber_matrix(src.g.dim, src.f.dim, rng)
    mu = random_fiber_matrix(src.f.dim, src.g.dim, rng)
    return src, pt, dst, x, mu


@_check("tangent_jacobian_fd", "bundles", 1e-6)
def _jacobian_fd(ctx: CheckContext, trials: int):
    from .oracles import finite_difference_tangent
    worst = _Worst()
    for trial in range(trials):
        rng = ctx.rng(trial)
        n = min(16, ctx.dim(trial))
        src, pt, dst, x, _ = _fiber_instance(rng, n, _subspace_dim(rng, n))
        closed = transition_tangent(TangentVector(pt, Operator(x)), dst).direction.matrix
        approx = finite_difference_tangent(pt, dst, x)
        scale = 1.0 + np.linalg.norm(closed)
        worst.update(float(np.linalg.norm(closed - approx)) / scale, ctx.seed_tag(trial))
    return worst.result()


@_check("tangent_jacobian_complex_step", "bundles", 1e-10)
def _jacobian_complex_step(ctx: CheckContext, trials: int):
    from .oracles import complex_step_tangent
    worst = _Worst()
    for trial in range(trials):
        rng = ctx.rng(trial)
        n = min(16, ctx.dim(trial))
        src, pt, dst, x, _ = _fiber_instance(rng, n, _subspace_dim(rng, n))
        closed = transition_tangent(TangentVector(pt, Operator(x)), dst).direction.matrix
        exact = complex_step_tangent(pt, dst, x)
        scale = 1.0 + np.linalg.norm(closed)
        worst.update(float(np.linalg.norm(closed - exact)) / scale, ctx.seed_tag(trial))
    return worst.result()


@_check("duality_invariance", "bundles", 1e-9)
def _duality_invariance(ctx: CheckContext, trials: int):
    worst = _Worst()
    for trial in range(trials):
        rng = ctx.rng(trial)
        n = min(16, ctx.dim(trial))
        src, pt, dst, x, mu = _fiber_instance(rng, n, _subspace_dim(rng, n))
        tangent = TangentVector(pt, Operator(x))
        covector = Covector(pt, Operator(mu))
        before = trace_pairing(covector, tangent)
        after = trace_pairing(transition_cotangent(covector, dst),
                              transition_tangent(tangent, dst))
        worst.update(abs(after - before) / (1.0 + abs(before)), ctx.seed_tag(trial))
    return worst.result()


@_check("cotangent_contravariance", "bundles", 1e-9)
def _cotangent_contravariance(ctx: CheckContext, trials: int):
    worst = _Worst()
    for trial in range(trials):
        rng = ctx.rng(trial)
        n = min(16, ctx.dim(trial))
        pt, (c1, c2, c3) = _chart_chain(rng, n, _subspace_dim(rng, n))
        mu = Covector(pt, Operator(random_fiber_matrix(c1.f.dim, c1.g.dim, rng)))
        through = transition_cotangent(transition_cotangent(mu, c2), c3)
        direct = transition_cotangent(mu, c3)
        scale = 1.0 + float(np.abs(direct.form.matrix).max(initial=0.0))
        err = float(np.abs(through.form.matrix - direct.form.matrix).max(initial=0.0))
        worst.update(err / scale, ctx.seed_tag(trial))
    return worst.result()


@_check("tensor_commuting_square", "bundles", 1e-10)
def _tensor_commuting_square(ctx: CheckContext, trials: int):
    worst = _Worst()
    for trial in range(trials):
        rng = ctx.rng(trial)
        n = min(16, ctx.dim(trial))
        src, pt, dst, _, _ = _fiber_instance(rng, n, _subspace_dim(rng, n))
        terms = tuple(
            (random_fiber_matrix(src.f.dim, 1, rng)[:, 0],
             random_fiber_matrix(src.g.dim, 1, rng)[:, 0])
            for _ in range(3))
        tc = TensorCovector(pt, terms)
        factors = pushforward_factors(pt, dst)
        tensor_route = tensor_to_operator(pushforward_tensor(tc, factors, dst))
        operator_route = transition_cotangent(tensor_to_operator(tc), dst)
        scale = 1.0 + float(np.abs(operator_route.form.matrix).max(initial=0.0))
        err = float(np.abs(tensor_route.form.matrix
                           - operator_route.form.matrix).max(initial=0.0))
        worst.update(err / scale, ctx.seed_tag(trial))
    return worst.result()


@_check("pairing_bilinearity", "bundles", 1e-12)
def _pairing_bilinearity(ctx: CheckContext, trials: int):
    worst = _Worst()
    for trial in range(trials):
        rng = ctx.rng(trial)
        n = ctx.dim(trial)
        chart = random_chart(n, _subspace_dim(rng, n), rng, min_conditioning=1e-2)
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
        err = max(err, abs(lhs3 - rhs3) / (1.0 + abs(rhs3)))
        worst.update(err, ctx.seed_tag(trial))
    return worst.result()


# ---------------------------------------------------------------------------
# restricted

def _matched_charts(model, vd, rng):
    """Two hilbert charts whose base subspaces carry the given virtual dimension."""
    v0, _ = _graph_point(model, DecayProfile.zero(), vd, 0)
    v1, _ = _graph_point(model, DecayProfile.geometric(0.45), vd,
                         int(rng.integers(2 ** 31)))
    return ChartId.hilbert(v0), ChartId.hilbert(v1)


@_check("virtual_dim_invariance", "restricted", 0.0)
def _virtual_dim_invariance(ctx: CheckContext, trials: int):
    violations = 0
    worst = _Worst()
    for trial in range(trials):
        rng = ctx.rng(trial)
        side = max(4, ctx.dim(trial) // 2)
        model = PolarizedModel(side, side)
        vd = (-2, -1, 0, 1, 2)[trial % 5]
        point = generate_restricted_point(model, 1.0, DecayProfile.geometric(0.55),
                                          virtual_dim=vd, seed=int(rng.integers(2 ** 31)))
        chart0, chart1 = _matched_charts(model, vd, rng)
        pt = chart_forward(point.w, chart0)
        moved = chart_inverse(transition_base(pt, chart1))
        if (virtual_dimension(moved, model) != vd
                or virtual_dimension_by_rank(moved, model) != vd):
            violations += 1
            worst.update(float(violations), ctx.seed_tag(trial))
    return float(violations), worst.tag


@_check("diff_norm_unitary_invariance", "restricted", 1e-10)
def _diff_norm_unitary(ctx: CheckContext, trials: int):
    worst = _Worst()
    for trial in range(trials):
        rng = ctx.rng(trial)
        side = max(4, ctx.dim(trial) // 2)
        model = PolarizedModel(side, side)
        p = (1.0, 2.0)[trial % 2]
        vd = (-1, 0, 1)[trial % 3]
        point = generate_restricted_point(model, p, DecayProfile.geometric(0.6),
                                          virtual_dim=vd, seed=int(rng.integers(2 ** 31)))
        u = polarization_preserving_unitary(side, side, rng)
        rotated = membership_report(Subspace(u @ point.w.basis.matrix), model, p)
        err = abs(rotated.diff_norm - point.diff_norm) / (1.0 + point.diff_norm)
        worst.update(err, ctx.seed_tag(trial))
    return worst.result()


@_check("membership_envelope", "restricted", 0.0)
def _membership_envelope(ctx: CheckContext, trials: int):
    violations = 0
    worst = _Worst()
    for trial in range(trials):
        rng = ctx.rng(trial)
        side = max(4, ctx.dim(trial) // 2)
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
        if not ok:
            violations += 1
            worst.update(float(violations), ctx.seed_tag(trial))
    return float(violations), worst.tag


@_check("ladder_embedding_exact", "restricted", 0.0, trials=1)
def _ladder_embedding(ctx: CheckContext, trials: int):
    # build_truncation_ladder raises LadderMismatch unless the rungs nest bit for bit
    dims = [(d, d) for d in ctx.cfg.ladder]
    try:
        build_truncation_ladder(dims, 1.0, DecayProfile.geometric(0.5),
                                virtual_dim=0, seed=ctx.cfg.seed)
    except LadderMismatch:
        return 1.0, ctx.seed_tag(0)
    return 0.0, None
