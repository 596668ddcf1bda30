"""Acceptance suite: one test per criterion, each at its pinned tolerance.

Every test prints a single PASS line when its criterion holds; pytest -v plus
these lines give the per-criterion record.
"""

import time

import numpy as np
import pytest

import grassatlas as ga
from grassatlas.errors import PredualUnavailable
from grassatlas.sampling import (derive_rng, random_chart, random_chart_containing,
                                 random_chart_point, random_fiber_matrix,
                                 random_subspace)
from grassatlas.verify import SuiteConfig, emit_report, run_suite
from grassatlas.verify.cli import main as verify_main
from grassatlas.verify.oracles import complex_step_tangent, finite_difference_tangent

ROUNDTRIP_TOL = 1e-10
COCYCLE_TOL = 1e-9
HILBERT_TOL = 1e-11
COMPLEX_STEP_TOL = 1e-10
FINITE_DIFF_TOL = 1e-6
DUALITY_TOL = 1e-9
SQUARE_TOL = 1e-10
SPREAD_LIMIT = 0.05
SWAP_TOL = 1e-8
ATLAS_TIME_LIMIT = 10.0
LADDER_TIME_LIMIT = 45.0
SUITE_TIME_LIMIT = 60.0


def _passed(n, message):
    print(f"PASS criterion {n}: {message}")


def _transition_instance(rng, n, k, scale=0.4):
    src = random_chart(n, k, rng)
    pt = random_chart_point(src, rng, scale=scale)
    h = ga.chart_inverse(pt)
    dst = random_chart_containing(h, rng)
    return src, pt, h, dst


def test_criterion_1_atlas_roundtrips_and_cocycle():
    start = time.perf_counter()
    worst_fiber = worst_subspace = worst_cocycle = 0.0
    for dim in (4, 8, 16, 32):
        for trial in range(100):
            rng = derive_rng(101, dim, trial)
            k = int(rng.integers(1, dim))
            chart = random_chart(dim, k, rng)
            pt = random_chart_point(chart, rng, scale=0.4)
            h = ga.chart_inverse(pt)
            back = ga.chart_forward(h, chart)
            worst_fiber = max(worst_fiber,
                              float(np.abs(back.coord.matrix - pt.coord.matrix).max()))
            again = ga.chart_inverse(back)
            worst_subspace = max(worst_subspace, h.distance_to(again))
            mid = random_chart_containing(h, rng)
            dst = random_chart_containing(h, rng)
            through = ga.transition_base(ga.transition_base(pt, mid), dst).coord.matrix
            direct = ga.transition_base(pt, dst).coord.matrix
            scale = 1.0 + float(np.abs(direct).max())
            worst_cocycle = max(worst_cocycle,
                                float(np.abs(through - direct).max()) / scale)
    elapsed = time.perf_counter() - start
    assert worst_fiber <= ROUNDTRIP_TOL
    assert worst_subspace <= ROUNDTRIP_TOL
    assert worst_cocycle <= COCYCLE_TOL
    assert elapsed < ATLAS_TIME_LIMIT
    _passed(1, f"roundtrips {worst_fiber:.2e}/{worst_subspace:.2e} <= 1e-10, "
               f"cocycle {worst_cocycle:.2e} <= 1e-9, {elapsed:.1f}s < 10s")


def test_criterion_2_hilbert_specialization():
    worst = 0.0
    for trial in range(100):
        rng = derive_rng(102, trial)
        n = (6, 9, 12, 16)[trial % 4]
        k = int(rng.integers(1, n))
        chart = ga.ChartId.hilbert(random_subspace(n, k, rng))
        w = random_subspace(n, k, rng)
        # the projector route squares the domain conditioning; stay off the boundary
        while ga.in_chart_domain(w, chart).conditioning < 5e-2:
            w = random_subspace(n, k, rng)
        general = ga.chart_forward(w, chart).coord.matrix
        projector_route = ga.chart_forward_projector(w, chart).coord.matrix
        worst = max(worst, float(np.abs(general - projector_route).max()))
    assert worst <= HILBERT_TOL
    _passed(2, f"projector vs coordinate chart formula {worst:.2e} <= 1e-11 on 100 pairs")


def test_criterion_3_jacobian_oracles():
    worst_cs = worst_fd = 0.0
    for trial in range(100):
        rng = derive_rng(103, trial)
        n = (4, 8, 12, 16)[trial % 4]
        src, pt, _, dst = _transition_instance(rng, n, int(rng.integers(1, n)))
        x = random_fiber_matrix(src.g.dim, src.f.dim, rng)
        closed = ga.transition_tangent(ga.TangentVector(pt, ga.Operator(x)),
                                       dst).direction.matrix
        scale = 1.0 + np.linalg.norm(closed)
        worst_cs = max(worst_cs,
                       float(np.linalg.norm(closed - complex_step_tangent(pt, dst, x))) / scale)
        worst_fd = max(worst_fd,
                       float(np.linalg.norm(closed - finite_difference_tangent(pt, dst, x))) / scale)
    assert worst_cs <= COMPLEX_STEP_TOL
    assert worst_fd <= FINITE_DIFF_TOL
    _passed(3, f"complex step {worst_cs:.2e} <= 1e-10, central differences "
               f"{worst_fd:.2e} <= 1e-6, 100 trials")


def test_criterion_4_duality_invariance():
    worst = 0.0
    for trial in range(200):
        rng = derive_rng(104, trial)
        n = (4, 8, 12, 16)[trial % 4]
        src, pt, _, dst = _transition_instance(rng, n, int(rng.integers(1, n)))
        v = ga.TangentVector(pt, ga.Operator(random_fiber_matrix(src.g.dim, src.f.dim, rng)))
        mu = ga.Covector(pt, ga.Operator(random_fiber_matrix(src.f.dim, src.g.dim, rng)))
        before = ga.trace_pairing(mu, v)
        after = ga.trace_pairing(ga.transition_cotangent(mu, dst),
                                 ga.transition_tangent(v, dst))
        worst = max(worst, abs(after - before) / (1.0 + abs(before)))
    assert worst <= DUALITY_TOL
    _passed(4, f"|Tr(mu' X') - Tr(mu X)| {worst:.2e} <= 1e-9 (1 + |Tr|), 200 trials")


def test_criterion_5_commuting_square():
    worst = 0.0
    for trial in range(100):
        rng = derive_rng(105, trial)
        src, pt, _, dst = _transition_instance(rng, 6, int(rng.integers(1, 6)))
        terms = tuple((random_fiber_matrix(src.f.dim, 1, rng)[:, 0],
                       random_fiber_matrix(src.g.dim, 1, rng)[:, 0]) for _ in range(3))
        tc = ga.TensorCovector(pt, terms)
        factors = ga.pushforward_factors(pt, dst)
        tensor_route = ga.tensor_to_operator(ga.pushforward_tensor(tc, factors, dst))
        operator_route = ga.transition_cotangent(ga.tensor_to_operator(tc), dst)
        worst = max(worst, float(np.abs(tensor_route.form.matrix
                                        - operator_route.form.matrix).max()))
    assert worst <= SQUARE_TOL
    _passed(5, f"tensor route vs operator route {worst:.2e} <= 1e-10, 100 trials")


def test_criterion_6_restricted_preservation():
    start = time.perf_counter()
    ladder = ga.build_truncation_ladder([(16, 16), (32, 32), (64, 64), (128, 128)], 1,
                                        ga.DecayProfile.geometric(0.5), 0, seed=7)
    report = ga.preservation_experiment(ladder, 1, ga.graph_chart_family(0.6, 99), seed=5)
    assert report.passed
    assert report.spread is not None and report.spread <= SPREAD_LIMIT

    t = 1.5 + 0.5j
    swap = ga.preservation_experiment(ladder, 1, ga.swap_chart_family(t), seed=5)
    worst = max(abs(r.constant - abs(t) ** 2) for r in swap.per_rung)
    assert worst <= SWAP_TOL
    elapsed = time.perf_counter() - start
    assert elapsed < LADDER_TIME_LIMIT
    _passed(6, f"transition constant spread {report.spread:.2e} <= 5%, swap |t|^2 error "
               f"{worst:.2e} <= 1e-8, {elapsed:.1f}s < 45s")


def test_criterion_7_predual_refusal_at_p_zero():
    model = ga.PolarizedModel(4, 4)
    chart = ga.ChartId.hilbert(model.h_plus)
    pt = ga.chart_forward(model.h_plus, chart)
    with pytest.raises(PredualUnavailable):
        ga.precotangent_covector(pt, np.zeros((4, 4)), p=0)
    _passed(7, "precotangent fiber request at p = 0 raises PredualUnavailable")


def test_criterion_8_virtual_dimension_invariance():
    violations = 0
    for trial in range(100):
        rng = derive_rng(108, trial)
        side = (4, 6, 8)[trial % 3]
        model = ga.PolarizedModel(side, side)
        vd = (-2, -1, 0, 1, 2)[trial % 5]
        point = ga.generate_restricted_point(model, 1, ga.DecayProfile.geometric(0.55),
                                             virtual_dim=vd, seed=int(rng.integers(2 ** 31)))
        v0 = ga.generate_restricted_point(model, 1, ga.DecayProfile.zero(),
                                          virtual_dim=vd, seed=0).w
        v1 = ga.generate_restricted_point(model, 1, ga.DecayProfile.geometric(0.45),
                                          virtual_dim=vd, seed=int(rng.integers(2 ** 31))).w
        pt = ga.chart_forward(point.w, ga.ChartId.hilbert(v0))
        moved = ga.chart_inverse(ga.transition_base(pt, ga.ChartId.hilbert(v1)))
        if ga.virtual_dimension(moved, model) != vd:
            violations += 1
        if ga.virtual_dimension_by_rank(moved, model) != vd:
            violations += 1
    assert violations == 0
    _passed(8, "virtual dimension exactly invariant under 100 tested transitions")


def test_criterion_9_full_suite_deterministic(tmp_path):
    start = time.perf_counter()
    cfg = SuiteConfig(suite="all")
    results = run_suite(cfg)
    report_one = emit_report(cfg, results, format="json")
    report_two = emit_report(cfg, run_suite(cfg), format="json")
    elapsed = time.perf_counter() - start
    assert all(r.passed for r in results)
    assert report_one == report_two
    assert elapsed < SUITE_TIME_LIMIT

    # the CLI route produces the same bytes
    out = tmp_path / "cli.json"
    code = verify_main(["--suite", "all", "--format", "json", "--out", str(out)])
    assert code == 0
    assert out.read_text(encoding="utf-8").rstrip("\n") == report_one
    _passed(9, f"verify --suite all passes, byte-identical reruns, {elapsed:.1f}s < 60s")
