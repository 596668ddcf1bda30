import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import grassatlas as ga
from grassatlas import atlas, bundles, sampling
from grassatlas.errors import ChartDomainViolation, DimensionMismatch, SplitFailure
from grassatlas.sampling import (MARGIN_FLOOR, SPLIT_FLOOR, random_chart,
                                 random_chart_containing, random_chart_point,
                                 random_subspace)


def _rng(seed):
    return np.random.default_rng(seed)


def _coordinate_chart():
    return ga.ChartId(ga.Subspace(np.eye(2)[:, :1]), ga.Subspace(np.eye(2)[:, 1:]))


# ---------------------------------------------------------------------------
# subspaces

def test_subspace_rejects_non_orthonormal_basis():
    with pytest.raises(ValueError):
        ga.Subspace(np.array([[1.0], [1.0]]))


def test_subspace_from_span_orthonormalizes():
    s = ga.Subspace.from_span(np.array([[2.0, 0.0], [0.0, 3.0], [0.0, 0.0]]))
    gram = s.basis.matrix.conj().T @ s.basis.matrix
    assert_allclose(gram, np.eye(2), atol=1e-14)


def test_subspace_from_span_rejects_rank_deficient():
    with pytest.raises(ValueError):
        ga.Subspace.from_span(np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]]))


# NaN compares False against every tolerance, so the rank and orthonormality
# checks alone would accept it
@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_subspace_rejects_non_finite_basis(value):
    bad = np.eye(6)[:, :3]
    bad[1, 2] = value
    with pytest.raises(ValueError):
        ga.Subspace(bad)
    for spanning in (bad, np.full((6, 3), value)):
        with pytest.raises(ValueError):
            ga.Subspace.from_span(spanning)
    with pytest.raises(ValueError):
        ga.Subspace(np.full((6, 3), value))


def test_subspace_equality_is_basis_independent():
    rng = _rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2)))
    mix, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    assert ga.Subspace(q).is_same(ga.Subspace(q @ mix))
    assert not ga.Subspace(q).is_same(ga.Subspace(np.eye(5)[:, :2]))


def test_subspace_projector_invariants():
    s = random_subspace(6, 3, _rng(5))
    p = s.projector.matrix
    assert np.linalg.norm(p @ p - p, 2) <= 1e-12
    assert np.linalg.norm(p.conj().T - p, 2) <= 1e-12


# ---------------------------------------------------------------------------
# chart ids

def test_chart_id_rejects_non_complementary_pair():
    e1 = ga.Subspace(np.eye(2)[:, :1])
    with pytest.raises(SplitFailure):
        ga.ChartId(e1, e1)


def test_chart_id_hilbert_flavor_enforces_complement():
    v = ga.Subspace(np.eye(3)[:, :1])
    chart = ga.ChartId.hilbert(v)
    assert chart.flavor == "hilbert"
    not_perp = ga.Subspace.from_span(np.array([[1.0, 0], [1.0, 0], [0, 1.0]]))
    with pytest.raises(SplitFailure):
        ga.ChartId(v, not_perp, flavor="hilbert")

    def tilted(theta):
        # V-perp with its last vector rotated toward V: the gap is sin(theta)
        return ga.Subspace(np.array([[0.0, math.sin(theta)], [1.0, 0.0],
                                     [0.0, math.cos(theta)]]))

    with pytest.raises(SplitFailure):
        ga.ChartId(v, tilted(1e-9), flavor="hilbert")
    ga.ChartId(v, tilted(1e-12), flavor="hilbert")  # below the 1e-10 threshold


# ---------------------------------------------------------------------------
# chart domain

def test_in_chart_domain_at_center():
    chart = _coordinate_chart()
    dc = ga.in_chart_domain(chart.f, chart)
    assert dc.contains and dc.conditioning == pytest.approx(1.0)


def test_in_chart_domain_excludes_complement():
    chart = _coordinate_chart()
    dc = ga.in_chart_domain(chart.g, chart)
    assert not dc.contains
    assert dc.conditioning <= 1e-12


def test_in_chart_domain_conditioning_value():
    chart = _coordinate_chart()
    h = ga.Subspace.from_span(np.array([[1.0], [3.0]]))
    dc = ga.in_chart_domain(h, chart)
    assert dc.contains
    # direct 1x1 computation of the restricted projection
    assert dc.conditioning == pytest.approx(1.0 / math.sqrt(10.0), abs=1e-13)


def test_in_chart_domain_dimension_mismatch():
    chart = _coordinate_chart()
    with pytest.raises(DimensionMismatch):
        ga.in_chart_domain(ga.Subspace(np.eye(2)), chart)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_chart_point_rejects_non_finite_coordinate(value):
    chart = random_chart(6, 3, _rng(3))
    coord = np.zeros((3, 3))
    coord[2, 0] = value
    with pytest.raises(ChartDomainViolation) as info:
        ga.ChartPoint(chart, coord)
    assert isinstance(info.value, ga.GrassAtlasError)
    assert info.value.conditioning is None and info.value.tol is None


# ---------------------------------------------------------------------------
# chart forward / inverse

def test_chart_forward_at_center_is_zero():
    chart = _coordinate_chart()
    assert_allclose(ga.chart_forward(chart.f, chart).coord.matrix, [[0.0]], atol=1e-14)


def test_chart_forward_slope_three():
    chart = _coordinate_chart()
    h = ga.Subspace.from_span(np.array([[1.0], [3.0]]))
    assert_allclose(ga.chart_forward(h, chart).coord.matrix, [[3.0]], atol=1e-13)


def test_chart_forward_rejects_complement():
    chart = _coordinate_chart()
    with pytest.raises(ChartDomainViolation):
        ga.chart_forward(chart.g, chart)


def test_chart_forward_hilbert_flavor_against_projector_oracle():
    t = 2.0 + 1.0j
    v = ga.Subspace(np.eye(2)[:, :1])
    w = ga.Subspace.from_span(np.array([[1.0], [t]]))
    chart = ga.ChartId.hilbert(v)
    # independent oracle: build the rank-one projector of W explicitly and
    # evaluate the compressed solve by hand
    denom = 1.0 + abs(t) ** 2
    p_w = np.array([[1.0, np.conj(t)], [t, abs(t) ** 2]]) / denom
    m = p_w[0, 0]
    n = p_w[1, 0]
    expected = n / m
    assert expected == pytest.approx(t)
    assert_allclose(ga.chart_forward(w, chart).coord.matrix, [[expected]], atol=1e-12)
    assert_allclose(ga.chart_forward_projector(w, chart).coord.matrix,
                    [[expected]], atol=1e-12)


def test_chart_forward_projector_requires_hilbert_flavor():
    chart = _coordinate_chart()
    with pytest.raises(ValueError):
        ga.chart_forward_projector(chart.f, chart)


def test_hilbert_specialization_agreement_seeded():
    worst = 0.0
    for trial in range(50):
        rng = _rng(1000 + trial)
        n = (6, 9, 12)[trial % 3]
        k = int(rng.integers(1, n))
        chart = ga.ChartId.hilbert(random_subspace(n, k, rng))
        w = random_subspace(n, k, rng)
        while ga.in_chart_domain(w, chart).conditioning < 5e-2:
            w = random_subspace(n, k, rng)
        a = ga.chart_forward(w, chart).coord.matrix
        b = ga.chart_forward_projector(w, chart).coord.matrix
        worst = max(worst, float(np.abs(a - b).max()))
    assert worst <= 1e-11


def test_chart_inverse_of_zero_returns_center():
    chart = _coordinate_chart()
    pt = ga.ChartPoint(chart, ga.Operator([[0.0]]))
    assert ga.chart_inverse(pt).is_same(chart.f)


def test_chart_inverse_graph():
    chart = _coordinate_chart()
    pt = ga.ChartPoint(chart, ga.Operator([[3.0]]))
    expected = ga.Subspace.from_span(np.array([[1.0], [3.0]]))
    assert ga.chart_inverse(pt).is_same(expected)


def test_chart_roundtrips_seeded():
    worst_fiber = worst_subspace = 0.0
    for trial in range(100):
        rng = _rng(2000 + trial)
        n = (4, 8, 16)[trial % 3]
        k = int(rng.integers(1, n))
        chart = random_chart(n, k, rng)
        pt = random_chart_point(chart, rng)
        back = ga.chart_forward(ga.chart_inverse(pt), chart)
        worst_fiber = max(worst_fiber,
                          float(np.abs(back.coord.matrix - pt.coord.matrix).max()))
        h = random_subspace(n, k, rng)
        containing = random_chart_containing(h, rng)
        again = ga.chart_inverse(ga.chart_forward(h, containing))
        worst_subspace = max(worst_subspace, h.distance_to(again))
    assert worst_fiber <= 1e-10
    assert worst_subspace <= 1e-10


# ---------------------------------------------------------------------------
# transitions

def test_transition_to_same_chart_is_identity():
    chart = _coordinate_chart()
    pt = ga.ChartPoint(chart, ga.Operator([[0.25 - 0.5j]]))
    moved = ga.transition_base(pt, chart)
    assert_allclose(moved.coord.matrix, pt.coord.matrix, atol=1e-14)


def test_transition_swap_inverts_coordinate():
    t = 0.5 - 2.0j
    src = _coordinate_chart()
    dst = ga.ChartId(src.g, src.f)
    pt = ga.ChartPoint(src, ga.Operator([[t]]))
    # brute-force oracle through the graph construction
    oracle = ga.chart_forward(ga.chart_inverse(pt), dst).coord.matrix
    moved = ga.transition_base(pt, dst).coord.matrix
    assert_allclose(moved, [[1.0 / t]], atol=1e-13)
    assert_allclose(moved, oracle, atol=1e-13)


def test_transition_agrees_with_graph_route_seeded():
    worst = 0.0
    for trial in range(60):
        rng = _rng(3000 + trial)
        n = (4, 8, 12)[trial % 3]
        k = int(rng.integers(1, n))
        src = random_chart(n, k, rng)
        pt = random_chart_point(src, rng)
        h = ga.chart_inverse(pt)
        dst = random_chart_containing(h, rng)
        direct = ga.transition_base(pt, dst).coord.matrix
        oracle = ga.chart_forward(h, dst).coord.matrix
        worst = max(worst, float(np.abs(direct - oracle).max()))
    assert worst <= 1e-10


def test_transition_cocycle_seeded():
    worst = 0.0
    for trial in range(60):
        rng = _rng(4000 + trial)
        k = int(rng.integers(1, 8))
        src = random_chart(8, k, rng)
        pt = random_chart_point(src, rng, scale=0.4)
        h = ga.chart_inverse(pt)
        if ga.in_chart_domain(h, src).conditioning < 5e-2:
            continue
        mid = random_chart_containing(h, rng)
        dst = random_chart_containing(h, rng)
        through = ga.transition_base(ga.transition_base(pt, mid), dst).coord.matrix
        direct = ga.transition_base(pt, dst).coord.matrix
        scale = 1.0 + float(np.abs(direct).max())
        worst = max(worst, float(np.abs(through - direct).max()) / scale)
    assert worst <= 1e-9


def test_transition_requires_matching_dims():
    src = random_chart(6, 2, _rng(1))
    dst = random_chart(6, 3, _rng(2))
    pt = random_chart_point(src, _rng(3))
    with pytest.raises(DimensionMismatch):
        ga.transition_base(pt, dst)


def test_transition_domain_violation():
    src = _coordinate_chart()
    pt = ga.ChartPoint(src, ga.Operator([[0.0]]))  # the graph is span(e1)
    dst = ga.ChartId(src.g, src.f)  # its domain excludes span(e1)
    with pytest.raises(ChartDomainViolation):
        ga.transition_base(pt, dst)


def test_covering_by_random_chart_pool():
    for trial in range(20):
        rng = _rng(5000 + trial)
        n = (4, 8)[trial % 2]
        h = random_subspace(n, int(rng.integers(1, n)), rng)
        pool = [random_chart(n, h.dim, rng) for _ in range(8)]
        assert any(ga.in_chart_domain(h, chart).conditioning > ga.DEFAULT_TOL_DOMAIN
                   for chart in pool)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(3, 10))
def test_roundtrip_property(seed, n):
    rng = _rng(seed)
    k = int(rng.integers(1, n))
    chart = random_chart(n, k, rng)
    pt = random_chart_point(chart, rng)
    back = ga.chart_forward(ga.chart_inverse(pt), chart)
    assert float(np.abs(back.coord.matrix - pt.coord.matrix).max()) <= 1e-10


# ---------------------------------------------------------------------------
# coordinate rows against the projector formulas

def _projector_blocks(src, dst):
    """Transition blocks B_dst^H P B_src through the dense oblique projectors."""
    onto_f, onto_g = (p.matrix for p in ga.oblique_projections(dst.f, dst.g))
    bfd, bgd = dst.f.basis.matrix.conj().T, dst.g.basis.matrix.conj().T
    bf, bg = src.f.basis.matrix, src.g.basis.matrix
    return (bfd @ onto_f @ bf, bfd @ onto_f @ bg, bgd @ onto_g @ bf, bgd @ onto_g @ bg)


def _projector_coordinates(h, chart):
    """Restricted projection (C, D) = (B_F^H (P_F B_H), B_G^H (P_G B_H))."""
    onto_f, onto_g = (p.matrix for p in ga.oblique_projections(chart.f, chart.g))
    bh = h.basis.matrix
    return (chart.f.basis.matrix.conj().T @ (onto_f @ bh),
            chart.g.basis.matrix.conj().T @ (onto_g @ bh))


@pytest.mark.parametrize("n", [8, 32])
@pytest.mark.parametrize("flavors", [("split", "split"), ("hilbert", "split"),
                                     ("split", "hilbert")])
def test_coordinate_rows_match_projector_formulas(n, flavors):
    from grassatlas.atlas import _restricted_projection, _transition_blocks
    rng = _rng(7000 + n)
    k = n // 2 - 1
    src, dst = (random_chart(n, k, rng, flavor=flavor) for flavor in flavors)
    for got, want in zip(_transition_blocks(src, dst), _projector_blocks(src, dst)):
        assert np.abs(got - want).max() <= 1e-12
        # split rows are B^H P, so both routes multiply in the same order
        assert dst.flavor == "hilbert" or np.array_equal(got, want)
    h = random_subspace(n, k, rng)
    for got, want in zip(_restricted_projection(h, dst), _projector_coordinates(h, dst)):
        assert np.abs(got - want).max() <= 1e-12


def test_hilbert_rows_match_split_chart_within_gap():
    # G is F-perp with one vector tilted by 1e-12 toward F: the hilbert flavor
    # accepts it and uses the adjoint bases as rows, the split flavor inverts M
    rng = _rng(7100)
    n, k, theta = 8, 3, 1e-12
    f = random_subspace(n, k, rng)
    perp = f.complement().basis.matrix.copy()
    perp[:, 0] = math.cos(theta) * perp[:, 0] + math.sin(theta) * f.basis.matrix[:, 0]
    g = ga.Subspace(perp)
    hilbert, split = ga.ChartId(f, g, flavor="hilbert"), ga.ChartId(f, g)
    h = ga.chart_inverse(random_chart_point(split, rng, scale=0.3))
    assert_allclose(ga.chart_forward(h, hilbert).coord.matrix,
                    ga.chart_forward(h, split).coord.matrix, rtol=0, atol=1e-10)
    pt = ga.chart_forward(h, random_chart_containing(h, rng))
    assert_allclose(ga.transition_base(pt, hilbert).coord.matrix,
                    ga.transition_base(pt, split).coord.matrix, rtol=0, atol=1e-10)


def test_conditioning_errors_carry_their_numbers():
    chart = _coordinate_chart()
    with pytest.raises(ChartDomainViolation) as domain:
        ga.chart_forward(chart.g, chart)
    assert domain.value.tol == ga.DEFAULT_TOL_DOMAIN
    assert domain.value.conditioning <= domain.value.tol
    assert str(domain.value) == ("subspace is outside the chart domain "
                                 f"(conditioning {domain.value.conditioning:.3e} <= 1.0e-08)")
    e1 = ga.Subspace(np.eye(2)[:, :1])
    with pytest.raises(SplitFailure) as split:
        ga.oblique_projections(e1, e1, tol_split=1e-6)
    assert split.value.tol == 1e-6 and split.value.conditioning <= split.value.tol
    assert str(split.value) == ("subspaces are not complementary: "
                                f"conditioning {split.value.conditioning:.3e}")
    with pytest.raises(SplitFailure) as dims:
        ga.ChartId(e1, ga.Subspace(np.eye(2)))
    assert dims.value.conditioning is None and dims.value.tol is None


# ---------------------------------------------------------------------------
# domain decisions: a Frobenius bound away from the boundary, the graph's 2-norm near it

def _tilted_charts(cosines):
    """Hilbert charts on span(e_1..e_k) and its complement, and the subspace H
    spanned by cos_i e_i + sin_i e_(k+i).  H's block in the first chart is
    diag(cosines); in the second it is diag(sines), well inside."""
    k = len(cosines)
    eye = np.eye(2 * k)
    f, g = ga.Subspace(eye[:, :k]), ga.Subspace(eye[:, k:])
    basis = np.zeros((2 * k, k))
    for i, cos in enumerate(cosines):
        basis[i, i], basis[k + i, i] = cos, math.sqrt(1.0 - cos * cos)
    return ga.ChartId(f, g, flavor="hilbert"), ga.ChartId(g, f, flavor="hilbert"), ga.Subspace(basis)


def _transition_conditioning(pt, target):
    """The exact conditioning the forward transition meets, by the SVD."""
    a, b, _, _ = atlas._transition_blocks(pt.chart, target)
    denom = a + b @ pt.coord.matrix
    graph = pt.chart.f.basis.matrix + pt.chart.g.basis.matrix @ pt.coord.matrix
    r = np.linalg.qr(graph, mode="r")
    return float(np.linalg.svd(np.linalg.solve(r.T, denom.T).T, compute_uv=False)[-1])


def _counting(monkeypatch, name, only=lambda *a, **kw: True):
    """Count calls to ``np.linalg.<name>`` that ``only`` accepts, for the rest of the test."""
    calls = []
    original = getattr(np.linalg, name)

    def counted(*args, **kwargs):
        if only(*args, **kwargs):
            calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return calls


def _two_norms(monkeypatch):
    return _counting(monkeypatch, "norm", lambda a, ord=None, **kw: ord == 2)


# inside: the bound decides alone; near: every singular value is 1.5e-8, so
# 1/|X^-1|_F <= 2 tol < sigma_min and the graph's 2-norm passes it; under:
# sigma_min is just below tol; singular: the block has an exact zero singular
# value, so the solve fails and no 2-norm runs
_DOMAIN_CASES = [("inside", (0.6, 0.8), 0), ("near", (1.5e-8, 1.5e-8), 1),
                 ("under", (0.99e-8, 0.6), 1), ("singular", (0.0, 0.6), 0)]


# the reverse route decides a point in its own chart, and no finite point is
# singular there
@pytest.mark.parametrize("route, case, cosines, norms", [
    pytest.param(route, case, cosines, norms, id=f"{route}-{case}-cosines{i}-{norms}")
    for route in ("chart_forward", "forward_transition", "reverse")
    for i, (case, cosines, norms) in enumerate(_DOMAIN_CASES)
    if (route, case) != ("reverse", "singular")])
def test_domain_decision_bound_then_svd(monkeypatch, route, case, cosines, norms):
    target, source, h = _tilted_charts(cosines)
    # every route decides H in the first chart; H's block there is exactly
    # diagonal, so its SVD is exact to the last bit, where the SVD of the same
    # block through chart_inverse's QR is exact only to eps relative to its
    # largest singular value (7e-9 relative "under")
    exact = ga.in_chart_domain(h, target).conditioning
    if route == "chart_forward":
        decide = functools.partial(ga.chart_forward, h, target)
    elif route == "forward_transition":
        pt = ga.chart_forward(h, source)
        decide = functools.partial(atlas._forward_transition, pt, target, None)
    else:
        # H's coordinate in the first chart is diag(tan); the transition to the
        # second chart lands well inside, so the reverse check decides
        pt = ga.ChartPoint(target, np.diag([math.sqrt(1.0 - c * c) / c for c in cosines]))
        decide = functools.partial(bundles._invertible_transition, pt, source, None)
    if route != "chart_forward":
        assert ga.in_chart_domain(ga.chart_inverse(pt), target).conditioning == \
            pytest.approx(exact, rel=1e-7, abs=1e-300)
    assert exact == pytest.approx(min(cosines), rel=1e-15, abs=1e-300)
    calls = _two_norms(monkeypatch)
    if exact > ga.DEFAULT_TOL_DOMAIN:
        decide()
    else:
        with pytest.raises(ChartDomainViolation) as info:
            decide()
        assert info.value.conditioning == pytest.approx(exact, rel=1e-12, abs=0.0)
        assert info.value.tol == ga.DEFAULT_TOL_DOMAIN
        assert str(info.value).endswith(
            f"(conditioning {info.value.conditioning:.3e} <= 1.0e-08)")
    assert len(calls) == norms


# the forward transition solves once, for A', and never runs the graph's QR
@pytest.mark.parametrize("case, cosines, solves", [
    ("inside", (0.6, 0.8), 1), ("near", (1.5e-8, 1.5e-8), 1),
    ("under", (0.99e-8, 0.6), 1), ("singular", (0.0, 0.6), 1),
])
def test_forward_transition_runs_the_graph_qr_off_the_bound(monkeypatch, case, cosines, solves):
    target, source, h = _tilted_charts(cosines)
    pt = ga.chart_forward(h, source)
    qrs, solved = _counting(monkeypatch, "qr"), _counting(monkeypatch, "solve")
    if min(cosines) > ga.DEFAULT_TOL_DOMAIN:
        atlas._forward_transition(pt, target, None)
    else:
        with pytest.raises(ChartDomainViolation):
            atlas._forward_transition(pt, target, None)
    assert qrs == [] and len(solved) == solves


@pytest.mark.parametrize("cosines", [(0.6, 0.8), (1.5e-8, 1.5e-8), (0.99e-8, 0.6), (0.0, 0.6)],
                         ids=["inside", "near", "under", "singular"])
def test_chart_forward_inverts_nothing(monkeypatch, cosines):
    target, _, h = _tilted_charts(cosines)
    calls = _counting(monkeypatch, "inv")
    if min(cosines) > ga.DEFAULT_TOL_DOMAIN:
        ga.chart_forward(h, target)
    else:
        with pytest.raises(ChartDomainViolation):
            ga.chart_forward(h, target)
    assert calls == []


# a coordinate that overflows has |B_F + B_G A|_2 past the float range, so it
# reads as an exactly singular block rather than reaching the 2-norm
def test_overflowing_coordinate_reads_as_singular(monkeypatch):
    target, _, h = _tilted_charts((1e-310, 0.6))
    calls = _two_norms(monkeypatch)
    with pytest.raises(ChartDomainViolation) as info:
        ga.chart_forward(h, target)
    assert info.value.conditioning == 0.0 and calls == []


# a NaN tolerance decides nothing and a negative one passes a singular block, so
# every map that reads tol_domain refuses both before it decides anything
@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0],
                         ids=["nan", "inf", "-inf", "negative"])
def test_domain_tolerance_must_be_finite_and_non_negative(tol):
    target, source, h = _tilted_charts((0.6, 0.8))
    pt = ga.chart_forward(h, source)
    covector = ga.Covector(pt, np.eye(2))
    for decide in (lambda: ga.in_chart_domain(h, target, tol_domain=tol),
                   lambda: ga.chart_forward(target.g, target, tol_domain=tol),
                   lambda: ga.chart_forward_projector(h, target, tol_domain=tol),
                   lambda: ga.transition_base(pt, target, tol_domain=tol),
                   lambda: ga.transition_cotangent(covector, target, tol_domain=tol)):
        with pytest.raises(ValueError, match="tol_domain"):
            decide()
    assert ga.chart_forward(h, target, tol_domain=0.0).coord.shape == (2, 2)


# Gr(0, n) and Gr(n, n) are one point each: every route takes the empty (k = 0) or
# the square-free (k = n) coordinate without a branch of its own
@pytest.mark.parametrize("k", [0, 6], ids=["k=0", "k=n"])
def test_chart_maps_on_the_one_point_grassmannians(k):
    rng = _rng(41)
    h = random_subspace(6, k, rng)
    hilbert, split = ga.ChartId.hilbert(random_subspace(6, k, rng)), random_chart(6, k, rng)
    assert ga.in_chart_domain(h, hilbert).contains
    assert ga.chart_forward_projector(h, hilbert).coord.shape == (6 - k, k)
    for chart, other in ((hilbert, split), (split, hilbert)):
        pt = ga.chart_forward(h, chart)
        assert pt.coord.shape == (6 - k, k) and ga.chart_inverse(pt).is_same(h)
        assert ga.transition_base(pt, other).coord.shape == (6 - k, k)
        moved = ga.transition_cotangent(ga.Covector(pt, np.zeros((k, 6 - k))), other)
        assert moved.form.shape == (k, 6 - k)


def _at_floor(low, high, rng, size=None):
    """``sampling._log_uniform`` pinned to its lower end: every chart at SPLIT_FLOOR
    and every drawn margin at MARGIN_FLOOR."""
    return low if size is None else np.full(size, low)


# 1/(sqrt(k) + |A|_F) bounds the exact conditioning at each site that reads it; the
# 1e-12 allows the roundoff of the two sides, which the 2 tol pass margin dwarfs
@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 12), st.booleans(),
       st.sampled_from(["hilbert", "split"]), st.sampled_from(["hilbert", "split"]))
def test_coordinate_bound_never_exceeds_the_conditioning(seed, n, rank_one, src_flavor,
                                                         dst_flavor):
    k = 1 if rank_one else n - 1
    rng = _rng(seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sampling, "_log_uniform", _at_floor)
        h = random_subspace(n, k, rng)
        src = random_chart_containing(h, rng, src_flavor)
        dst = random_chart_containing(h, rng, dst_flavor)
    # chart_forward: B_H c^{-1} is the graph of A
    pt = ga.chart_forward(h, src)
    exact = ga.in_chart_domain(h, src).conditioning
    if src_flavor == "hilbert":
        assert exact == pytest.approx(MARGIN_FLOOR, rel=1e-9)
    else:
        assert ga.split_conditioning(src.f, src.g) == pytest.approx(SPLIT_FLOOR, rel=1e-9)
    assert atlas._coordinate_bound(pt.coord.matrix) <= exact * (1.0 + 1e-12)
    # the forward transition: graph denom^{-1} is the graph of A'
    aprime = atlas._forward_transition(pt, dst, None).coord
    assert atlas._coordinate_bound(aprime) <= _transition_conditioning(pt, dst) * (1.0 + 1e-12)
    # the reverse check: the source chart sees the graph of A through R^{-1}
    graph = src.f.basis.matrix + src.g.basis.matrix @ pt.coord.matrix
    margin = 1.0 / np.linalg.norm(np.linalg.qr(graph, mode="r"), 2)
    assert atlas._coordinate_bound(pt.coord.matrix) <= margin * (1.0 + 1e-12)
