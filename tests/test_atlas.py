import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import grassatlas as ga
from grassatlas.errors import ChartDomainViolation, DimensionMismatch, SplitFailure
from grassatlas.sampling import (random_chart, random_chart_containing,
                                 random_chart_point, random_subspace)


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
        chart = random_chart(n, k, rng, min_conditioning=1e-2)
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
        src = random_chart(n, k, rng, min_conditioning=1e-2)
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
        src = random_chart(8, k, rng, min_conditioning=1e-2)
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
        pool = [random_chart(n, h.dim, rng, min_conditioning=1e-3) for _ in range(8)]
        assert any(ga.in_chart_domain(h, chart).conditioning > ga.DEFAULT_TOL_DOMAIN
                   for chart in pool)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(3, 10))
def test_roundtrip_property(seed, n):
    rng = _rng(seed)
    k = int(rng.integers(1, n))
    chart = random_chart(n, k, rng, min_conditioning=1e-2)
    pt = random_chart_point(chart, rng)
    back = ga.chart_forward(ga.chart_inverse(pt), chart)
    assert float(np.abs(back.coord.matrix - pt.coord.matrix).max()) <= 1e-10
