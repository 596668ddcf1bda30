import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import grassatlas as ga
from grassatlas import atlas, bundles, operators, restricted, sampling
from grassatlas.errors import ChartDomainViolation, DimensionMismatch, SplitFailure
from grassatlas.sampling import (MARGIN_FLOOR, SPLIT_FLOOR, near_boundary_subspace,
                                 random_chart, random_chart_containing, random_chart_point,
                                 random_subspace)
from grassatlas.verify import oracles
from grassatlas.verify.oracles import projector_distance


def _rng(seed):
    return np.random.default_rng(seed)


def _random_chart(n, k, rng, flavor):
    if flavor == "hilbert":
        return ga.ChartId.hilbert(random_subspace(n, k, rng))
    return random_chart(n, k, rng)


def _coordinate_chart():
    return ga.ChartId(ga.Subspace(np.eye(2)[:, :1]), ga.Subspace(np.eye(2)[:, 1:]))


def _count_linalg(monkeypatch):
    """Record the name of every numpy.linalg factorization, solve or norm called from now on."""
    calls = []

    def counting(func):
        def wrapper(*args, **kwargs):
            calls.append(func.__name__)
            return func(*args, **kwargs)
        return wrapper

    for name in ("svd", "solve", "qr", "norm", "inv", "eigh", "lstsq", "pinv", "det"):
        monkeypatch.setattr(np.linalg, name, counting(getattr(np.linalg, name)))
    return calls


# ---------------------------------------------------------------------------
# subspaces

def test_subspace_rejects_non_orthonormal_basis():
    with pytest.raises(ValueError):
        ga.Subspace(np.array([[1.0], [1.0]]))


# the split conditioning formula sqrt((1 - s)/(1 + s)) holds only for orthonormal
# bases: a pair of [[2],[0]] and [[1],[1]] would read 1.054 against 0.382 for
# sigma_min/sigma_max, so the subspace refuses each before any pair function runs
@pytest.mark.parametrize("basis", [
    np.array([[2.0], [0.0]]),
    np.array([[1.0], [1.0]]),
    np.array([[np.nan], [1.0]]),
], ids=["scaled-axis", "unnormalized", "nan"])
def test_subspace_refuses_bases_the_split_formula_would_misread(basis):
    with pytest.raises(ValueError):
        ga.Subspace(basis)


def test_subspace_from_span_orthonormalizes():
    s = ga.Subspace.from_span(np.array([[2.0, 0.0], [0.0, 3.0], [0.0, 0.0]]))
    gram = s.basis.matrix.conj().T @ s.basis.matrix
    assert_allclose(gram, np.eye(2), atol=1e-14)


@pytest.mark.parametrize("build", ["from_span", "chart_inverse"])
def test_fresh_qr_factor_is_kept_uncopied(monkeypatch, build):
    # the factor is frozen before it is wrapped, so the keep rule keeps it
    factors = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr",
                        lambda *args, **kw: factors.append(qr(*args, **kw)) or factors[-1])
    rng = _rng(60)
    if build == "from_span":
        h = ga.Subspace.from_span(rng.standard_normal((6, 3)))
    else:
        h = ga.chart_inverse(random_chart_point(random_chart(6, 3, rng), rng))
    assert h.basis.matrix is factors[-1][0]


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


def _graph_basis(side):
    """The frozen basis of a decay graph: at most one nonzero in each row."""
    model = ga.PolarizedModel(side, side)
    return restricted._graph_point(model, ga.DecayProfile.geometric(0.5), 0, 3)[0].basis.matrix


def test_disjoint_support_bases_are_checked_by_their_column_norms():
    # every graph basis of a ladder, at every reachable virtual dimension, and the
    # swap family's base have columns on disjoint rows, so B^H B is diagonal
    bases = [point.w for virtual_dim in range(-2, 3)
             for _, point in ga.build_truncation_ladder([(4, 4), (8, 8), (16, 16)], 1,
                                                        ga.DecayProfile.power(1.1), virtual_dim)]
    bases.append(ga.swap_chart_family(1.5 + 0.5j)(ga.PolarizedModel(8, 8), None)[2])
    for space in bases:
        mat = space.basis.matrix
        support = atlas._row_support(mat)
        assert support is not None and space._coord_rows is None
        gap = atlas._orthonormality_gap(mat, support)
        assert gap <= atlas._ORTHO_TOL
        assert abs(gap - np.linalg.norm(mat.conj().T @ mat - np.eye(space.dim))) <= 1e-15
        assert ga.Subspace(mat).basis.matrix is mat


@pytest.mark.parametrize("edit", ["scaled-column", "nan-entry", "nan-off-support", "overflow"])
def test_disjoint_support_basis_is_refused_as_a_dense_one_is(edit):
    bad = _graph_basis(8).copy()
    if edit == "scaled-column":
        bad[:, 2] *= 1.0 + 1e-11  # a gap of about 2e-11, past the 1e-12 bound
        match = "basis columns are not orthonormal; use Subspace.from_span"
    else:
        row, col = {"nan-entry": (2, 2), "nan-off-support": (0, 3), "overflow": (10, 2)}[edit]
        bad[row, col] = 1e200 if edit == "overflow" else np.nan
        match = "not orthonormal" if edit == "overflow" else "non-finite"
    with pytest.raises(ValueError, match=match):
        ga.Subspace(bad)


def test_overlapping_columns_with_a_sparse_first_row_take_the_gram_product():
    # unit columns that share rows: their norms alone would pass, their Gram refuses
    bad = np.array([[0.6, 0.0], [0.8, 0.6], [0.0, 0.8], [0.0, 0.0]])
    assert np.count_nonzero(bad[0]) == 1 and atlas._row_support(bad) is None
    with pytest.raises(ValueError, match="not orthonormal"):
        ga.Subspace(bad)


_HUGE_BASES = {
    "square": lambda s: s * np.array([[1.0, 1.0], [1.0, -1.0]]),
    "rank-one": lambda s: s * np.array([[1.0, 1.0], [1.0, 1.0]]),
    "tall": lambda s: np.array([[s, 0.5], [0.3, s], [s, s]]),
}


# a dense basis past modulus 1 is refused before its Gram product, which
# overflows to NaN, and a NaN gap is refused too
@pytest.mark.parametrize("warn", ["error", "ignore"])
@pytest.mark.parametrize("s", [1e154, 1e200, 1e300])
@pytest.mark.parametrize("case", sorted(_HUGE_BASES))
def test_huge_dense_basis_is_refused(case, s, warn):
    basis = _HUGE_BASES[case](s)
    with warnings.catch_warnings():
        warnings.simplefilter(warn)
        with pytest.raises(ValueError, match="basis columns are not orthonormal; use Subspace.from_span"):
            ga.Subspace(basis)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 8),
       st.floats(allow_nan=False, allow_infinity=False))
def test_scaled_orthonormal_basis_is_refused_without_a_warning(seed, n, s):
    rng = _rng(seed)
    k = int(rng.integers(1, n + 1))
    # the gap of s B is |s^2 - 1| sqrt(k), up to B's own roundoff; 1% clears that
    assume(abs(s * s - 1.0) * math.sqrt(k) > 1.01 * atlas._ORTHO_TOL)
    scaled = s * ga.haar_frame(n, k, rng)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="not orthonormal"):
            ga.Subspace(scaled)
    assert not caught


def _nan(*args, **kwargs):
    return math.nan


# each tolerance decision refuses a NaN with its own error, never passes it
@pytest.mark.parametrize("decision", ["hilbert-gap", "domain", "projector-domain", "split"])
def test_a_nan_decision_fails_closed(monkeypatch, decision):
    rng = _rng(7700)
    f, g = random_subspace(6, 3, rng), random_subspace(6, 3, rng)
    if decision == "hilbert-gap":
        perp = f.complement()
        monkeypatch.setattr(np.linalg, "norm", _nan)
        with pytest.raises(SplitFailure, match="hilbert flavor requires"):
            ga.ChartId(f, perp, flavor="hilbert")
    elif decision == "domain":
        chart = ga.ChartId.hilbert(f)
        monkeypatch.setattr(np.linalg, "norm", _nan)  # the bound and the graph's 2-norm
        with pytest.raises(ChartDomainViolation, match="outside the chart domain"):
            ga.chart_forward(f, chart)
    elif decision == "projector-domain":
        chart = ga.ChartId.hilbert(f)
        monkeypatch.setattr(atlas, "_domain_conditioning", _nan)
        with pytest.raises(ChartDomainViolation, match="outside the chart domain"):
            ga.chart_forward_projector(f, chart)
    else:
        monkeypatch.setattr(operators, "split_conditioning", _nan)
        with pytest.raises(SplitFailure, match="not complementary"):
            ga.ChartId(f, g)


def test_disjoint_support_check_forms_no_conjugate_or_gram():
    # the Gram route peaks at 0.75 MiB here: a 256 x 128 conjugate copy and a 128 x 128 Gram
    mat = _graph_basis(128)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ga.Subspace(mat)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < mat.nbytes / 2


def test_subspace_equality_is_basis_independent():
    rng = _rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2)))
    mix, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    assert ga.Subspace(q).is_same(ga.Subspace(q @ mix))
    assert not ga.Subspace(q).is_same(ga.Subspace(np.eye(5)[:, :2]))


def test_subspace_projector_invariants():
    s = random_subspace(6, 3, _rng(5))
    b = s.basis.matrix
    p = b @ b.conj().T
    assert np.linalg.norm(p @ p - p, 2) <= 1e-12
    assert np.linalg.norm(p.conj().T - p, 2) <= 1e-12


def _tilted(basis, angle, rng):
    """The span of ``basis`` with its first column turned by ``angle`` off the span."""
    off = rng.standard_normal(basis.shape[0]) + 1j * rng.standard_normal(basis.shape[0])
    off -= basis @ (basis.conj().T @ off)
    tilted = basis.copy()
    tilted[:, 0] = math.cos(angle) * basis[:, 0] + math.sin(angle) * off / np.linalg.norm(off)
    return ga.Subspace.from_span(tilted)


@pytest.mark.parametrize("n", [4, 9, 64])
def test_distance_to_matches_dense_projectors(n):
    rng = _rng(n)
    k = n // 2
    f = random_subspace(n, k, rng)
    cases = [(f, random_subspace(n, k, rng)), (f, _tilted(f.basis.matrix, 0.3, rng))]
    for dims in ((k, k + 1), (k + 1, k), (0, 1), (1, n)):
        cases.append((random_subspace(n, dims[0], rng), random_subspace(n, dims[1], rng)))
    for a, b in cases:
        got = a.distance_to(b)
        assert abs(got - projector_distance(a, b)) <= 1e-14
        if a.dim != b.dim:
            assert got == 1.0
    mix = ga.haar_frame(k, k, rng)
    rotated = ga.Subspace(f.basis.matrix @ mix)
    assert abs(f.distance_to(rotated) - projector_distance(f, rotated)) <= 1e-14
    assert f.distance_to(rotated) <= 1e-14 and f.is_same(rotated)
    tilt = _tilted(f.basis.matrix, 1e-9, rng)
    assert abs(f.distance_to(tilt) - projector_distance(f, tilt)) <= 1e-14
    assert f.distance_to(tilt) == pytest.approx(1e-9, rel=1e-5) and not f.is_same(tilt)


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


@pytest.mark.parametrize("flavor", ["split", "hilbert"])
@pytest.mark.parametrize("n", [4, 9, 64])
def test_opposite_chart_matches_a_fresh_factorization(monkeypatch, flavor, n):
    rng = _rng(700 + n)
    chart = _random_chart(n, n // 2, rng, flavor)
    fresh = ga.ChartId(chart.g, chart.f, flavor)
    calls = _count_linalg(monkeypatch)
    opposite = chart.opposite()
    monkeypatch.undo()
    assert not calls
    assert (opposite.f, opposite.g, opposite.flavor) == (chart.g, chart.f, flavor)
    # a hilbert side keeps no rows, so each side's rows are read as the chart applied to I
    eye = np.eye(n)
    for side in (0, 1):
        got, want = opposite._apply(side, eye), fresh._apply(side, eye)
        assert_allclose(got, want, rtol=0, atol=1e-12)
        if flavor == "hilbert":
            assert np.array_equal(got, _dense_rows(opposite)[side] @ eye)


def test_transition_into_opposite_chart_inverts_coordinate():
    t = 0.5 - 2.0j
    src = _coordinate_chart()
    pt = ga.ChartPoint(src, ga.Operator([[t]]))
    assert_allclose(ga.transition_base(pt, src.opposite()).coord.matrix, [[1.0 / t]],
                    atol=1e-13)


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
        pool = (random_chart(n, h.dim, rng) for _ in range(8))
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


def _dense_rows(chart):
    """Each side's rows computed here, dense: B^H on a hilbert chart, B^H P on a split one."""
    sides = (chart.f, chart.g)
    if chart.flavor == "hilbert":
        return [side.basis.matrix.conj().T for side in sides]
    projections = ga.oblique_projections(chart.f, chart.g)
    return [side.basis.matrix.conj().T @ proj.matrix for side, proj in zip(sides, projections)]


def _chart(kind, n, k, rng):
    """A random chart of flavor ``kind``, or a chart on the (n - k, k) polarization blocks."""
    if kind in ("split", "hilbert"):
        return _random_chart(n, k, rng, kind)
    model = ga.PolarizedModel(n - k, k)
    if kind == "coordinate-split":
        return ga.ChartId(model.h_plus, model.h_minus)
    return ga.ChartId.hilbert(model.h_plus)


# the last three cases put a coordinate chart on the destination side (its rows
# select coordinates) or on the source side (its bases are 0/1 operands)
@pytest.mark.parametrize("n", [8, 32])
@pytest.mark.parametrize("flavors", [("split", "split"), ("hilbert", "split"),
                                     ("split", "hilbert"), ("split", "coordinate-split"),
                                     ("split", "coordinate-hilbert"),
                                     ("coordinate-hilbert", "hilbert")])
def test_coordinate_rows_match_projector_formulas(n, flavors):
    rng = _rng(7000 + n)
    k = n // 2 - 1
    src, dst = (_chart(kind, n, k, rng) for kind in flavors)
    # split rows are B^H P, so both block routes multiply in the same order, and
    # a coordinate chart's projections are 0/1, so every product against them is exact
    coordinate = "coordinate" in flavors[1]
    exact = dst.flavor == "split" or coordinate
    rows = _dense_rows(dst)
    # a hilbert or coordinate chart keeps no rows (they are its adjoint bases), and a
    # dense split chart keeps the rows computed here; each applies to a dense operand
    # as those rows
    x = _rng(7100 + n).standard_normal((n, 3)) + 1j * _rng(7150 + n).standard_normal((n, 3))
    if dst.flavor == "hilbert" or coordinate:
        assert dst._rows is None
    else:
        assert all(np.array_equal(kept, want) for kept, want in zip(dst._rows, rows))
    for side in (0, 1):
        assert np.array_equal(dst._apply(side, x), rows[side] @ x)
    dense = [side_rows @ sub.basis.matrix for side_rows in rows for sub in (src.f, src.g)]
    for got, want, product in zip(oracles._transition_blocks(src, dst),
                                  _projector_blocks(src, dst), dense):
        assert np.abs(got - want).max() <= 1e-12
        assert not exact or np.array_equal(got, want)
        assert np.array_equal(got, product)
    h = random_subspace(n, k, rng)
    for side, want in enumerate(_projector_coordinates(h, dst)):
        got = dst._apply(side, h)
        assert np.abs(got - want).max() <= 1e-12
        assert not coordinate or np.array_equal(got, want)
        assert np.array_equal(got, rows[side] @ h.basis.matrix)


def test_coordinate_charts_take_no_factorization(monkeypatch):
    m = ga.PolarizedModel(5, 5)
    h_plus, h_minus = m.h_plus, m.h_minus
    calls = _count_linalg(monkeypatch)
    split, hilbert = ga.ChartId(h_plus, h_minus), ga.ChartId.hilbert(h_plus)
    cond = ga.split_conditioning(h_plus, h_minus)
    monkeypatch.undo()
    assert not calls
    assert cond == 1.0
    assert hilbert.g.is_same(h_minus)
    # neither chart keeps rows; each side applies as the dense rows B^H P and B^H
    # computed here
    x = _rng(7300).standard_normal((10, 3)) + 1j * _rng(7301).standard_normal((10, 3))
    for chart in (split, hilbert):
        assert chart._rows is None
        for side, rows in enumerate(_dense_rows(chart)):
            assert np.array_equal(chart._apply(side, x), rows @ x)
    assert np.array_equal(split._apply(0, np.eye(10)), h_plus.basis.matrix.conj().T)
    assert np.array_equal(split._apply(1, np.eye(10)), h_minus.basis.matrix.conj().T)


@pytest.mark.parametrize("flavor", ["split", "hilbert"])
def test_overlapping_coordinate_pair_is_refused(flavor):
    eye = np.eye(4)
    f, g = ga.Subspace(eye[:, [0, 1]]), ga.Subspace(eye[:, [1, 2]])
    assert ga.split_conditioning(f, g) == 0.0
    with pytest.raises(SplitFailure) as exc:
        ga.ChartId(f, g, flavor)
    if flavor == "split":
        assert exc.value.conditioning == 0.0


def test_coordinate_side_of_a_mixed_split_chart_is_dense():
    # a split chart's rows select coordinates only when both sides are coordinate
    rng = _rng(7200)
    f = ga.Subspace(np.eye(6)[:, :3])
    g = ga.Subspace.from_span(np.eye(6)[:, 3:] + 0.3 * rng.standard_normal((6, 3)))
    h = random_subspace(6, 3, rng)
    for chart in (ga.ChartId(f, g), ga.ChartId(g, f)):
        for side in (0, 1):
            assert chart._rows[side].ndim == 2
            assert np.array_equal(chart._apply(side, h), chart._rows[side] @ h.basis.matrix)


def _retained_bytes(build):
    """``build()`` and the traced bytes still held once it returns, its result included."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = build()
        return kept, tracemalloc.get_traced_memory()[0] - before
    finally:
        if started:
            tracemalloc.stop()


def test_hilbert_chart_on_two_dense_bases_keeps_no_array():
    # M = [B_F | B_G] is unitary, so its rows are the adjoint bases, read from the bases
    n, k = 128, 64
    f = random_subspace(n, k, _rng(7500))
    g = f.complement()
    chart, retained = _retained_bytes(lambda: ga.ChartId(f, g, "hilbert"))
    assert chart._rows is None
    assert retained < k * k * np.dtype(complex).itemsize


def test_hilbert_chart_of_a_subspace_keeps_only_its_complement_basis():
    n, k = 128, 64
    v = random_subspace(n, k, _rng(7501))
    chart, retained = _retained_bytes(lambda: ga.ChartId.hilbert(v))
    assert chart.f is v and chart._rows is None
    assert chart.g.basis.matrix.nbytes <= retained
    assert retained - chart.g.basis.matrix.nbytes < k * k * np.dtype(complex).itemsize


def test_coordinate_blocks_and_their_charts_keep_only_indices():
    # at n = 256 each 256 x 128 0/1 basis would take 0.5 MiB; the blocks, the
    # hilbert chart's complement keep index vectors only, and neither chart keeps rows
    model = ga.PolarizedModel(128, 128)

    def build():
        h_plus, h_minus = model.h_plus, model.h_minus
        return h_plus, h_minus, ga.ChartId.hilbert(h_plus), ga.ChartId(h_plus, h_minus)

    (h_plus, h_minus, hilbert, split), retained = _retained_bytes(build)
    assert retained < 16 * 1024
    assert hilbert.g.is_same(h_minus) and hilbert._rows is None and split._rows is None


def test_coordinate_basis_is_the_frozen_dense_matrix_built_on_each_read():
    eye = np.eye(7, dtype=complex)
    given = ga.Subspace(eye[:, [5, 0, 3]])
    model = ga.PolarizedModel(3, 4)
    for space, want in ((given, eye[:, [5, 0, 3]]), (given.complement(), eye[:, [1, 2, 4, 6]]),
                        (model.h_minus, eye[:, :3]), (model.h_plus, eye[:, 3:]),
                        (model.h_plus.complement(), eye[:, :3]),
                        (ga.Subspace(eye[:, :0]), eye[:, :0])):
        mat = space.basis.matrix
        assert not mat.flags.writeable and mat.flags.c_contiguous and mat.dtype == complex
        assert mat.shape == want.shape == (space.ambient_dim, space.dim)
        assert mat.tobytes() == np.ascontiguousarray(want).tobytes()
        # no subspace keeps it: a cache would hold the n x k matrix from the first read on
        assert space.basis.matrix is not mat


def test_dense_hilbert_side_applies_its_basis_adjoint_bit_for_bit():
    rng = _rng(7502)
    n, cols = 12, [7, 2, 9]
    chart = ga.ChartId.hilbert(random_subspace(n, 5, rng))
    x = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    coordinate = ga.Subspace(np.eye(n)[:, cols])
    for c in (chart, chart.opposite()):
        assert c._rows is None
        for side, space in enumerate((c.f, c.g)):
            adjoint = space.basis.matrix.conj().T
            assert np.array_equal(c._apply(side, x), adjoint @ x)
            # a coordinate operand reads columns of B^H, as the dense product does exactly
            got = c._apply(side, coordinate)
            assert got.tobytes(order="A") == adjoint[:, cols].tobytes(order="A")
            assert np.array_equal(got, adjoint @ coordinate.basis.matrix)


def _record_chart(kind):
    """A chart of the named kind on a 7-dim ambient space, with a 3-dim F."""
    eye, rng = np.eye(7), _rng(7600)
    if kind == "coordinate-hilbert":
        return ga.ChartId.hilbert(ga.PolarizedModel(4, 3).h_plus)
    if kind == "dense-hilbert":
        return ga.ChartId.hilbert(random_subspace(7, 3, rng))
    if kind == "coordinate-split":
        model = ga.PolarizedModel(4, 3)
        return ga.ChartId(model.h_plus, model.h_minus)
    if kind == "scattered-split":
        return ga.ChartId(ga.Subspace(eye[:, [0, 3, 5]]), ga.Subspace(eye[:, [6, 1, 2, 4]]))
    if kind == "mixed-split":
        g = ga.Subspace.from_span(eye[:, 3:] + 0.3 * rng.standard_normal((7, 4)))
        return ga.ChartId(ga.Subspace(eye[:, :3]), g)
    return random_chart(7, 3, rng)


@pytest.mark.parametrize("opposite", [False, True])
@pytest.mark.parametrize("kind", ["coordinate-hilbert", "dense-hilbert", "coordinate-split",
                                  "scattered-split", "mixed-split", "dense-split"])
def test_chart_keeps_rows_only_for_a_split_pair_with_a_dense_side(kind, opposite):
    chart = _record_chart(kind)
    # the opposite chart's rows are this chart's, swapped
    rows = _dense_rows(chart)[::-1] if opposite else _dense_rows(chart)
    if opposite:
        chart = chart.opposite()
    # M = [B_F | B_G] is unitary on a hilbert chart and a permutation on two coordinate bases
    if kind.endswith("hilbert") or kind in ("coordinate-split", "scattered-split"):
        assert chart._rows is None
    else:
        assert len(chart._rows) == 2
        assert all(np.array_equal(kept, want) for kept, want in zip(chart._rows, rows))
    rng = _rng(7601)
    x = rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3))
    coordinate = ga.Subspace(np.eye(7)[:, [5, 0, 3, 6]])
    for side in (0, 1):
        assert np.array_equal(chart._apply(side, x), rows[side] @ x)
        assert np.array_equal(chart._apply(side, coordinate),
                              rows[side] @ coordinate.basis.matrix)


def _dense_record(pt, dst):
    """A', denom and left of the forward transition by the dense block formulas."""
    a, b, c, d = oracles._transition_blocks(pt.chart, dst)
    coord = pt.coord.matrix
    denom = a + b @ coord
    moved = np.linalg.solve(denom.T, (c + d @ coord).T).T
    return moved, denom, d - moved @ b


def _coordinate_pair(case, t):
    """A chart point and a target chart with two coordinate sides.

    The source bases are coordinate too, except in the dense cases, whose
    source is a random split chart.
    """
    if case.startswith("dense"):
        rng = _rng(7402)
        model = ga.PolarizedModel(4, 3)
        dst = (ga.ChartId(model.h_plus, model.h_minus) if case == "dense-split"
               else ga.ChartId.hilbert(model.h_plus))
        coord = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        return ga.ChartPoint(random_chart(7, 3, rng), t * coord), dst
    if case.startswith("swap"):
        model = ga.PolarizedModel(int(case[4:]), int(case[4:]))
        point = ga.generate_restricted_point(model, 1, ga.DecayProfile.zero())
        src, dst, base = ga.swap_chart_family(t)(model, point)
        return ga.chart_forward(base, src), dst
    # scattered rows: the target's F holds one source F and two source G coordinates
    eye = np.eye(7)
    src = ga.ChartId(ga.Subspace(eye[:, [0, 3, 5]]), ga.Subspace(eye[:, [6, 1, 2, 4]]))
    dst = ga.ChartId.hilbert(ga.Subspace(eye[:, [4, 3, 1]]))
    rng = _rng(7400)
    coord = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    return ga.ChartPoint(src, t * coord), dst


@pytest.mark.parametrize("t", [1.5 + 0.5j, 1e-3, 1e3 + 2j])
@pytest.mark.parametrize("case", ["swap4", "swap16", "swap128", "scattered", "dense-split",
                                  "dense-hilbert"])
def test_coordinate_record_is_the_dense_block_record_bit_for_bit(monkeypatch, case, t):
    pt, dst = _coordinate_pair(case, t)
    builds = []
    build = oracles._transition_blocks
    monkeypatch.setattr(oracles, "_transition_blocks",
                        lambda *args: builds.append(1) or build(*args))
    moved, denom, left = atlas._forward_transition(pt, dst, None)
    assert not builds  # read by index
    monkeypatch.undo()
    # signed zeros and memory order included: every 0/1 product rounds nothing
    for got, want in zip((moved, denom, left), _dense_record(pt, dst)):
        assert got.flags.c_contiguous == want.flags.c_contiguous
        assert got.tobytes() == want.tobytes()
    mu = _rng(7401).standard_normal(pt.coord.shape[::-1]).astype(complex)
    pushed = ga.transition_cotangent(ga.Covector(pt, mu), dst).form.matrix
    assert np.array_equal(pushed, np.linalg.solve(left.T, (denom @ mu).T).T)
    # L_r = d_r - A b_r, with b_r and d_r the source rows applied to the target's G
    b_r, d_r = pt.chart._apply(0, dst.g), pt.chart._apply(1, dst.g)
    assert ga.pushforward_factors(pt, dst)[1].matrix.tobytes() == (
        d_r - pt.coord.matrix @ b_r).tobytes()


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
        ga.oblique_projections(e1, e1)
    assert split.value.tol == ga.DEFAULT_TOL_SPLIT
    assert split.value.conditioning <= split.value.tol
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
    a, b, _, _ = oracles._transition_blocks(pt.chart, target)
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


# in_chart_domain reads sigma_min of the restricted block by an SVD, and chart_forward
# decides on 1/|B_F + B_G A|_2: one number by two routes.  At tol = measured (1 -+ 1e-9),
# on hilbert charts and on split charts at SPLIT_FLOOR, both give one answer, and the
# raised conditioning is the measured one
@pytest.mark.parametrize("flavor", ["hilbert", "split"])
def test_in_chart_domain_agrees_with_chart_forward_at_the_boundary(monkeypatch, flavor):
    monkeypatch.setattr(sampling, "_log_uniform", _at_floor)
    for trial in range(50):
        rng = _rng(1300 + trial)
        n = int(rng.integers(2, 17))
        chart = _random_chart(n, int(rng.integers(1, n)), rng, flavor)
        h = near_boundary_subspace(chart, rng, 10.0 ** -rng.uniform(1.0, 7.0))
        cond = ga.in_chart_domain(h, chart).conditioning
        for side in (1.0 - 1e-9, 1.0 + 1e-9):
            inside = ga.in_chart_domain(h, chart, cond * side).contains
            assert inside == (side < 1.0)
            if inside:
                ga.chart_forward(h, chart, cond * side)
                continue
            with pytest.raises(ChartDomainViolation) as info:
                ga.chart_forward(h, chart, cond * side)
            assert info.value.conditioning == pytest.approx(cond, rel=1e-12, abs=0.0)


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
    aprime, _, _ = atlas._forward_transition(pt, dst, None)
    assert atlas._coordinate_bound(aprime) <= _transition_conditioning(pt, dst) * (1.0 + 1e-12)
    # the reverse check: the source chart sees the graph of A through R^{-1}
    graph = src.f.basis.matrix + src.g.basis.matrix @ pt.coord.matrix
    margin = 1.0 / np.linalg.norm(np.linalg.qr(graph, mode="r"), 2)
    assert atlas._coordinate_bound(pt.coord.matrix) <= margin * (1.0 + 1e-12)
