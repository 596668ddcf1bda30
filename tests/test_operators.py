import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import grassatlas as ga
from grassatlas.atlas import _coordinate_rows, _row_support
from grassatlas.errors import (BadProfile, ConfigError, DimensionMismatch, LadderMismatch,
                               SplitFailure)
from grassatlas.operators import singular_tail_sum
from grassatlas.verify.runner import SuiteConfig


def _rng(seed):
    return np.random.default_rng(seed)


def _gauss(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _test_unitary(rng, n):
    # QR-of-Gaussian unitary, built locally so the oracle stays independent
    q, r = np.linalg.qr(_gauss(rng, n, n))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


# ---------------------------------------------------------------------------
# oblique projections

def test_oblique_projections_orthogonal_pair():
    f = ga.Subspace(np.eye(2)[:, :1])
    g = ga.Subspace(np.eye(2)[:, 1:])
    onto_f, onto_g = ga.oblique_projections(f, g)
    assert_allclose(onto_f.matrix, np.diag([1.0, 0.0]), atol=1e-15)
    assert_allclose(onto_g.matrix, np.diag([0.0, 1.0]), atol=1e-15)


def test_oblique_projections_skew_pair():
    bf = np.array([[1.0], [0.0]])
    bg = np.array([[1.0], [1.0]]) / math.sqrt(2)
    # oracle: solve the 2x2 block system [B_F | B_G] c = e2 directly
    coeff = np.linalg.solve(np.hstack([bf, bg]), np.array([0.0, 1.0]))
    expected = bf[:, 0] * coeff[0]
    assert_allclose(expected, [-1.0, 0.0], atol=1e-15)
    onto_f, _ = ga.oblique_projections(ga.Subspace(bf), ga.Subspace(bg))
    assert_allclose(onto_f.matrix @ np.array([0.0, 1.0]), expected, atol=1e-14)


def test_oblique_projections_wrap_their_products_uncopied():
    # a dense pair takes one solve; each product is frozen before it is wrapped, so
    # the peak stays below the solve's inverse, both products and a copy of one
    n = 128
    rng = _rng(3)
    f = ga.Subspace.from_span(_gauss(rng, n, n // 2))
    g = ga.Subspace.from_span(_gauss(rng, n, n // 2))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        onto_f, onto_g = ga.oblique_projections(f, g)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert_allclose(onto_f.matrix + onto_g.matrix, np.eye(n), atol=1e-12)
    assert peak < 3.75 * n * n * np.dtype(complex).itemsize


def test_oblique_projections_rejects_overlapping_pair():
    e1 = ga.Subspace(np.eye(2)[:, :1])
    with pytest.raises(SplitFailure):
        ga.oblique_projections(e1, e1)


@pytest.mark.parametrize("side", [1.0 - 1e-6, 1.0 + 1e-6])
def test_oblique_projections_decide_at_tol_split(side):
    # lines at angle theta in C^2 have split conditioning tan(theta/2)
    theta = 2.0 * math.atan(side * ga.DEFAULT_TOL_SPLIT)
    f = ga.Subspace(np.eye(2)[:, :1])
    g = ga.Subspace(np.array([[math.cos(theta)], [math.sin(theta)]]))
    _assert_split_decided(f, g, side, rel=1e-9)


def _assert_split_decided(f, g, side, rel):
    """The pair reads side * DEFAULT_TOL_SPLIT within ``rel`` and is refused exactly below it."""
    threshold = ga.DEFAULT_TOL_SPLIT
    cond = ga.split_conditioning(f, g)
    assert abs(cond / (side * threshold) - 1.0) <= rel
    if side < 1.0:
        with pytest.raises(SplitFailure) as err:
            ga.oblique_projections(f, g)
        assert err.value.conditioning == cond and err.value.tol == threshold
    else:
        onto_f, onto_g = ga.oblique_projections(f, g)
        assert_allclose(onto_f.matrix + onto_g.matrix, np.eye(f.ambient_dim), atol=1e-6)


@pytest.mark.parametrize("side", [1.0 - 1e-6, 1.0 + 1e-6])
def test_oblique_projections_decide_at_tol_split_rotated_n64(side):
    # the C^2 pair above, filled with orthogonal directions to n = 64 and turned
    # by a seeded Haar unitary: only the one plane holds a small angle
    n = 64
    theta = 2.0 * math.atan(side * ga.DEFAULT_TOL_SPLIT)
    eye = np.eye(n)
    bf = eye[:, [0, *range(2, n // 2 + 1)]]
    bg = np.column_stack([math.cos(theta) * eye[:, 0] + math.sin(theta) * eye[:, 1],
                          eye[:, n // 2 + 1:]])
    u = _test_unitary(_rng(64), n)
    _assert_split_decided(ga.Subspace(u @ bf), ga.Subspace(u @ bg), side, rel=1e-8)


def _angled_pair(rng, n, k, cond):
    """Orthonormal bases of a pair whose least principal angle is 2 atan(cond).

    Plane j of a Haar frame u holds u_j in F and cos(t_j) u_j + sin(t_j) u_{k+j}
    in G; t_0 = 2 atan(cond) and the other planes open wider.
    """
    u = _test_unitary(rng, n)
    m = min(k, n - k)
    angles = np.full(m, 2.0 * math.atan(cond))
    angles[1:] = rng.uniform(angles[0], math.pi / 2, m - 1)
    bg = u[:, k:].copy()
    bg[:, :m] = np.cos(angles) * u[:, :m] + np.sin(angles) * u[:, k:k + m]
    return u[:, :k], bg


@pytest.mark.parametrize("n", [3, 8, 64])
def test_split_conditioning_matches_joint_svd(monkeypatch, n):
    # the cosine route takes one SVD (of B_F^H B_G), the sine route a second (of the residual)
    svd_calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        svd_calls.append(1)
        return svd(*args, **kwargs)

    rng = _rng(500 + n)
    for k in sorted({1, n // 2, n - 1}):
        for cond in (1e-4, 3e-3, 0.1, 0.4, 0.45, 0.7, 0.99):
            bf, bg = _angled_pair(rng, n, k, cond)
            sv = svd(np.hstack([bf, bg]), compute_uv=False)
            s = svd(bf.conj().T @ bg, compute_uv=False)[0]
            f, g = ga.Subspace(bf), ga.Subspace(bg)
            svd_calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "svd", counted)
                got = ga.split_conditioning(f, g)
            assert len(svd_calls) == (1 if s <= math.sqrt(0.5) else 2)
            assert got == pytest.approx(sv[-1] / sv[0], rel=1e-10)
            assert got == pytest.approx(cond, rel=1e-10)


def test_split_conditioning_of_an_empty_side_is_one():
    eye = np.eye(5)
    assert ga.split_conditioning(ga.Subspace(eye), ga.Subspace(eye[:, :0])) == 1.0
    assert ga.split_conditioning(ga.Subspace(eye[:, :0]), ga.Subspace(eye)) == 1.0


def test_oblique_projections_rejects_wrong_dims():
    f = ga.Subspace(np.eye(3)[:, :1])
    g = ga.Subspace(np.eye(3)[:, 1:2])
    with pytest.raises(DimensionMismatch):
        ga.oblique_projections(f, g)


def test_oblique_projection_identities_seeded():
    rng = _rng(11)
    for n in (3, 5, 8):
        bf, _ = np.linalg.qr(_gauss(rng, n, n // 2))
        bg, _ = np.linalg.qr(_gauss(rng, n, n - n // 2))
        f, g = ga.Subspace(bf), ga.Subspace(bg)
        if ga.split_conditioning(f, g) < 1e-2:
            continue
        onto_f, onto_g = ga.oblique_projections(f, g)
        pf, pg = onto_f.matrix, onto_g.matrix
        scale = 1 + np.linalg.norm(pf, 2)
        assert np.linalg.norm(pf @ pf - pf, 2) <= 1e-12 * scale
        assert np.linalg.norm(pf + pg - np.eye(n), 2) <= 1e-12 * scale
        assert_allclose(pf @ bf, bf, atol=1e-12)       # range contains F
        assert_allclose(pf @ bg, 0 * bg, atol=1e-12)   # kernel contains G


# ---------------------------------------------------------------------------
# coordinate bases

def _coordinate_slice(n, rows):
    basis = np.zeros((n, len(rows)), dtype=complex)
    basis[rows, np.arange(len(rows))] = 1.0
    return basis


def _edited_slice(entry, value):
    basis = _coordinate_slice(6, [4, 0, 2])
    basis[entry] = value
    return basis


# 1 + 1e-16 rounds to 1.0 in double precision, so the next double above 1 and
# 1 + 1e-16j stand for an entry a hair off 1
@pytest.mark.parametrize("basis, rows", [
    (_coordinate_slice(6, [4, 0, 2]), [4, 0, 2]),
    (_coordinate_slice(6, [3]), [3]),
    (_coordinate_slice(6, [5, 1, 0, 4, 2]), [5, 1, 0, 4, 2]),
    (_coordinate_slice(1, [0]), [0]),
    (_coordinate_slice(6, [4, 0, 2]).real, [4, 0, 2]),
    (_coordinate_slice(6, []), []),
    (_coordinate_slice(6, [4, 0, 4]), None),
    (_edited_slice((4, 0), -1.0), None),
    (_edited_slice((4, 0), 1j), None),
    (_edited_slice((4, 0), 1.0 + 1e-16j), None),
    (_edited_slice((4, 0), np.nextafter(1.0, 2.0)), None),
    (_edited_slice((1, 0), 1e-300), None),
    (_edited_slice((3, 1), 1.0), None),
    (_edited_slice((4, 0), 0.0), None),
    (_edited_slice((0, 1), 0.0), None),
    (ga.haar_frame(6, 3, _rng(0)), None),
], ids=["permuted", "k1", "k-n-minus-1", "n1", "real", "k0", "repeated-row", "minus-one",
        "imaginary-unit", "1+1e-16j", "1+ulp", "second-nonzero-first-column",
        "second-nonzero-later-column", "zero-first-column", "zero-later-column", "haar"])
def test_coordinate_rows(basis, rows):
    found = _coordinate_rows(basis, _row_support(basis))
    if rows is None:
        assert found is None
    else:
        assert np.array_equal(found, rows)


@pytest.mark.parametrize("entry", [(1, 0), (4, 0)], ids=["off-the-one", "on-the-one"])
def test_coordinate_basis_holding_a_nan_is_refused(entry):
    with pytest.raises(ValueError, match="non-finite"):
        ga.Subspace(_edited_slice(entry, np.nan))


def test_overlapping_coordinate_pair_is_a_split_failure():
    f, g = ga.Subspace(_coordinate_slice(4, [0, 1])), ga.Subspace(_coordinate_slice(4, [1, 2]))
    with pytest.raises(SplitFailure):
        ga.oblique_projections(f, g)
    with pytest.raises(SplitFailure):
        ga.ChartId(f, g)


def test_oblique_projections_of_a_coordinate_pair_match_the_solve():
    bf, bg = _coordinate_slice(7, [5, 0, 3]), _coordinate_slice(7, [6, 2, 1, 4])
    inv = np.linalg.solve(np.hstack([bf, bg]), np.eye(7))
    onto_f, onto_g = ga.oblique_projections(ga.Subspace(bf), ga.Subspace(bg))
    assert np.array_equal(onto_f.matrix, bf @ inv[:3])
    assert np.array_equal(onto_g.matrix, bg @ inv[3:])
    assert np.array_equal(onto_f.matrix, np.diag([1, 0, 0, 1, 0, 1, 0]))


# ---------------------------------------------------------------------------
# Schatten machinery

def test_schatten_norm_diagonal_values():
    t = np.diag([1.0, 0.5, 0.25])
    assert abs(ga.schatten_norm(t, 1).value - 1.75) < 1e-14
    assert abs(ga.schatten_norm(t, 2).value - math.sqrt(21) / 4) < 1e-14


def test_schatten_norm_unitary_invariance():
    rng = _rng(3)
    t = _gauss(rng, 8, 8)
    for p in (1.0, 2.0, 3.0):
        base = ga.schatten_norm(t, p).value
        u, v = _test_unitary(rng, 8), _test_unitary(rng, 8)
        rotated = ga.schatten_norm(u @ t @ v, p).value
        assert abs(rotated - base) <= 1e-10 * base


def test_schatten_norm_rejects_bad_index():
    with pytest.raises(ValueError):
        ga.schatten_norm(np.eye(2), 0.5)
    with pytest.raises(ValueError):
        ga.schatten_norm(np.eye(2), math.nan)


# p = inf is the operator norm, the norm of the compact class K
def test_schatten_norm_at_infinity_is_the_operator_norm():
    t = _gauss(_rng(5), 6, 4)
    rep = ga.schatten_norm(t, math.inf)
    assert rep.p == math.inf
    assert rep.value == ga.operator_norm(t)
    assert ga.SchattenReport(p=math.inf, singular_values=np.zeros(0)).value == 0.0
    assert ga.schatten_norm(np.zeros((3, 2)), math.inf).value == 0.0
    with pytest.raises(ValueError, match="power sum"):
        rep.power_sum


def test_schatten_report_zero_operator():
    rep = ga.schatten_norm(np.zeros((3, 3)), 1)
    assert rep.value == 0.0
    assert ga.SchattenReport(p=2, singular_values=np.zeros(0)).value == 0.0


def test_schatten_report_derives_value_from_power_sum():
    rep = ga.SchattenReport(p=3, singular_values=np.array([2.0, 1.0]))
    assert rep.p == 3.0 and rep.power_sum == 9.0
    assert rep.value == 9.0 ** (1.0 / 3.0)
    with pytest.raises(ValueError):
        ga.SchattenReport(p=0.5, singular_values=np.array([1.0]))


# power sums past the float range: 10^400, 0.1^400 and 1e200^2
@pytest.mark.parametrize("sv, p, expected", [
    ([10.0, 1.0], 400, 10.0),
    ([0.1, 0.01], 400, 0.1),
    ([1e200, 1.0], 2, 1e200),
], ids=["overflow", "underflow", "large_sigma"])
def test_schatten_value_rescales_a_power_sum_out_of_range(sv, p, expected):
    rep = ga.schatten_norm(np.diag(sv), p)
    assert rep.power_sum in (0.0, math.inf)
    assert rep.value == pytest.approx(expected, rel=1e-15)


def test_schatten_report_leaves_the_callers_values_alone():
    sv = np.array([2.0, 1.0])
    rep = ga.SchattenReport(p=1, singular_values=sv)
    assert sv.flags.writeable
    sv[0] = 5.0
    assert rep.value == 3.0 and not rep.singular_values.flags.writeable


def test_operator_norm_examples():
    assert ga.operator_norm(np.eye(5)) == pytest.approx(1.0)
    assert ga.operator_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0)
    # rank-one column: singular value is the euclidean length
    assert ga.operator_norm(np.array([[3.0], [4.0]])) == pytest.approx(5.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 12))
def test_schatten_monotonicity_in_p(seed, n):
    t = _gauss(_rng(seed), n, n)
    v1 = ga.schatten_norm(t, 1).value
    v2 = ga.schatten_norm(t, 2).value
    v3 = ga.schatten_norm(t, 3).value
    top = ga.operator_norm(t)
    assert v1 + 1e-12 * (1 + v1) >= v2 >= v3 - 1e-12 * (1 + v1)
    assert v3 + 1e-12 * (1 + v1) >= top


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_schatten_ideal_inequality(seed):
    rng = _rng(seed)
    t, x, s = (_gauss(rng, 6, 6) for _ in range(3))
    for p in (1.0, 2.0, 3.0):
        lhs = ga.schatten_norm(t @ x @ s, p).value
        rhs = ga.operator_norm(t) * ga.schatten_norm(x, p).value * ga.operator_norm(s)
        assert lhs <= rhs * (1 + 1e-10)


# ---------------------------------------------------------------------------
# compactness tails over ladders

def test_compactness_tail_geometric_ladder():
    r = 0.5
    ops = [np.diag(r ** np.arange(1, n + 1)) for n in (16, 32, 64)]
    tail = ga.compactness_tail(ops, cutoff=8)
    assert tail.dims == (16, 32, 64)
    # geometric series bound: every tail sits below sum_{k>8} r^k = 2 r^9
    assert max(tail.tail_norms) - min(tail.tail_norms) <= 2 * r ** 8
    for value in tail.tail_norms:
        assert value <= r ** 9 / (1 - r) + 1e-12


def test_compactness_tail_identity_ladder_grows():
    ops = [np.eye(n) for n in (10, 20, 30)]
    tail = ga.compactness_tail(ops, cutoff=8)
    assert tail.tail_norms == pytest.approx((2.0, 12.0, 22.0))


def test_compactness_tail_zero_ladder():
    ops = [np.zeros((n, n)) for n in (4, 8)]
    tail = ga.compactness_tail(ops, cutoff=2)
    assert tail.tail_norms == (0.0, 0.0)


def test_operator_ladder_rejects_non_nesting():
    small = np.eye(4)
    large = np.eye(8) * 2.0
    with pytest.raises(LadderMismatch):
        ga.compactness_tail((ga.Operator(small), ga.Operator(large)), 1)


def test_compactness_tail_refuses_nesting_rungs_of_one_size():
    # a 2 x 3 rung nests in a 3 x 3 one, but both are labeled 3 by their larger side
    large = np.arange(9.0).reshape(3, 3)
    with pytest.raises(LadderMismatch, match=r"sizes must strictly increase, got \(3, 3\)"):
        ga.compactness_tail([large[:2], large], 1)


# ---------------------------------------------------------------------------
# decay generators

def test_decay_operator_geometric_singular_values():
    op = ga.decay_operator(4, 4, ga.DecayProfile.geometric(0.5), seed=7)
    assert_allclose(ga.singular_values(op), [1.0, 0.5, 0.25, 0.125], atol=1e-12)


def test_decay_operator_deterministic():
    a = ga.decay_operator(6, 4, ga.DecayProfile.geometric(0.3), seed=9)
    b = ga.decay_operator(6, 4, ga.DecayProfile.geometric(0.3), seed=9)
    assert np.array_equal(a.matrix, b.matrix)
    c = ga.decay_operator(6, 4, ga.DecayProfile.geometric(0.3), seed=10)
    assert not np.array_equal(a.matrix, c.matrix)


def test_decay_operator_power_trace_norm():
    op = ga.decay_operator(8, 8, ga.DecayProfile.power(2.0), seed=1)
    expected = sum(1.0 / k ** 2 for k in range(1, 9))  # finite-sum oracle
    assert abs(ga.schatten_norm(op, 1).value - expected) < 1e-12


def test_decay_operator_rejects_bad_profiles():
    with pytest.raises(BadProfile):
        ga.decay_operator(4, 4, ga.DecayProfile.geometric(1.5), seed=0)
    with pytest.raises(BadProfile):
        ga.decay_operator(4, 4, ga.DecayProfile.power(0.5), seed=0)
    with pytest.raises(BadProfile):
        ga.DecayProfile("odd")


# ---------------------------------------------------------------------------
# Operator container behavior

def test_schatten_report_validates_consistency():
    with pytest.raises(ValueError):
        ga.SchattenReport(p=1.0, singular_values=np.array([0.5, 1.0]))
    with pytest.raises(ValueError):
        ga.SchattenReport(p=1.0, singular_values=np.array([1.0, -0.5]))


@pytest.mark.parametrize("sv", [[[2.0, 1.0], [1.0, 0.5]], 3.0], ids=["2-d", "scalar"])
def test_schatten_report_refuses_a_spectrum_that_is_not_one_dimensional(sv):
    with pytest.raises(ValueError, match="^singular values must form a 1-D array"):
        ga.SchattenReport(p=2, singular_values=sv)


# a NaN compares False both ways and an inf sorts in order, so the order checks pass both
@pytest.mark.parametrize("sv", [[math.nan], [math.inf], [math.inf, 1.0], [2.0, math.nan, 1.0]],
                         ids=["nan", "inf", "inf-first", "nan-inside"])
def test_schatten_report_refuses_non_finite_singular_values(sv):
    with pytest.raises(ValueError, match="finite"):
        ga.SchattenReport(p=2, singular_values=np.array(sv))


def test_singular_tail_validates_dims():
    with pytest.raises(ValueError):
        ga.SingularTail(dims=(8, 8), tail_norms=(0.1, 0.1), cutoff=2)
    with pytest.raises(ValueError):
        ga.SingularTail(dims=(4, 8), tail_norms=(0.1, -0.1), cutoff=2)


def test_operator_is_immutable():
    op = ga.Operator(np.eye(2))
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 5.0


def test_operator_copies_a_writable_array_and_keeps_a_frozen_owned_one():
    writable = np.ones((2, 3), dtype=complex)
    op = ga.Operator(writable)
    writable[0, 0] = 99.0
    assert op.matrix[0, 0] == 1.0 and writable.flags.writeable
    frozen = np.ones((2, 3), dtype=complex)
    frozen.setflags(write=False)
    assert ga.Operator(frozen).matrix is frozen
    # a read-only view may alias a writable base; a real or Fortran-ordered array
    # is not what an Operator holds: each is copied
    view = writable[:, :2]
    view.setflags(write=False)
    real = np.ones((2, 3))
    fortran = np.asfortranarray(np.ones((3, 2), dtype=complex))
    for other in (view, real, fortran):
        other.setflags(write=False)
        kept = ga.Operator(other).matrix
        assert kept is not other and not np.shares_memory(kept, other)
        assert kept.flags.owndata and kept.flags.c_contiguous and not kept.flags.writeable
        assert np.array_equal(kept, other)


def test_coordinate_oblique_projections_are_wrapped_uncopied(monkeypatch):
    made = []
    diag = np.diag
    monkeypatch.setattr(np, "diag", lambda v: made.append(diag(v)) or made[-1])
    m = ga.PolarizedModel(2, 3)
    onto_f, onto_g = ga.oblique_projections(m.h_plus, m.h_minus)
    assert onto_f.matrix is made[0] and onto_g.matrix is made[1]
    assert np.array_equal(onto_f.matrix, np.diag([0, 0, 1, 1, 1]))


# ---------------------------------------------------------------------------
# integer and cutoff rules

_GEOMETRIC = ga.DecayProfile.geometric(0.5)


def _experiment(**options):
    def family(model, point):
        raise AssertionError("a rung was built before the options were checked")

    ladder = ga.build_truncation_ladder([(2, 2), (4, 4)], 1, _GEOMETRIC)
    return ga.preservation_experiment(ladder, 0, family, **options)


def _graph_family_rung(seed):
    model = ga.PolarizedModel(4, 4)
    point = ga.generate_restricted_point(model, 1, _GEOMETRIC)
    return ga.graph_chart_family(0.6, seed)(model, point)


@pytest.mark.parametrize("call, error, name", [
    pytest.param(lambda: ga.PolarizedModel(2.9, 3), ValueError, "n_minus", id="model"),
    pytest.param(lambda: ga.build_truncation_ladder([(4.5, 4), (8, 8.9)], 1, _GEOMETRIC),
                 ValueError, "dims entry", id="ladder_dims"),
    pytest.param(lambda: ga.generate_restricted_point(ga.PolarizedModel(4, 4), 1, _GEOMETRIC,
                                                      virtual_dim=1.9),
                 ValueError, "virtual_dim", id="virtual_dim"),
    pytest.param(lambda: ga.decay_operator(2.5, 3, _GEOMETRIC, seed=0), ValueError, "rows",
                 id="decay_rows"),
    pytest.param(lambda: ga.generate_restricted_point(ga.PolarizedModel(4, 4), 1, _GEOMETRIC,
                                                      seed=1.5),
                 ValueError, "seed", id="point_seed"),
    pytest.param(lambda: _graph_family_rung(1.5), ValueError, "seed", id="chart_family_seed"),
    pytest.param(lambda: ga.decay_operator(0, 3, _GEOMETRIC, seed=1.5), ValueError, "seed",
                 id="decay_seed"),
    pytest.param(lambda: SuiteConfig(dims=(4.5,)), ConfigError, "dims entry", id="config_dims"),
    pytest.param(lambda: SuiteConfig(trials=2.5), ConfigError, "trials", id="config_trials"),
    pytest.param(lambda: SuiteConfig(seed=1.5), ConfigError, "seed", id="config_seed"),
    pytest.param(lambda: singular_tail_sum(np.diag([4.0, 3.0, 2.0, 1.0]), -1), ValueError,
                 "cutoff", id="tail_negative"),
    pytest.param(lambda: ga.compactness_tail([np.eye(2), np.eye(4)], 1.9), ValueError,
                 "cutoff", id="tail_fraction"),
    pytest.param(lambda: _experiment(tail_cutoff=-1), ValueError, "cutoff",
                 id="experiment_cutoff"),
    pytest.param(lambda: _experiment(seed=1.5), ValueError, "seed", id="experiment_seed"),
    pytest.param(lambda: ga.haar_frame(4.0, 2, _rng(0)), ValueError, "n", id="haar_float"),
    pytest.param(lambda: ga.haar_frame(True, 1, _rng(0)), ValueError, "n", id="haar_bool"),
    pytest.param(lambda: ga.haar_frame(-1, -2, _rng(0)), ValueError, "n", id="haar_negative"),
])
def test_sizes_seeds_and_cutoffs_are_refused_not_truncated(call, error, name):
    with pytest.raises(error, match=f"^{name} must be"):
        call()
