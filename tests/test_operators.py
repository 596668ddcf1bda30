import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import grassatlas as ga
from grassatlas.errors import BadProfile, DimensionMismatch, LadderMismatch, SplitFailure


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


def test_oblique_projections_rejects_overlapping_pair():
    e1 = ga.Subspace(np.eye(2)[:, :1])
    with pytest.raises(SplitFailure):
        ga.oblique_projections(e1, e1)


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
        if ga.split_conditioning(bf, bg) < 1e-2:
            continue
        onto_f, onto_g = ga.oblique_projections(ga.Subspace(bf), ga.Subspace(bg))
        pf, pg = onto_f.matrix, onto_g.matrix
        scale = 1 + np.linalg.norm(pf, 2)
        assert np.linalg.norm(pf @ pf - pf, 2) <= 1e-12 * scale
        assert np.linalg.norm(pf + pg - np.eye(n), 2) <= 1e-12 * scale
        assert_allclose(pf @ bf, bf, atol=1e-12)       # range contains F
        assert_allclose(pf @ bg, 0 * bg, atol=1e-12)   # kernel contains G


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
        ga.schatten_norm(np.eye(2), math.inf)


def test_schatten_report_zero_operator():
    rep = ga.schatten_norm(np.zeros((3, 3)), 1)
    assert rep.value == 0.0


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
        ga.OperatorLadder((ga.Operator(small), ga.Operator(large)))


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
        ga.DecayProfile("odd").validate()


# ---------------------------------------------------------------------------
# Operator container behavior

def test_schatten_report_validates_consistency():
    with pytest.raises(ValueError):
        ga.SchattenReport(p=1.0, value=99.0, singular_values=np.array([1.0, 0.5]))
    with pytest.raises(ValueError):
        ga.SchattenReport(p=1.0, value=1.5, singular_values=np.array([0.5, 1.0]))


def test_singular_tail_validates_dims():
    with pytest.raises(ValueError):
        ga.SingularTail(dims=(8, 8), tail_norms=(0.1, 0.1), cutoff=2)
    with pytest.raises(ValueError):
        ga.SingularTail(dims=(4, 8), tail_norms=(0.1, -0.1), cutoff=2)


def test_operator_is_immutable():
    op = ga.Operator(np.eye(2))
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 5.0


def test_operator_adjoint_and_transpose():
    mat = np.array([[1 + 2j, 3.0], [0.0, 4 - 1j]])
    op = ga.Operator(mat)
    assert_allclose(op.adjoint().matrix, mat.conj().T)
    assert_allclose(op.transpose().matrix, mat.T)
