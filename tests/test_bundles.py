import numpy as np
import pytest
from numpy.testing import assert_allclose

import grassatlas as ga
from grassatlas.errors import (ChartMismatch, DimensionMismatch, FactorMismatch,
                               GrassAtlasError, PairingMismatch)
from grassatlas.sampling import (random_chart, random_chart_containing,
                                 random_chart_point, random_fiber_matrix)
from grassatlas.verify.oracles import complex_step_tangent, finite_difference_tangent


def _rng(seed):
    return np.random.default_rng(seed)


def _coordinate_chart():
    return ga.ChartId(ga.Subspace(np.eye(2)[:, :1]), ga.Subspace(np.eye(2)[:, 1:]))


def _swap_setup(t):
    src = _coordinate_chart()
    dst = ga.ChartId(src.g, src.f)
    pt = ga.ChartPoint(src, ga.Operator([[t]]))
    return src, dst, pt


def _transition_instance(rng, n, k):
    src = random_chart(n, k, rng, min_conditioning=1e-2)
    pt = random_chart_point(src, rng, scale=0.4)
    h = ga.chart_inverse(pt)
    dst = random_chart_containing(h, rng)
    return src, pt, dst


# ---------------------------------------------------------------------------
# tangent transitions

def test_tangent_transition_identity_chart():
    chart = _coordinate_chart()
    pt = ga.ChartPoint(chart, ga.Operator([[0.3 + 0.1j]]))
    v = ga.TangentVector(pt, ga.Operator([[1.0 - 2.0j]]))
    moved = ga.transition_tangent(v, chart)
    assert_allclose(moved.at.coord.matrix, pt.coord.matrix, atol=1e-14)
    assert_allclose(moved.direction.matrix, v.direction.matrix, atol=1e-14)


def test_tangent_transition_swap_closed_form():
    t, x = 1.2 - 0.8j, 0.7 + 0.4j
    _, dst, pt = _swap_setup(t)
    moved = ga.transition_tangent(ga.TangentVector(pt, ga.Operator([[x]])), dst)
    # derivative of t -> 1/t is -1/t^2
    assert_allclose(moved.direction.matrix, [[-x / t ** 2]], atol=1e-13)
    # central-difference oracle straight from the base transition
    fd = finite_difference_tangent(pt, dst, np.array([[x]]))
    assert_allclose(moved.direction.matrix, fd, atol=1e-8)


def test_tangent_fiber_linearity_seeded():
    worst = 0.0
    for trial in range(40):
        rng = _rng(100 + trial)
        n = (4, 8, 12)[trial % 3]
        src, pt, dst = _transition_instance(rng, n, int(rng.integers(1, n)))
        x = random_fiber_matrix(src.g.dim, src.f.dim, rng)
        y = random_fiber_matrix(src.g.dim, src.f.dim, rng)
        alpha = complex(rng.standard_normal(), rng.standard_normal())
        beta = complex(rng.standard_normal(), rng.standard_normal())
        combo = ga.transition_tangent(
            ga.TangentVector(pt, ga.Operator(alpha * x + beta * y)), dst).direction.matrix
        parts = (alpha * ga.transition_tangent(ga.TangentVector(pt, ga.Operator(x)), dst).direction.matrix
                 + beta * ga.transition_tangent(ga.TangentVector(pt, ga.Operator(y)), dst).direction.matrix)
        scale = 1.0 + float(np.abs(parts).max())
        worst = max(worst, float(np.abs(combo - parts).max()) / scale)
    assert worst <= 1e-11


def test_tangent_jacobian_oracles_seeded():
    for trial in range(30):
        rng = _rng(200 + trial)
        n = (4, 8, 16)[trial % 3]
        src, pt, dst = _transition_instance(rng, n, int(rng.integers(1, n)))
        x = random_fiber_matrix(src.g.dim, src.f.dim, rng)
        closed = ga.transition_tangent(ga.TangentVector(pt, ga.Operator(x)), dst).direction.matrix
        scale = 1.0 + np.linalg.norm(closed)
        fd = finite_difference_tangent(pt, dst, x)
        assert np.linalg.norm(closed - fd) / scale <= 1e-6
        cs = complex_step_tangent(pt, dst, x)
        assert np.linalg.norm(closed - cs) / scale <= 1e-10


def test_tangent_vector_shape_validation():
    chart = _coordinate_chart()
    pt = ga.ChartPoint(chart, ga.Operator([[0.0]]))
    with pytest.raises(DimensionMismatch):
        ga.TangentVector(pt, ga.Operator(np.zeros((2, 2))))


# ---------------------------------------------------------------------------
# cotangent transitions

def test_cotangent_transition_identity_chart():
    chart = _coordinate_chart()
    pt = ga.ChartPoint(chart, ga.Operator([[0.2]]))
    mu = ga.Covector(pt, ga.Operator([[0.5 + 0.5j]]))
    moved = ga.transition_cotangent(mu, chart)
    assert_allclose(moved.form.matrix, mu.form.matrix, atol=1e-14)
    assert moved.class_tag == "unrestricted"


def test_cotangent_transition_swap_closed_form():
    t, m = 1.5 + 0.5j, 0.4 - 0.9j
    _, dst, pt = _swap_setup(t)
    mu = ga.Covector(pt, ga.Operator([[m]]))
    moved = ga.transition_cotangent(mu, dst)
    # solve <mu', -x/t^2> = <mu, x> for mu': it must be -t^2 m
    assert_allclose(moved.form.matrix, [[-(t ** 2) * m]], atol=1e-12)


def test_cotangent_preserves_pairing_seeded():
    worst = 0.0
    for trial in range(60):
        rng = _rng(300 + trial)
        n = (4, 8, 16)[trial % 3]
        src, pt, dst = _transition_instance(rng, n, int(rng.integers(1, n)))
        x = ga.TangentVector(pt, ga.Operator(random_fiber_matrix(src.g.dim, src.f.dim, rng)))
        mu = ga.Covector(pt, ga.Operator(random_fiber_matrix(src.f.dim, src.g.dim, rng)))
        before = ga.trace_pairing(mu, x)
        after = ga.trace_pairing(ga.transition_cotangent(mu, dst),
                                 ga.transition_tangent(x, dst))
        worst = max(worst, abs(after - before) / (1.0 + abs(before)))
    assert worst <= 1e-9


def test_cotangent_class_tag_travels():
    rng = _rng(7)
    src, pt, dst = _transition_instance(rng, 6, 3)
    mu = ga.Covector(pt, ga.Operator(random_fiber_matrix(3, 3, rng)),
                     class_tag="trace_class_emulated", metadata={"p": 1.0})
    moved = ga.transition_cotangent(mu, dst)
    assert moved.class_tag == "trace_class_emulated"
    assert moved.metadata == {"p": 1.0}


def test_covector_requires_metadata_when_tagged():
    chart = _coordinate_chart()
    pt = ga.ChartPoint(chart, ga.Operator([[0.0]]))
    with pytest.raises(ValueError):
        ga.Covector(pt, ga.Operator([[1.0]]), class_tag="trace_class_emulated")


# ---------------------------------------------------------------------------
# pairings

def test_trace_pairing_scalar_example():
    chart = _coordinate_chart()
    pt = ga.ChartPoint(chart, ga.Operator([[0.0]]))
    mu = ga.Covector(pt, ga.Operator([[2.0]]))
    v = ga.TangentVector(pt, ga.Operator([[3.0]]))
    assert ga.trace_pairing(mu, v) == pytest.approx(6.0)


def test_trace_pairing_zero_covector():
    rng = _rng(8)
    chart = random_chart(6, 2, rng)
    pt = random_chart_point(chart, rng)
    mu = ga.Covector(pt, ga.Operator(np.zeros((2, 4))))
    v = ga.TangentVector(pt, ga.Operator(random_fiber_matrix(4, 2, rng)))
    assert ga.trace_pairing(mu, v) == 0


def test_trace_pairing_against_double_sum_oracle():
    rng = _rng(9)
    chart = random_chart(10, 4, rng)
    pt = random_chart_point(chart, rng)
    mu_mat = random_fiber_matrix(4, 6, rng)
    x_mat = random_fiber_matrix(6, 4, rng)
    # elementwise oracle: Tr(mu X) = sum_{a,b} mu[a,b] X[b,a]
    expected = 0j
    for a in range(4):
        for b in range(6):
            expected += mu_mat[a, b] * x_mat[b, a]
    got = ga.trace_pairing(ga.Covector(pt, ga.Operator(mu_mat)),
                           ga.TangentVector(pt, ga.Operator(x_mat)))
    assert abs(got - expected) <= 1e-12 * (1 + abs(expected))


def test_trace_pairing_rejects_disagreeing_trace_orders():
    rng = _rng(12)
    chart = ga.ChartId(ga.Subspace(np.eye(8)[:, :4]), ga.Subspace(np.eye(8)[:, 4:]))
    pt = ga.ChartPoint(chart, np.zeros((4, 4)))
    mu = 1e9 * random_fiber_matrix(4, 4, rng)
    x = 1e9 * random_fiber_matrix(4, 4, rng)
    # cancel Tr(mu X) to ~0: the roundoff of the two trace orders then dominates
    x[0, 0] -= np.trace(mu @ x) / mu[0, 0]
    with pytest.raises(PairingMismatch) as info:
        ga.trace_pairing(ga.Covector(pt, mu), ga.TangentVector(pt, x))
    assert isinstance(info.value, GrassAtlasError)
    assert isinstance(info.value, ArithmeticError)


def test_trace_pairing_rejects_different_points():
    chart = _coordinate_chart()
    p1 = ga.ChartPoint(chart, ga.Operator([[0.0]]))
    p2 = ga.ChartPoint(chart, ga.Operator([[1.0]]))
    with pytest.raises(ChartMismatch):
        ga.trace_pairing(ga.Covector(p1, ga.Operator([[1.0]])),
                         ga.TangentVector(p2, ga.Operator([[1.0]])))


def test_tensor_pairing_examples():
    chart = random_chart(6, 3, _rng(10))
    pt = ga.ChartPoint(chart, ga.Operator(np.zeros((3, 3))))
    identity_shaped = ga.TangentVector(pt, ga.Operator(np.eye(3)))
    e1 = np.eye(3)[:, 0]
    tc = ga.TensorCovector(pt, ((e1, e1),))
    assert ga.tensor_pairing(identity_shaped, tc) == pytest.approx(1.0)
    assert ga.tensor_pairing(identity_shaped, ga.TensorCovector(pt, ())) == 0


def test_tensor_pairing_matches_trace_route():
    rng = _rng(11)
    chart = random_chart(8, 3, rng)
    pt = random_chart_point(chart, rng)
    terms = tuple((random_fiber_matrix(3, 1, rng)[:, 0],
                   random_fiber_matrix(5, 1, rng)[:, 0]) for _ in range(4))
    tc = ga.TensorCovector(pt, terms)
    v = ga.TangentVector(pt, ga.Operator(random_fiber_matrix(5, 3, rng)))
    via_tensor = ga.tensor_pairing(v, tc)
    via_trace = ga.trace_pairing(ga.tensor_to_operator(tc), v)
    assert abs(via_tensor - via_trace) <= 1e-12 * (1 + abs(via_trace))


# ---------------------------------------------------------------------------
# tensor / operator conversions

def test_tensor_to_operator_rank_one():
    chart = random_chart(6, 3, _rng(12))
    pt = ga.ChartPoint(chart, ga.Operator(np.zeros((3, 3))))
    e1 = np.eye(3)[:, 0]
    mu = ga.tensor_to_operator(ga.TensorCovector(pt, ((e1, e1),)))
    expected = np.zeros((3, 3))
    expected[0, 0] = 1.0
    assert_allclose(mu.form.matrix, expected, atol=1e-15)


def test_operator_to_tensor_zero_is_empty():
    chart = random_chart(6, 2, _rng(13))
    pt = ga.ChartPoint(chart, ga.Operator(np.zeros((4, 2))))
    mu = ga.Covector(pt, ga.Operator(np.zeros((2, 4))))
    assert ga.operator_to_tensor(mu).terms == ()


def test_tensor_operator_roundtrip_seeded():
    for trial in range(25):
        rng = _rng(400 + trial)
        chart = random_chart(7, 3, rng)
        pt = random_chart_point(chart, rng)
        mu = ga.Covector(pt, ga.Operator(random_fiber_matrix(3, 4, rng)))
        back = ga.tensor_to_operator(ga.operator_to_tensor(mu))
        assert float(np.abs(back.form.matrix - mu.form.matrix).max()) <= 1e-12


# ---------------------------------------------------------------------------
# tensor pushforward

def test_pushforward_terms_mechanical_definition():
    s = ga.Operator(np.array([[2.0, 0.0], [0.0, 1.0]]))
    t = ga.Operator(np.array([[0.0, 1.0], [1.0, 0.0]]))
    x = np.array([1.0, 1.0])
    y = np.array([1.0, 2.0])
    (nx, ny), = ga.tensor_pushforward_terms(((x, y),), ((s, t),))
    assert_allclose(nx, s.matrix @ x)
    assert_allclose(ny, t.matrix.T @ y)


def test_pushforward_tensor_identity_factors():
    chart = random_chart(6, 3, _rng(14))
    pt = random_chart_point(chart, _rng(15), scale=0.3)
    terms = tuple((random_fiber_matrix(3, 1, _rng(16 + i))[:, 0],
                   random_fiber_matrix(3, 1, _rng(26 + i))[:, 0]) for i in range(2))
    tc = ga.TensorCovector(pt, terms)
    eye = ga.Operator(np.eye(3))
    moved = ga.pushforward_tensor(tc, ((eye, eye),), pt.chart)
    for (x0, y0), (x1, y1) in zip(terms, moved.terms):
        assert_allclose(x0, x1, atol=1e-14)
        assert_allclose(y0, y1, atol=1e-14)


def test_pushforward_tensor_rejects_wrong_factors():
    rng = _rng(17)
    src, pt, dst = _transition_instance(rng, 6, 3)
    tc = ga.TensorCovector(pt, ((random_fiber_matrix(3, 1, rng)[:, 0],
                                 random_fiber_matrix(3, 1, rng)[:, 0]),))
    bogus = ga.Operator(5.0 * np.eye(3))
    with pytest.raises(FactorMismatch):
        ga.pushforward_tensor(tc, ((bogus, bogus),), dst)


def test_commuting_square_tensor_vs_operator_route():
    worst = 0.0
    for trial in range(40):
        rng = _rng(500 + trial)
        src, pt, dst = _transition_instance(rng, 6, int(rng.integers(1, 6)))
        terms = tuple((random_fiber_matrix(src.f.dim, 1, rng)[:, 0],
                       random_fiber_matrix(src.g.dim, 1, rng)[:, 0]) for _ in range(3))
        tc = ga.TensorCovector(pt, terms)
        factors = ga.pushforward_factors(pt, dst)
        tensor_route = ga.tensor_to_operator(ga.pushforward_tensor(tc, factors, dst))
        operator_route = ga.transition_cotangent(ga.tensor_to_operator(tc), dst)
        scale = 1.0 + float(np.abs(operator_route.form.matrix).max())
        worst = max(worst, float(np.abs(tensor_route.form.matrix
                                        - operator_route.form.matrix).max()) / scale)
    assert worst <= 1e-10


def test_cotangent_contravariant_composition():
    worst = 0.0
    for trial in range(30):
        rng = _rng(600 + trial)
        n = 8
        k = int(rng.integers(1, n))
        src = random_chart(n, k, rng, min_conditioning=1e-2)
        pt = random_chart_point(src, rng, scale=0.4)
        h = ga.chart_inverse(pt)
        mid = random_chart_containing(h, rng)
        dst = random_chart_containing(h, rng)
        mu = ga.Covector(pt, ga.Operator(random_fiber_matrix(src.f.dim, src.g.dim, rng)))
        through = ga.transition_cotangent(ga.transition_cotangent(mu, mid), dst)
        direct = ga.transition_cotangent(mu, dst)
        scale = 1.0 + float(np.abs(direct.form.matrix).max())
        worst = max(worst, float(np.abs(through.form.matrix
                                        - direct.form.matrix).max()) / scale)
    assert worst <= 1e-9
