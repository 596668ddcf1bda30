import numpy as np
import pytest
from numpy.testing import assert_allclose

import grassatlas as ga
from grassatlas import atlas, bundles
from grassatlas.errors import (ChartDomainViolation, ChartMismatch, DimensionMismatch,
                               FactorMismatch, GrassAtlasError, PairingMismatch)
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
    src = random_chart(n, k, rng)
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


# NaN compares False against every tolerance, so fiber data must be finite on entry,
# as a Subspace basis and a chart coordinate are
@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_fiber_data_rejects_non_finite_entries(value):
    src, pt, dst = _transition_instance(_rng(20), 6, 2)  # kf = 2, kg = 4
    bad = np.zeros((4, 2))
    bad[3, 1] = value
    with pytest.raises(ValueError, match="non-finite"):
        ga.TangentVector(pt, bad)
    with pytest.raises(ValueError, match="non-finite"):
        ga.Covector(pt, bad.T)
    for x, y in [(bad[3], np.ones(4)), (np.ones(2), bad[:, 1])]:
        with pytest.raises(ValueError, match="non-finite"):
            ga.TensorCovector(pt, ((np.ones(2), np.ones(4)), (x, y)))


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


def test_operator_to_tensor_rank_cut():
    # the cut sits at max(shape) * eps * sigma_0, about 8.9e-16 * sigma_0 on a 4 x 4 form;
    # 5e-16 * sigma_0 lies above eps * sigma_0, so it pins the max(shape) factor too
    chart = ga.ChartId(ga.Subspace(np.eye(8)[:, :4]), ga.Subspace(np.eye(8)[:, 4:]))
    pt = ga.ChartPoint(chart, ga.Operator(np.zeros((4, 4))))
    mu = ga.Covector(pt, ga.Operator(np.diag([3.0, 3e-14, 1.5e-15, 3e-16])))
    terms = ga.operator_to_tensor(mu).terms
    kept = [float(np.linalg.norm(x) * np.linalg.norm(y)) for x, y in terms]
    assert_allclose(kept, [3.0, 3e-14], rtol=1e-12)


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
    (nx, ny), = ga.tensor_pushforward_terms(((x, y),), (s, t))
    assert_allclose(nx, s.matrix @ x)
    assert_allclose(ny, t.matrix.T @ y)


# a term that does not match the pair must not reach numpy's matmul
def test_pushforward_terms_reject_terms_that_do_not_match_the_factors():
    s, t = ga.Operator(np.eye(2)), ga.Operator(np.eye(3))
    for x, y in [(np.ones(3), np.ones(3)), (np.ones(2), np.ones(2)), (np.ones((2, 1)), np.ones(3))]:
        with pytest.raises(DimensionMismatch):
            ga.tensor_pushforward_terms(((x, y),), (s, t))


def test_pushforward_tensor_identity_factors():
    chart = random_chart(6, 3, _rng(14))
    pt = random_chart_point(chart, _rng(15), scale=0.3)
    terms = tuple((random_fiber_matrix(3, 1, _rng(16 + i))[:, 0],
                   random_fiber_matrix(3, 1, _rng(26 + i))[:, 0]) for i in range(2))
    tc = ga.TensorCovector(pt, terms)
    eye = ga.Operator(np.eye(3))
    moved = ga.pushforward_tensor(tc, (eye, eye), pt.chart)
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
        ga.pushforward_tensor(tc, (bogus, bogus), dst)


# a wrong shape must not reach the probes, where numpy would raise a ValueError
@pytest.mark.parametrize("shapes", [((3, 3), (3, 3)), ((3, 3), (5, 5)), ((5, 5), (3, 5))],
                         ids=["S-wrong", "swapped", "T-not-square"])
def test_pushforward_tensor_rejects_wrong_factor_shapes(shapes):
    src, pt, dst = _transition_instance(_rng(18), 8, 5)  # kf = 5, kg = 3
    tc = ga.TensorCovector(pt, ((np.ones(5), np.ones(3)),))
    with pytest.raises(DimensionMismatch):
        ga.pushforward_tensor(tc, tuple(ga.Operator(np.eye(*shape)) for shape in shapes), dst)


# the old multi-pair form, a lone factor, three factors, nothing, and a non-matrix
@pytest.mark.parametrize("form", ["pairs", "lone", "triple", "none", "string"])
def test_tensor_maps_reject_factors_that_are_not_one_pair(form):
    src, pt, dst = _transition_instance(_rng(19), 6, 3)
    s, t = ga.pushforward_factors(pt, dst)
    factors = {"pairs": ((s, t),), "lone": (s,), "triple": (s, t, t), "none": None,
               "string": (s, "x")}[form]
    tc = ga.TensorCovector(pt, ((np.ones(3), np.ones(3)),))
    with pytest.raises(DimensionMismatch):
        ga.pushforward_tensor(tc, factors, dst)
    with pytest.raises(DimensionMismatch):
        ga.tensor_pushforward_terms(tc.terms, factors)


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
        src = random_chart(n, k, rng)
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


def test_chained_tensor_pushforward_keeps_its_terms():
    # one operator pair per chart change: the term count stays 3 through three changes
    worst = 0.0
    for trial in range(20):
        rng = _rng(650 + trial)
        n = 8
        k = int(rng.integers(1, n))
        src = random_chart(n, k, rng)
        pt = random_chart_point(src, rng, scale=0.4)
        h = ga.chart_inverse(pt)
        tc = ga.TensorCovector(pt, tuple((random_fiber_matrix(k, 1, rng)[:, 0],
                                          random_fiber_matrix(n - k, 1, rng)[:, 0])
                                         for _ in range(3)))
        mu = ga.tensor_to_operator(tc)
        for _ in range(3):
            dst = random_chart_containing(h, rng)
            tc = ga.pushforward_tensor(tc, ga.pushforward_factors(tc.at, dst), dst)
            mu = ga.transition_cotangent(mu, dst)
            assert len(tc.terms) == 3
        scale = 1.0 + float(np.abs(mu.form.matrix).max())
        worst = max(worst, float(np.abs(ga.tensor_to_operator(tc).form.matrix
                                        - mu.form.matrix).max()) / scale)
    assert worst <= 1e-10


def _near_chart_pair(n, k, seed, flavors=("hilbert", "split")):
    """Source and target charts of the given flavors, all perturbations of one pair."""
    rng = _rng(seed)
    base = ga.haar_frame(n, k, rng)
    perp = ga.Subspace(base).complement().basis.matrix

    def perturbed(b):
        return ga.Subspace.from_span(b + 0.05 * random_fiber_matrix(*b.shape, rng) / np.sqrt(n))

    def chart(flavor):
        if flavor == "hilbert":
            return ga.ChartId.hilbert(perturbed(base))
        return ga.ChartId(perturbed(base), perturbed(perp))

    src, dst = chart(flavors[0]), chart(flavors[1])
    pt = ga.ChartPoint(src, ga.Operator(random_fiber_matrix(n - k, k, rng, 0.2 / np.sqrt(n))))
    return pt, dst


# n = 8 probes the 16 elementary directions; n = 40 has 400 > 256 and uses random
# rank-one probes, which amplify a deviation by the probe entries
@pytest.mark.parametrize("n, k, eps", [(8, 4, 3e-8), (40, 20, 3e-9)])
def test_factor_check_rejects_perturbed_factors(n, k, eps):
    pt, dst = _near_chart_pair(n, k, 800 + n)
    tc = ga.TensorCovector(pt, ((random_fiber_matrix(k, 1, _rng(n))[:, 0],
                                 random_fiber_matrix(n - k, 1, _rng(n + 1))[:, 0]),))
    factors = ga.pushforward_factors(pt, dst)
    ga.pushforward_tensor(tc, factors, dst)
    s, t = factors
    perturbed = (s, ga.Operator(t.matrix + eps * np.eye(*t.shape)))
    with pytest.raises(FactorMismatch):
        ga.pushforward_tensor(tc, perturbed, dst)


# with S = S_r the probe deviation is rank one and its largest entry a product of
# two vector maxima; T is pushed off L_r far enough that the dense difference is
# not roundoff, and a perturbed S leaves the rank-one path and must still raise
@pytest.mark.parametrize("n, k, eps", [(8, 4, 3e-8), (40, 20, 3e-9)])
def test_rank_one_factor_deviation_matches_dense_reference(n, k, eps):
    pt, dst = _near_chart_pair(n, k, 810 + n)
    fwd = atlas._forward_transition(pt, dst, None)
    l_r, s_r = np.linalg.inv(fwd.left), fwd.denom
    s, t = (f.matrix for f in ga.pushforward_factors(pt, dst))
    probes = bundles._probes(n - k, k)
    assert len(probes) == (16 if n == 40 else (n - k) * k)
    for delta in (1e-3, 1e-2):
        pushed = t + delta * random_fiber_matrix(n - k, n - k, _rng(n + 2))
        dense = max(float(np.abs(np.outer(pushed @ u, v @ s) - np.outer(l_r @ u, v @ s_r)).max())
                    for u, v in probes)
        assert abs(bundles._factor_deviation(s, pushed, l_r, s_r) - dense) <= 1e-12 * dense
    tc = ga.TensorCovector(pt, ((np.ones(k), np.ones(n - k)),))
    with pytest.raises(FactorMismatch):
        ga.pushforward_tensor(tc, (ga.Operator(s + eps * np.eye(k)), ga.Operator(t)), dst)


# ---------------------------------------------------------------------------
# inverse fiber data derived from the forward transition

def _relative_gap(got, want):
    scale = max(1.0, float(np.abs(want).max(initial=0.0)))
    return float(np.abs(got - want).max(initial=0.0)) / scale


@pytest.mark.parametrize("n, k, flavors", [
    *((n, n // 2, flavors) for n in (8, 32)
      for flavors in (("split", "split"), ("hilbert", "split"), ("split", "hilbert"))),
    (8, 1, ("split", "split")), (8, 7, ("split", "split")),
    (6, 0, ("split", "hilbert")), (6, 6, ("hilbert", "split")),
])
def test_derived_inverse_data_matches_reverse_blocks(n, k, flavors):
    # the explicit route re-evaluates the transition from the target chart back
    pt, dst = _near_chart_pair(n, k, 900 + n + k, flavors)
    fwd = atlas._forward_transition(pt, dst, None)
    a_r, b_r, _, d_r = atlas._transition_blocks(dst, pt.chart)
    m_r = a_r + b_r @ fwd.coord
    l_r = d_r - pt.coord.matrix @ b_r
    assert _relative_gap(fwd.denom @ m_r, np.eye(k)) <= 1e-12
    assert _relative_gap(fwd.left @ l_r, np.eye(n - k)) <= 1e-12
    mu = random_fiber_matrix(k, n - k, _rng(n + k))
    moved = ga.transition_cotangent(ga.Covector(pt, mu), dst)
    assert moved.form.shape == (k, n - k)
    assert _relative_gap(moved.form.matrix, np.linalg.solve(m_r, mu) @ l_r) <= 1e-12
    # the pair is S itself and L_r from the reverse rows, a route apart from inv(left)
    factors = ga.pushforward_factors(pt, dst)
    assert np.array_equal(factors[0].matrix, fwd.denom)
    assert _relative_gap(factors[1].matrix, np.linalg.inv(fwd.left)) <= 1e-12
    tc = ga.TensorCovector(pt, ((random_fiber_matrix(k, 1, _rng(1))[:, 0],
                                 random_fiber_matrix(n - k, 1, _rng(2))[:, 0]),))
    pushed = ga.pushforward_tensor(tc, factors, dst)
    via_cotangent = ga.transition_cotangent(ga.tensor_to_operator(tc), dst)
    assert _relative_gap(ga.tensor_to_operator(pushed).form.matrix,
                         via_cotangent.form.matrix) <= 1e-10


def _graph_r(pt):
    """R of the QR of the source graph B_F + B_G A, the inverse map's domain block."""
    graph = pt.chart.f.basis.matrix + pt.chart.g.basis.matrix @ pt.coord.matrix
    return np.linalg.qr(graph, mode="r")


@pytest.mark.parametrize("seed", range(6))
def test_inverse_domain_conditioning_is_the_source_chart_margin(seed):
    rng = _rng(950 + seed)
    n = (4, 8, 16)[seed % 3]
    src, pt, dst = _transition_instance(rng, n, int(rng.integers(1, n)))
    r = _graph_r(pt)
    want = ga.in_chart_domain(ga.chart_inverse(pt), src).conditioning
    assert abs(1.0 / np.linalg.norm(r, 2) - want) <= 1e-12 * want


def _far_point_swap(n=8, k=4, scale=1e9):
    """Hilbert charts (F, F-perp) and (F-perp, F) and the point A = scale * I.

    The transition lands at A' = I / scale, well inside the target chart, but
    the graph of A sits at conditioning ~1 / scale in its own source chart.
    """
    f = ga.Subspace(ga.haar_frame(n, k, _rng(960)))
    src = ga.ChartId.hilbert(f)
    dst = ga.ChartId(src.g, f, flavor="hilbert")
    return ga.ChartPoint(src, ga.Operator(scale * np.eye(n - k, k))), dst


def _inverse_maps(pt, dst, tol_domain=None):
    rng = _rng(961)
    k, kg = pt.coord.cols, pt.coord.rows
    tc = ga.TensorCovector(pt, ((random_fiber_matrix(k, 1, rng)[:, 0],
                                 random_fiber_matrix(kg, 1, rng)[:, 0]),))
    # any factors will do here: the domain checks run before the factor check
    eye = ga.Operator(np.eye(k)), ga.Operator(np.eye(kg))
    return {
        "transition_cotangent": lambda: ga.transition_cotangent(
            ga.Covector(pt, random_fiber_matrix(k, kg, rng)), dst, tol_domain),
        "pushforward_factors": lambda: ga.pushforward_factors(pt, dst, tol_domain),
        "pushforward_tensor": lambda: ga.pushforward_tensor(tc, eye, dst, tol_domain),
    }


def test_inverse_domain_check_rejects_far_source_point():
    pt, dst = _far_point_swap()
    ga.transition_base(pt, dst)
    ga.transition_tangent(ga.TangentVector(pt, np.ones((4, 4))), dst)
    for name, call in _inverse_maps(pt, dst).items():
        with pytest.raises(ChartDomainViolation) as info:
            call()
        assert str(info.value).startswith("reverse transition leaves the chart domain"), name
        assert info.value.tol == ga.DEFAULT_TOL_DOMAIN
        assert info.value.conditioning == pytest.approx(1e-9, rel=1e-6)


def test_inverse_domain_check_decides_on_the_two_norm():
    # 1/|R|_F = 5e-10 < tol < 1e-9 = 1/|R|_2: the Frobenius bound alone would raise
    pt, dst = _far_point_swap()
    r = _graph_r(pt)
    assert 1.0 / np.linalg.norm(r) < 7e-10 < 1.0 / np.linalg.norm(r, 2)
    maps = _inverse_maps(pt, dst, tol_domain=7e-10)
    maps["transition_cotangent"]()
    factors = maps["pushforward_factors"]()
    tc = ga.TensorCovector(pt, ((np.ones(4), np.ones(4)),))
    ga.pushforward_tensor(tc, factors, dst, tol_domain=7e-10)


@pytest.mark.parametrize("name", ["transition_cotangent", "pushforward_factors",
                                  "pushforward_tensor"])
def test_inverse_maps_evaluate_one_transition(monkeypatch, name):
    pt, dst = _near_chart_pair(8, 3, 970)
    factors = ga.pushforward_factors(pt, dst)
    # a fresh point holds no memoized transition, so the map must build one itself
    fresh = ga.ChartPoint(pt.chart, pt.coord)
    calls = _inverse_maps(fresh, dst)
    calls["pushforward_tensor"] = lambda: ga.pushforward_tensor(
        ga.TensorCovector(fresh, ()), factors, dst)
    counts = {"_forward_transition": 0, "_transition_blocks": 0}
    for fn in counts:
        def counted(*args, _fn=fn, _orig=getattr(atlas, fn)):
            counts[_fn] += 1
            return _orig(*args)
        monkeypatch.setattr(atlas, fn, counted)
    calls[name]()
    assert counts == {"_forward_transition": 1, "_transition_blocks": 1}


# ---------------------------------------------------------------------------
# the forward transition memoized on its source point

def _count_block_builds(monkeypatch):
    builds = []
    build = atlas._transition_blocks
    monkeypatch.setattr(atlas, "_transition_blocks", lambda *args: builds.append(1) or build(*args))
    return builds


def test_bundle_maps_on_one_point_share_one_transition(monkeypatch):
    pt, dst = _near_chart_pair(8, 3, 980)
    rng = _rng(981)
    x, mu = random_fiber_matrix(5, 3, rng), random_fiber_matrix(3, 5, rng)
    builds = _count_block_builds(monkeypatch)
    tangent = ga.transition_tangent(ga.TangentVector(pt, x), dst)
    covector = ga.transition_cotangent(ga.Covector(pt, mu), dst)
    ga.pushforward_tensor(ga.TensorCovector(pt, ()), ga.pushforward_factors(pt, dst), dst)
    ga.transition_base(pt, dst, tol_domain=ga.DEFAULT_TOL_DOMAIN)  # the default, spelled out
    assert len(builds) == 1
    # a hit returns what a fresh evaluation computes, bit for bit
    fresh = ga.ChartPoint(pt.chart, pt.coord)
    assert np.array_equal(ga.transition_tangent(ga.TangentVector(fresh, x), dst).direction.matrix,
                          tangent.direction.matrix)
    assert np.array_equal(ga.transition_cotangent(ga.Covector(fresh, mu), dst).form.matrix,
                          covector.form.matrix)
    assert len(builds) == 2


def test_transition_memo_is_keyed_by_target_and_tolerance(monkeypatch):
    pt, dst = _near_chart_pair(8, 3, 982)
    twin = ga.ChartId(dst.f, dst.g)  # an equal chart, but another object
    builds = _count_block_builds(monkeypatch)
    for target, tol, total in [(dst, None, 1), (twin, None, 2), (twin, 1e-6, 3),
                               (twin, 1e-6, 3), (dst, None, 4)]:
        ga.transition_base(pt, target, tol)
        assert len(builds) == total


def test_raised_domain_violation_is_not_memoized(monkeypatch):
    # a hilbert target's conditioning is a cosine, so tol_domain = 1 always raises
    pt, dst = _near_chart_pair(8, 3, 984, ("split", "hilbert"))
    builds = _count_block_builds(monkeypatch)
    moved = ga.transition_base(pt, dst)
    for total in (2, 3):
        with pytest.raises(ChartDomainViolation):
            ga.transition_base(pt, dst, tol_domain=1.0)
        assert len(builds) == total
    # the raise left the earlier record in place
    assert np.array_equal(ga.transition_base(pt, dst).coord.matrix, moved.coord.matrix)
    assert len(builds) == 3
