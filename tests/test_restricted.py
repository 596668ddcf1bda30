import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import grassatlas as ga
from grassatlas.errors import (DimensionMismatch, LadderMismatch, PredualUnavailable)
from grassatlas.restricted import _graph_point
from grassatlas.sampling import polarization_preserving_unitary


def _rng(seed):
    return np.random.default_rng(seed)


def _model(side=4):
    return ga.PolarizedModel(side, side)


def test_polarized_model_projector_identities():
    m = _model(3)
    total = m.p_plus.matrix + m.p_minus.matrix
    assert_allclose(total, np.eye(6), atol=1e-15)
    assert_allclose(m.p_plus.matrix @ m.p_minus.matrix, np.zeros((6, 6)), atol=1e-15)


def test_polarized_model_mode_indexing():
    m = _model(3)
    assert m.mode_index(-1) == 0
    assert m.mode_index(-3) == 2
    assert m.mode_index(1) == 3
    assert m.mode_index(3) == 5
    with pytest.raises(ValueError):
        m.mode_index(0)
    with pytest.raises(DimensionMismatch):
        m.mode_index(4)


# ---------------------------------------------------------------------------
# membership

def test_membership_at_plus_block():
    m = _model()
    report = ga.membership_report(m.h_plus, m, 1)
    assert report.diff_norm == pytest.approx(0.0, abs=1e-14)
    assert report.virtual_dim == 0
    assert report.minus_norm == pytest.approx(0.0, abs=1e-14)
    assert report.plus_conditioning == pytest.approx(1.0)


def test_membership_one_mode_swapped():
    # W = (H_plus minus e_{+1}) plus e_{-1}: rank-two projector difference
    m = _model()
    cols = [m.basis_vector(-1)] + [m.basis_vector(k) for k in range(2, 5)]
    w = ga.Subspace(np.column_stack(cols))
    report = ga.membership_report(w, m, 1)
    assert report.diff_norm == pytest.approx(2.0, abs=1e-12)
    assert report.virtual_dim == 0


def test_membership_one_extra_negative_mode():
    m = _model()
    cols = [m.basis_vector(-1)] + [m.basis_vector(k) for k in range(1, 5)]
    w = ga.Subspace(np.column_stack(cols))
    report = ga.membership_report(w, m, 1)
    assert report.virtual_dim == 1
    assert report.diff_norm == pytest.approx(1.0, abs=1e-12)


def test_membership_rejects_foreign_subspace():
    m = _model()
    with pytest.raises(DimensionMismatch):
        ga.membership_report(ga.Subspace(np.eye(4)[:, :2]), m, 1)


# ---------------------------------------------------------------------------
# virtual dimension

def test_virtual_dimension_examples():
    m = _model()
    assert ga.virtual_dimension(m.h_plus, m) == 0
    cols = [m.basis_vector(-1)] + [m.basis_vector(k) for k in range(1, 5)]
    assert ga.virtual_dimension(ga.Subspace(np.column_stack(cols)), m) == 1


def test_virtual_dimension_rank_route_under_rotation():
    # W = H_plus minus span(e_{+1}), then rotated slightly into e_{-1}
    m = _model()
    theta = 1e-3
    tilted = math.cos(theta) * m.basis_vector(2) + math.sin(theta) * m.basis_vector(-1)
    cols = [tilted] + [m.basis_vector(k) for k in range(3, 5)]
    w = ga.Subspace(np.column_stack(cols))
    assert ga.virtual_dimension(w, m) == -1
    assert ga.virtual_dimension_by_rank(w, m) == -1
    assert ga.virtual_dimension_by_rank(w, m) == ga.virtual_dimension(w, m)


# ---------------------------------------------------------------------------
# generated points

def test_generate_zero_profile_returns_plus_block():
    m = _model()
    point = ga.generate_restricted_point(m, 1, ga.DecayProfile.zero(), 0, seed=1)
    assert np.array_equal(point.w.basis.matrix, m.h_plus.basis.matrix)


def test_generate_is_bit_deterministic():
    m = _model(6)
    a = ga.generate_restricted_point(m, 1, ga.DecayProfile.geometric(0.5), 0, seed=3)
    b = ga.generate_restricted_point(m, 1, ga.DecayProfile.geometric(0.5), 0, seed=3)
    assert np.array_equal(a.w.basis.matrix, b.w.basis.matrix)


def test_generate_hits_virtual_dimension_targets():
    m = _model(6)
    for vd in (-2, -1, 0, 1, 2):
        point = ga.generate_restricted_point(m, 1, ga.DecayProfile.geometric(0.5),
                                             virtual_dim=vd, seed=5)
        assert point.virtual_dim == vd
        assert ga.virtual_dimension_by_rank(point.w, m) == vd


def test_generate_on_rectangular_polarization():
    m = ga.PolarizedModel(5, 9)
    for vd in (-3, 0, 2):
        point = ga.generate_restricted_point(m, 1, ga.DecayProfile.geometric(0.5),
                                             virtual_dim=vd, seed=4)
        assert point.virtual_dim == vd
        assert point.w.dim == m.n_plus + vd
        assert ga.virtual_dimension_by_rank(point.w, m) == vd


def test_generate_rejects_unreachable_virtual_dim():
    m = _model(3)
    with pytest.raises(DimensionMismatch):
        ga.generate_restricted_point(m, 1, ga.DecayProfile.zero(), virtual_dim=4, seed=0)


def test_ladder_diff_norms_cauchy_within_geometric_bound():
    r = 0.5
    ladder = ga.build_truncation_ladder([(8, 8), (16, 16), (32, 32)], 1,
                                        ga.DecayProfile.geometric(r), 0, seed=3)
    values = ladder.diff_norms
    # graph weights are r^k from k = 1; the tail bound is 2 sum_{k>8} r^k = 2 r^8 at r = 1/2
    assert max(values) - min(values) <= 2 * r ** 8


def test_ladder_embedding_is_bit_exact():
    ladder = ga.build_truncation_ladder([(8, 8), (16, 16), (32, 32)], 1,
                                        ga.DecayProfile.geometric(0.5), 1, seed=4)
    for small, large in zip(ladder.graph_maps, ladder.graph_maps[1:]):
        assert np.array_equal(small.matrix, large.matrix[: small.rows, : small.cols])


def _graph_basis_by_columns(model, weights, lead, drop):
    """Per-column reference for the graph basis built by _graph_point."""
    columns = [model.basis_vector(-(j + 1)) for j in range(lead)]
    for t in range(model.n_plus - drop):
        column = model.basis_vector(drop + t + 1)
        if t < weights.size:
            w = weights[t]
            column = column + w * model.basis_vector(-(lead + t + 1))
            column = column / math.sqrt(1.0 + abs(w) ** 2)
        columns.append(column)
    return np.column_stack(columns) if columns else np.zeros((model.ambient_dim, 0))


@pytest.mark.parametrize("profile", [ga.DecayProfile.geometric(0.93),
                                     ga.DecayProfile.power(1.5), ga.DecayProfile.zero()])
def test_graph_point_basis_matches_column_reference(profile):
    for n_minus, n_plus in ((1, 1), (3, 5), (6, 2), (40, 40)):
        model = ga.PolarizedModel(n_minus, n_plus)
        for shift in range(-min(n_plus, 3), min(n_minus, 3) + 1):
            w, graph = _graph_point(model, profile, shift, seed=5)
            lead, drop = max(0, shift), max(0, -shift)
            pairs = min(n_plus - drop, n_minus - lead)
            weights = graph.matrix[lead + np.arange(pairs), drop + np.arange(pairs)]
            expected = _graph_basis_by_columns(model, weights, lead, drop)
            # bytes, so signed zeros count too
            assert w.basis.matrix.tobytes() == expected.tobytes()


def test_ladder_rejects_bad_dims():
    with pytest.raises(LadderMismatch):
        ga.build_truncation_ladder([(8, 8)], 1, ga.DecayProfile.geometric(0.5))
    with pytest.raises(LadderMismatch):
        ga.build_truncation_ladder([(8, 8), (4, 4)], 1, ga.DecayProfile.geometric(0.5))


def test_diff_norm_block_unitary_invariance():
    m = _model(6)
    rng = _rng(21)
    for p in (1.0, 2.0):
        point = ga.generate_restricted_point(m, p, ga.DecayProfile.geometric(0.6),
                                             virtual_dim=1, seed=9)
        u = polarization_preserving_unitary(6, 6, rng)
        rotated = ga.membership_report(ga.Subspace(u @ point.w.basis.matrix), m, p)
        assert abs(rotated.diff_norm - point.diff_norm) <= 1e-10 * (1 + point.diff_norm)


def test_membership_envelope_on_generated_families():
    for trial in range(30):
        rng = _rng(700 + trial)
        m = _model(8)
        rate = float(rng.uniform(0.6, 0.8))
        vd = (-2, -1, 0, 1, 2)[trial % 5]
        point = ga.generate_restricted_point(m, 1, ga.DecayProfile.geometric(rate),
                                             virtual_dim=vd, seed=int(rng.integers(2 ** 31)))
        assert point.plus_conditioning > 0.05
        a, b = point.minus_norm, point.diff_norm
        factor = max(a, b) / min(a, b)
        assert factor <= 2.0 + point.diff_norm + 1e-9


# ---------------------------------------------------------------------------
# preservation experiments

def test_preservation_identity_family_constant_one():
    ladder = ga.build_truncation_ladder([(8, 8), (12, 12), (16, 16)], 1,
                                        ga.DecayProfile.geometric(0.5), 0, seed=2)
    report = ga.preservation_experiment(ladder, 1, ga.identity_chart_family(), seed=4)
    assert report.passed
    for rung in report.per_rung:
        assert rung.constant == pytest.approx(1.0, abs=1e-12)


def test_preservation_swap_family_matches_modulus_squared():
    t = 1.5 + 0.5j
    ladder = ga.build_truncation_ladder([(4, 4), (8, 8), (12, 12)], 1,
                                        ga.DecayProfile.geometric(0.5), 0, seed=2)
    report = ga.preservation_experiment(ladder, 1, ga.swap_chart_family(t), seed=4)
    assert report.passed
    for rung in report.per_rung:
        assert abs(rung.constant - abs(t) ** 2) <= 1e-8


def test_preservation_graph_family_stabilizes():
    ladder = ga.build_truncation_ladder([(16, 16), (32, 32), (64, 64)], 1,
                                        ga.DecayProfile.geometric(0.5), 0, seed=7)
    report = ga.preservation_experiment(ladder, 1, ga.graph_chart_family(0.6, 99), seed=5)
    assert report.passed
    assert report.spread is not None and report.spread <= 0.05


def test_preservation_tail_mode_for_compact_diagnostics():
    ladder = ga.build_truncation_ladder([(16, 16), (32, 32), (64, 64)], 1,
                                        ga.DecayProfile.geometric(0.5), 0, seed=7)
    report = ga.preservation_experiment(ladder, 0, ga.graph_chart_family(0.6, 99), seed=5)
    assert report.passed
    assert all(not r.skipped for r in report.per_rung)


def test_preservation_handles_nonzero_virtual_dimension():
    ladder = ga.build_truncation_ladder([(12, 12), (16, 16), (24, 24)], 1,
                                        ga.DecayProfile.geometric(0.5),
                                        virtual_dim=2, seed=3)
    report = ga.preservation_experiment(ladder, 1, ga.graph_chart_family(0.6, 99), seed=5)
    assert report.passed
    identity = ga.preservation_experiment(ladder, 1, ga.identity_chart_family(), seed=5)
    assert all(r.constant == pytest.approx(1.0, abs=1e-12) for r in identity.per_rung)


def test_preservation_records_skipped_rungs():
    # zero profile: every rung's base point is exactly H_plus
    ladder = ga.build_truncation_ladder([(8, 8), (12, 12), (16, 16)], 1,
                                        ga.DecayProfile.zero(), 0, seed=2)

    def hostile_family(model, point):
        # H_plus lies outside the domain of the chart anchored at H_minus
        src = ga.ChartId(model.h_minus, model.h_plus)
        return src, src, None

    report = ga.preservation_experiment(ladder, 1, hostile_family, seed=4)
    assert all(r.skipped for r in report.per_rung)
    assert not report.passed
    assert all(entry.get("skipped") for entry in report.to_dict()["per_rung"])


def test_preservation_report_schema():
    ladder = ga.build_truncation_ladder([(8, 8), (12, 12), (16, 16)], 1,
                                        ga.DecayProfile.geometric(0.5), 0, seed=2)
    report = ga.preservation_experiment(ladder, 1, ga.identity_chart_family(), seed=4)
    payload = report.to_dict()
    assert set(payload) == {"p", "dims", "per_rung", "spread", "pass"}
    assert set(payload["per_rung"][0]) == {"dim", "mu_norm", "mu_prime_norm", "constant"}


# ---------------------------------------------------------------------------
# precotangent fibers

def test_precotangent_refused_for_compact_class():
    m = _model()
    chart = ga.ChartId.hilbert(m.h_plus)
    pt = ga.chart_forward(m.h_plus, chart)
    mu = np.zeros((4, 4))
    with pytest.raises(PredualUnavailable):
        ga.precotangent_covector(pt, mu, p=0)


# one rule for the Schatten index: 0 (tail diagnostics) or finite and >= 1
@pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf, 0.5, -1.0],
                         ids=["nan", "inf", "-inf", "half", "negative"])
def test_schatten_index_is_zero_or_finite_and_at_least_one(p):
    m = _model()
    chart = ga.ChartId.hilbert(m.h_plus)
    pt = ga.chart_forward(m.h_plus, chart)
    with pytest.raises(ValueError, match="schatten index"):
        ga.precotangent_covector(pt, np.eye(4), p=p)
    ladder = ga.build_truncation_ladder([(2, 2), (4, 4)], 2, ga.DecayProfile.geometric(0.5))
    with pytest.raises(ValueError, match="schatten index"):
        ga.preservation_experiment(ladder, p, ga.identity_chart_family())


def test_precotangent_trace_class_tagging():
    m = _model()
    chart = ga.ChartId.hilbert(m.h_plus)
    pt = ga.chart_forward(m.h_plus, chart)
    mu = np.eye(4)
    cov = ga.precotangent_covector(pt, mu, p=1, profile=ga.DecayProfile.geometric(0.5))
    assert cov.class_tag == "trace_class_emulated"
    assert cov.metadata["p"] == 1.0
    # reflexive range: the precotangent fiber is the cotangent fiber, plain tag
    cov2 = ga.precotangent_covector(pt, mu, p=2)
    assert cov2.class_tag == "unrestricted"
    with pytest.raises(ValueError):
        ga.precotangent_covector(pt, mu, p=0.5)
