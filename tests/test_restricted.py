import gc
import math
import re
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import grassatlas as ga
from grassatlas import restricted
from grassatlas.atlas import _coordinate_rows
from grassatlas.errors import (DimensionMismatch, LadderMismatch, PredualUnavailable)
from grassatlas.restricted import PreservationReport, RungResult, _decay_form, _graph_point
from grassatlas.sampling import polarization_preserving_unitary
from grassatlas.verify.oracles import projector_diff_norm


def _rng(seed):
    return np.random.default_rng(seed)


def _model(side=4):
    return ga.PolarizedModel(side, side)


def basis_vector(model, mode):
    """Ambient basis vector e_mode: e_{-1}..e_{-n_minus}, then e_{+1}..e_{+n_plus}."""
    vec = np.zeros(model.ambient_dim, dtype=complex)
    vec[-mode - 1 if mode < 0 else model.n_minus + mode - 1] = 1.0
    return vec


def test_polarized_model_projector_identities():
    # P_+ + P_- = I and P_+ P_- = 0, read through the bases of the two halves
    m = _model(3)
    b_minus, b_plus = m.h_minus.basis.matrix, m.h_plus.basis.matrix
    assert_allclose(np.hstack([b_minus, b_plus]), np.eye(6), atol=1e-15)
    assert_allclose(b_plus.conj().T @ b_minus, np.zeros((3, 3)), atol=1e-15)


@pytest.mark.parametrize("n_minus, n_plus", [(3, 3), (2, 5), (6, 1)])
def test_polarization_blocks_are_exact_coordinate_slices(n_minus, n_plus):
    m = ga.PolarizedModel(n_minus, n_plus)
    assert np.array_equal(_coordinate_rows(m.h_minus.basis.matrix), np.arange(n_minus))
    assert np.array_equal(_coordinate_rows(m.h_plus.basis.matrix), n_minus + np.arange(n_plus))
    assert np.array_equal(m.h_plus.complement().basis.matrix, m.h_minus.basis.matrix)
    assert np.array_equal(m.h_minus.complement().basis.matrix, m.h_plus.basis.matrix)


def test_split_chart_on_the_polarization_has_the_solve_route_rows():
    m = ga.PolarizedModel(3, 5)
    bf, bg = m.h_plus.basis.matrix, m.h_minus.basis.matrix
    inv = np.linalg.solve(np.hstack([bf, bg]), np.eye(8))
    chart = ga.ChartId(m.h_plus, m.h_minus)
    # M is a permutation, so the chart keeps no rows: each side reads its block's
    # indices and applies as the solve route's rows B^H P
    assert chart._rows is None
    x = _rng(48).standard_normal((8, 4)) + 1j * _rng(49).standard_normal((8, 4))
    for side, rows in enumerate((bf.conj().T @ (bf @ inv[:5]), bg.conj().T @ (bg @ inv[5:]))):
        assert np.array_equal(chart._apply(side, np.eye(8)), rows)
        assert np.array_equal(chart._apply(side, x), rows @ x)


@pytest.mark.parametrize("virtual_dim", [-2, -1, 0, 1, 2])
def test_zero_profile_centre_complement_matches_the_qr_complement(virtual_dim):
    center, _ = _graph_point(_model(4), ga.DecayProfile.zero(), virtual_dim, 0)
    assert _coordinate_rows(center.basis.matrix) is not None
    full, _ = np.linalg.qr(center.basis.matrix, mode="complete")
    qr_complement = ga.Subspace(full[:, center.dim:])
    assert center.complement().distance_to(qr_complement) <= 1e-15


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
    cols = [basis_vector(m, -1)] + [basis_vector(m, k) for k in range(2, 5)]
    w = ga.Subspace(np.column_stack(cols))
    report = ga.membership_report(w, m, 1)
    assert report.diff_norm == pytest.approx(2.0, abs=1e-12)
    assert report.virtual_dim == 0


def test_membership_one_extra_negative_mode():
    m = _model()
    cols = [basis_vector(m, -1)] + [basis_vector(m, k) for k in range(1, 5)]
    w = ga.Subspace(np.column_stack(cols))
    report = ga.membership_report(w, m, 1)
    assert report.virtual_dim == 1
    assert report.diff_norm == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("side", [4, 8, 16, 64])
def test_membership_diff_norm_matches_dense_projectors(side):
    m = _model(side)
    rng = _rng(side)
    for vd in range(-2, 3):
        graph, _ = _graph_point(m, ga.DecayProfile.geometric(0.6), vd, side + vd)
        u = polarization_preserving_unitary(side, side, rng)
        points = (graph, ga.Subspace(u @ graph.basis.matrix),
                  ga.Subspace(ga.haar_frame(2 * side, side + vd, rng)))
        for w in points:
            for p in (1.0, 2.0, 3.5):
                want = projector_diff_norm(w, m, p)
                got = ga.membership_report(w, m, p).diff_norm
                assert abs(got - want) <= 1e-10 * want


@pytest.mark.parametrize("n_minus, n_plus", [(1, 5), (5, 1), (3, 7)])
def test_membership_diff_norm_matches_dense_projectors_at_every_dim(n_minus, n_plus):
    # every k from 0 to n, so W cap H_minus and W-perp cap H_plus take every dimension
    m = ga.PolarizedModel(n_minus, n_plus)
    rng = _rng(n_minus)
    points = [ga.Subspace(ga.haar_frame(m.ambient_dim, k, rng))
              for k in range(m.ambient_dim + 1)]
    for w in (*points, m.h_minus, m.h_plus):
        for p in (1.0, 2.0, 3.5):
            want = projector_diff_norm(w, m, p)
            assert abs(ga.membership_report(w, m, p).diff_norm - want) <= 1e-10 * want


def test_membership_reads_power_sums_below_the_float_range():
    # each sine^2000 underflows to 0.0; the largest sine is 0.5 / sqrt(1.25)
    m = _model(4)
    w = ga.generate_restricted_point(m, 2, ga.DecayProfile.geometric(0.5)).w
    report = ga.membership_report(w, m, 2000)
    assert report.minus_norm == pytest.approx(1 / math.sqrt(5), rel=1e-14)
    assert report.diff_norm == pytest.approx(2 ** (1 / 2000) / math.sqrt(5), rel=1e-14)
    assert report.diff_norm == pytest.approx(projector_diff_norm(w, m, 2000), rel=1e-12)


@pytest.mark.parametrize("p", [1, 2.5, 2000])
def test_membership_reads_the_minus_power_sum_once(monkeypatch, p):
    m = _model(64)
    w = ga.generate_restricted_point(m, 2, ga.DecayProfile.geometric(0.5)).w
    want = ga.membership_report(w, m, p)
    reads = []
    power_sum = ga.SchattenReport.power_sum

    def counting(report):
        reads.append(1)
        return power_sum.fget(report)

    monkeypatch.setattr(ga.SchattenReport, "power_sum", property(counting))
    got = ga.membership_report(w, m, p)
    monkeypatch.undo()
    assert len(reads) == 1
    # minus_norm is the root value takes of the same sum, bit for bit
    assert (got.minus_norm, got.diff_norm) == (want.minus_norm, want.diff_norm)
    minus = ga.schatten_norm(w.basis.matrix[:m.n_minus], p)
    assert got.minus_norm == minus.value


def test_membership_rejects_foreign_subspace():
    m = _model()
    with pytest.raises(DimensionMismatch):
        ga.membership_report(ga.Subspace(np.eye(4)[:, :2]), m, 1)


# ---------------------------------------------------------------------------
# virtual dimension

def test_virtual_dimension_examples():
    m = _model()
    assert ga.virtual_dimension(m.h_plus, m) == 0
    cols = [basis_vector(m, -1)] + [basis_vector(m, k) for k in range(1, 5)]
    assert ga.virtual_dimension(ga.Subspace(np.column_stack(cols)), m) == 1


def test_virtual_dimension_rank_route_under_rotation():
    # W = H_plus minus span(e_{+1}), then rotated slightly into e_{-1}
    m = _model()
    theta = 1e-3
    tilted = math.cos(theta) * basis_vector(m, 2) + math.sin(theta) * basis_vector(m, -1)
    cols = [tilted] + [basis_vector(m, k) for k in range(3, 5)]
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
    values = [pt.diff_norm for pt in ladder.points]
    # graph weights are r^k from k = 1; the tail bound is 2 sum_{k>8} r^k = 2 r^8 at r = 1/2
    assert max(values) - min(values) <= 2 * r ** 8


def test_ladder_embedding_is_bit_exact():
    profile = ga.DecayProfile.geometric(0.5)
    ladder = ga.build_truncation_ladder([(8, 8), (16, 16), (32, 32)], 1, profile, 1, seed=4)
    graphs = [_graph_point(model, profile, 1, 4)[1] for model in ladder.models]
    for small, large in zip(graphs, graphs[1:]):
        assert np.array_equal(small.matrix, large.matrix[: small.rows, : small.cols])


def test_ladder_keeps_no_graph_map():
    profile = ga.DecayProfile.geometric(0.5)
    ga.build_truncation_ladder([(2, 2), (4, 4)], 1, profile)  # first-call allocations
    gc.collect()
    tracemalloc.start()
    try:
        ladder = ga.build_truncation_ladder([(s, s) for s in (16, 32, 64, 128)], 1, profile)
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    arrays = snapshot.filter_traces([tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
    kept = {trace.size for trace in arrays.traces}
    # the points' bases are 2s x s; an s x s graph map would be half that size
    assert {pt.w.basis.matrix.nbytes for pt in ladder.points} <= kept
    assert not kept & {16 * m.n_minus * m.n_plus for m in ladder.models}


def test_ladder_rejects_rungs_that_do_not_nest(monkeypatch):
    def unstable(profile, count, entropy):
        # the phases depend on the count, so no rung is a block of the next
        phases = np.random.default_rng([count, *np.atleast_1d(entropy)]).uniform(0, 6, count)
        return profile.values(count, skip=1) * np.exp(1j * phases)

    monkeypatch.setattr(restricted, "_ladder_weights", unstable)
    with pytest.raises(LadderMismatch, match="top-left block"):
        ga.build_truncation_ladder([(4, 4), (8, 8)], 1, ga.DecayProfile.geometric(0.5))


_PROFILES = [ga.DecayProfile.geometric(0.5), ga.DecayProfile.power(1.1), ga.DecayProfile.zero()]


# the prefix-stable draw nests the rungs; build_truncation_ladder also checks the graph maps
@pytest.mark.parametrize("profile", _PROFILES, ids=["geometric", "power", "zero"])
def test_ladder_embedding_nests_covectors_and_graph_weights(profile):
    for k, big in ((1, 2), (3, 8), (8, 40)):
        for seed in (0, 9):
            form = _decay_form(big, big, profile, seed)
            assert form[:k, :k].tobytes() == _decay_form(k, k, profile, seed).tobytes()
            graph = _graph_point(ga.PolarizedModel(big, big), profile, 0, seed)[1].matrix
            small = _graph_point(ga.PolarizedModel(k, k), profile, 0, seed)[1].matrix
            assert graph[:k, :k].tobytes() == small.tobytes()
            # the weights sit on the diagonal; the two draws use distinct seeds
            assert np.array_equal(np.diag(graph), np.diag(form)) == (profile.kind == "zero")


def _graph_basis_by_columns(model, weights, lead, drop):
    """Per-column reference for the graph basis built by _graph_point."""
    columns = [basis_vector(model, -(j + 1)) for j in range(lead)]
    for t in range(model.n_plus - drop):
        column = basis_vector(model, drop + t + 1)
        if t < weights.size:
            w = weights[t]
            column = column + w * basis_vector(model, -(lead + t + 1))
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


def test_preservation_at_infinity_measures_the_operator_norm():
    # the swap push is mu -> -t^2 mu, so every norm, the operator norm too, scales by |t|^2
    t = 1.5 + 0.5j
    ladder = ga.build_truncation_ladder([(4, 4), (8, 8), (12, 12)], 1,
                                        ga.DecayProfile.geometric(0.5), 0, seed=2)
    report = ga.preservation_experiment(ladder, math.inf, ga.swap_chart_family(t), seed=4)
    assert report.p == math.inf and report.passed
    for rung in report.per_rung:
        assert abs(rung.constant - abs(t) ** 2) <= 1e-8


def test_membership_refuses_infinity_before_any_svd(monkeypatch):
    m = _model()
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    with pytest.raises(ValueError, match="finite schatten index"):
        ga.membership_report(m.h_plus, m, math.inf)
    assert not calls


@pytest.mark.parametrize("family", [ga.swap_chart_family(1.5 + 0.5j),
                                    ga.graph_chart_family(0.6, 3)])
def test_a_ladder_rung_builds_no_coordinate_basis(monkeypatch, family):
    # both families chart on H_plus and H_minus; their records are read, never a 0/1 basis
    ladder = ga.build_truncation_ladder([(4, 4), (128, 128)], 1,
                                        ga.DecayProfile.geometric(0.6), 0, seed=1)
    read = []
    basis = ga.Subspace.basis
    monkeypatch.setattr(ga.Subspace, "basis",
                        property(lambda s: read.append(s._coord_rows is not None) or basis.fget(s)))
    report = ga.preservation_experiment(ladder, 1, family, seed=2)
    monkeypatch.undo()
    assert read and not any(read)
    assert not any(rung.skipped for rung in report.per_rung)


def test_preservation_swap_family_matches_modulus_squared():
    t = 1.5 + 0.5j
    ladder = ga.build_truncation_ladder([(4, 4), (8, 8), (12, 12)], 1,
                                        ga.DecayProfile.geometric(0.5), 0, seed=2)
    report = ga.preservation_experiment(ladder, 1, ga.swap_chart_family(t), seed=4)
    assert report.passed
    for rung in report.per_rung:
        assert abs(rung.constant - abs(t) ** 2) <= 1e-8


@pytest.mark.parametrize("t", [1.5 + 0.5j, -2.0 + 0.0j, -0.3 - 1.2j, complex(-0.0, 1.2)])
@pytest.mark.parametrize("n_plus", [1, 5])
def test_swap_family_base_point_matches_the_mode_loop(t, n_plus):
    model = _model(n_plus)
    point = ga.generate_restricted_point(model, 1, ga.DecayProfile.geometric(0.5))
    src, dst, base = ga.swap_chart_family(t)(model, point)
    scale = 1.0 / math.hypot(1.0, abs(t))
    cols = [scale * (basis_vector(model, k + 1) + t * basis_vector(model, -(k + 1)))
            for k in range(n_plus)]
    loop = np.column_stack(cols)
    assert np.array_equal(base.basis.matrix, loop)
    assert base.basis.matrix.tobytes() == loop.tobytes()  # signed zeros too
    assert (dst.f, dst.g) == (src.g, src.f)


@pytest.mark.parametrize("t", [math.nan, complex(1.0, math.inf), -math.inf])
def test_swap_family_refuses_a_non_finite_t(t):
    with pytest.raises(ValueError, match=re.escape(f"finite t, got {complex(t)!r}")):
        ga.swap_chart_family(t)


@pytest.mark.parametrize("t", [1e200, -3e154j])
def test_swap_family_skips_the_rungs_of_a_huge_t(t):
    # |t|**2 overflows past about 1.3e154; the scale 1/hypot(1, |t|) does not, and the
    # base point then sits outside the source chart's domain, so every rung is skipped
    ladder = ga.build_truncation_ladder([(2, 2), (4, 4)], 1, ga.DecayProfile.geometric(0.5))
    report = ga.preservation_experiment(ladder, 1, ga.swap_chart_family(t))
    assert all(rung.skipped for rung in report.per_rung) and not report.passed


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


def _rungs(*norms):
    """Rungs of (mu_norm, mu_prime_norm); a zero or NaN mu_norm skips its rung."""
    return tuple(RungResult(8 * (i + 1), mu, mu_prime) for i, (mu, mu_prime) in enumerate(norms))


@pytest.mark.parametrize("per_rung, spread", [
    (_rungs((1.0, 2.0), (1.0, 1.0), (2.0, 2.0), (2.0, 3.0)), 0.5 / (3.5 / 3)),
    (_rungs((1.0, 1.0), (1.0, 1.01), (0.0, 3.0), (1.0, 1.02)), 0.02 / (3.03 / 3)),
    (_rungs((1.0, 1.0), (math.nan, math.nan), (0.0, 1.0)), None),
    (_rungs((0.0, 0.0), (0.0, 1.0)), None),
], ids=["top_three", "zero_mu_skipped", "one_usable", "none_usable"])
def test_preservation_report_derives_spread_and_pass(monkeypatch, per_rung, spread):
    report = PreservationReport(1.0, per_rung)
    assert report.dims == tuple(r.dim for r in per_rung)
    assert report.spread == (None if spread is None else pytest.approx(spread, rel=1e-15))
    assert report.passed == (spread is not None and spread <= 0.05)
    # the experiment's report is the same record over its rungs
    rungs = iter(per_rung)
    monkeypatch.setattr(restricted, "_rung", lambda *args: next(rungs))
    ladder = ga.build_truncation_ladder([(s, s) for s in range(1, len(per_rung) + 1)], 1,
                                        ga.DecayProfile.geometric(0.5))
    found = ga.preservation_experiment(ladder, 1, ga.identity_chart_family())
    assert found.per_rung == per_rung
    assert (found.spread, found.passed) == (report.spread, report.passed)


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


# one rule for the Schatten index: 0 (tail diagnostics), >= 1, or inf (operator norm)
@pytest.mark.parametrize("p", [math.nan, -math.inf, 0.5, -1.0],
                         ids=["nan", "-inf", "half", "negative"])
def test_schatten_index_is_zero_or_finite_and_at_least_one(p):
    m = _model()
    chart = ga.ChartId.hilbert(m.h_plus)
    pt = ga.chart_forward(m.h_plus, chart)
    with pytest.raises(ValueError, match="schatten index"):
        ga.precotangent_covector(pt, np.eye(4), p=p)
    ladder = ga.build_truncation_ladder([(2, 2), (4, 4)], 2, ga.DecayProfile.geometric(0.5))
    with pytest.raises(ValueError, match="schatten index"):
        ga.preservation_experiment(ladder, p, ga.identity_chart_family())


# p is the tangent class; its predual (K at p = 1, L_{p*} above) stores the same matrix
def test_precotangent_covector_is_the_form_at_the_point():
    m = _model()
    chart = ga.ChartId.hilbert(m.h_plus)
    pt = ga.chart_forward(m.h_plus, chart)
    mu = np.arange(16.0).reshape(4, 4) * (1 - 0.5j)
    for p in (1, 2, 3.5):
        cov = ga.precotangent_covector(pt, mu, p=p)
        assert cov.at is pt
        assert np.array_equal(cov.form.matrix, mu)
