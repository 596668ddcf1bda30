"""Each documented refusal raises its own exception type.

One case per error path that no property or round-trip test reaches: bad
shapes, mismatched ambient spaces, empty inputs and arguments out of range.
"""

import numpy as np
import pytest

import grassatlas as ga
from grassatlas.errors import ChartMismatch, ConfigError, DimensionMismatch
from grassatlas.operators import singular_tail_sum
from grassatlas.verify.runner import SuiteConfig


def _subspace(n, cols):
    return ga.Subspace(np.eye(n)[:, cols])


def _chart(n):
    return ga.ChartId(_subspace(n, [0]), _subspace(n, list(range(1, n))))


def _point(chart):
    return ga.ChartPoint(chart, ga.Operator(np.zeros((chart.g.dim, chart.f.dim))))


CASES = {
    "subspace-more-columns-than-ambient": (
        DimensionMismatch, lambda: ga.Subspace(np.eye(2, 3))),
    "distance-across-ambients": (
        DimensionMismatch, lambda: _subspace(2, [0]).distance_to(_subspace(3, [0]))),
    "chart-unknown-flavor": (
        ValueError, lambda: ga.ChartId(_subspace(2, [0]), _subspace(2, [1]), flavor="oblique")),
    "chart-mixed-ambients": (
        DimensionMismatch, lambda: ga.ChartId(_subspace(2, [0]), _subspace(3, [1, 2]))),
    "chart-point-wrong-shape": (
        DimensionMismatch, lambda: ga.ChartPoint(_chart(2), ga.Operator(np.zeros((2, 2))))),
    "chart-forward-across-ambients": (
        DimensionMismatch, lambda: ga.chart_forward(_subspace(3, [0]), _chart(2))),
    "transition-base-across-ambients": (
        DimensionMismatch, lambda: ga.transition_base(_point(_chart(2)), _chart(3))),
    # the source chart's F must be restrictable to the target, as a subspace is in chart_forward
    "transition-base-across-chart-dims": (
        DimensionMismatch,
        lambda: ga.transition_base(_point(_chart(3)), _chart(3).opposite())),
    "bundle-map-across-ambients": (
        DimensionMismatch,
        lambda: ga.transition_tangent(ga.TangentVector(_point(_chart(2)), ga.Operator([[0.0]])),
                                      _chart(3))),
    "operator-of-a-3d-array": (
        ValueError, lambda: ga.Operator(np.zeros((1, 1, 1)))),
    "empty-operator-ladder": (
        ValueError, lambda: ga.compactness_tail((), 1)),
    "haar-frame-more-columns-than-rows": (
        DimensionMismatch, lambda: ga.haar_frame(2, 3, np.random.default_rng(0))),
    "decay-operator-negative-rows": (
        ValueError, lambda: ga.decay_operator(-1, 2, ga.DecayProfile.zero(), 0)),
    "polarized-model-empty-block": (
        DimensionMismatch, lambda: ga.PolarizedModel(0, 2)),
    "swap-family-zero-t": (
        ValueError, lambda: ga.swap_chart_family(0)),
    "swap-family-non-square-model": (
        DimensionMismatch, lambda: ga.swap_chart_family(1.0)(ga.PolarizedModel(1, 2), None)),
    "tensor-term-wrong-shape": (
        DimensionMismatch,
        lambda: ga.TensorCovector(_point(_chart(2)), ((np.ones(2), np.ones(1)),))),
    "trace-pairing-across-charts": (
        ChartMismatch,
        lambda: ga.trace_pairing(ga.Covector(_point(_chart(2)), ga.Operator([[1.0]])),
                                 ga.TangentVector(_point(_chart(2).opposite()),
                                                  ga.Operator([[1.0]])))),
    "split-conditioning-across-ambients": (
        DimensionMismatch,
        lambda: ga.split_conditioning(_subspace(2, [0]), _subspace(3, [1, 2]))),
    # a bool is an int to Python, but True as a size, count or cutoff is not 1
    "polarized-model-bool-block": (
        ValueError, lambda: ga.PolarizedModel(True, 2)),
    "suite-config-bool-trials": (
        ConfigError, lambda: SuiteConfig(trials=True)),
    "tail-sum-bool-cutoff": (
        ValueError, lambda: singular_tail_sum(np.eye(2), True)),
}


@pytest.mark.parametrize("expected, call", CASES.values(), ids=CASES.keys())
def test_refusal_raises_its_documented_type(expected, call):
    with pytest.raises(expected) as err:
        call()
    assert type(err.value) is expected


@pytest.mark.parametrize("name", [name for name in CASES if "-bool-" in name])
def test_bool_is_refused_by_the_integer_rule(name):
    expected, call = CASES[name]
    with pytest.raises(expected, match="must be an integer, got True"):
        call()


def test_pair_functions_on_the_empty_space():
    empty = ga.Subspace(np.zeros((0, 0)))
    assert ga.split_conditioning(empty, empty) == 0.0
    onto_f, onto_g = ga.oblique_projections(empty, empty)
    assert onto_f.shape == onto_g.shape == (0, 0)
