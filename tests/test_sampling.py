"""Sampled charts meet their conditioning floors by construction, at every n."""

import numpy as np
import pytest

import grassatlas as ga
from grassatlas.sampling import (MARGIN_CEIL, MARGIN_FLOOR, SPLIT_FLOOR, _random_pair,
                                 derive_rng, random_chart, random_chart_containing,
                                 random_subspace)


def _dims(n):
    return sorted({1, n - 1, n // 2})


@pytest.mark.parametrize("n", [2, 3, 8, 64, 256])
def test_sampled_charts_meet_floors_and_spread(n):
    draws = 24 if n <= 64 else 4
    splits, margins = [], []
    for flavor in ("split", "hilbert"):
        for k in _dims(n):
            for trial in range(draws):
                rng = derive_rng(909, n, k, trial)
                chart = (random_chart(n, k, rng) if flavor == "split"
                         else ga.ChartId.hilbert(random_subspace(n, k, rng)))
                h = random_subspace(n, k, rng)
                containing = random_chart_containing(h, rng, flavor=flavor)
                assert containing.flavor == flavor
                margins.append(ga.in_chart_domain(h, containing).conditioning)
                if flavor == "split":
                    splits += [ga.split_conditioning(c.f, c.g) for c in (chart, containing)]
    assert min(splits) >= SPLIT_FLOOR
    assert min(margins) >= MARGIN_FLOOR
    # drawn over a range, not parked at one value
    assert min(splits) < 0.1 and max(splits) > 0.5
    assert min(margins) < 0.1 and max(margins) > 0.2


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("containing", [False, True])
def test_split_conditioning_is_drawn_exactly(k, containing):
    """Both samplers meet F at the drawn conditioning c, at rank one too."""
    conds = []
    for t in range(400):
        rng = derive_rng(910, t)
        chart = (random_chart_containing(random_subspace(8, k, rng), rng) if containing
                 else random_chart(8, k, rng))
        conds.append(ga.split_conditioning(chart.f, chart.g))
    assert min(conds) >= SPLIT_FLOOR
    # log-uniform over [1e-2, 1): a tenth of the draws sit below 10^-1.8, half below 10^-1
    assert 0.05 <= np.mean(np.array(conds) < 10 ** -1.8) <= 0.15
    assert 0.4 <= np.mean(np.array(conds) < 0.1) <= 0.6


def test_containing_margin_is_drawn_exactly():
    rng = derive_rng(911)
    h = random_subspace(16, 5, rng)
    margins = [ga.in_chart_domain(h, random_chart_containing(h, rng, flavor=flavor)).conditioning
               for flavor in ("split", "hilbert") for _ in range(200)]
    assert min(margins) >= MARGIN_FLOOR and max(margins) < MARGIN_CEIL + 1e-12
    # log-uniform over [MARGIN_FLOOR, MARGIN_CEIL): a tenth of the draws sit below the
    # tenth quantile
    tenth = MARGIN_FLOOR * (MARGIN_CEIL / MARGIN_FLOOR) ** 0.1
    assert 0.05 <= np.mean(np.array(margins) < tenth) <= 0.15


def test_rank_one_split_margin_trades_against_conditioning():
    """At rank one the split chart holds h at m (1 + c^2)/(2c), capped at 1 when dim h > 1."""
    for t in range(200):
        rng = derive_rng(912, t)
        h = random_subspace(6, 1 if t % 2 else 5, rng)
        chart = random_chart_containing(h, rng)
        c = ga.split_conditioning(chart.f, chart.g)
        margin = ga.in_chart_domain(h, chart).conditioning
        assert margin >= MARGIN_FLOOR
        if h.dim == 1 or margin < 1.0 - 1e-9:
            drawn = margin * 2.0 * c / (1.0 + c * c)
            assert MARGIN_FLOOR * (1 - 1e-9) <= drawn < MARGIN_CEIL * (1 + 1e-9)


def test_split_chart_containing_at_n512_is_orthonormal():
    """The turned F drifts from orthonormal by ~1e-12 at n = 512; the sampler re-spans it."""
    rng = np.random.default_rng(2)
    h = random_subspace(512, 256, rng)
    chart = random_chart_containing(h, rng)
    assert ga.split_conditioning(chart.f, chart.g) >= SPLIT_FLOOR
    assert ga.in_chart_domain(h, chart).conditioning >= MARGIN_FLOOR


@pytest.mark.parametrize("n", [4, 8, 16])
def test_random_chart_is_built_on_the_random_pair(n):
    for k in _dims(n):
        chart_rng, pair_rng = derive_rng(n, k), derive_rng(n, k)
        chart = random_chart(n, k, chart_rng)
        pair = _random_pair(n, k, pair_rng)
        for side, subspace in zip((chart.f, chart.g), pair):
            assert side.basis.matrix.tobytes() == subspace.basis.matrix.tobytes()
        assert chart_rng.bit_generator.state == pair_rng.bit_generator.state
