"""The three benchmark workloads: seeded inputs, one timed call per op, and gates.

Each workload is a closed loop with a single client: op ``i + 1`` is issued only
after op ``i`` returned and was checked.  Op inputs are a pure function of the
workload seed and the op index, so a run can be replayed op for op (the traced
run replays the untraced one).  Every gate uses an acceptance tolerance of the
library (``tests/test_acceptance.py`` and the verify check registry) and runs
outside the op's timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import grassatlas as ga
from grassatlas.verify.cli import main as verify_main

ROUNDTRIP_TOL = 1e-10    # criterion 1
CONSISTENCY_TOL = 1e-10  # verify check transition_consistency
DUALITY_TOL = 1e-9       # criterion 4: |Tr(mu' X') - Tr(mu X)| <= tol (1 + |Tr|)
SQUARE_TOL = 1e-10       # criterion 5, relative to 1 + max |operator route|
SWAP_TOL = 1e-8          # criterion 6: swap constant vs |t|^2


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; the defaults are the benchmark, the self-test shrinks them."""

    n: int = 256
    ladder_sides: tuple[int, ...] = (16, 32, 64, 128)
    verify_args: tuple[str, ...] = ()


def _rng(seed: int, *parts: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *parts]))


def _cgauss(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _bilinear_trace(mu: np.ndarray, x: np.ndarray) -> complex:
    """Tr(mu x) without forming the product."""
    return complex(np.sum(mu * x.T))


@dataclass
class Op:
    """One op: ``run`` is the timed call, ``check(result)`` the untimed gate."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]


class VerifySuite:
    """In-process ``verify --suite all --format json`` at the CLI defaults."""

    name = "verify_suite"
    kinds = ("suite",)
    trace_ops = 2

    def __init__(self, seed: int, sizes: Sizes):
        self.seed = seed
        self.sizes = sizes
        self.reference: str | None = None

    def setup(self) -> None:
        suite_seed = int(np.random.SeedSequence([self.seed, 7]).generate_state(1)[0] >> 1)
        self.argv = ["--suite", "all", "--format", "json", "--seed", str(suite_seed),
                     *self.sizes.verify_args]

    def op(self, index: int) -> Op:
        def run():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = verify_main(self.argv)
            return code, out.getvalue()

        def check(result) -> bool:
            code, text = result
            if code != 0:
                return False
            report = json.loads(text)
            if not report["checks"] or not all(c["pass"] for c in report["checks"]):
                return False
            if self.reference is None:
                self.reference = text
            return text == self.reference
        return Op("suite", run, check)


class TransportN256:
    """Dense transition algebra between charts of a reused pool at n = 256, k = 128."""

    name = "transport_n256"
    kinds = ("roundtrip", "chart_inverse", "transition_base", "transition_tangent",
             "transition_cotangent", "trace_pairing", "pushforward")
    trace_ops = 4 * len(kinds)
    pool_size = 8
    chart_perturbation = 0.05
    point_scale = 0.1
    min_domain = 0.5

    def __init__(self, seed: int, sizes: Sizes):
        self.seed = seed
        self.n = sizes.n
        self.k = sizes.n // 2

    def _perturbed(self, basis: np.ndarray, rng: np.random.Generator) -> ga.Subspace:
        noise = _cgauss(rng, basis.shape) / math.sqrt(basis.shape[0])
        return ga.Subspace.from_span(basis + self.chart_perturbation * noise)

    def setup(self) -> None:
        """Pool of 4 hilbert and 4 split charts, each a perturbation of one base pair.

        Built directly instead of through ``sampling.random_chart_containing``,
        whose fixed conditioning floors make it fail with ``SplitFailure`` at
        this n; every pool chart must hold the base point with a wide margin.
        """
        rng = _rng(self.seed, 0)
        base = ga.Subspace(ga.haar_frame(self.n, self.k, rng))
        complement = base.complement().basis.matrix
        pool = [ga.ChartId.hilbert(self._perturbed(base.basis.matrix, rng))
                for _ in range(self.pool_size // 2)]
        pool += [ga.ChartId(self._perturbed(base.basis.matrix, rng),
                            self._perturbed(complement, rng))
                 for _ in range(self.pool_size // 2)]
        for chart in pool:
            margin = ga.in_chart_domain(base, chart).conditioning
            if margin < self.min_domain:
                raise ga.ChartDomainViolation(f"pool chart margin {margin:.3f} < {self.min_domain}")
        self.pool = pool

    def kind_of(self, index: int) -> str:
        """Each block of len(kinds) ops holds every kind once, in seeded order."""
        block, slot = divmod(index, len(self.kinds))
        order = _rng(self.seed, 1, block).permutation(len(self.kinds))
        return self.kinds[order[slot]]

    def op(self, index: int) -> Op:
        kind = self.kind_of(index)
        rng = _rng(self.seed, 2, index)
        i, j = rng.choice(self.pool_size, size=2, replace=False)
        src, dst = self.pool[i], self.pool[j]
        kf, kg = src.f.dim, src.g.dim
        scale = self.point_scale / math.sqrt(self.n)
        pt = ga.ChartPoint(src, ga.Operator(scale * _cgauss(rng, (kg, kf))))
        x = _cgauss(rng, (kg, kf))
        mu = _cgauss(rng, (kf, kg))
        return getattr(self, f"_op_{kind}")(kind, pt, dst, x, mu, rng)

    def _op_roundtrip(self, kind, pt, dst, x, mu, rng) -> Op:
        def check(back) -> bool:
            return float(np.abs(back.coord.matrix - pt.coord.matrix).max()) <= ROUNDTRIP_TOL
        return Op(kind, lambda: ga.chart_forward(ga.chart_inverse(pt), pt.chart), check)

    def _op_chart_inverse(self, kind, pt, dst, x, mu, rng) -> Op:
        def check(h) -> bool:
            # the graph F + G A must lie in the returned subspace
            graph = pt.chart.f.basis.matrix + pt.chart.g.basis.matrix @ pt.coord.matrix
            q = h.basis.matrix
            residual = float(np.abs(graph - q @ (q.conj().T @ graph)).max())
            return residual <= ROUNDTRIP_TOL * (1.0 + float(np.abs(graph).max()))
        return Op(kind, lambda: ga.chart_inverse(pt), check)

    def _op_transition_base(self, kind, pt, dst, x, mu, rng) -> Op:
        def check(moved) -> bool:
            graph_route = ga.chart_forward(ga.chart_inverse(pt), dst).coord.matrix
            scale = 1.0 + float(np.abs(graph_route).max())
            err = float(np.abs(moved.coord.matrix - graph_route).max())
            return err <= CONSISTENCY_TOL * scale
        return Op(kind, lambda: ga.transition_base(pt, dst), check)

    def _duality(self, mu: np.ndarray, x: np.ndarray, mu_t: np.ndarray, x_t: np.ndarray) -> bool:
        before = _bilinear_trace(mu, x)
        after = _bilinear_trace(mu_t, x_t)
        return abs(after - before) <= DUALITY_TOL * (1.0 + abs(before))

    def _op_transition_tangent(self, kind, pt, dst, x, mu, rng) -> Op:
        tangent = ga.TangentVector(pt, ga.Operator(x))

        def check(pushed) -> bool:
            mu_t = ga.transition_cotangent(ga.Covector(pt, ga.Operator(mu)), dst).form.matrix
            return self._duality(mu, x, mu_t, pushed.direction.matrix)
        return Op(kind, lambda: ga.transition_tangent(tangent, dst), check)

    def _op_transition_cotangent(self, kind, pt, dst, x, mu, rng) -> Op:
        covector = ga.Covector(pt, ga.Operator(mu))

        def check(pushed) -> bool:
            x_t = ga.transition_tangent(ga.TangentVector(pt, ga.Operator(x)), dst).direction.matrix
            return self._duality(mu, x, pushed.form.matrix, x_t)
        return Op(kind, lambda: ga.transition_cotangent(covector, dst), check)

    def _op_trace_pairing(self, kind, pt, dst, x, mu, rng) -> Op:
        # the pairing is timed at the destination point, on transported data
        tangent = ga.transition_tangent(ga.TangentVector(pt, ga.Operator(x)), dst)
        covector = ga.transition_cotangent(ga.Covector(pt, ga.Operator(mu)), dst)

        def check(value) -> bool:
            before = _bilinear_trace(mu, x)
            direct = _bilinear_trace(covector.form.matrix, tangent.direction.matrix)
            return (abs(value - direct) <= DUALITY_TOL * (1.0 + abs(direct))
                    and abs(value - before) <= DUALITY_TOL * (1.0 + abs(before)))
        return Op(kind, lambda: ga.trace_pairing(covector, tangent), check)

    def _op_pushforward(self, kind, pt, dst, x, mu, rng) -> Op:
        kf, kg = pt.chart.f.dim, pt.chart.g.dim
        tc = ga.TensorCovector(pt, tuple((_cgauss(rng, kf), _cgauss(rng, kg)) for _ in range(3)))

        def run():
            return ga.pushforward_tensor(tc, ga.pushforward_factors(pt, dst), dst)

        def check(pushed) -> bool:
            tensor_route = ga.tensor_to_operator(pushed).form.matrix
            operator_route = ga.transition_cotangent(ga.tensor_to_operator(tc), dst).form.matrix
            scale = 1.0 + float(np.abs(operator_route).max())
            return float(np.abs(tensor_route - operator_route).max()) <= SQUARE_TOL * scale
        return Op(kind, run, check)


class LadderPreservation:
    """Criterion-6 experiment: fresh truncation ladder plus one preservation run."""

    name = "ladder_preservation"
    swap_t = 1.5 + 0.5j
    graph_rate = 0.6
    kinds = tuple(f"{family}_p{p}" for family in ("graph", "swap") for p in (0, 1, 2))
    trace_ops = 2 * len(kinds)

    def __init__(self, seed: int, sizes: Sizes):
        self.seed = seed
        self.sides = sizes.ladder_sides

    def setup(self) -> None:
        self.dims = [(side, side) for side in self.sides]
        self.profile = ga.DecayProfile.geometric(0.5)
        # the singular tail for p = 0 starts halfway into the smallest rung
        self.tail_cutoff = self.sides[0] // 2

    def op(self, index: int) -> Op:
        kind = self.kinds[index % len(self.kinds)]
        family, p = kind.split("_p")
        p = int(p)
        ladder_seed, family_seed, mu_seed = (
            int(v) for v in _rng(self.seed, 3, index).integers(0, 2 ** 31, 3))

        def run():
            # Schatten membership needs p >= 1; the compact class p = 0 uses p = 1
            ladder = ga.build_truncation_ladder(self.dims, max(p, 1), self.profile, 0,
                                                seed=ladder_seed)
            charts = (ga.graph_chart_family(self.graph_rate, family_seed) if family == "graph"
                      else ga.swap_chart_family(self.swap_t))
            return ga.preservation_experiment(ladder, p, charts, seed=mu_seed,
                                              tail_cutoff=self.tail_cutoff)

        def check(report) -> bool:
            if not report.passed:
                return False
            if family == "swap":
                target = abs(self.swap_t) ** 2
                return all(abs(r.constant - target) <= SWAP_TOL for r in report.per_rung)
            return True
        return Op(kind, run, check)


WORKLOADS = {cls.name: cls for cls in (VerifySuite, TransportN256, LadderPreservation)}
