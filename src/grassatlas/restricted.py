"""Truncated polarized models, restricted-Grassmannian membership, ladder experiments.

A polarized model is a finite slice of an orthogonally split space
``H = H_minus (+) H_plus``; basis vectors are labeled ``e_{-1}..e_{-n_minus}``
followed by ``e_{+1}..e_{+n_plus}``.  Membership of a subspace W in the
p-restricted Grassmannian is quantitative at a truncation: the report carries
both the two-condition form (conditioning of the projection to H_plus, p-norm
of the projection to H_minus) and the single-condition norm ``|P_W - P_+|_p``;
trends across a truncation ladder decide classes, single truncations never do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .atlas import ChartId, ChartPoint, Subspace, chart_forward
from .bundles import Covector, transition_cotangent
from .errors import (ChartDomainViolation, DimensionMismatch, LadderMismatch,
                     PredualUnavailable)
from .operators import (DecayProfile, Operator, OperatorLadder, schatten_norm,
                        singular_tail_sum, singular_values)

_RANK_TOL = 1e-10


class PolarizedModel:
    """Finite truncation of a polarized space with projectors onto each half."""

    def __init__(self, n_minus: int, n_plus: int):
        n_minus, n_plus = int(n_minus), int(n_plus)
        if n_minus < 1 or n_plus < 1:
            raise DimensionMismatch("both polarization blocks need dimension >= 1")
        self.n_minus = n_minus
        self.n_plus = n_plus

    @property
    def ambient_dim(self) -> int:
        return self.n_minus + self.n_plus

    def mode_index(self, mode: int) -> int:
        """Ambient index of basis mode ``e_mode`` (negative or positive, never 0)."""
        if mode == 0:
            raise ValueError("mode labels are nonzero integers")
        if mode < 0:
            if -mode > self.n_minus:
                raise DimensionMismatch(f"mode {mode} outside the minus block")
            return -mode - 1
        if mode > self.n_plus:
            raise DimensionMismatch(f"mode {mode} outside the plus block")
        return self.n_minus + mode - 1

    def basis_vector(self, mode: int) -> np.ndarray:
        vec = np.zeros(self.ambient_dim, dtype=complex)
        vec[self.mode_index(mode)] = 1.0
        return vec

    @cached_property
    def h_minus(self) -> Subspace:
        eye = np.eye(self.ambient_dim)
        return Subspace(eye[:, : self.n_minus])

    @cached_property
    def h_plus(self) -> Subspace:
        eye = np.eye(self.ambient_dim)
        return Subspace(eye[:, self.n_minus:])

    @cached_property
    def p_minus(self) -> Operator:
        return self.h_minus.projector

    @cached_property
    def p_plus(self) -> Operator:
        return self.h_plus.projector

    def __repr__(self) -> str:
        return f"PolarizedModel(n_minus={self.n_minus}, n_plus={self.n_plus})"


@dataclass(frozen=True, eq=False)
class RestrictedPoint:
    """Quantitative membership report of a subspace against a polarized model."""

    w: Subspace
    p: float
    diff_norm: float
    virtual_dim: int
    plus_conditioning: float
    minus_norm: float


def virtual_dimension(w: Subspace, model: PolarizedModel) -> int:
    """Index proxy of the projection W -> H_plus: at a truncation, dim W - n_plus."""
    if w.ambient_dim != model.ambient_dim:
        raise DimensionMismatch("subspace does not live in the model's ambient space")
    return w.dim - model.n_plus


def virtual_dimension_by_rank(w: Subspace, model: PolarizedModel) -> int:
    """Same index computed as dim ker - dim coker of the projection by rank counts."""
    if w.ambient_dim != model.ambient_dim:
        raise DimensionMismatch("subspace does not live in the model's ambient space")
    plus_map = model.h_plus.basis.matrix.conj().T @ w.basis.matrix
    sv = singular_values(plus_map)
    rank = int(np.sum(sv > _RANK_TOL))
    kernel = w.dim - rank
    cokernel = model.n_plus - rank
    return kernel - cokernel


def membership_report(w: Subspace, model: PolarizedModel, p: float) -> RestrictedPoint:
    """Evaluate both restricted-membership criteria for a subspace.

    Condition one: conditioning of the projection W -> H_plus (smallest
    singular value above the rank threshold, the finite Fredholm proxy).
    Condition two: Schatten p-norm of the projection W -> H_minus.
    Equivalent single condition: ``|P_W - P_+|_p``.  All three numbers are
    reported; ladders decide trends.
    """
    if w.ambient_dim != model.ambient_dim:
        raise DimensionMismatch("subspace does not live in the model's ambient space")
    diff = w.projector.matrix - model.p_plus.matrix
    diff_norm = schatten_norm(diff, p).value
    plus_map = model.h_plus.basis.matrix.conj().T @ w.basis.matrix
    minus_map = model.h_minus.basis.matrix.conj().T @ w.basis.matrix
    sv = singular_values(plus_map)
    above = sv[sv > _RANK_TOL]
    plus_conditioning = float(above[-1]) if above.size else 0.0
    minus_norm = schatten_norm(minus_map, p).value
    return RestrictedPoint(
        w=w, p=float(p), diff_norm=diff_norm,
        virtual_dim=virtual_dimension(w, model),
        plus_conditioning=plus_conditioning, minus_norm=minus_norm)


def _graph_point(model: PolarizedModel, profile: DecayProfile, virtual_dim: int,
                 seed: int) -> tuple[Subspace, Operator]:
    """Graph-of-decay subspace with prescribed virtual dimension.

    Pairs positive mode ``e_{+k}`` with a negative mode at weight
    ``sigma_t e^{i theta_t}`` where sigma starts one step into the decay
    sequence; leading negative modes or dropped positive modes shift the
    virtual dimension.  Phases are drawn prefix-stably, so growing the model
    extends the graph matrix by exact top-left embedding.
    """
    profile.validate()
    shift = int(virtual_dim)
    if shift > model.n_minus or -shift > model.n_plus:
        raise DimensionMismatch(
            f"virtual dimension {shift} unreachable in {model!r}")
    lead = max(0, shift)
    drop = max(0, -shift)
    pairs = min(model.n_plus - drop, model.n_minus - lead)
    weights = np.zeros(0, dtype=complex)
    if pairs > 0:
        sigma = profile.values(pairs, skip=1)
        phases = np.random.default_rng(np.random.SeedSequence(seed)).uniform(
            0.0, 2.0 * math.pi, pairs)
        weights = sigma * np.exp(1j * phases)
    kept = model.n_plus - drop
    # columns: e_{-1}..e_{-lead}, then e_{+(drop+1)}..e_{+n_plus}, the first
    # ``pairs`` of them tilted toward e_{-(lead+1)}.. and renormalized
    basis = np.zeros((model.ambient_dim, lead + kept), dtype=complex)
    basis[np.arange(lead), np.arange(lead)] = 1.0
    basis[model.n_minus + drop + np.arange(kept), lead + np.arange(kept)] = 1.0
    t = np.arange(pairs)
    # hypot (not the vectorized complex abs) and += (which turns -0 weights into +0)
    # keep every entry bit-identical to normalizing each column on its own
    scale = 1.0 / np.sqrt(1.0 + np.hypot(weights.real, weights.imag) ** 2)
    basis[model.n_minus + drop + t, lead + t] = scale
    basis[lead + t, lead + t] += weights * scale
    graph = np.zeros((model.n_minus, model.n_plus), dtype=complex)
    graph[lead + t, drop + t] = weights
    return Subspace(basis), Operator(graph)


def generate_restricted_point(model: PolarizedModel, p: float, profile: DecayProfile,
                              virtual_dim: int = 0, seed: int = 0) -> RestrictedPoint:
    """Deterministic restricted point built as a graph of a decay operator."""
    w, _ = _graph_point(model, profile, virtual_dim, seed)
    return membership_report(w, model, p)


@dataclass(frozen=True, eq=False)
class TruncationLadder:
    """Coherently embedded family of restricted points across growing truncations."""

    dims: tuple[tuple[int, int], ...]
    p: float
    profile: DecayProfile
    virtual_dim: int
    seed: int
    models: tuple[PolarizedModel, ...]
    points: tuple[RestrictedPoint, ...]
    graph_maps: tuple[Operator, ...]

    def __iter__(self):
        return iter(zip(self.models, self.points))

    @property
    def diff_norms(self) -> tuple[float, ...]:
        return tuple(pt.diff_norm for pt in self.points)


def build_truncation_ladder(dims, p: float, profile: DecayProfile,
                            virtual_dim: int = 0, seed: int = 0) -> TruncationLadder:
    """Build a ladder from one decay profile; rungs must nest bit for bit."""
    dims = tuple((int(nm), int(np_)) for nm, np_ in dims)
    if len(dims) < 2:
        raise LadderMismatch("a ladder needs at least two rungs")
    for (m0, p0), (m1, p1) in zip(dims, dims[1:]):
        if m1 < m0 or p1 < p0 or (m0, p0) == (m1, p1):
            raise LadderMismatch(f"ladder dims must increase, got {dims}")
    models = tuple(PolarizedModel(nm, np_) for nm, np_ in dims)
    points, graphs = [], []
    for model in models:
        w, graph = _graph_point(model, profile, virtual_dim, seed)
        points.append(membership_report(w, model, p))
        graphs.append(graph)
    # raises LadderMismatch unless each graph is the exact top-left block of the next
    nested = OperatorLadder(tuple(graphs))
    return TruncationLadder(dims=dims, p=float(p), profile=profile,
                            virtual_dim=int(virtual_dim), seed=int(seed),
                            models=models, points=tuple(points), graph_maps=nested.operators)


# ---------------------------------------------------------------------------
# chart families for ladder experiments

ChartFamily = Callable[[PolarizedModel, RestrictedPoint],
                       tuple[ChartId, ChartId, Subspace | None]]


def identity_chart_family() -> ChartFamily:
    """Source and target chart coincide; the transition constant is exactly one."""
    def family(model: PolarizedModel, point: RestrictedPoint):
        center, _ = _graph_point(model, DecayProfile.zero(), point.virtual_dim, 0)
        chart = ChartId.hilbert(center)
        return chart, chart, None
    return family


def swap_chart_family(t: complex) -> ChartFamily:
    """Swap the two polarization blocks at the scaled-diagonal base point.

    Blockwise copy of the one-dimensional swap chart: at the base point with
    coordinate ``t I`` the cotangent transition is multiplication by ``-t^2``,
    so the measured constant is ``|t|^2`` at every rung.  Needs a square
    polarization; the base point always sits in the zero component.
    """
    t = complex(t)
    if t == 0:
        raise ValueError("swap family needs t != 0")

    def family(model: PolarizedModel, point: RestrictedPoint):
        if model.n_minus != model.n_plus:
            raise DimensionMismatch("swap family needs a square polarization")
        src = ChartId(model.h_plus, model.h_minus)
        dst = ChartId(model.h_minus, model.h_plus)
        scale = 1.0 / math.sqrt(1.0 + abs(t) ** 2)
        cols = [scale * (model.basis_vector(k + 1) + t * model.basis_vector(-(k + 1)))
                for k in range(model.n_plus)]
        return src, dst, Subspace(np.column_stack(cols))
    return family


def graph_chart_family(rate: float, seed: int) -> ChartFamily:
    """Seeded non-trivial chart change: target chart centered on a decay graph."""
    profile = DecayProfile.geometric(rate)

    def family(model: PolarizedModel, point: RestrictedPoint):
        center, _ = _graph_point(model, DecayProfile.zero(), point.virtual_dim, 0)
        src = ChartId.hilbert(center)
        v, _ = _graph_point(model, profile, point.virtual_dim, seed)
        dst = ChartId.hilbert(v)
        return src, dst, None
    return family


@dataclass(frozen=True, eq=False)
class RungResult:
    dim: int
    mu_norm: float
    mu_prime_norm: float
    constant: float
    skipped: bool = False


@dataclass(frozen=True, eq=False)
class PreservationReport:
    """Across-dim trend of the cotangent transition constant on a ladder."""

    p: float
    dims: tuple[int, ...]
    per_rung: tuple[RungResult, ...]
    spread: float | None
    passed: bool

    def to_dict(self) -> dict:
        rungs = []
        for r in self.per_rung:
            entry = {"dim": r.dim, "mu_norm": r.mu_norm,
                     "mu_prime_norm": r.mu_prime_norm, "constant": r.constant}
            if r.skipped:
                entry["skipped"] = True
            rungs.append(entry)
        return {"p": self.p, "dims": list(self.dims), "per_rung": rungs,
                "spread": self.spread, "pass": self.passed}


def _schatten_index(p: float) -> float:
    """The Schatten index as a float: 0 (compact class, tail diagnostics) or finite >= 1."""
    if not (float(p) == 0.0 or 1.0 <= float(p) < math.inf):
        raise ValueError(f"schatten index must be 0 or finite and >= 1, got {p}")
    return float(p)


def _decay_form(k_f: int, k_g: int, profile: DecayProfile, seed: int) -> np.ndarray:
    """Diagonal covector matrix with prefix-stable phases and decaying weights."""
    m = min(k_f, k_g)
    mu = np.zeros((k_f, k_g), dtype=complex)
    if m:
        sigma = profile.values(m, skip=1)
        phases = np.random.default_rng(np.random.SeedSequence([seed, 211])).uniform(
            0.0, 2.0 * math.pi, m)
        mu[np.arange(m), np.arange(m)] = sigma * np.exp(1j * phases)
    return mu


def _rung(model: PolarizedModel, point: RestrictedPoint, p: float, chart_family: ChartFamily,
          profile: DecayProfile, seed: int, tail_cutoff: int) -> RungResult:
    """One ladder rung; its chart point, covector and memoized transition die on return."""
    dim = model.ambient_dim
    try:
        src, dst, base = chart_family(model, point)
        at = chart_forward(point.w if base is None else base, src)
        mu = _decay_form(src.f.dim, src.g.dim, profile, seed)
        tag = "trace_class_emulated" if p == 1.0 else "unrestricted"
        cov = Covector(at, Operator(mu), class_tag=tag,
                       metadata={"p": p, "profile": profile.kind})
        pushed = transition_cotangent(cov, dst)
    except ChartDomainViolation:
        return RungResult(dim, math.nan, math.nan, math.nan, skipped=True)
    if p == 0.0:
        n_in = singular_tail_sum(mu, tail_cutoff)
        n_out = singular_tail_sum(pushed.form, tail_cutoff)
    else:
        n_in = schatten_norm(mu, p).value
        n_out = schatten_norm(pushed.form, p).value
    if n_in == 0.0:
        return RungResult(dim, n_in, n_out, math.nan, skipped=True)
    return RungResult(dim, n_in, n_out, n_out / n_in)


def preservation_experiment(ladder: TruncationLadder, p: float,
                            chart_family: ChartFamily,
                            seed: int = 0, tail_cutoff: int = 8) -> PreservationReport:
    """Measure the cotangent transition constant across a truncation ladder.

    Per rung: generate a covector of the ladder's decay profile at the family's
    base point, push it through the cotangent transition, and record the p-norm
    ratio (for p >= 1) or the singular-tail ratio (p = 0).  The experiment passes
    when the constant stabilizes: relative spread over the top three rungs at
    most 0.05.  Rungs whose charts fail the domain check are skipped.
    """
    p = _schatten_index(p)
    rungs = [_rung(model, point, p, chart_family, ladder.profile, seed, tail_cutoff)
             for model, point in ladder]
    constants = [r.constant for r in rungs if not r.skipped]
    top = constants[-3:]
    if len(top) < 2:
        spread, passed = None, False
    else:
        mean = sum(top) / len(top)
        spread = (max(top) - min(top)) / mean if mean > 0 else math.inf
        passed = spread <= 0.05
    return PreservationReport(p=p, dims=tuple(r.dim for r in rungs),
                              per_rung=tuple(rungs), spread=spread, passed=passed)


def precotangent_covector(at: ChartPoint, form, p: float,
                          profile: DecayProfile | None = None) -> Covector:
    """Construct a precotangent fiber element for Schatten index ``p``.

    The compact class has no predual, so ``p = 0`` is refused with
    :class:`PredualUnavailable`.  ``p = 1`` yields a trace-class-emulated
    covector; for ``p > 1`` the precotangent fiber coincides with the
    cotangent fiber by reflexivity and the plain tag is used.
    """
    p = _schatten_index(p)
    if p == 0.0:
        raise PredualUnavailable(
            "compact-class fibers (p = 0) admit no predual; no precotangent covector exists")
    metadata = {"p": p}
    if profile is not None:
        metadata["profile"] = {"kind": profile.kind, "param": profile.param}
    tag = "trace_class_emulated" if p == 1.0 else "unrestricted"
    return Covector(at, form if isinstance(form, Operator) else Operator(form),
                    class_tag=tag, metadata=metadata)
