"""Truncated polarized models, restricted-Grassmannian membership, ladder experiments.

A polarized model is a finite slice of an orthogonally split space
``H = H_minus (+) H_plus``; basis vectors are labeled ``e_{-1}..e_{-n_minus}``
followed by ``e_{+1}..e_{+n_plus}``.  Membership of a subspace W in the
p-restricted Grassmannian is quantitative at a truncation: the report carries
both the two-condition form (conditioning of the projection to H_plus, p-norm
of the projection to H_minus) and the single-condition norm ``|P_W - P_+|_p``;
trends across a truncation ladder decide classes, single truncations never do.
A ladder's rungs nest by the one rule in ``operators``: each graph map is the
exact top-left block of the next, or :class:`LadderMismatch` is raised.

Exponent convention: p indexes the tangent class L_p of the p-restricted
Grassmannian, with p = 0 standing for the compact class K.  The precotangent
fiber is the predual of that class: L_{p*} (1/p + 1/p* = 1) for p > 1, where
reflexivity makes it equal to the cotangent fiber; K at p = 1, since K* = L_1;
none at p = 0, since K is not a dual space.  A finite truncation stores the
same matrix in every case, so the class is read from p and no covector carries
it.  :func:`membership_report` reads p as the tangent class, finite and >= 1;
:func:`preservation_experiment` takes p as the Schatten index at which it
measures the covector and its push, with the tail statistic at p = 0 and the
operator norm at p = inf, the norm of K, the predual of L_1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .atlas import ChartId, ChartPoint, Subspace, chart_forward
from .bundles import Covector, transition_cotangent
from .errors import (ChartDomainViolation, DimensionMismatch, LadderMismatch,
                     PredualUnavailable)
from .operators import (DecayProfile, Operator, _require_count, _require_growth, _require_int,
                        _require_nested, _schatten_norm_index, schatten_norm, singular_tail_sum,
                        singular_values)

_RANK_TOL = 1e-10


class PolarizedModel:
    """Finite truncation of a polarized space, H_minus and H_plus as coordinate blocks.

    The first ``n_minus`` ambient coordinates span H_minus and the last
    ``n_plus`` span H_plus, so a basis's components in each half are its row
    slices; :attr:`h_minus` and :attr:`h_plus` are the two coordinate blocks,
    built from their rows with no n x k matrix.
    """

    def __init__(self, n_minus: int, n_plus: int):
        n_minus, n_plus = _require_int(n_minus, "n_minus"), _require_int(n_plus, "n_plus")
        if n_minus < 1 or n_plus < 1:
            raise DimensionMismatch("both polarization blocks need dimension >= 1")
        self.n_minus = n_minus
        self.n_plus = n_plus

    @property
    def ambient_dim(self) -> int:
        return self.n_minus + self.n_plus

    @property
    def h_minus(self) -> Subspace:
        return Subspace._from_rows(np.arange(self.n_minus), self.ambient_dim)

    @property
    def h_plus(self) -> Subspace:
        return Subspace._from_rows(self.n_minus + np.arange(self.n_plus), self.ambient_dim)

    def _require_ambient(self, w: Subspace) -> None:
        if w.ambient_dim != self.ambient_dim:
            raise DimensionMismatch("subspace does not live in the model's ambient space")

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
    model._require_ambient(w)
    return w.dim - model.n_plus


def _plus_spectrum(w: Subspace, model: PolarizedModel) -> np.ndarray:
    """Singular values of the projection W -> H_plus above the rank threshold."""
    sv = singular_values(w.basis.matrix[model.n_minus:])
    return sv[sv > _RANK_TOL]


def virtual_dimension_by_rank(w: Subspace, model: PolarizedModel) -> int:
    """Same index computed as dim ker - dim coker of the projection by rank counts."""
    model._require_ambient(w)
    rank = _plus_spectrum(w, model).size
    kernel = w.dim - rank
    cokernel = model.n_plus - rank
    return kernel - cokernel


def membership_report(w: Subspace, model: PolarizedModel, p: float) -> RestrictedPoint:
    """Evaluate both restricted-membership criteria for a subspace in tangent class ``L_p``.

    Condition one: conditioning of the projection W -> H_plus (smallest
    singular value above the rank threshold, the finite Fredholm proxy).
    Condition two: Schatten p-norm of the projection W -> H_minus.
    Equivalent single condition: ``|P_W - P_+|_p``.  All three numbers are
    reported; ladders decide trends.

    No n x n matrix is formed.  P_W - P_+ = P_W P_- - P_W^perp P_+, and the two
    parts have orthogonal ranges (in W and W-perp) and co-ranges (in H_minus and
    H_plus), so |P_W - P_+|_p^p = |P_W P_-|_p^p + |P_W^perp P_+|_p^p.  By
    Halmos's two-subspace theorem (Trans. AMS 1969; Boettcher & Spitkovsky, LAA
    2010) the singular values of both parts strictly between 0 and 1 are the
    sines of the same principal angles between W and H_plus.  Their unit
    singular values number the dimensions of W cap H_minus and W-perp cap
    H_plus, which differ by the virtual dimension k - n_plus.  So the second
    part's p-th power sum is the first's less the virtual dimension, and

        |P_W - P_+|_p^p = 2 |minus_map|_p^p - virtual_dim,

    read from the singular values ``minus_norm`` already takes.  H_minus and
    H_plus are coordinate blocks, so ``minus_map = B_-^H B_W`` and
    ``plus_map = B_+^H B_W`` are row slices of B_W.
    """
    if _schatten_norm_index(p) == math.inf:
        # the identity below reads a power sum, which p = inf does not have
        raise ValueError("membership_report needs a finite schatten index, got inf")
    virtual_dim = virtual_dimension(w, model)
    minus = schatten_norm(w.basis.matrix[:model.n_minus], p)
    above = _plus_spectrum(w, model)
    power_sum = minus.power_sum
    # only an underflow reads 0.0, and only at virtual_dim 0, so the root rescales 2 |minus_map|^p
    return RestrictedPoint(
        w=w, p=minus.p, diff_norm=minus._root(2.0 * power_sum - virtual_dim, 2.0),
        virtual_dim=virtual_dim, plus_conditioning=float(above[-1]) if above.size else 0.0,
        minus_norm=minus._root(power_sum, 1.0))


def _ladder_weights(profile: DecayProfile, count: int, entropy) -> np.ndarray:
    """Decay values past the first at seeded phases, prefix-stable: this makes ladder rungs nest."""
    phases = np.random.default_rng(np.random.SeedSequence(entropy)).uniform(
        0.0, 2.0 * math.pi, count)
    return profile.values(count, skip=1) * np.exp(1j * phases)


def _graph_point(model: PolarizedModel, profile: DecayProfile, virtual_dim: int,
                 seed: int) -> tuple[Subspace, Operator]:
    """Graph-of-decay subspace with prescribed virtual dimension.

    Pairs positive mode ``e_{+k}`` with a negative mode at weight
    ``sigma_t e^{i theta_t}`` where sigma starts one step into the decay
    sequence; leading negative modes or dropped positive modes shift the
    virtual dimension.  Phases are drawn prefix-stably, so growing the model
    extends the graph matrix by exact top-left embedding.
    """
    shift, seed = _require_int(virtual_dim, "virtual_dim"), _require_int(seed, "seed")
    if shift > model.n_minus or -shift > model.n_plus:
        raise DimensionMismatch(
            f"virtual dimension {shift} unreachable in {model!r}")
    lead = max(0, shift)
    drop = max(0, -shift)
    pairs = min(model.n_plus - drop, model.n_minus - lead)
    weights = _ladder_weights(profile, pairs, seed)
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
    basis.setflags(write=False)  # so the subspace and the operator keep them, uncopied
    graph.setflags(write=False)
    return Subspace(basis), Operator(graph)


def generate_restricted_point(model: PolarizedModel, p: float, profile: DecayProfile,
                              virtual_dim: int = 0, seed: int = 0) -> RestrictedPoint:
    """Deterministic restricted point built as a graph of a decay operator."""
    w, _ = _graph_point(model, profile, virtual_dim, seed)
    return membership_report(w, model, p)


@dataclass(frozen=True, eq=False)
class TruncationLadder:
    """Coherently embedded family of restricted points across growing truncations."""

    profile: DecayProfile
    models: tuple[PolarizedModel, ...]
    points: tuple[RestrictedPoint, ...]

    def __iter__(self):
        return iter(zip(self.models, self.points))


def build_truncation_ladder(dims, p: float, profile: DecayProfile,
                            virtual_dim: int = 0, seed: int = 0) -> TruncationLadder:
    """Build a ladder from one decay profile; rungs must nest bit for bit."""
    dims = tuple((_require_int(nm, "dims entry"), _require_int(np_, "dims entry"))
                 for nm, np_ in dims)
    if len(dims) < 2:
        raise LadderMismatch("a ladder needs at least two rungs")
    _require_growth(dims)
    models = tuple(PolarizedModel(nm, np_) for nm, np_ in dims)
    rungs = [_graph_point(model, profile, virtual_dim, seed) for model in models]
    _require_nested([graph.matrix for _, graph in rungs])
    return TruncationLadder(profile=profile, models=models, points=tuple(
        membership_report(w, model, p) for (w, _), model in zip(rungs, models)))


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
    polarization; the base point always sits in the zero component.  A
    non-finite or zero t is refused with ``ValueError``; a t so large that the
    base point leaves the source chart's domain skips its rungs.
    """
    t = complex(t)
    if not cmath.isfinite(t):
        raise ValueError(f"swap family needs a finite t, got {t!r}")
    if t == 0:
        raise ValueError("swap family needs t != 0")

    def family(model: PolarizedModel, point: RestrictedPoint):
        if model.n_minus != model.n_plus:
            raise DimensionMismatch("swap family needs a square polarization")
        src = ChartId(model.h_plus, model.h_minus)
        scale = 1.0 / math.hypot(1.0, abs(t))  # |t|**2 would overflow past about 1e154
        # column k is scale (e_{+(k+1)} + t e_{-(k+1)}), set by index on the two blocks'
        # rows as the dense scale (B_+ + t B_-) rounds it: scale (1 + t 0) is scale, and
        # scale (0 + t 1) is scale (t + 0), whose + 0 turns a -0 part of t into +0
        cols = np.arange(model.n_plus)
        base = np.zeros((model.ambient_dim, model.n_plus), dtype=complex)
        base[model.n_minus + cols, cols] = scale
        base[cols, cols] = scale * (t + np.zeros(1, dtype=complex))
        base.setflags(write=False)  # so the subspace keeps it, uncopied
        return src, src.opposite(), Subspace(base)
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

    @property
    def constant(self) -> float:
        """``mu_prime_norm / mu_norm``; NaN when ``mu_norm`` is 0 or NaN."""
        if self.mu_norm == 0.0 or math.isnan(self.mu_norm):
            return math.nan
        return self.mu_prime_norm / self.mu_norm

    @property
    def skipped(self) -> bool:
        """A rung's constant is NaN exactly when it was skipped."""
        return math.isnan(self.constant)


@dataclass(frozen=True, eq=False)
class PreservationReport:
    """Across-dim trend of the cotangent transition constant on a ladder: ``spread`` over
    the top three rungs not skipped (``None`` below two), which passes at most 0.05."""

    p: float
    per_rung: tuple[RungResult, ...]

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(r.dim for r in self.per_rung)

    @property
    def spread(self) -> float | None:
        top = [r.constant for r in self.per_rung if not r.skipped][-3:]
        if len(top) < 2:
            return None
        mean = sum(top) / len(top)
        return (max(top) - min(top)) / mean if mean > 0 else math.inf

    @property
    def passed(self) -> bool:
        return self.spread is not None and self.spread <= 0.05

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
    """The Schatten index as a float: 0 (compact class, tail diagnostics), >= 1 or inf."""
    p = float(p)
    return p if p == 0.0 else _schatten_norm_index(p)


def _decay_form(k_f: int, k_g: int, profile: DecayProfile, seed: int) -> np.ndarray:
    """Diagonal covector matrix with prefix-stable phases and decaying weights."""
    m = min(k_f, k_g)
    mu = np.zeros((k_f, k_g), dtype=complex)
    mu[np.arange(m), np.arange(m)] = _ladder_weights(profile, m, [seed, 211])
    return mu


def _rung(model: PolarizedModel, point: RestrictedPoint, p: float, chart_family: ChartFamily,
          profile: DecayProfile, seed: int, tail_cutoff: int) -> RungResult:
    """One ladder rung; its chart point and covectors die on return."""
    dim = model.ambient_dim
    try:
        src, dst, base = chart_family(model, point)
        at = chart_forward(point.w if base is None else base, src)
        mu = _decay_form(src.f.dim, src.g.dim, profile, seed)
        pushed = transition_cotangent(Covector(at, Operator(mu)), dst)
    except ChartDomainViolation:
        return RungResult(dim, math.nan, math.nan)
    if p == 0.0:
        n_in = singular_tail_sum(mu, tail_cutoff)
        n_out = singular_tail_sum(pushed.form, tail_cutoff)
    else:
        n_in = schatten_norm(mu, p).value
        n_out = schatten_norm(pushed.form, p).value
    return RungResult(dim, n_in, n_out)


def preservation_experiment(ladder: TruncationLadder, p: float,
                            chart_family: ChartFamily,
                            seed: int = 0, tail_cutoff: int = 8) -> PreservationReport:
    """Measure the cotangent transition constant across a truncation ladder.

    Per rung: generate a covector of the ladder's decay profile at the family's
    base point, push it through the cotangent transition, and record the p-norm
    ratio (for p >= 1, the operator norm at p = inf) or the ratio of singular
    tails past ``tail_cutoff``, a nonnegative integer (p = 0).  Here p is the index
    the covector is measured at, not the tangent class: the predual of ``L_q``,
    q > 1, is measured at ``p = q*``, and K, the predual of ``L_1``, at
    ``p = inf``.  The report passes when the constant stabilizes
    (:class:`PreservationReport`).  Rungs whose charts fail the domain check are
    skipped.
    """
    p, tail_cutoff = _schatten_index(p), _require_count(tail_cutoff, "cutoff")
    seed = _require_int(seed, "seed")
    return PreservationReport(p=p, per_rung=tuple(
        _rung(model, point, p, chart_family, ladder.profile, seed, tail_cutoff)
        for model, point in ladder))


def precotangent_covector(at: ChartPoint, form, p: float) -> Covector:
    """Construct a precotangent fiber element for the tangent class ``L_p``.

    The fiber is the predual of ``L_p``: ``L_{p*}`` for ``p > 1``, where it
    coincides with the cotangent fiber by reflexivity, and the compact class at
    ``p = 1``.  The compact class itself (``p = 0``) has no predual and is
    refused with :class:`PredualUnavailable`.  At a finite truncation every
    class stores the same matrix, so the result is ``form`` at ``at``.
    """
    p = _schatten_index(p)
    if p == 0.0:
        raise PredualUnavailable(
            "compact-class fibers (p = 0) admit no predual; no precotangent covector exists")
    return Covector(at, form)
