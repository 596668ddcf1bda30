"""Dense complex operators: Schatten norms, oblique projections, decay generators.

All scalars are complex; real input is embedded.  Singular values always come
from an SVD of the matrix itself, never from eigenvalues of ``T^H T``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadProfile, DimensionMismatch, LadderMismatch, SplitFailure

DEFAULT_TOL_SPLIT = 1e-8

_EPS = np.finfo(float).eps


class Operator:
    """Immutable dense complex matrix."""

    def __init__(self, matrix):
        mat = np.array(matrix, dtype=complex, order="C")
        if mat.ndim != 2:
            raise ValueError(f"operator entries must form a 2-D array, got shape {mat.shape}")
        mat.setflags(write=False)
        self.matrix = mat

    @property
    def rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def cols(self) -> int:
        return self.matrix.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    def adjoint(self) -> "Operator":
        """Hermitian adjoint (conjugate transpose); used for orthogonal projectors."""
        return Operator(self.matrix.conj().T)

    def transpose(self) -> "Operator":
        """Bilinear dual with respect to the trace pairing (plain transpose)."""
        return Operator(self.matrix.T)

    def __repr__(self) -> str:
        return f"Operator({self.rows}x{self.cols})"


def as_matrix(value) -> np.ndarray:
    """Coerce an Operator, subspace basis, or array-like to a complex 2-D array."""
    if isinstance(value, Operator):
        return value.matrix
    basis = getattr(value, "basis", None)
    if isinstance(basis, Operator):
        return basis.matrix
    mat = np.asarray(value, dtype=complex)
    if mat.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {mat.shape}")
    return mat


@dataclass(frozen=True, eq=False)
class SchattenReport:
    """Singular value summary of an operator at a fixed Schatten index."""

    p: float
    value: float
    singular_values: np.ndarray

    def __post_init__(self):
        sv = np.asarray(self.singular_values, dtype=float)
        sv.setflags(write=False)
        object.__setattr__(self, "singular_values", sv)
        if sv.size and (np.any(sv < 0) or np.any(np.diff(sv) > 0)):
            raise ValueError("singular values must be nonnegative and nonincreasing")
        if self.p >= 1:
            recomputed = float(np.sum(sv ** self.p) ** (1.0 / self.p)) if sv.size else 0.0
            if abs(recomputed - self.value) > 1e-12 * (1.0 + abs(recomputed)):
                raise ValueError("reported value inconsistent with singular values")

    def __repr__(self) -> str:
        return f"SchattenReport(p={self.p}, value={self.value:.6g}, k={self.singular_values.size})"


@dataclass(frozen=True, eq=False)
class SingularTail:
    """Per-truncation tail sums of singular values beyond a cutoff index."""

    dims: tuple[int, ...]
    tail_norms: tuple[float, ...]
    cutoff: int

    def __post_init__(self):
        if len(self.dims) != len(self.tail_norms):
            raise ValueError("dims and tail_norms must have equal length")
        if any(b <= a for a, b in zip(self.dims, self.dims[1:])):
            raise ValueError("dims must be strictly increasing")
        if any(t < 0 for t in self.tail_norms):
            raise ValueError("tail norms must be nonnegative")


@dataclass(frozen=True, eq=False)
class OperatorLadder:
    """Increasing family of operators, each the exact top-left block of the next."""

    operators: tuple[Operator, ...]

    def __post_init__(self):
        ops = tuple(op if isinstance(op, Operator) else Operator(op) for op in self.operators)
        object.__setattr__(self, "operators", ops)
        if not ops:
            raise ValueError("ladder must contain at least one operator")
        shapes = [op.shape for op in ops]
        for (r0, c0), (r1, c1) in zip(shapes, shapes[1:]):
            if r1 < r0 or c1 < c0 or (r1, c1) == (r0, c0):
                raise LadderMismatch(f"ladder shapes must increase, got {shapes}")
        for small, large in zip(ops, ops[1:]):
            block = large.matrix[: small.rows, : small.cols]
            if not np.array_equal(small.matrix, block):
                raise LadderMismatch("smaller rung is not the exact top-left block of the next")

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(max(op.shape) for op in self.operators)


@dataclass(frozen=True)
class DecayProfile:
    """Prescribed singular-value decay: geometric ratio, power law, or zero."""

    kind: str
    param: float = 0.0

    @classmethod
    def geometric(cls, ratio: float) -> "DecayProfile":
        return cls("geometric", float(ratio))

    @classmethod
    def power(cls, exponent: float) -> "DecayProfile":
        return cls("power", float(exponent))

    @classmethod
    def zero(cls) -> "DecayProfile":
        return cls("zero")

    def validate(self) -> None:
        if self.kind == "geometric":
            if not 0.0 < self.param < 1.0:
                raise BadProfile(f"geometric ratio must satisfy 0 < r < 1, got {self.param}")
        elif self.kind == "power":
            if not self.param > 1.0:
                raise BadProfile(f"power exponent must exceed 1, got {self.param}")
        elif self.kind != "zero":
            raise BadProfile(f"unknown profile kind {self.kind!r}")

    def values(self, count: int, skip: int = 0) -> np.ndarray:
        """First ``count`` values of the decay sequence after dropping ``skip`` leading ones."""
        self.validate()
        k = np.arange(skip + 1, skip + count + 1, dtype=float)
        if self.kind == "geometric":
            return self.param ** (k - 1.0)
        if self.kind == "power":
            return k ** (-self.param)
        return np.zeros(count)


def singular_values(op) -> np.ndarray:
    """Nonincreasing singular values of an operator (SVD-based)."""
    mat = as_matrix(op)
    if min(mat.shape) == 0:
        return np.zeros(0)
    return np.linalg.svd(mat, compute_uv=False)


def operator_norm(op) -> float:
    """Largest singular value."""
    sv = singular_values(op)
    return float(sv[0]) if sv.size else 0.0


def schatten_norm(op, p: float) -> SchattenReport:
    """Schatten p-norm report of an operator.

    Parameters
    ----------
    op : Operator or array_like
        The operator whose singular spectrum is summarized.
    p : float
        Schatten index, finite and >= 1.

    Returns
    -------
    SchattenReport
        Holds ``p``, the norm ``(sum sigma_k^p)^(1/p)`` and the singular values.
    """
    p = float(p)
    if not (math.isfinite(p) and p >= 1.0):
        raise ValueError(f"schatten index must be finite and >= 1, got {p}")
    sv = singular_values(op)
    value = float(np.sum(sv ** p) ** (1.0 / p)) if sv.size else 0.0
    return SchattenReport(p=p, value=value, singular_values=sv)


def _complementary_block(f, g) -> np.ndarray:
    bf, bg = as_matrix(f), as_matrix(g)
    if bf.shape[0] != bg.shape[0]:
        raise DimensionMismatch("bases live in different ambient spaces")
    if bf.shape[1] + bg.shape[1] != bf.shape[0]:
        raise DimensionMismatch(
            f"dimensions {bf.shape[1]} + {bg.shape[1]} do not fill ambient {bf.shape[0]}")
    return np.hstack([bf, bg])


def split_conditioning(f, g) -> float:
    """Smallest-over-largest singular value of the joint basis block [B_f | B_g]."""
    block = _complementary_block(f, g)
    sv = np.linalg.svd(block, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0.0
    return float(sv[-1] / sv[0])


def oblique_projections(f, g, tol_split: float | None = None) -> tuple[Operator, Operator]:
    """Projections onto F along G and onto G along F for a complementary pair.

    Returns the ambient-space pair ``(onto_f, onto_g)`` with
    ``onto_f + onto_g = I``, ``onto_f^2 = onto_f``, range F and kernel G.
    Raises :class:`SplitFailure` when the joint basis block is numerically
    singular relative to its scale.
    """
    tol = DEFAULT_TOL_SPLIT if tol_split is None else float(tol_split)
    block = _complementary_block(f, g)
    n = block.shape[0]
    if n == 0:
        return Operator(np.zeros((0, 0))), Operator(np.zeros((0, 0)))
    sv = np.linalg.svd(block, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] <= tol * sv[0]:
        raise SplitFailure(
            f"subspaces are not complementary: conditioning {sv[-1] / max(sv[0], _EPS):.3e}")
    bf, bg = as_matrix(f), as_matrix(g)
    kf = bf.shape[1]
    inv = np.linalg.solve(block, np.eye(n))
    return Operator(bf @ inv[:kf]), Operator(bg @ inv[kf:])


def compactness_tail(family, cutoff: int) -> SingularTail:
    """Tail sums ``sum_{k > cutoff} sigma_k`` across a truncation ladder.

    A family with stabilizing tails behaves like a compact operator at the
    desk scale; linearly growing tails signal a non-compact family.
    """
    if not isinstance(family, OperatorLadder):
        family = OperatorLadder(tuple(family))
    cutoff = int(cutoff)
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    tails = []
    for op in family.operators:
        sv = singular_values(op)
        tails.append(float(np.sum(sv[cutoff:])))
    return SingularTail(dims=family.sizes, tail_norms=tuple(tails), cutoff=cutoff)


def haar_frame(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Column-orthonormal n x k frame drawn from the unitary-invariant ensemble."""
    if k > n:
        raise DimensionMismatch(f"frame needs k <= n, got {k} > {n}")
    gauss = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    q, r = np.linalg.qr(gauss)
    d = np.diagonal(r).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))


def decay_operator(rows: int, cols: int, profile: DecayProfile, seed: int) -> Operator:
    """Seeded operator with the exact singular-value profile ``profile``.

    The left/right singular frames are Haar-distributed given the seed, so
    repeated calls with equal arguments reproduce the entries bit for bit.
    """
    profile.validate()
    rows, cols = int(rows), int(cols)
    if rows < 0 or cols < 0:
        raise ValueError("rows and cols must be nonnegative")
    m = min(rows, cols)
    if m == 0:
        return Operator(np.zeros((rows, cols)))
    rng = np.random.default_rng(seed)
    sv = profile.values(m)
    left = haar_frame(rows, m, rng)
    right = haar_frame(cols, m, rng)
    return Operator((left * sv) @ right.conj().T)
