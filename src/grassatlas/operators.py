"""Dense complex operators: Schatten norms, oblique projections, decay generators.

All scalars are complex; real input is embedded.  Singular values always come
from an SVD of the matrix itself, never from eigenvalues of ``T^H T``.  Split
conditioning comes from SVDs of the cross block ``B_F^H B_G`` and of the
residual ``B_G - B_F (B_F^H B_G)``, never from a Gram matrix.  The pair
functions :func:`split_conditioning` and :func:`oblique_projections` take two
``Subspace`` points, whose bases are orthonormal by construction, and read
each one's shape and coordinate record before any matrix: a coordinate pair
has split conditioning exactly 1 or 0, and a complementary one 0/1 diagonal
oblique projections.

Arrays are kept or copied by one rule (:func:`_frozen`): an array that owns
its data, is C-contiguous, of the wanted dtype and already read-only is kept
as it is, and anything else is copied and the copy made read-only, so a
caller's writable array is never aliased.  A builder that wraps an array it
has just made freezes it first, and the array is not copied again.

A ladder of matrices nests by one rule (:func:`_require_nested`): each rung is
the exact top-left block of the next, once :func:`_require_growth` has found
that its shapes grow; a break raises :class:`LadderMismatch`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import index

import numpy as np

from .errors import BadProfile, DimensionMismatch, LadderMismatch, SplitFailure

DEFAULT_TOL_SPLIT = 1e-8


def _require_finite(mat: np.ndarray, what: str = "basis") -> None:
    # a NaN compares False against every tolerance, so the rank and
    # orthonormality checks would pass it
    if not np.isfinite(mat).all():
        raise ValueError(f"{what} has non-finite entries")


def _rows_overlap(rows_f: np.ndarray, rows_g: np.ndarray, n: int) -> bool:
    """Whether two sets of coordinate rows in an n-dimensional space share a row."""
    taken = np.zeros(n, dtype=bool)
    taken[rows_f] = True
    return bool(taken[rows_g].any())


def _frozen(value, dtype) -> np.ndarray:
    """``value`` as a read-only C-contiguous array of ``dtype`` that no caller can write.

    The one keep-or-copy rule: an ndarray that owns its data, is C-contiguous,
    of ``dtype`` and already read-only is kept; anything else is copied, and
    the copy is made read-only.  A kept array trusts its caller to hold no
    writable view taken before it was frozen, which numpy cannot see.
    """
    if (type(value) is np.ndarray and value.dtype == dtype and value.flags.owndata
            and value.flags.c_contiguous and not value.flags.writeable):
        return value
    arr = np.array(value, dtype=dtype, order="C")
    arr.setflags(write=False)
    return arr


class Operator:
    """Immutable dense complex matrix; its entries are kept or copied by :func:`_frozen`.

    A kept array stays immutable only while its caller holds no writable view of it.
    """

    def __init__(self, matrix):
        mat = _frozen(matrix, complex)
        if mat.ndim != 2:
            raise ValueError(f"operator entries must form a 2-D array, got shape {mat.shape}")
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

    def __repr__(self) -> str:
        return f"Operator({self.rows}x{self.cols})"


def as_matrix(value) -> np.ndarray:
    """Coerce an Operator or array-like to a complex 2-D array."""
    if isinstance(value, Operator):
        return value.matrix
    mat = np.asarray(value, dtype=complex)
    if mat.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {mat.shape}")
    return mat


@dataclass(frozen=True, eq=False)
class SchattenReport:
    """Singular values at a fixed Schatten index: the one place they become a norm."""

    p: float
    singular_values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", _schatten_norm_index(self.p))
        sv = _frozen(self.singular_values, float)
        object.__setattr__(self, "singular_values", sv)
        if sv.ndim != 1:
            raise ValueError(f"singular values must form a 1-D array, got shape {sv.shape}")
        if not (np.isfinite(sv).all() and (sv >= 0).all() and (np.diff(sv) <= 0).all()):
            raise ValueError("singular values must be finite, nonnegative and nonincreasing")

    @property
    def power_sum(self) -> float:
        """The p-th power sum ``sum sigma_k^p``, inf or 0.0 out of float range; none at p = inf."""
        if self.p == math.inf:
            raise ValueError("the Schatten power sum has no meaning at p = inf")
        with np.errstate(over="ignore", under="ignore"):
            return float(np.sum(self.singular_values ** self.p))

    @property
    def value(self) -> float:
        """The Schatten p-norm ``(sum sigma_k^p)^(1/p)``; sigma_max at p = inf, 0.0 if empty."""
        if self.p == math.inf:
            sv = self.singular_values
            return float(sv[0]) if sv.size else 0.0
        return self._root(self.power_sum, 1.0)

    def _root(self, powers: float, times: float) -> float:
        """``powers ** (1/p)`` for powers = times * power_sum, by sigma_max past the float range."""
        sv = self.singular_values
        if (powers == 0.0 or powers == math.inf) and sv.size and sv[0] > 0.0:
            with np.errstate(under="ignore"):
                powers = times * float(np.sum((sv / sv[0]) ** self.p))
            return float(sv[0]) * powers ** (1.0 / self.p)
        return powers ** (1.0 / self.p)

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


def _require_growth(shapes) -> None:
    """Raise :class:`LadderMismatch` unless each rung's shape grows and neither side shrinks."""
    for (r0, c0), (r1, c1) in zip(shapes, shapes[1:]):
        if r1 < r0 or c1 < c0 or (r1, c1) == (r0, c0):
            raise LadderMismatch(f"ladder shapes must increase, got {shapes}")


def _require_nested(mats) -> None:
    """Raise :class:`LadderMismatch` unless each matrix is the exact top-left block of the next."""
    for small, large in zip(mats, mats[1:]):
        if not np.array_equal(small, large[: small.shape[0], : small.shape[1]]):
            raise LadderMismatch("smaller rung is not the exact top-left block of the next")


@dataclass(frozen=True)
class DecayProfile:
    """Prescribed singular-value decay: geometric ratio, power law, or zero; checked when built."""

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

    def __post_init__(self):
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


def _require_int(value, name: str) -> int:
    """``value`` as an int; a float, even a whole one, or a bool is refused, never coerced."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _require_count(value, name: str) -> int:
    """``value`` as an int, once it is a nonnegative integer: a size or a tail cutoff."""
    value = _require_int(value, name)
    if value < 0:
        raise ValueError(f"{name} must be nonnegative, got {value}")
    return value


def singular_tail_sum(op, cutoff: int) -> float:
    """Sum of the singular values past the first ``cutoff``: ``sum_{k > cutoff} sigma_k``.

    ``cutoff`` must be a nonnegative integer; any other raises ``ValueError``.
    """
    return float(np.sum(singular_values(op)[_require_count(cutoff, "cutoff"):]))


def operator_norm(op) -> float:
    """Largest singular value."""
    sv = singular_values(op)
    return float(sv[0]) if sv.size else 0.0


def _schatten_norm_index(p: float) -> float:
    """The Schatten index as a float, once it is >= 1; ``math.inf`` is the operator norm."""
    if not 1.0 <= float(p) <= math.inf:
        raise ValueError(f"schatten index must be >= 1 or inf, got {p}")
    return float(p)


def schatten_norm(op, p: float) -> SchattenReport:
    """Schatten p-norm report of an operator.

    Parameters
    ----------
    op : Operator or array_like
        The operator whose singular spectrum is summarized.
    p : float
        Schatten index, >= 1; ``math.inf`` gives the operator norm.

    Returns
    -------
    SchattenReport
        Holds ``p`` and the singular values, from which it derives the norm
        ``(sum sigma_k^p)^(1/p)``, or sigma_max at p = inf.
    """
    return SchattenReport(p=p, singular_values=singular_values(op))


def split_conditioning(f, g) -> float:
    """Smallest-over-largest singular value of the joint basis block [B_f | B_g].

    ``f`` and ``g`` are ``Subspace`` points, so their bases are orthonormal.
    With dim F + dim G = n, [B_f | B_g] has singular values sqrt(1 +- sigma_j)
    of the cross block X = B_f^H B_g, and ones, so with s = |X|_2 =
    cos(theta_min), theta_min the least principal angle between F and G
    (Bjorck & Golub, Math. Comp. 1973), the value is

        sqrt((1 - s)/(1 + s)) = tan(theta_min/2) = sin(theta_min)/(1 + s).

    Up to s = 1/sqrt(2) the first form is taken from the SVD of X.  Past it
    1 - s loses digits, so sin(theta_min) is read as the smallest singular value
    of the residual B_g - B_f X of G off F, or of B_f - B_g X^H when F is the
    thinner side (Knyazev & Argentati, SISC 2002).  An empty side gives 1.0, an
    empty space 0.0.  Two coordinate subspaces have principal angles 0 and pi/2
    only, so their value is exactly 1.0 when their rows are disjoint and 0.0
    when they share one, read from their records with no product and no SVD.
    """
    n, kf, kg = f.ambient_dim, f.dim, g.dim
    if n != g.ambient_dim:
        raise DimensionMismatch("bases live in different ambient spaces")
    if kf + kg != n:
        raise DimensionMismatch(f"dimensions {kf} + {kg} do not fill ambient {n}")
    if n == 0:
        return 0.0
    if kf == 0 or kg == 0:
        return 1.0
    rows_f, rows_g = f._coord_rows, g._coord_rows
    if rows_f is not None and rows_g is not None:
        return 0.0 if _rows_overlap(rows_f, rows_g, n) else 1.0
    bf, bg = f.basis.matrix, g.basis.matrix
    cross = bf.conj().T @ bg
    s = float(np.linalg.svd(cross, compute_uv=False)[0])
    if s <= math.sqrt(0.5):
        return math.sqrt((1.0 - s) / (1.0 + s))
    residual = bf - bg @ cross.conj().T if kf < kg else bg - bf @ cross
    return float(np.linalg.svd(residual, compute_uv=False)[-1]) / (1.0 + s)


def oblique_projections(f, g) -> tuple[Operator, Operator]:
    """Projections onto F along G and onto G along F, for complementary ``Subspace`` points.

    Returns the ambient-space pair ``(onto_f, onto_g)`` with
    ``onto_f + onto_g = I``, ``onto_f^2 = onto_f``, range F and kernel G.
    Raises :class:`SplitFailure` when :func:`split_conditioning` is at or below
    ``DEFAULT_TOL_SPLIT``.  A complementary pair of coordinate subspaces is
    exact: each projection is the 0/1 diagonal over its own coordinates, with
    no solve.
    """
    cond = split_conditioning(f, g)  # also rejects pairs that do not fill the space
    n, kf = f.ambient_dim, f.dim
    if n == 0:
        return Operator(np.zeros((0, 0))), Operator(np.zeros((0, 0)))
    if not cond > DEFAULT_TOL_SPLIT:
        raise SplitFailure(f"subspaces are not complementary: conditioning {cond:.3e}",
                           conditioning=cond, tol=DEFAULT_TOL_SPLIT)
    rows_f = f._coord_rows
    if rows_f is not None and g._coord_rows is not None:
        # [B_F | B_G] is a permutation; the conditioning check left the rows disjoint
        diag = np.zeros(n, dtype=complex)
        diag[rows_f] = 1.0
        onto_f, onto_g = np.diag(diag), np.diag(1.0 - diag)
        onto_f.setflags(write=False)
        onto_g.setflags(write=False)
        return Operator(onto_f), Operator(onto_g)
    bf, bg = f.basis.matrix, g.basis.matrix
    inv = np.linalg.solve(np.hstack([bf, bg]), np.eye(n))
    onto_f, onto_g = bf @ inv[:kf], bg @ inv[kf:]
    onto_f.setflags(write=False)  # so each operator wraps its product, uncopied
    onto_g.setflags(write=False)
    return Operator(onto_f), Operator(onto_g)


def compactness_tail(family, cutoff: int) -> SingularTail:
    """Tail sums ``sum_{k > cutoff} sigma_k`` across a truncation ladder.

    Each rung is labeled by its larger side; a ladder whose labels do not
    strictly increase (a 2 x 3 block of a 3 x 3 rung) is refused before any SVD.
    Stabilizing tails behave like a compact operator at the desk scale;
    linearly growing tails signal a non-compact family.
    """
    mats = [as_matrix(op) for op in family]
    if not mats:
        raise ValueError("ladder must contain at least one operator")
    _require_growth([mat.shape for mat in mats])
    sizes = tuple(max(mat.shape) for mat in mats)
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise LadderMismatch(f"ladder sizes must strictly increase, got {sizes}")
    _require_nested(mats)
    cutoff = _require_count(cutoff, "cutoff")
    tails = tuple(singular_tail_sum(mat, cutoff) for mat in mats)
    return SingularTail(dims=sizes, tail_norms=tails, cutoff=cutoff)


def haar_frame(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Column-orthonormal n x k frame drawn from the unitary-invariant ensemble; n, k ints >= 0."""
    n, k = _require_count(n, "n"), _require_count(k, "k")
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
    rows, cols = _require_count(rows, "rows"), _require_count(cols, "cols")
    seed = _require_int(seed, "seed")
    m = min(rows, cols)
    if m == 0:
        return Operator(np.zeros((rows, cols)))
    rng = np.random.default_rng(seed)
    sv = profile.values(m)
    left = haar_frame(rows, m, rng)
    right = haar_frame(cols, m, rng)
    return Operator((left * sv) @ right.conj().T)
