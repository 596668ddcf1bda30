"""Independent reference routes: derivative oracles and dense projector norms.

Both derivative oracles re-evaluate the base transition itself and never touch
the closed-form fiber expression they are used to check.  The complex-step
oracle solves A' (a + b A) = c + d A from blocks the kernel never builds
(:func:`_transition_blocks`), on realified matrices (2n x 2n real blocks)
because the transition is holomorphic in the chart coordinate; the step then
lives in a fresh imaginary unit and there is no subtractive cancellation.

The projector routes form the n x n orthogonal projectors that the library
never forms, and take the norms of their difference directly.
"""

from __future__ import annotations

import numpy as np

from .. import atlas
from ..atlas import ChartId, ChartPoint, Subspace
from ..operators import Operator, schatten_norm
from ..restricted import PolarizedModel


def finite_difference_tangent(pt: ChartPoint, target: ChartId, direction: np.ndarray) -> np.ndarray:
    """Central finite difference of the base transition along ``direction``."""
    step = 1e-5
    coord = pt.coord.matrix
    forward = atlas.transition_base(
        ChartPoint(pt.chart, Operator(coord + step * direction)), target)
    backward = atlas.transition_base(
        ChartPoint(pt.chart, Operator(coord - step * direction)), target)
    return (forward.coord.matrix - backward.coord.matrix) / (2.0 * step)


def _realify(mat: np.ndarray) -> np.ndarray:
    return np.block([[mat.real, -mat.imag], [mat.imag, mat.real]])


def _derealify(mat: np.ndarray) -> np.ndarray:
    rows, cols = mat.shape[0] // 2, mat.shape[1] // 2
    return mat[:rows, :cols] + 1j * mat[rows:, :cols]


def _transition_blocks(src: ChartId, dst: ChartId) -> tuple[np.ndarray, ...]:
    """The blocks (a, b, c, d) of the destination's coordinate rows against the source bases."""
    return (dst._apply(0, src.f), dst._apply(0, src.g), dst._apply(1, src.f),
            dst._apply(1, src.g))


def complex_step_tangent(pt: ChartPoint, target: ChartId, direction: np.ndarray) -> np.ndarray:
    """Complex-step derivative of the base transition along ``direction``."""
    step = 1e-20
    a, b, c, d = _transition_blocks(pt.chart, target)
    a_r, b_r = _realify(a), _realify(b)
    c_r, d_r = _realify(c), _realify(d)
    coord = _realify(pt.coord.matrix) + 1j * step * _realify(direction)
    denom = a_r + b_r @ coord
    numer = c_r + d_r @ coord
    image = np.linalg.solve(denom.T, numer.T).T
    return _derealify(image.imag / step)


def _projection_matrix(subspace: Subspace) -> np.ndarray:
    basis = subspace.basis.matrix
    return basis @ basis.conj().T


def projector_diff_norm(w: Subspace, model: PolarizedModel, p: float) -> float:
    """|P_W - P_+|_p from the dense projectors; the reference for ``membership_report``."""
    return schatten_norm(_projection_matrix(w) - _projection_matrix(model.h_plus), p).value


def projector_distance(f: Subspace, g: Subspace) -> float:
    """|P_F - P_G|_2 from the dense projectors; the reference for ``Subspace.distance_to``."""
    return float(np.linalg.norm(_projection_matrix(f) - _projection_matrix(g), 2))
