"""Independent derivative oracles for the tangent fiber map.

Both oracles re-evaluate the base transition itself and never touch the
closed-form fiber expression they are used to check.  The complex-step oracle
runs on realified matrices (2n x 2n real blocks) because the transition is
holomorphic in the chart coordinate; the step then lives in a fresh imaginary
unit and there is no subtractive cancellation.
"""

from __future__ import annotations

import numpy as np

from .. import atlas
from ..atlas import ChartId, ChartPoint
from ..operators import Operator


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


def complex_step_tangent(pt: ChartPoint, target: ChartId, direction: np.ndarray) -> np.ndarray:
    """Complex-step derivative of the base transition along ``direction``."""
    step = 1e-20
    a, b, c, d = atlas._transition_blocks(pt.chart, target)
    a_r, b_r = _realify(a), _realify(b)
    c_r, d_r = _realify(c), _realify(d)
    coord = _realify(pt.coord.matrix) + 1j * step * _realify(direction)
    denom = a_r + b_r @ coord
    numer = c_r + d_r @ coord
    image = np.linalg.solve(denom.T, numer.T).T
    return _derealify(image.imag / step)
