"""Transforms of construction measures via the exact branching product.

The level-J measure puts mass N**-J at each level-J interval midpoint.
Its transform factorizes: a support point is start + tail with
start = sum over levels of a_k * (product of earlier ratios), so the
transform is the product over levels of the branch average
(1/N) * sum_k exp(-i xi a_k L_{j-1}), times the midpoint phase
exp(-i xi L_J / 2).  No FFT is involved anywhere here; grids would
alias, the product cannot.

Convention note: measures are transformed without the (2pi)**(-n/2)
prefactor that function transforms carry elsewhere in the package, so
the value at xi = 0 is the total mass.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ..errors import DomainError
from ..cantor.params import CantorParams


@dataclass(frozen=True)
class TransformValue:
    """One transform sample plus its certified truncation bound.

    error_bound dominates the distance to the un-truncated limit:
    the residual mass at level J sits in intervals of diameter L_J,
    so the phase error is at most |xi| * L_J.
    """

    value: complex
    error_bound: float


def level_scale_floats(params: CantorParams, depth: int) -> list[float]:
    """[L_0, L_1, ..., L_depth] with L_j = eta_1 * ... * eta_j, as floats."""
    out = [1.0]
    acc = Fraction(1)
    for j in range(1, depth + 1):
        acc *= params.eta_at(j)
        out.append(float(acc))
    return out


def cantor_fourier_grid(params: CantorParams, depth: int, xi) -> tuple[np.ndarray, np.ndarray]:
    """Transform of the level-`depth` measure on an array of frequencies.

    Returns (values, error_bounds), both shaped like xi.
    """
    if depth < 1:
        raise DomainError("depth must be >= 1")
    xi_arr = np.asarray(xi, dtype=float)
    scales = level_scale_floats(params, depth)
    offsets = np.array([float(a) for a in params.offsets])
    values = np.ones(xi_arr.shape, dtype=complex)
    for j in range(1, depth + 1):
        phases = np.exp(-1j * xi_arr[..., None] * (offsets * scales[j - 1]))
        values *= phases.mean(axis=-1)
    values *= np.exp(-0.5j * xi_arr * scales[depth])
    errors = np.abs(xi_arr) * scales[depth]
    return values, errors


def cantor_fourier(params: CantorParams, depth: int, xi: float) -> TransformValue:
    """Scalar convenience wrapper around cantor_fourier_grid."""
    values, errors = cantor_fourier_grid(params, depth, np.array([float(xi)]))
    return TransformValue(complex(values[0]), float(errors[0]))

