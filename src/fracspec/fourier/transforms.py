"""Transforms of construction measures via the exact branching product.

The level-J measure puts mass N**-J at each level-J interval midpoint.
Its transform factorizes: a support point is start + tail with
start = sum over levels of a_k * (product of earlier ratios), so the
transform is the product over levels of the branch average
(1/N) * sum_k exp(-i xi a_k L_{j-1}), times the midpoint phase
exp(-i xi L_J / 2).  No FFT is involved anywhere here; grids would
alias, the product cannot.

The grid evaluation walks the flattened frequencies in blocks of BLOCK
and runs every level on a block before moving on, so its temporaries
are (BLOCK, N) instead of (F, N) for F frequencies.  Each element goes
through the same operations as in a plain loop over levels on the
whole grid, and the values agree with that loop bit for bit.

Convention note: measures are transformed without the (2pi)**(-n/2)
prefactor that function transforms carry elsewhere in the package, so
the value at xi = 0 is the total mass.
"""

from __future__ import annotations

import numpy as np

from ..errors import DomainError
from ..cantor.params import CantorParams


# Frequencies per block of cantor_fourier_grid, small enough that the
# (BLOCK, N) complex temporaries stay in cache.  On 524,288 frequencies
# with N = 4 (2-core x86-64), blocks of 2048..16384 ran within 5 % of
# each other, and 1024 and 65536 were slower.
BLOCK = 4096


def cantor_fourier_grid(params: CantorParams, depth: int, xi) -> tuple[np.ndarray, np.ndarray]:
    """Transform of the level-`depth` measure on an array of frequencies.

    Returns (values, error_bounds), both shaped like xi.  An error bound
    dominates the distance to the un-truncated limit: the level-depth mass
    sits in intervals of length L_depth, so the phase error is at most
    |xi| * L_depth.
    """
    if depth < 1:
        raise DomainError("depth must be >= 1")
    xi_arr = np.asarray(xi, dtype=float)
    scales = [float(length) for length in params.level_lengths(depth)]
    offsets = np.array([float(a) for a in params.offsets])
    shifts = [offsets * scales[j - 1] for j in range(1, depth + 1)]
    flat = xi_arr.reshape(-1)
    values = np.ones(flat.shape, dtype=complex)
    # numpy multiplies a length-1 complex array on its scalar path, whose
    # rounding differs from the vector path, so a lone last frequency joins
    # the block before it; each value then matches the unblocked product.
    edges = [*range(0, max(flat.size - 1, 1), BLOCK), flat.size]
    for start, stop in zip(edges, edges[1:]):
        xi_block = flat[start:stop]
        block = values[start:stop]
        arg = -1j * xi_block[:, None]
        for shift in shifts:
            block *= np.exp(arg * shift).mean(axis=-1)
        block *= np.exp(-0.5j * xi_block * scales[depth])
    errors = np.abs(xi_arr) * scales[depth]
    return values.reshape(xi_arr.shape), errors
