"""Transforms of construction measures via the exact branching product.

The level-J measure puts mass N**-J at each level-J interval midpoint.
Its transform factorizes: a support point is start + tail with
start = sum over levels of a_k * (product of earlier ratios), so the
transform is the product over levels of the branch average
(1/N) * sum_k exp(-i xi a_k L_{j-1}), times the midpoint phase
exp(-i xi L_J / 2).  No FFT is involved anywhere here; grids would
alias, the product cannot.

The grid evaluation walks the flattened frequencies in blocks of BLOCK
and runs every level on a block before moving on.  A level holds its
phase arguments -xi a_k L_{j-1} as a real (N, block) array, one row per
branch, and averages cos and sin of them with branch_sum, which adds
the rows in the order numpy's mean over a contiguous axis of length N
uses: the identity 0 plus a pairwise sum (sequential below 4 terms,
four interleaved accumulators up to 64, halving above).  The order is
kept because the pinned artifact hashes hold the bytes the first
implementation, one `.mean(axis=-1)` per level of np.exp on an (F, N)
complex array, wrote; floating-point addition is not associative, so
any other order moves the last bits.  Adding N whole rows this way
costs a few vector adds, where numpy's reduction over a length-N last
axis restarts its loop for every frequency.

The real cos and sin rows give that implementation's bits.  Its
phases -1j * xi * a_k L_{j-1} have a real part of +0 or -0, and glibc's
cexp returns exactly (cos y, sin y) for such an argument, from the same
libm that numpy's float64 cos and sin call (the test suite checks
this).  The two routes' sin arguments differ at most in the sign of a
zero; a signed zero term changes a sum only when every term is zero,
and branch_sum's added identity 0 makes such a sum +0 either way.
Complex addition is componentwise, so summing the cos rows and the sin
rows in the same pairwise order gives the complex sum's two parts, and
cos and sin cost about 30 % less than the complex exp.

Convention note: measures are transformed without the (2pi)**(-n/2)
prefactor that function transforms carry elsewhere in the package, so
the value at xi = 0 is the total mass.
"""

from __future__ import annotations

import numpy as np

from ..errors import DomainError, SizeError
from ..cantor.params import CantorParams


# Frequencies per block of cantor_fourier_grid, small enough that the
# (N, BLOCK) temporaries stay in cache.  On 524,288 frequencies
# with N = 4 (2-core x86-64), blocks of 2048..16384 ran within 5 % of
# each other, and 1024 and 65536 were slower.
BLOCK = 4096
# Branch phases one grid evaluation may take: frequencies x depth x
# branches, each a cos and a sin.  The spectral benchmark's grid (524,288
# frequencies, depth 12, 4 branches) takes 2**24.6 of them in about 0.45 s
# of CPU time (2-core Intel Xeon, numpy 2.4.6).
MAX_GRID_PHASES = 2**26


def check_grid_budget(branches: int, depth: int, frequencies: int) -> None:
    """Raise unless `frequencies` transforms to `depth` levels of
    `branches` phases each fit in MAX_GRID_PHASES."""
    if frequencies * depth * branches > MAX_GRID_PHASES:
        raise SizeError(
            f"{frequencies} frequencies x {depth} levels x {branches} branches exceed "
            f"the budget of {MAX_GRID_PHASES} phases"
        )


def _pairwise_sum(rows: np.ndarray) -> np.ndarray:
    # numpy's pairwise_sum for complex data, counted in rows: fewer than 4
    # are added in order, up to 64 go into 4 accumulators (row i into
    # i % 4) combined as (a0 + a1) + (a2 + a3) before the leftover rows,
    # and more are split at half the rows, rounded down to a multiple of 4.
    n = len(rows)
    if n < 4:
        total = rows[0]
        for row in rows[1:]:
            total = total + row
        return total
    if n > 64:
        half = n // 2 - n // 2 % 4
        return _pairwise_sum(rows[:half]) + _pairwise_sum(rows[half:])
    tail = n - n % 4
    acc = rows[:4]
    for i in range(4, tail, 4):
        acc = acc + rows[i : i + 4]
    total = (acc[0] + acc[1]) + (acc[2] + acc[3])
    for row in rows[tail:]:
        total += row
    return total


def branch_sum(rows: np.ndarray) -> np.ndarray:
    """Sum over the first axis of an (N, ...) complex array, bit for bit
    equal to numpy's sum of the same numbers laid out along a contiguous
    last axis, so branch_sum(rows) / N equals rows.T.mean(axis=-1).

    numpy's reduction starts from the identity 0, which turns a sum of
    negative zeros into +0, then adds the pairwise sum.
    """
    return _pairwise_sum(rows) + 0.0


def cantor_fourier_grid(params: CantorParams, depth: int, xi) -> tuple[np.ndarray, float]:
    """Transform of the level-`depth` measure on an array of frequencies.

    Returns (values, length): values shaped like xi, and the level length
    L_depth.  The level-depth mass sits in intervals of length L_depth, so
    abs(xi) * length bounds the distance to the un-truncated limit at xi.
    Frequencies must be finite; a grid over MAX_GRID_PHASES raises
    SizeError.
    """
    if depth < 1:
        raise DomainError("depth must be >= 1")
    xi_arr = np.asarray(xi, dtype=float)
    check_grid_budget(params.branches, depth, xi_arr.size)
    # the extremes are finite exactly when every frequency is (min and max
    # propagate NaN), and they take no array of the grid's size
    if xi_arr.size and not (np.isfinite(xi_arr.min()) and np.isfinite(xi_arr.max())):
        raise DomainError("frequencies must be finite")
    scales = [float(length) for length in params.level_lengths(depth)]
    offsets = np.array([float(a) for a in params.offsets])
    shifts = [(offsets * scales[j - 1])[:, None] for j in range(1, depth + 1)]
    branches = len(offsets)
    flat = xi_arr.reshape(-1)
    values = np.ones(flat.shape, dtype=complex)
    # numpy multiplies a length-1 complex array on its scalar path, whose
    # rounding differs from the vector path, so a lone last frequency joins
    # the block before it; each value then matches the unblocked product.
    edges = [*range(0, max(flat.size - 1, 1), BLOCK), flat.size]
    # work arrays for every level of every block: fresh (N, block)
    # temporaries would be handed back to the system and faulted in again
    # at each level.  The two real ones take the bytes of one complex array.
    width = np.diff(edges).max()
    args = np.empty(branches * width)
    cosines = np.empty(branches * width)
    factors = np.empty(width, dtype=complex)
    for start, stop in zip(edges, edges[1:]):
        xi_block = flat[start:stop]
        block = values[start:stop]
        minus_xi = -xi_block
        t = args[: branches * len(xi_block)].reshape(branches, -1)
        c = cosines[: t.size].reshape(t.shape)
        factor = factors[: len(xi_block)]
        for shift in shifts:
            np.multiply(shift, minus_xi, out=t)
            factor.real = branch_sum(np.cos(t, out=c))
            factor.imag = branch_sum(np.sin(t, out=t))
            block *= factor / branches
        block *= np.exp(-0.5j * xi_block * scales[depth])
    return values.reshape(xi_arr.shape), scales[depth]
