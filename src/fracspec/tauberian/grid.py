"""Budgets and the vanishing rule for transforms on finite torus lattices."""

from __future__ import annotations

import numpy as np

from ..errors import SizeError

DEFAULT_TOL_FACTOR = 1e-9
# Entries of one m x m array, the 2-D lattice of a radial scan or the
# translate matrix of a 1-D span check: m <= 2048, 64 MB complex.  The
# spectral benchmark's translate matrices have m = 64.
MAX_SQUARE_ENTRIES = 2**22


def check_square_budget(m: int, what: str) -> None:
    """Raise SizeError unless an m x m array fits in MAX_SQUARE_ENTRIES."""
    if m * m > MAX_SQUARE_ENTRIES:
        raise SizeError(f"{what} of {m}**2 entries exceeds the budget of {MAX_SQUARE_ENTRIES}")


def vanishing(fhat: np.ndarray, axis=None) -> tuple[np.ndarray, np.ndarray]:
    """(mask, tol): which transform coefficients vanish, and the tol used.

    tol is DEFAULT_TOL_FACTOR times the peak modulus (scale-free), over
    the whole array, or per row along axis.  A coefficient vanishes iff
    |fhat| < tol or |fhat| == 0: the second clause decides the zero
    function and a tiny one whose tol underflows to 0.
    """
    mags = np.abs(fhat)
    tol = DEFAULT_TOL_FACTOR * mags.max(axis=axis)
    cut = tol if axis is None else np.expand_dims(tol, axis)
    return (mags < cut) | (mags == 0), tol
