"""Functions on finite torus lattices and their transform zero sets."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.fft import fft, fft2

from ..errors import DomainError, SizeError

DEFAULT_TOL_FACTOR = 1e-9
# Entries of one m x m array, the 2-D lattice of a radial scan or the
# translate matrix of a 1-D span check: m <= 2048, 64 MB complex.  The
# spectral benchmark's translate matrices have m = 64.
MAX_SQUARE_ENTRIES = 2**22


def check_square_budget(m: int, what: str) -> None:
    """Raise SizeError unless an m x m array fits in MAX_SQUARE_ENTRIES."""
    if m * m > MAX_SQUARE_ENTRIES:
        raise SizeError(f"{what} of {m}**2 entries exceeds the budget of {MAX_SQUARE_ENTRIES}")


@dataclass(frozen=True)
class GridFunction:
    """Complex values on Z_m (shape (m,)) or Z_m x Z_m (shape (m, m))."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values)
        if vals.ndim not in (1, 2):
            raise DomainError("grid functions live on 1-D or 2-D lattices")
        if vals.ndim == 2 and vals.shape[0] != vals.shape[1]:
            raise DomainError("2-D grids must be square")
        if vals.shape[0] < 2:
            raise DomainError("need m >= 2")
        if not np.all(np.isfinite(vals.real)) or not np.all(np.isfinite(vals.imag)):
            raise DomainError("grid values must be finite")
        object.__setattr__(self, "values", np.asarray(vals, dtype=complex))

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.ndim


def dft(f: GridFunction) -> np.ndarray:
    """Unitary discrete transform (Parseval holds with constant 1)."""
    if f.n == 1:
        return fft(f.values, norm="ortho")
    return fft2(f.values, norm="ortho")


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


@dataclass(frozen=True)
class ZeroSet:
    """Frequency indices where the transform vanishes (see vanishing)."""

    indices: tuple
    tol: float
    m: int
    n: int

    def __post_init__(self):
        if self.tol < 0:
            raise DomainError("tol must be nonnegative")

    @property
    def count(self) -> int:
        return len(self.indices)
