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


def default_tol(fhat: np.ndarray) -> float:
    peak = float(np.abs(fhat).max())
    return DEFAULT_TOL_FACTOR * peak if peak > 0 else 0.0


@dataclass(frozen=True)
class ZeroSet:
    """Frequency indices where the transform modulus falls below tol."""

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


def dft_zero_set(f: GridFunction) -> ZeroSet:
    """Thresholded zero set of the transform.

    tol is default_tol, 1e-9 times the peak modulus (scale-free).  The
    zero convention is strict inequality |fhat| < tol, so the identically
    zero function needs special handling: everything is a zero.
    """
    fhat = dft(f)
    mags = np.abs(fhat)
    tol = default_tol(fhat)
    if mags.max() == 0:
        idx = np.argwhere(np.ones_like(mags, dtype=bool))
    else:
        idx = np.argwhere(mags < tol)
    if f.n == 1:
        indices = tuple(int(i[0]) for i in idx)
    else:
        indices = tuple((int(i), int(j)) for i, j in idx)
    return ZeroSet(indices=indices, tol=float(tol), m=f.m, n=f.n)

