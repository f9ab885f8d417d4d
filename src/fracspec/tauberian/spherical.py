"""Radial zero scans on the 2-D frequency lattice."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.fft import fftfreq, ifft2

from ..errors import DomainError
from .grid import GridFunction, dft, vanishing


@dataclass(frozen=True)
class SphericalZeroSet:
    """Radii whose whole lattice shell vanishes (see grid.vanishing)."""

    radii: tuple
    tol: float

    def __post_init__(self):
        if any(not r > 0 for r in self.radii):
            raise DomainError("radii must be positive")
        if list(self.radii) != sorted(self.radii):
            raise DomainError("radii must be sorted")


def centered_frequencies(m: int) -> np.ndarray:
    """Integer frequency coordinates with 0 centered (fftfreq * m)."""
    return fftfreq(m, d=1.0 / m)


def spherical_zero_radii(f: GridFunction) -> SphericalZeroSet:
    """Scan shells r - 1/2 <= |k| < r + 1/2 at radii r = 1, 2, 3, ...

    up to the largest lattice radius r_max; a radius is a zero when every
    coefficient on its shell vanishes (grid.vanishing).  The shell width
    is the lattice spacing, 1 in frequency units, so every scanned shell
    holds a lattice point and a zero always rests on evidence.  Proof: let K be the largest |coordinate|.  The axis points
    (k, 0), k = 0..K, have norms 0, 1, ..., K, and along (K, 0), (K, 1),
    ..., (K, K) the norm rises from K to the corner norm r_max = K sqrt(2)
    by steps of at most 1 (triangle inequality).  A rising sequence whose
    steps are at most 1 meets every half-open window [r - 1/2, r + 1/2)
    with r between its ends, so every shell with 1 <= r <= r_max does.
    """
    if f.n != 2:
        raise DomainError("spherical scans need a 2-D grid")
    zero, tol = vanishing(dft(f))
    zero = zero.ravel()
    freqs = centered_frequencies(f.m)
    kx, ky = np.meshgrid(freqs, freqs, indexing="ij")
    norms = np.sqrt(kx**2 + ky**2).ravel()
    r_max = float(norms.max())
    radii = []
    r = 1.0
    while r <= r_max:
        mask = (norms >= r - 0.5) & (norms < r + 0.5)
        if zero[mask].all():
            radii.append(r)
        r += 1.0
    return SphericalZeroSet(radii=tuple(radii), tol=float(tol))


def mask_spectrum_on_radii(
    f: GridFunction, radii, band: float
) -> GridFunction:
    """Zero the transform on all lattice points within band of any radius.

    Round-trip helper for building test functions whose radial zero set
    is known by construction; returns the function with the masked
    spectrum (inverse transform of the masked transform).
    """
    if f.n != 2:
        raise DomainError("spectral masking needs a 2-D grid")
    fhat = dft(f)
    freqs = centered_frequencies(f.m)
    kx, ky = np.meshgrid(freqs, freqs, indexing="ij")
    norms = np.sqrt(kx**2 + ky**2)
    mask = np.zeros_like(norms, dtype=bool)
    for r in radii:
        mask |= np.abs(norms - float(r)) <= band
    fhat = np.where(mask, 0.0, fhat)
    return GridFunction(ifft2(fhat, norm="ortho"))
