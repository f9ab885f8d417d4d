"""Radial zero scans on the 2-D frequency lattice."""

from __future__ import annotations

import numpy as np
from numpy.fft import fft2, fftfreq, ifft2

from ..errors import DomainError
from .grid import vanishing


def _lattice_norms(values) -> tuple[np.ndarray, np.ndarray]:
    """(fhat, |k|): the unitary transform of an m x m grid, m >= 2, and
    the norm of each frequency k in centered integer coordinates
    (fftfreq * m, so 0 sits at index 0)."""
    vals = np.asarray(values, dtype=complex)
    if vals.ndim != 2 or vals.shape[0] != vals.shape[1] or vals.shape[0] < 2:
        raise DomainError("radial scans need an m x m grid with m >= 2")
    if not np.isfinite(vals).all():
        raise DomainError("grid values must be finite")
    m = vals.shape[0]
    freqs = fftfreq(m, d=1.0 / m)
    kx, ky = np.meshgrid(freqs, freqs, indexing="ij")
    return fft2(vals, norm="ortho"), np.sqrt(kx**2 + ky**2)


def spherical_zero_radii(values) -> tuple:
    """Sorted radii r = 1, 2, 3, ... up to the largest lattice radius r_max
    whose whole shell r - 1/2 <= |k| < r + 1/2 vanishes (grid.vanishing).

    A point lies on shell floor(|k| + 1/2), so one bincount of the
    nonvanishing coefficients over the shell index finds every zero.  The
    shell width is the lattice spacing, 1 in frequency units, so every
    scanned shell holds a lattice point and a zero always rests on
    evidence (a shell with no point would count as a zero).  Proof: let K
    be the largest |coordinate|.  The axis points (k, 0), k = 0..K, have
    norms 0, 1, ..., K, and along (K, 0), (K, 1), ..., (K, K) the norm
    rises from K to the corner norm r_max = K sqrt(2) by steps of at most
    1 (triangle inequality).  A rising sequence whose steps are at most 1
    meets every half-open window [r - 1/2, r + 1/2) with r between its
    ends, so every shell with 1 <= r <= r_max does.
    """
    fhat, norms = _lattice_norms(values)
    zero, _ = vanishing(fhat)
    top = int(norms.max())
    shell = np.floor(norms + 0.5).astype(np.intp)
    live = np.bincount(shell[~zero], minlength=top + 1)
    return tuple(float(r) for r in np.flatnonzero(live[1 : top + 1] == 0) + 1)


def mask_spectrum_on_radii(values, radii, band: float) -> np.ndarray:
    """Zero the transform on all lattice points within band of any radius.

    Round-trip helper for building test functions whose radial zero set
    is known by construction; returns the function with the masked
    spectrum (inverse transform of the masked transform).
    """
    fhat, norms = _lattice_norms(values)
    mask = np.zeros_like(norms, dtype=bool)
    for r in radii:
        mask |= np.abs(norms - float(r)) <= band
    return ifft2(np.where(mask, 0.0, fhat), norm="ortho")
