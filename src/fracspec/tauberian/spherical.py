"""Radial zero scans on the 2-D frequency lattice.

The scans leave the caller's values as they are and hold, beside them,
their own transform (masked and inverted in place), a float |k| array
(shell index taken in place) and, to mask, a distance array.
"""

from __future__ import annotations

import numpy as np
from numpy.fft import fft2, fftfreq, ifftn

from ..errors import DomainError
from .grid import vanishing


def _transform(values) -> np.ndarray:
    """The unitary transform of an m x m grid, m >= 2, as a new array."""
    fhat = np.array(values, dtype=complex)
    if fhat.ndim != 2 or fhat.shape[0] != fhat.shape[1] or fhat.shape[0] < 2:
        raise DomainError("radial scans need an m x m grid with m >= 2")
    if not np.isfinite(fhat).all():
        raise DomainError("grid values must be finite")
    return fft2(fhat, norm="ortho", out=fhat)


def _lattice_norms(m: int) -> np.ndarray:
    """The norm of each frequency k of the m x m lattice, in centered
    integer coordinates (fftfreq * m, so 0 sits at index 0)."""
    sq = fftfreq(m, d=1.0 / m) ** 2
    norms = sq[:, None] + sq
    return np.sqrt(norms, out=norms)


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
    zero, _ = vanishing(_transform(values))
    shell = _lattice_norms(len(zero))
    top = int(shell.max())
    np.floor(np.add(shell, 0.5, out=shell), out=shell)
    # vanishing points go to shell 0, which is not scanned
    shell[zero] = 0.0
    live = np.bincount(shell.ravel().astype(np.intp), minlength=top + 1)
    return tuple(float(r) for r in np.flatnonzero(live[1 : top + 1] == 0) + 1)


def mask_spectrum_on_radii(values, radii, band: float) -> np.ndarray:
    """Zero the transform on all lattice points within band of any radius.

    Round-trip helper for building test functions whose radial zero set
    is known by construction; returns the function with the masked
    spectrum (inverse transform of the masked transform), a new array.
    """
    fhat = _transform(values)
    norms = _lattice_norms(len(fhat))
    dist = np.empty_like(norms)
    for r in radii:
        np.abs(np.subtract(norms, float(r), out=dist), out=dist)
        fhat[dist <= band] = 0.0
    # ifft2 ignores out= in numpy 2.4; ifftn is the same transform
    return ifftn(fhat, norm="ortho", out=fhat)
