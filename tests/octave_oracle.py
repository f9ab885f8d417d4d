"""Oracles for the streamed octave masses: the full-array grid route, which
holds every frequency and transform value at once, and the boolean-mask
octave sum it was checked against."""

import numpy as np

from fracspec.fourier.annuli import _check_window, _diagnostics
from fracspec.fourier.transforms import cantor_fourier_grid, check_grid_budget


def spectral_grid(params, depth, j_lo, j_hi, per_octave=512):
    """(xi, spacing, values, length): the transform on the frequencies
    xi = spacing, 2 * spacing, ... up to 2**(j_hi + 1), with
    spacing = 2**j_lo / per_octave, and the level length."""
    check_grid_budget(params.branches, depth, per_octave * 2 ** (j_hi + 1 - j_lo))
    spacing = 2.0**j_lo / per_octave
    top = 2.0 ** (j_hi + 1)
    xi = np.arange(spacing, top + spacing / 2, spacing)
    values, length = cantor_fourier_grid(params, depth, xi)
    return xi, spacing, values, length


def lq_annulus_diagnostics(xi, values, spacing, q, j0, j1):
    """Riemann sums of |values|**q over the octaves 2**j <= xi < 2**(j+1)
    of ascending positive frequencies `spacing` apart, each octave the
    contiguous slice between two searchsorted edges."""
    _check_window((q,), j0, j1)
    masses = []
    for j in range(j0, j1 + 1):
        start, stop = np.searchsorted(xi, [2.0**j, 2.0 ** (j + 1)])
        masses.append(float((np.abs(values[start:stop]) ** q).sum() * spacing))
    return _diagnostics(masses, j0)


def mask_masses(xi, values, spacing, q, j0, j1):
    """Riemann sums of |values|**q over 2**j <= |xi| < 2**(j+1), with |xi|
    and |values| taken over the whole grid and one boolean mask per octave."""
    norms = np.abs(np.asarray(xi, dtype=float))
    mags = np.abs(np.asarray(values))
    masses = []
    for j in range(j0, j1 + 1):
        mask = (norms >= 2.0**j) & (norms < 2.0 ** (j + 1))
        masses.append(float((mags[mask] ** q).sum() * spacing))
    return masses
