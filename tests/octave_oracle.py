"""The boolean-mask octave sum: the oracle for the slice-based grid route."""

import numpy as np


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
