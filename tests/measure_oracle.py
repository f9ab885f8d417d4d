"""Oracle for the exact ball counts: the float atomic route the
upper-density criterion once read, one float atom at each level midpoint
and float squared distances to all of them per center."""

from fractions import Fraction

import numpy as np

from fracspec.cantor.levels import build_level


def natural_measure(params, depth):
    """(atoms, weights): the float of each level-depth interval midpoint as
    a (k, 1) array, and the weight float(branches**-depth) of each.  The
    midpoint of [s, s + length] over den is (2s + length) / (2 den); int
    true division rounds it correctly, as float(Fraction) does."""
    starts, length, den = build_level(params, depth)
    twice = 2 * den
    atoms = np.fromiter(((2 * s + length) / twice for s in starts), float, len(starts))
    weights = np.full(len(starts), float(Fraction(1, params.branches**depth)))
    return atoms.reshape(-1, 1), weights


def upper_density_estimate(measure, x, alpha, radii):
    """(r, mass, ratio) rows, ratio = (2r)**(-alpha) * mass(closed ball
    B_r(x)), one per radius, with the squared distances from x to the
    atoms computed once for all radii."""
    atoms, weights = measure
    if isinstance(x, (int, float)):
        x = (x,)
    d2 = ((atoms - np.asarray(x, dtype=float)) ** 2).sum(axis=1)
    rows = []
    for r in radii:
        rf = float(r)
        m = float(weights[d2 <= rf * rf].sum())
        rows.append((rf, m, m * (2.0 * rf) ** (-alpha)))
    return tuple(rows)
