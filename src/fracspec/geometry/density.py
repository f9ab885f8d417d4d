"""Ball masses and upper-density estimates for atomic measures."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..errors import DomainError


class WeightedMeasure(NamedTuple):
    """A finite atomic measure: a (k, n) float array of atoms and a
    length-k float array of their positive weights."""

    atoms: np.ndarray
    weights: np.ndarray


def upper_density_estimate(measure: WeightedMeasure, x, alpha: float, radii) -> tuple:
    """(r, mass, ratio) rows, ratio = (2r)**(-alpha) * mass(closed ball
    B_r(x)), one per radius; their largest ratio estimates the upper
    density at x.

    radii is any iterable of numbers; the squared distances from x to the
    atoms are computed once for all radii.
    """
    n = measure.atoms.shape[1]
    if not (0 <= alpha <= n):
        # alpha == n is allowed: full-dimensional reference measures are
        # a legitimate calibration input
        raise DomainError(f"alpha must lie in [0, {n}]")
    if isinstance(x, (int, float)):
        x = (x,)
    d2 = ((measure.atoms - np.asarray(x, dtype=float)) ** 2).sum(axis=1)
    rows = []
    for r in radii:
        rf = float(r)
        m = float(measure.weights[d2 <= rf * rf].sum())
        rows.append((rf, m, m * (2.0 * rf) ** (-alpha)))
    return tuple(rows)
