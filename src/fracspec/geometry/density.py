"""Ball masses and upper-density estimates for atomic measures."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DomainError


@dataclass(frozen=True, eq=False)
class WeightedMeasure:
    """A finite atomic measure: atoms with strictly positive weights.

    atoms is a (k, n) float array and weights a length-k float array, both
    built once by from_atoms; equality is identity, not array comparison.
    """

    atoms: np.ndarray
    weights: np.ndarray
    n: int

    @classmethod
    def from_atoms(cls, atoms, weights) -> "WeightedMeasure":
        at = []
        for p in atoms:
            if isinstance(p, (int, float)):
                p = (p,)
            at.append(tuple(float(c) for c in p))
        w = [float(x) for x in weights]
        if not at:
            raise DomainError("measure needs at least one atom")
        if len(at) != len(w):
            raise DomainError("atoms and weights must align")
        if any(x <= 0 for x in w):
            raise DomainError("weights must be strictly positive")
        n = len(at[0])
        if any(len(p) != n for p in at):
            raise DomainError("atoms must share a dimension")
        return cls(np.asarray(at, dtype=float), np.asarray(w, dtype=float), n)


def upper_density_estimate(measure: WeightedMeasure, x, alpha: float, radii) -> tuple:
    """(r, mass, ratio) rows, ratio = (2r)**(-alpha) * mass(closed ball
    B_r(x)), one per radius; their largest ratio estimates the upper
    density at x.

    radii is any iterable of numbers; the squared distances from x to the
    atoms are computed once for all radii.
    """
    if not (0 <= alpha <= measure.n):
        # alpha == n is allowed: full-dimensional reference measures are
        # a legitimate calibration input
        raise DomainError(f"alpha must lie in [0, {measure.n}]")
    if isinstance(x, (int, float)):
        x = (x,)
    d2 = ((measure.atoms - np.asarray(x, dtype=float)) ** 2).sum(axis=1)
    rows = []
    for r in radii:
        rf = float(r)
        m = float(measure.weights[d2 <= rf * rf].sum())
        rows.append((rf, m, m * (2.0 * rf) ** (-alpha)))
    return tuple(rows)
