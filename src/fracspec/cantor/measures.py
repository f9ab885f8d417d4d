"""The natural (uniform branching) measure on a construction's levels."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..errors import DomainError
from ..geometry.density import WeightedMeasure
from .levels import build_level
from .params import CantorParams


@dataclass(frozen=True)
class CantorMeasure:
    """Level-J atomic stand-in for the limit measure.

    One atom at each level-J interval midpoint, weight branches**-J.
    Total mass is exactly 1 by construction.
    """

    params: CantorParams
    depth: int
    atoms: tuple  # exact Fraction midpoints
    weight: Fraction

    @property
    def total(self) -> Fraction:
        return self.weight * len(self.atoms)

    def to_weighted(self) -> WeightedMeasure:
        """Float view for the ball-mass and density estimators."""
        w = float(self.weight)
        return WeightedMeasure.from_atoms(
            [(float(a),) for a in self.atoms], [w] * len(self.atoms)
        )

    def mass_of_interval(self, lo, hi) -> Fraction:
        """Exact mass of the closed interval [lo, hi]."""
        lo, hi = Fraction(lo), Fraction(hi)
        if hi < lo:
            raise DomainError("interval must have lo <= hi")
        hits = sum(1 for a in self.atoms if lo <= a <= hi)
        return self.weight * hits


def natural_measure(params: CantorParams, depth: int) -> CantorMeasure:
    level = build_level(params, depth)
    atoms = level.midpoints()
    return CantorMeasure(params, depth, atoms, Fraction(1, params.branches**depth))

