"""The natural (uniform branching) measure on a construction's levels."""

from __future__ import annotations

from fractions import Fraction

from ..geometry.density import WeightedMeasure
from .levels import build_level
from .params import CantorParams


def natural_measure(params: CantorParams, depth: int) -> WeightedMeasure:
    """Level-depth atomic stand-in for the limit measure, as floats.

    One atom at each level-depth interval midpoint (the float of the exact
    midpoint), each of weight float(branches**-depth).
    """
    level = build_level(params, depth)
    weight = float(Fraction(1, params.branches**depth))
    return WeightedMeasure.from_atoms(
        [float(a) for a in level.intervals.midpoints()], [weight] * level.member_count
    )
