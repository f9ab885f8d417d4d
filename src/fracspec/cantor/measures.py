"""The natural (uniform branching) measure on a construction's levels."""

from __future__ import annotations

from fractions import Fraction

from ..geometry.density import WeightedMeasure
from .levels import build_level
from .params import CantorParams


def natural_measure(params: CantorParams, depth: int) -> WeightedMeasure:
    """Level-depth atomic stand-in for the limit measure, as floats.

    One atom at each level-depth interval midpoint, each of weight
    float(branches**-depth).  The midpoint of [s, s + length] over den is
    (2s + length) / (2 den); int true division rounds it correctly, as
    float(Fraction) does, without reducing a Fraction per interval.
    """
    starts, length, den = build_level(params, depth)
    weight = float(Fraction(1, params.branches**depth))
    twice = 2 * den
    return WeightedMeasure.from_atoms(
        [(2 * s + length) / twice for s in starts], [weight] * len(starts)
    )
