"""The tube data of a finite union of closed 1-D intervals.

A Tube holds what a union's eps-neighborhood depends on, its total
length and its gap multiset, as integer numerators over one common
denominator, and returns exact Fraction volumes.  cantor.level_tube
reads it off a level's closed-form gap spectrum, and
eps_neighborhood_volume off a 1-D cloud's gap counts.  Downstream checks assert equalities like
10/9 on the nose, which is why nothing here ever rounds.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Tuple

from ..errors import DomainError
from ..numeric import as_fraction


class Tube(NamedTuple):
    """A nonempty finite union of closed intervals and points in R, as the
    data of its tube formula: the Lebesgue measure length / denominator,
    and the lengths of its bounded complementary intervals as (gap,
    multiplicity) pairs, each gap an integer numerator over denominator.
    """

    length: int
    gaps: Tuple[Tuple[int, int], ...]
    denominator: int

    def volume(self, eps) -> Fraction:
        """Measure of the closed eps-neighborhood.  The two outer ends grow
        by eps each and a gap fills up to 2 eps, which is the 1-D tube
        formula of Lapidus-Pomerance (1993):
        length + 2 eps + sum(min(gap, 2 eps)).
        """
        e = as_fraction(eps)
        if e < 0:
            raise DomainError("eps must be nonnegative")
        # scaled by den * q for eps = p / q, every term is an integer
        q = e.denominator
        two_e = 2 * e.numerator * self.denominator
        tube = self.length * q + two_e + sum(mult * min(g * q, two_e) for g, mult in self.gaps)
        return Fraction(tube, self.denominator * q)
