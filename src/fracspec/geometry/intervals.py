"""Exact arithmetic on finite unions of closed 1-D intervals.

A union holds integer numerators over one common denominator: the pair
(s, l) over den is the interval [s/den, (s + l)/den].  Ordering checks
and the Lebesgue measure run on ints, and Fraction appears only at the
API edge: from_pairs takes rationals and measure returns a Fraction.
A Tube holds what a union's eps-neighborhood depends on, its total
length and its gap multiset, and returns exact Fraction volumes.
Downstream checks assert equalities like 10/9 on the nose, which is why
nothing here ever rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Tuple

from ..errors import DomainError
from ..numeric import as_fraction, to_lattice

Span = Tuple[int, int]  # (start, length) numerators, length > 0


def _normalize(pairs: Iterable[tuple]) -> tuple[tuple[Fraction, Fraction], ...]:
    spans = []
    for start, length in pairs:
        s, l = as_fraction(start), as_fraction(length)
        if l <= 0:
            raise DomainError(f"interval length must be positive, got {l}")
        spans.append((s, l))
    spans.sort()
    merged: list[list[Fraction]] = []
    for s, l in spans:
        if merged and s <= merged[-1][0] + merged[-1][1]:
            # touching counts as overlapping: closed intervals share the point
            end = max(merged[-1][0] + merged[-1][1], s + l)
            merged[-1][1] = end - merged[-1][0]
        else:
            merged.append([s, l])
    return tuple((s, l) for s, l in merged)


@dataclass(frozen=True)
class Tube:
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


@dataclass(frozen=True)
class IntervalUnion:
    """Sorted, pairwise-disjoint closed intervals as (start, length) pairs
    of integer numerators over one denominator, in lowest terms, so equal
    unions compare equal.
    """

    intervals: Tuple[Span, ...]
    denominator: int

    def __post_init__(self):
        if self.denominator < 1:
            raise DomainError("denominator must be a positive integer")
        prev_end = None
        for s, l in self.intervals:
            if l <= 0:
                raise DomainError("non-positive interval length")
            if prev_end is not None and s <= prev_end:
                raise DomainError("intervals not normalized; use from_pairs")
            prev_end = s + l
        if math.gcd(self.denominator, *(x for span in self.intervals for x in span)) != 1:
            raise DomainError("numerators and denominator share a factor")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple]) -> "IntervalUnion":
        """Build from rational (start, length) pairs, merging overlap and
        touching, over the lcm of the merged values' denominators."""
        spans = _normalize(pairs)
        nums, den = to_lattice(x for span in spans for x in span)
        return cls(tuple(zip(nums[::2], nums[1::2])), den)

    @property
    def count(self) -> int:
        return len(self.intervals)

    @property
    def measure(self) -> Fraction:
        return Fraction(sum(l for _, l in self.intervals), self.denominator)
