"""Exact arithmetic on finite unions of closed 1-D intervals.

A union holds integer numerators over one common denominator: the pair
(s, l) over den is the interval [s/den, (s + l)/den].  Ordering checks,
the Lebesgue measure, the gap multiset and the tube formula run on ints,
and Fraction appears only at the API edge: from_pairs takes rationals,
gap_counts holds numerators over den like the intervals, and measure
and neighborhood_measure return Fractions.
Downstream checks assert equalities like 10/9 on the nose, which is why
nothing here ever rounds.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
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


def tube_measure(length: int, gap_counts: Iterable[tuple[int, int]], den: int, eps) -> Fraction:
    """Measure of the closed eps-neighborhood of a nonempty finite union of
    closed intervals and points in R.

    The set has Lebesgue measure length / den, and `gap_counts` holds the
    lengths of its bounded complementary intervals as (gap, multiplicity)
    pairs, each gap an integer numerator over den.  Its two outer ends
    grow by eps each and a gap fills up to 2 eps, which is the 1-D tube
    formula of Lapidus-Pomerance (1993):
    length + 2 eps + sum(min(gap, 2 eps)).
    """
    e = as_fraction(eps)
    if e < 0:
        raise DomainError("eps must be nonnegative")
    # scaled by den * q for eps = p / q, every term is an integer
    q = e.denominator
    two_e = 2 * e.numerator * den
    tube = length * q + two_e + sum(mult * min(g * q, two_e) for g, mult in gap_counts)
    return Fraction(tube, den * q)


@dataclass(frozen=True)
class IntervalUnion:
    """Sorted, pairwise-disjoint closed intervals as (start, length) pairs
    of integer numerators over one denominator, in lowest terms, so equal
    unions compare equal.

    The total length and the gap multiset do not depend on eps; each is
    computed on first use and kept, so a sweep over scales pays only for
    the tube formula over the distinct gaps.
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

    @cached_property
    def _length(self) -> int:
        """The Lebesgue measure as a numerator over the denominator."""
        return sum(l for _, l in self.intervals)

    @property
    def measure(self) -> Fraction:
        return Fraction(self._length, self.denominator)

    @cached_property
    def gap_counts(self) -> tuple[tuple[int, int], ...]:
        """The bounded gaps between consecutive intervals as a multiset:
        (length, multiplicity) pairs, shortest first, each length an
        integer numerator over the denominator."""
        iv = self.intervals
        gaps = Counter(s1 - s0 - l0 for (s0, l0), (s1, _) in zip(iv, iv[1:]))
        return tuple(sorted(gaps.items()))

    def neighborhood_measure(self, eps) -> Fraction:
        """Exact measure of the closed eps-neighborhood (0 for the empty union)."""
        volume = tube_measure(self._length, self.gap_counts, self.denominator, eps)
        return volume if self.intervals else Fraction(0)
