"""The merged-union oracle: rational (start, length) pairs sorted, with
overlapping and touching closed intervals merged, as integer numerators
over one denominator in lowest terms, so equal unions compare equal."""

from fractions import Fraction
from typing import NamedTuple

from fracspec.errors import DomainError
from fracspec.numeric import as_fraction, to_lattice


class Union(NamedTuple):
    """Sorted, pairwise-disjoint (start, length) numerator pairs over one
    denominator."""

    intervals: tuple
    denominator: int

    @property
    def count(self) -> int:
        return len(self.intervals)

    @property
    def measure(self) -> Fraction:
        return Fraction(sum(l for _, l in self.intervals), self.denominator)


def from_pairs(pairs) -> Union:
    """Merge rational (start, length) pairs, touching counting as
    overlapping, over the lcm of the merged values' denominators."""
    spans = []
    for start, length in pairs:
        s, l = as_fraction(start), as_fraction(length)
        if l <= 0:
            raise DomainError(f"interval length must be positive, got {l}")
        spans.append((s, l))
    merged = []
    for s, l in sorted(spans):
        if merged and s <= merged[-1][0] + merged[-1][1]:
            # closed intervals that touch share the point
            merged[-1][1] = max(merged[-1][1], s + l - merged[-1][0])
        else:
            merged.append([s, l])
    nums, den = to_lattice(x for span in merged for x in span)
    return Union(tuple(zip(nums[::2], nums[1::2])), den)


def level_union(level) -> Union:
    """A built level as a Union: one (start, length) pair per start."""
    return Union(tuple((s, level.length) for s in level.starts), level.denominator)
