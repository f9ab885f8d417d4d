"""Exact covering and packing counts for finite point sets.

Conventions, fixed once for the whole package:

* Coverage is closed: the ball of radius eps at center c covers x when
  dist(x, c) <= eps.
* Packing is strict: balls of radius eps at x and y are accepted as
  disjoint only when dist(x, y) > 2 * eps.

Together these make the chain

    covering_number(2*eps) <= packing_number(eps) <= covering_number(eps/2)

hold for every input, boundary-exact configurations included: a
maximum packing cannot be extended, so no point is farther than 2*eps
from one of its centers, and a closed eps/2 ball cannot hold two points
more than 2*eps apart.

Ball centers are restricted to the input cloud; a cover centered
anywhere can only be smaller, and the chain above gives two-sided
control.

Every count is exact.  A cloud is its sorted, distinct lattice points:
integer numerators over one common denominator den, the lcm of the exact
coordinate denominators (floats convert losslessly, so float clouds are
exact too), and eps = p/q is compared after scaling: a lattice distance
d is within eps when d * q <= p * den, that is d <= (p * den) // q, or
d**2 <= (p * den)**2 // q**2.  So the searches run on Python ints, and
Fraction appears only at the edge; they return counts only.  In one
dimension they are left-to-right sweeps (optimal by the standard
exchange argument), one bisect per step, with no size cap.  In higher
dimensions each is a memoized search over the bitmask of the points
left, at most EXACT_CAP of them: it branches on the lowest point left,
over the centers that cover it (a cover) or on keeping or dropping it
(a packing), and a larger cloud raises SizeError before any work.  The
squared distances do not depend on eps: each point's row is sorted once
per cloud, on the first count, and each eps then costs one bisect per
row.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from functools import cache, cached_property
from itertools import accumulate
from operator import or_
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from ..errors import DomainError, SizeError
from ..numeric import as_fraction, to_lattice

EXACT_CAP = 15


class _PointCloudFields(NamedTuple):
    lattice: tuple
    denominator: int


class PointCloud(_PointCloudFields):
    """A finite point set as its sorted, distinct lattice points: integer
    n-tuples of numerators over one denominator.  It declares no
    __slots__, so each cloud has the __dict__ its cached properties fill."""

    @classmethod
    def from_points(cls, pts: Iterable) -> "PointCloud":
        norm = []
        for p in pts:
            if isinstance(p, (int, float, Fraction)):
                p = (p,)
            norm.append(tuple(p))
        if not norm:
            raise DomainError("point cloud must be non-empty")
        n = len(norm[0])
        if n < 1 or any(len(p) != n for p in norm):
            raise DomainError("points must share a positive dimension")
        if any(isinstance(c, float) and not math.isfinite(c) for p in norm for c in p):
            raise DomainError("point coordinates must be finite")
        nums, den = to_lattice(c for p in norm for c in p)
        lattice = sorted({tuple(nums[i : i + n]) for i in range(0, len(nums), n)})
        return cls(tuple(lattice), den)

    @property
    def n(self) -> int:
        return len(self.lattice[0])

    @cached_property
    def array(self) -> np.ndarray:
        """The points as floats, one row per point: built once per cloud,
        since volumes read it at every eps, and read-only.  Int true
        division rounds once, as float() of the exact coordinate does."""
        den = self.denominator
        arr = np.asarray([[c / den for c in p] for p in self.lattice], dtype=float)
        arr.setflags(write=False)
        return arr

    @cached_property
    def gap_counts(self) -> tuple[tuple[int, int], ...]:
        """In one dimension, the exact gaps between consecutive points as a
        multiset: (length, multiplicity) pairs, shortest first, each
        length an integer numerator over the cloud's denominator."""
        if self.n != 1:
            raise DomainError("gaps are defined for 1-D clouds")
        # the points are sorted and distinct
        xs = [x for x, in self.lattice]
        return tuple(sorted(Counter(b - a for a, b in zip(xs, xs[1:])).items()))

    @cached_property
    def _dist2_table(self) -> tuple:
        """Per point, its sorted squared lattice distances to all points
        and the prefix bitmasks of the points up to each; built by the
        first count in dimension >= 2 and kept, as they carry no eps."""
        pts = self.lattice
        rows = []
        for p in pts:
            d2 = sorted((sum((a - b) ** 2 for a, b in zip(p, q)), j) for j, q in enumerate(pts))
            rows.append(([d for d, _ in d2], list(accumulate((1 << j for _, j in d2), or_))))
        return tuple(rows)


# exact counts, one dimension: left-to-right sweeps, no size cap


def _exact_cover_1d(xs: Sequence[int], reach: int) -> int:
    """Fewest centers covering the sorted lattice points xs, where a center
    covers the points at most reach away."""
    count = i = 0
    while i < len(xs):
        # cover the leftmost uncovered point with the rightmost usable center
        c = bisect_right(xs, xs[i] + reach) - 1
        i = bisect_right(xs, xs[c] + reach)
        count += 1
    return count


def _exact_pack_1d(xs: Sequence[int], gap: int) -> int:
    """Most of the sorted lattice points xs that lie pairwise more than gap
    apart."""
    count = i = 0
    while i < len(xs):
        i = bisect_right(xs, xs[i] + gap)
        count += 1
    return count


# exact counts, n >= 2: memoized search over bitmasks, capped


def _cover_masks(cloud: PointCloud, reach2: int) -> list[int]:
    """Per point, the bitmask of the points whose squared lattice distance
    to it is at most reach2."""
    return [masks[bisect_right(d2, reach2) - 1] for d2, masks in cloud._dist2_table]


def _exact_cover_nd(cloud: PointCloud, reach2: int) -> int:
    masks = _cover_masks(cloud, reach2)

    @cache
    def rec(uncovered: int) -> int:
        if uncovered == 0:
            return 0
        v = (uncovered & -uncovered).bit_length() - 1
        # distance is symmetric: the centers covering point v are masks[v]
        m = masks[v]
        return 1 + min(rec(uncovered & ~masks[c]) for c in range(m.bit_length()) if m >> c & 1)

    return rec((1 << len(masks)) - 1)


def _exact_pack_nd(cloud: PointCloud, reach2: int) -> int:
    # i and j conflict unless their squared lattice distance exceeds reach2
    conflict = [m & ~(1 << i) for i, m in enumerate(_cover_masks(cloud, reach2))]

    @cache
    def rec(cand: int) -> int:
        if cand == 0:
            return 0
        v = (cand & -cand).bit_length() - 1
        bit = 1 << v
        # the lowest candidate is either in the packing or out of it
        return max(rec(cand & ~(bit | conflict[v])) + 1, rec(cand & ~bit))

    return rec((1 << len(cloud.lattice)) - 1)


# public operations


def _check_eps(eps, cloud: PointCloud) -> tuple[int, int]:
    # only a float can be inf or nan
    if isinstance(eps, float) and not math.isfinite(eps) or not eps > 0:
        raise DomainError("eps must be positive and finite")
    eps = as_fraction(eps)
    return eps.numerator * cloud.denominator, eps.denominator


def _check_cap(cloud: PointCloud, what: str) -> None:
    size = len(cloud.lattice)
    if size > EXACT_CAP:
        raise SizeError(f"exact {what} caps at {EXACT_CAP} points in dimension >= 2; got {size}")


def covering_number(cloud: PointCloud, eps) -> int:
    """Fewest closed eps-balls centered at cloud points that cover the cloud."""
    p, q = _check_eps(eps, cloud)
    if cloud.n == 1:
        xs = [x for x, in cloud.lattice]
        return _exact_cover_1d(xs, p // q)
    _check_cap(cloud, "covering")
    return _exact_cover_nd(cloud, p * p // (q * q))


def packing_number(cloud: PointCloud, eps) -> int:
    """Most points of the cloud with pairwise distance > 2*eps.

    Equivalently the maximum number of disjoint open eps-balls centered
    at cloud points.
    """
    p, q = _check_eps(eps, cloud)
    if cloud.n == 1:
        xs = [x for x, in cloud.lattice]
        return _exact_pack_1d(xs, 2 * p // q)
    _check_cap(cloud, "packing")
    return _exact_pack_nd(cloud, 4 * p * p // (q * q))
