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

Ball centers are restricted to the input cloud.  The unrestricted
minimum cover (centers anywhere) can only be smaller at the same radius;
every count reported here is the centers-in-set version, and callers who
need two-sided control evaluate the chain at doubled / halved radii as
above rather than guessing.

Every count is exact.  A cloud is its sorted, distinct lattice points:
integer numerators over one common denominator den, the lcm of the exact
coordinate denominators (floats convert losslessly, so float clouds are
exact too), and eps = p/q is compared after scaling: a lattice distance
d is within eps when d * q <= p * den, that is d <= (p * den) // q, or
d**2 <= (p * den)**2 // q**2.  So the searches run on Python ints, and
Fraction appears only at the edge; they return counts only.  In one
dimension they are left-to-right sweeps (optimal by the standard
exchange argument) with no size cap; in higher dimensions a
branch-and-bound search over at most EXACT_CAP points, and a larger
cloud raises SizeError before any work.  The squared distances do not
depend on eps: each point's row is sorted once per cloud, on the first
count, and each eps then costs one bisect per row.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from operator import or_
from typing import Iterable, Sequence

import numpy as np

from ..errors import DomainError, SizeError
from ..numeric import as_fraction, to_lattice

EXACT_CAP = 15


@dataclass(frozen=True)
class PointCloud:
    """A finite point set as its sorted, distinct lattice points: integer
    n-tuples of numerators over one denominator."""

    lattice: tuple
    denominator: int

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


# ---------------------------------------------------------------------------
# exact counts, one dimension: left-to-right sweeps, no size cap


def _exact_cover_1d(xs: Sequence[int], reach: int) -> int:
    """Fewest centers covering the sorted lattice points xs, where a center
    covers the points at most reach away."""
    count = 0
    i, n = 0, len(xs)
    while i < n:
        # cover the leftmost uncovered point with the rightmost usable center
        limit = xs[i] + reach
        c = i
        while c + 1 < n and xs[c + 1] <= limit:
            c += 1
        count += 1
        limit = xs[c] + reach
        while i < n and xs[i] <= limit:
            i += 1
    return count


def _exact_pack_1d(xs: Sequence[int], gap: int) -> int:
    """Most of the sorted lattice points xs that lie pairwise more than gap
    apart."""
    count = 1
    last = xs[0]
    for x in xs[1:]:
        if x - last > gap:
            count += 1
            last = x
    return count


# ---------------------------------------------------------------------------
# exact counts, n >= 2: branch and bound over bitmasks, capped


def _cover_masks(cloud: PointCloud, reach2: int) -> list[int]:
    """Per point, the bitmask of the points whose squared lattice distance
    to it is at most reach2."""
    return [masks[bisect_right(d2, reach2) - 1] for d2, masks in cloud._dist2_table]


def _exact_cover_nd(cloud: PointCloud, reach2: int) -> int:
    masks = _cover_masks(cloud, reach2)
    # distance is symmetric: the centers covering point j are masks[j]
    opts = [[c for c in range(len(masks)) if m >> c & 1] for m in masks]
    full = (1 << len(masks)) - 1
    best_count = _incumbent_cover(masks, full)
    max_gain = max(map(len, opts))

    def rec(uncovered: int, used: int):
        nonlocal best_count
        if uncovered == 0:
            best_count = min(best_count, used)
            return
        need = -(-uncovered.bit_count() // max_gain)  # ceil division
        if used + need >= best_count:
            return
        # branch on the uncovered point with the fewest usable centers
        target_opts = min((opts[j] for j in range(len(opts)) if uncovered >> j & 1), key=len)
        for c in sorted(target_opts, key=lambda c: -(masks[c] & uncovered).bit_count()):
            rec(uncovered & ~masks[c], used + 1)

    rec(full, 0)
    return best_count


def _incumbent_cover(masks: list[int], full: int) -> int:
    """The size of a first cover to bound the search: take the center that
    covers the most uncovered points until none is left."""
    uncovered, count = full, 0
    while uncovered:
        gains = [(m & uncovered).bit_count() for m in masks]
        count += 1
        uncovered &= ~masks[gains.index(max(gains))]
    return count


def _exact_pack_nd(cloud: PointCloud, reach2: int) -> int:
    # i and j conflict unless their squared lattice distance exceeds reach2
    conflict = [m & ~(1 << i) for i, m in enumerate(_cover_masks(cloud, reach2))]

    memo: dict[int, int] = {}

    def rec(cand: int) -> int:
        if cand == 0:
            return 0
        hit = memo.get(cand)
        if hit is not None:
            return hit
        v = (cand & -cand).bit_length() - 1
        bit = 1 << v
        # the lowest candidate is either in the packing or out of it
        res = max(rec(cand & ~(bit | conflict[v])) + 1, rec(cand & ~bit))
        memo[cand] = res
        return res

    return rec((1 << len(cloud.lattice)) - 1)


# ---------------------------------------------------------------------------
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
