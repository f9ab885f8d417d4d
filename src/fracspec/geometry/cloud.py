"""Covering and packing statistics for finite point sets.

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

Every count is exact, and comparisons run on squared distances, so
clouds with Fraction coordinates are handled exactly.  In one dimension
the counts use left-to-right sweeps (optimal by the standard exchange
argument) and have no size cap; in higher dimensions they come from a
branch-and-bound search over at most EXACT_CAP points, and a larger
cloud raises SizeError before any work.  The pairwise squared distances
the search reads do not depend on eps: they are computed once per
cloud, on the first count, and each eps then costs one threshold pass
over them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from ..errors import DomainError, SizeError
from ..numeric import as_fraction

EXACT_CAP = 15


def _dist2(p, q):
    return sum((a - b) * (a - b) for a, b in zip(p, q))


@dataclass(frozen=True)
class PointCloud:
    """A finite, deduplicated point set, sorted lexicographically."""

    points: tuple
    n: int

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
        uniq = sorted(set(norm))
        return cls(tuple(uniq), n)

    @property
    def size(self) -> int:
        return len(self.points)

    def as_array(self) -> np.ndarray:
        return np.asarray([[float(c) for c in p] for p in self.points], dtype=float)

    @cached_property
    def gap_counts(self) -> tuple[tuple[Fraction, int], ...]:
        """In one dimension, the exact gaps between consecutive points as a
        multiset: (length, multiplicity) pairs, shortest first."""
        if self.n != 1:
            raise DomainError("gaps are defined for 1-D clouds")
        # the points are sorted and deduplicated
        xs = [as_fraction(p[0]) for p in self.points]
        return tuple(sorted(Counter(b - a for a, b in zip(xs, xs[1:])).items()))

    @cached_property
    def _dist2_table(self) -> tuple:
        """Squared distances between all pairs of points, row by row.

        Built by the first count in dimension >= 2 and kept, since the
        distances do not depend on eps.
        """
        return tuple(tuple(_dist2(p, q) for q in self.points) for p in self.points)


# ---------------------------------------------------------------------------
# exact counts, one dimension: left-to-right sweeps, no size cap


def _exact_cover_1d(xs: Sequence, eps) -> tuple[int, list[int]]:
    count = 0
    centers = []
    i, n = 0, len(xs)
    while i < n:
        # cover the leftmost uncovered point with the rightmost usable center
        limit = xs[i] + eps
        c = i
        while c + 1 < n and xs[c + 1] <= limit:
            c += 1
        centers.append(c)
        count += 1
        reach = xs[c] + eps
        while i < n and xs[i] <= reach:
            i += 1
    return count, centers


def _exact_pack_1d(xs: Sequence, eps) -> list[int]:
    chosen = [0]
    last = xs[0]
    gap = 2 * eps
    for i in range(1, len(xs)):
        if xs[i] - last > gap:
            chosen.append(i)
            last = xs[i]
    return chosen


# ---------------------------------------------------------------------------
# exact counts, n >= 2: branch and bound over bitmasks, capped


def _cover_masks(cloud: PointCloud, eps) -> list[int]:
    """Per point, the bitmask of the points within distance eps of it."""
    e2 = eps * eps
    return [sum(1 << j for j, d2 in enumerate(row) if d2 <= e2) for row in cloud._dist2_table]


def _exact_cover_nd(cloud: PointCloud, eps) -> tuple[int, list[int]]:
    masks = _cover_masks(cloud, eps)
    npts = cloud.size
    full = (1 << npts) - 1

    best_count, best_sel = _incumbent_cover(masks, full)
    max_gain = max(m.bit_count() for m in masks)

    def rec(uncovered: int, used: int, sel: list[int]):
        nonlocal best_count, best_sel
        if uncovered == 0:
            if used < best_count:
                best_count, best_sel = used, list(sel)
            return
        need = -(-uncovered.bit_count() // max_gain)  # ceil division
        if used + need >= best_count:
            return
        # branch on the uncovered point with the fewest usable centers
        target, target_opts = -1, None
        u = uncovered
        while u:
            j = (u & -u).bit_length() - 1
            u &= u - 1
            opts = [c for c in range(npts) if masks[c] >> j & 1]
            if target_opts is None or len(opts) < len(target_opts):
                target, target_opts = j, opts
                if len(opts) == 1:
                    break
        for c in sorted(target_opts, key=lambda c: -(masks[c] & uncovered).bit_count()):
            sel.append(c)
            rec(uncovered & ~masks[c], used + 1, sel)
            sel.pop()

    rec(full, 0, [])
    return best_count, best_sel


def _incumbent_cover(masks: list[int], full: int) -> tuple[int, list[int]]:
    """A first cover to bound the search: take the center that covers the
    most uncovered points until none is left."""
    uncovered, sel = full, []
    while uncovered:
        c = max(range(len(masks)), key=lambda k: ((masks[k] & uncovered).bit_count(), -k))
        sel.append(c)
        uncovered &= ~masks[c]
    return len(sel), sel


def _exact_pack_nd(cloud: PointCloud, eps) -> list[int]:
    npts = cloud.size
    # i and j conflict unless dist(i, j) > 2 eps
    conflict = [m & ~(1 << i) for i, m in enumerate(_cover_masks(cloud, 2 * eps))]

    memo: dict[int, tuple[int, int]] = {}

    def rec(cand: int) -> tuple[int, int]:
        if cand == 0:
            return 0, 0
        hit = memo.get(cand)
        if hit is not None:
            return hit
        v = (cand & -cand).bit_length() - 1
        bit = 1 << v
        # include v (preferred on ties: earliest points in the witness)
        s_in, m_in = rec(cand & ~(bit | conflict[v]))
        s_in, m_in = s_in + 1, m_in | bit
        s_out, m_out = rec(cand & ~bit)
        res = (s_in, m_in) if s_in >= s_out else (s_out, m_out)
        memo[cand] = res
        return res

    _, mask = rec((1 << npts) - 1)
    return [i for i in range(npts) if mask >> i & 1]


# ---------------------------------------------------------------------------
# public operations


def _check_eps(eps):
    if not eps > 0:
        raise DomainError("eps must be positive")


def _check_cap(cloud: PointCloud, what: str) -> None:
    if cloud.size > EXACT_CAP:
        raise SizeError(
            f"exact {what} caps at {EXACT_CAP} points in dimension >= 2; got {cloud.size}"
        )


def covering_witness(cloud: PointCloud, eps):
    """Covering count plus the chosen centers (as cloud points)."""
    _check_eps(eps)
    if cloud.n == 1:
        count, idx = _exact_cover_1d([p[0] for p in cloud.points], eps)
    else:
        _check_cap(cloud, "covering")
        count, idx = _exact_cover_nd(cloud, eps)
    return count, tuple(cloud.points[i] for i in idx)


def covering_number(cloud: PointCloud, eps) -> int:
    """Fewest closed eps-balls centered at cloud points that cover the cloud."""
    return covering_witness(cloud, eps)[0]


def packing_witness(cloud: PointCloud, eps) -> tuple:
    """The centers of a packing attaining the reported count."""
    _check_eps(eps)
    if cloud.n == 1:
        idx = _exact_pack_1d([p[0] for p in cloud.points], eps)
    else:
        _check_cap(cloud, "packing")
        idx = _exact_pack_nd(cloud, eps)
    return tuple(cloud.points[i] for i in idx)


def packing_number(cloud: PointCloud, eps) -> int:
    """Most points of the cloud with pairwise distance > 2*eps.

    Equivalently the maximum number of disjoint open eps-balls centered
    at cloud points.
    """
    return len(packing_witness(cloud, eps))
