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

Comparisons run on squared distances, so clouds with Fraction
coordinates are handled exactly.  In one dimension the exact counts use
left-to-right sweeps (optimal by the standard exchange argument) and
have no size cap; in higher dimensions exact mode is a branch-and-bound
search capped at ``cap`` points.  The pairwise squared distances it
reads do not depend on eps: they are computed once per cloud, on the
first exact count, and each eps then costs one threshold pass over
them.  The greedy modes, meant for clouds too large for exact search,
never build that O(size**2) table.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from ..errors import DomainError, SizeError
from ..numeric import as_fraction

DEFAULT_EXACT_CAP = 15


def _dist2(p, q):
    return sum((a - b) * (a - b) for a, b in zip(p, q))


@dataclass(frozen=True)
class PointCloud:
    """A finite, deduplicated point set, sorted lexicographically.

    The sort order is what makes greedy traversals deterministic: numpy's
    argmax picks the first (hence lexicographically smallest) maximizer.
    """

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

    def is_float_backed(self) -> bool:
        return all(isinstance(c, (int, float)) and not isinstance(c, bool) for p in self.points for c in p)

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

        Built by the first exact count in dimension >= 2 and kept, since
        the distances do not depend on eps.
        """
        return tuple(tuple(_dist2(p, q) for q in self.points) for p in self.points)


@dataclass(frozen=True)
class Packing:
    """Centers of pairwise disjoint open balls of a common radius."""

    centers: tuple
    radius: object


# ---------------------------------------------------------------------------
# greedy traversals


def _farthest_points(cloud: PointCloud):
    """Farthest-point traversal from the first point.

    Yields (i, d2): the next center and its squared distance to the
    centers before it.  Fraction clouds run on object arrays, so the
    arithmetic stays exact; argmax takes the first maximizer, i.e. the
    lexicographically smallest point.
    """
    pts = np.asarray(cloud.points, dtype=float if cloud.is_float_backed() else object)
    d2 = ((pts - pts[0]) ** 2).sum(axis=1)
    while True:
        i = int(np.argmax(d2))
        yield i, d2[i]
        np.minimum(d2, ((pts - pts[i]) ** 2).sum(axis=1), out=d2)


def _greedy_cover_count(cloud: PointCloud, eps) -> tuple[int, list[int]]:
    """Farthest-point net: add the farthest uncovered point as a center."""
    e2 = float(eps) ** 2 if cloud.is_float_backed() else eps * eps
    centers = [0]
    for i, d2 in _farthest_points(cloud):
        if d2 <= e2:
            return len(centers), centers
        centers.append(i)


def _greedy_pack(cloud: PointCloud, eps) -> list[int]:
    """Maximal packing along the farthest-point order (a lower bound)."""
    order = [0] + [i for i, _ in itertools.islice(_farthest_points(cloud), cloud.size - 1)]
    thr = 4 * eps * eps
    chosen: list[int] = []
    for i in order:
        if all(_dist2(cloud.points[i], cloud.points[c]) > thr for c in chosen):
            chosen.append(i)
    return chosen


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

    best_count, best_sel = _greedy_set_cover(masks, full)
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


def _greedy_set_cover(masks: list[int], full: int) -> tuple[int, list[int]]:
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


def covering_witness(cloud: PointCloud, eps, mode: str = "exact", cap: int = DEFAULT_EXACT_CAP):
    """Covering count plus the chosen centers (as cloud points)."""
    _check_eps(eps)
    if mode == "greedy":
        count, idx = _greedy_cover_count(cloud, eps)
    elif mode == "exact":
        if cloud.n == 1:
            xs = [p[0] for p in cloud.points]
            count, idx = _exact_cover_1d(xs, eps)
        else:
            if cloud.size > cap:
                raise SizeError(
                    f"exact covering caps at {cap} points in dimension >= 2; "
                    f"got {cloud.size} (use mode='greedy')"
                )
            count, idx = _exact_cover_nd(cloud, eps)
    else:
        raise DomainError(f"unknown mode {mode!r}")
    return count, tuple(cloud.points[i] for i in idx)


def covering_number(cloud: PointCloud, eps, mode: str = "exact", cap: int = DEFAULT_EXACT_CAP) -> int:
    """Fewest closed eps-balls centered at cloud points that cover the cloud.

    mode='exact' gives the true minimum (1-D always; otherwise up to
    ``cap`` points).  mode='greedy' returns the size of the deterministic
    farthest-point net, an upper bound on the exact count.
    """
    return covering_witness(cloud, eps, mode, cap)[0]


def packing_witness(cloud: PointCloud, eps, mode: str = "exact", cap: int = DEFAULT_EXACT_CAP) -> Packing:
    """A packing attaining the reported count."""
    _check_eps(eps)
    if mode == "greedy":
        idx = _greedy_pack(cloud, eps)
    elif mode == "exact":
        if cloud.n == 1:
            xs = [p[0] for p in cloud.points]
            idx = _exact_pack_1d(xs, eps)
        else:
            if cloud.size > cap:
                raise SizeError(
                    f"exact packing caps at {cap} points in dimension >= 2; "
                    f"got {cloud.size} (use mode='greedy')"
                )
            idx = _exact_pack_nd(cloud, eps)
    else:
        raise DomainError(f"unknown mode {mode!r}")
    return Packing(tuple(cloud.points[i] for i in idx), eps)


def packing_number(cloud: PointCloud, eps, mode: str = "exact", cap: int = DEFAULT_EXACT_CAP) -> int:
    """Most points of the cloud with pairwise distance > 2*eps.

    Equivalently the maximum number of disjoint open eps-balls centered
    at cloud points.  mode='greedy' returns a maximal (not maximum)
    packing along the farthest-point order, a lower bound.
    """
    return len(packing_witness(cloud, eps, mode, cap).centers)

