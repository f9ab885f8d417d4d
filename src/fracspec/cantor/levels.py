"""Exact finite approximations: the level-j interval unions of a construction."""

from __future__ import annotations

import math
from collections import Counter
from typing import NamedTuple

from ..errors import DomainError, SizeError
from ..geometry.intervals import Tube
from ..numeric import to_lattice
from .params import CantorParams, validate_params

MAX_INTERVALS = 2**20


class CantorLevel(NamedTuple):
    """Level-depth stage of the recursion: branches**depth closed intervals
    [s / denominator, (s + length) / denominator], one per sorted integer
    start s, all of the one length, in lowest terms."""

    starts: list[int]
    length: int
    denominator: int

    @property
    def member_count(self) -> int:
        return len(self.starts)


def check_level_budget(params: CantorParams, depth: int) -> None:
    """Raise unless level `depth` exists and its branches**depth intervals
    fit in MAX_INTERVALS."""
    if depth < 0:
        raise DomainError("depth must be >= 0")
    # branches >= 2, so capping the exponent at the budget's bit length
    # changes no verdict and spares computing a huge power
    if params.branches ** min(depth, MAX_INTERVALS.bit_length()) > MAX_INTERVALS:
        raise SizeError(
            f"{params.branches}**{depth} intervals exceed the budget of {MAX_INTERVALS}"
        )


def _lattice_moves(params: CantorParams, depth: int) -> tuple[int, list[int], int]:
    """L_depth and every a_k * L_(j-1), j = 1..depth in order, as integer
    numerators over the lcm of their denominators, and that lcm."""
    lengths = params.level_lengths(depth)
    moves = [a * length for length in lengths[:-1] for a in params.offsets]
    (length, *moves), den = to_lattice([lengths[-1], *moves])
    return length, moves, den


def build_level(params: CantorParams, depth: int) -> CantorLevel:
    """Run the recursion down to `depth` in integers over one denominator.

    Level 0 is [0, 1].  Refining level j-1 places one child per offset,
    so starts accumulate as start + a_k * L_(j-1), and every level-depth
    interval has length L_depth.  The denominator is the lcm of those of
    L_depth and of every a_k * L_(j-1), so each move is an integer step
    and the recursion adds ints; no Fraction is made per interval.
    Sorted parents and ascending offsets give sorted children, and offset
    gaps above eta keep them disjoint, so the parameters are validated
    here as well: one made without CantorParams.create is refused.
    """
    check_level_budget(params, depth)
    validate_params(params.branches, params.ratio, params.offsets)
    length, moves, den = _lattice_moves(params, depth)
    k = len(params.offsets)
    starts = [0]
    for j in range(0, len(moves), k):
        starts = [s + a for s in starts for a in moves[j : j + k]]
    # the level keeps lowest terms, which this lcm need not be
    g = math.gcd(den, length, *starts)
    if g > 1:
        den, length, starts = den // g, length // g, [s // g for s in starts]
    return CantorLevel(starts, length, den)


def level_tube(params: CantorParams, depth: int) -> Tube:
    """The tube data of level `depth` from its gap spectrum, in the same
    integers as build_level; no interval is built.

    With the offsets a_1 < ... < a_N, the level-depth descendants of a
    level-j interval starting at 0 span [lo_j, hi_j], where
    lo_j = sum over i > j of a_1 L_(i-1) and
    hi_j = L_depth + sum over i > j of a_N L_(i-1);
    they fall short of the parent's ends when a_1 > 0 or a_N + eta < 1.
    So each of the N**(j-1) level-(j-1) intervals leaves the gaps
    (a_(k+1) - a_k) L_(j-1) + lo_j - hi_j between its children, and the
    level has total length N**depth L_depth (Lapidus-Pomerance 1993).
    Gaps above eta keep these gaps positive, so the parameters are
    validated as in build_level.
    """
    validate_params(params.branches, params.ratio, params.offsets)
    length, moves, den = _lattice_moves(params, depth)
    k = len(params.offsets)
    lo, hi = 0, length
    gaps = Counter()
    for j in range(depth, 0, -1):
        row = moves[(j - 1) * k : j * k]
        for a, b in zip(row, row[1:]):
            gaps[b - a + lo - hi] += k ** (j - 1)
        lo, hi = lo + row[0], hi + row[-1]
    return Tube(k**depth * length, tuple(sorted(gaps.items())), den)
