"""Exact finite approximations: the level-j interval unions of a construction."""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import DomainError, SizeError
from ..geometry.intervals import IntervalUnion
from ..numeric import to_lattice
from .params import CantorParams

MAX_INTERVALS = 2**20


@dataclass(frozen=True)
class CantorLevel:
    """Level-depth stage of the recursion: branches**depth closed intervals."""

    intervals: IntervalUnion

    @property
    def member_count(self) -> int:
        return self.intervals.count


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


def build_level(params: CantorParams, depth: int) -> CantorLevel:
    """Run the recursion down to `depth` in integers over one denominator.

    Level 0 is [0, 1].  Refining level j-1 places one child per offset,
    so starts accumulate as start + a_k * L_(j-1), and every level-depth
    interval has length L_depth.  The denominator is the lcm of those of
    L_depth and of every a_k * L_(j-1), so each move is an integer step
    and the recursion adds ints; no Fraction is made per interval.
    """
    check_level_budget(params, depth)
    lengths = params.level_lengths(depth)
    moves = [a * length for length in lengths[:-1] for a in params.offsets]
    (length, *moves), den = to_lattice([lengths[-1], *moves])
    k = len(params.offsets)
    starts = [0]
    for j in range(0, len(moves), k):
        starts = [s + a for s in starts for a in moves[j : j + k]]
    # the union keeps lowest terms, which this lcm need not be
    g = math.gcd(den, length, *starts)
    if g > 1:
        den, length, starts = den // g, length // g, [s // g for s in starts]
    # sorted parents and ascending offsets give sorted children, and offset
    # gaps above eta keep them disjoint; IntervalUnion raises if they are not
    return CantorLevel(IntervalUnion(tuple((s, length) for s in starts), den))
