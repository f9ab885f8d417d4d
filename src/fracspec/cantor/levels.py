"""Exact finite approximations: the level-j interval unions of a construction."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..errors import DomainError, SizeError
from ..geometry.intervals import IntervalUnion
from .params import CantorParams

MAX_INTERVALS = 2**20


@dataclass(frozen=True)
class CantorLevel:
    """Level-depth stage of the recursion: branches**depth closed intervals.

    Exposes member_count / natural_scale / ambient_dim so it can feed the
    box-dimension fit directly: counting level-j intervals at the scale of
    their own length is the structural covering count.
    """

    params: CantorParams
    depth: int
    intervals: IntervalUnion

    @property
    def member_count(self) -> int:
        return self.intervals.count

    @property
    def natural_scale(self) -> Fraction:
        return self.params.level_length(self.depth)

    @property
    def ambient_dim(self) -> int:
        return 1

    def starts(self) -> tuple:
        return self.intervals.starts()

    def endpoints(self) -> tuple:
        return self.intervals.endpoints()

    def midpoints(self) -> tuple:
        return self.intervals.midpoints()


def build_level(params: CantorParams, depth: int) -> CantorLevel:
    """Run the recursion down to `depth` with exact rational endpoints.

    Level 0 is [0, 1].  Refining level j-1 scales each interval by
    eta_j and places one child per offset, so starts accumulate as
    start + a_k * (length of the parent).
    """
    if depth < 0:
        raise DomainError("depth must be >= 0")
    # branches >= 2, so capping the exponent at the budget's bit length
    # changes no verdict and spares computing a huge power
    if params.branches ** min(depth, MAX_INTERVALS.bit_length()) > MAX_INTERVALS:
        raise SizeError(
            f"{params.branches}**{depth} intervals exceed the budget of {MAX_INTERVALS}"
        )
    starts = [Fraction(0)]
    length = Fraction(1)
    for j in range(1, depth + 1):
        eta = params.eta_at(j)
        starts = [s + a * length for s in starts for a in params.offsets]
        length *= eta
    # sorted parents and ascending offsets give sorted children, and offset
    # gaps above eta keep them disjoint; IntervalUnion raises if they are not
    return CantorLevel(params, depth, IntervalUnion(tuple((s, length) for s in starts)))
