"""Parameter sets for branching interval constructions on [0, 1].

A construction is described by a branch count N >= 2, a contraction
ratio eta with N * eta < 1, and per-branch offsets a_1 < ... < a_N in
[0, 1 - eta] whose consecutive gaps exceed eta (children stay disjoint
with room to spare).  The similarity dimension beta solves
N * eta**beta = 1.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from ..errors import DomainError
from ..numeric import LogRatio, as_fraction

DIMENSION_RTOL = 1e-12


class CantorParams(NamedTuple):
    """Validated parameters for a branching construction.

    offsets are exact rationals; dimension is the float solution of
    N * eta**beta = 1.
    """

    branches: int
    ratio: Fraction
    offsets: tuple
    dimension: float
    seed: Optional[int] = None

    @classmethod
    def create(
        cls,
        branches: int,
        ratio,
        offsets: Sequence,
        seed: Optional[int] = None,
    ) -> "CantorParams":
        ratio = as_fraction(ratio)
        offsets = tuple(as_fraction(a) for a in offsets)
        validate_params(branches, ratio, offsets)
        dim = similarity_dimension(branches, ratio)
        return cls(branches, ratio, offsets, dim, seed)

    def level_lengths(self, depth: int) -> tuple:
        """Exact (L_0, ..., L_depth): L_j = eta**j is the length of each of
        the branches**j level-j intervals."""
        if depth < 0:
            raise DomainError("depth must be >= 0")
        return tuple(self.ratio**j for j in range(depth + 1))

    def dimension_log_ratio(self) -> LogRatio:
        """Exact-form dimension log(N)/log(1/eta) when eta is 1/q for integer q."""
        inv = 1 / self.ratio
        if inv.denominator != 1:
            raise DomainError("exact form needs eta = 1/q with integer q")
        return LogRatio(self.branches, int(inv))


def similarity_dimension(branches: int, ratio: Fraction) -> float:
    """The beta with branches * ratio**beta == 1, solved in floats."""
    eta = float(ratio)
    if eta == 0:
        raise DomainError("ratio underflows to 0 as a float: its dimension has no float solve")
    beta = math.log(branches) / math.log(1 / eta)
    check = branches * eta**beta
    if not math.isclose(check, 1.0, rel_tol=DIMENSION_RTOL):
        raise DomainError(f"dimension solve drifted: N*eta^beta = {check!r}")
    return beta


def validate_params(branches: int, ratio, offsets: Sequence) -> None:
    """Raise one DomainError naming every violation, joined by "; ",
    instead of stopping at the first."""
    if not isinstance(branches, int) or branches < 2:
        raise DomainError(f"branches must be an integer >= 2, got {branches!r}")
    problems = []
    ratio = as_fraction(ratio)
    offsets = tuple(as_fraction(a) for a in offsets)
    if not (0 < ratio < 1):
        problems.append(f"ratio must lie in (0, 1), got {ratio}")
    if branches * ratio >= 1:
        problems.append(
            f"open-set room requires branches * ratio < 1, got {branches * ratio}"
        )
    if len(offsets) != branches:
        problems.append(f"need exactly {branches} offsets, got {len(offsets)}")
    if 0 < ratio < 1:
        for i, a in enumerate(offsets):
            if not (0 <= a <= 1 - ratio):
                problems.append(f"offset[{i}] = {a} leaves [0, {1 - ratio}]")
        for i in range(len(offsets) - 1):
            if not (offsets[i + 1] - offsets[i] > ratio):
                problems.append(
                    f"gap offsets[{i + 1}] - offsets[{i}] = "
                    f"{offsets[i + 1] - offsets[i]} must exceed ratio {ratio}"
                )
    if problems:
        raise DomainError("; ".join(problems))


def middle_thirds_params() -> CantorParams:
    """N=2, eta=1/3, offsets {0, 2/3}: the classical ternary construction."""
    return CantorParams.create(2, Fraction(1, 3), (Fraction(0), Fraction(2, 3)))
