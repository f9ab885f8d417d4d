"""Random offset draws for constructions with generic (decay-friendly) spacing."""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from ..errors import DomainError, RejectionBudgetError, SizeError
from ..numeric import as_fraction

# Uniforms one draw may take over all its proposals (proposals x
# branches).  Up to four branches this leaves at least 10**6 proposals,
# where no seeded draw of the tests or the benchmark takes more than 26;
# wider proposals get fewer, and one wider than the budget is refused
# before any is drawn.
REJECTION_BUDGET = 4 * 10**6


def sample_salem_offsets(branches: int, ratio, rng: np.random.Generator) -> tuple:
    """Draw offsets uniformly from the admissible region by rejection.

    Proposes branches sorted uniforms on [0, 1 - ratio] and keeps the
    draw when all consecutive gaps exceed ratio.  Feasibility needs
    (branches - 1) * ratio < 1 - ratio, i.e. room for the mandatory gaps.
    At most REJECTION_BUDGET uniforms are drawn over all proposals: a
    proposal wider than that raises SizeError before the first draw, and
    a budget spent without an accepted draw raises RejectionBudgetError.
    """
    ratio = as_fraction(ratio)
    if not (0 < ratio < 1) or branches * ratio >= 1:
        raise DomainError("need 0 < ratio < 1 and branches * ratio < 1")
    if (branches - 1) * ratio >= 1 - ratio:
        raise DomainError(
            f"no admissible offsets: (N-1)*eta = {(branches - 1) * ratio} "
            f">= 1 - eta = {1 - ratio}"
        )
    proposals = REJECTION_BUDGET // branches
    if proposals < 1:
        raise SizeError(
            f"one proposal of {branches} uniforms exceeds the rejection budget "
            f"of {REJECTION_BUDGET} uniforms"
        )
    top = float(1 - ratio)
    gap = float(ratio)
    for _ in range(proposals):
        draw = np.sort(rng.uniform(0.0, top, size=branches))
        if np.all(np.diff(draw) > gap):
            return tuple(Fraction(x) for x in draw)
    raise RejectionBudgetError(
        f"no admissible draw in {proposals} proposals of {branches} uniforms "
        f"(budget {REJECTION_BUDGET} uniforms, ratio={ratio})"
    )

