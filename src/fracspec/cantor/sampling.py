"""Random offset draws for constructions with generic (decay-friendly) spacing."""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from ..errors import DomainError, RejectionBudgetError
from ..numeric import as_fraction

REJECTION_BUDGET = 10**6


def sample_salem_offsets(branches: int, ratio, rng: np.random.Generator) -> tuple:
    """Draw offsets uniformly from the admissible region by rejection.

    Proposes branches sorted uniforms on [0, 1 - ratio] and keeps the
    draw when all consecutive gaps exceed ratio.  Feasibility needs
    (branches - 1) * ratio < 1 - ratio, i.e. room for the mandatory gaps.
    """
    ratio = as_fraction(ratio)
    if not (0 < ratio < 1) or branches * ratio >= 1:
        raise DomainError("need 0 < ratio < 1 and branches * ratio < 1")
    if (branches - 1) * ratio >= 1 - ratio:
        raise DomainError(
            f"no admissible offsets: (N-1)*eta = {(branches - 1) * ratio} "
            f">= 1 - eta = {1 - ratio}"
        )
    top = float(1 - ratio)
    gap = float(ratio)
    for _ in range(REJECTION_BUDGET):
        draw = np.sort(rng.uniform(0.0, top, size=branches))
        if np.all(np.diff(draw) > gap):
            return tuple(Fraction(x) for x in draw)
    raise RejectionBudgetError(
        f"no admissible draw in {REJECTION_BUDGET} proposals "
        f"(branches={branches}, ratio={ratio})"
    )

