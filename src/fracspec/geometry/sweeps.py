"""Geometric scale schedules."""

from __future__ import annotations

from ..errors import DomainError


def geometric_scales(eps_max, ratio, count: int) -> tuple:
    """The schedule eps_max * ratio**k for k = 0 .. count-1.

    Each scale is the previous one times ratio, in whatever number type
    the inputs carry, so Fraction inputs give exact rational scales.
    """
    if not eps_max > 0:
        raise DomainError("eps_max must be positive")
    if not (0 < ratio < 1):
        raise DomainError("ratio must lie strictly between 0 and 1")
    if count < 1:
        raise DomainError("count must be at least 1")
    out = []
    eps = eps_max
    for _ in range(count):
        out.append(eps)
        eps = eps * ratio
    return tuple(out)
