"""Box-counting dimension fits from covering counts."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..errors import DomainError

MIN_SCALES = 4


class DimensionFit(NamedTuple):
    """Least-squares slope of log(count) against log(1/eps)."""

    slope: float
    residual_rms: float
    degenerate: bool  # all counts equal; the slope carries no information


def box_dimension_estimate(rows) -> DimensionFit:
    """Box-counting dimension estimate of a set in R from (scale, count)
    rows, such as N**m intervals at their length L_m, or covering_number
    at each scale of a sweep.

    The slope is clamped to [0, 1]; a flat count profile is reported as
    degenerate rather than hidden.
    """
    rows = list(rows)
    if len(rows) < MIN_SCALES:
        raise DomainError(f"need at least {MIN_SCALES} scales, got {len(rows)}")
    if any(count < 1 for _, count in rows):
        raise DomainError("counts must be positive")
    # a scale that floats to 0, or whose reciprocal overflows, has no
    # finite log; the fit would fail on it with a LinAlgError
    with np.errstate(all="ignore"):
        x = np.log(1.0 / np.asarray([float(scale) for scale, _ in rows]))
    if not np.isfinite(x).all():
        raise DomainError("a scale has no finite log(1/eps) as a float")
    # on one abscissa the fit is rank deficient and its slope meaningless
    if np.all(x == x[0]):
        raise DomainError("the scales need at least two distinct values of log(1/eps)")
    y = np.log(np.asarray([count for _, count in rows], dtype=float))
    degenerate = bool(np.all(y == y[0]))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    rms = float(np.sqrt(np.mean(resid**2)))
    return DimensionFit(
        slope=min(max(float(slope), 0.0), 1.0),
        residual_rms=rms,
        degenerate=degenerate,
    )
