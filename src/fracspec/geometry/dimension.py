"""Box-counting dimension fits from covering counts."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DomainError
from .cloud import PointCloud, covering_number
from .sweeps import ScaleSweep

MIN_SCALES = 4


@dataclass(frozen=True)
class DimensionFit:
    """Least-squares slope of log(count) against log(1/eps)."""

    slope: float
    residual_rms: float
    rows: tuple  # (eps, count) pairs, largest scale first
    ambient_dim: int
    degenerate: bool  # all counts equal; the slope carries no information


def _fit(eps_values, counts, ambient_dim: int) -> DimensionFit:
    if len(eps_values) < MIN_SCALES:
        raise DomainError(f"need at least {MIN_SCALES} scales, got {len(eps_values)}")
    if any(c < 1 for c in counts):
        raise DomainError("counts must be positive")
    x = np.log(1.0 / np.asarray([float(e) for e in eps_values]))
    y = np.log(np.asarray(counts, dtype=float))
    degenerate = bool(np.all(y == y[0]))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    rms = float(np.sqrt(np.mean(resid**2)))
    clamped = min(max(float(slope), 0.0), float(ambient_dim))
    return DimensionFit(
        slope=clamped,
        residual_rms=rms,
        rows=tuple(zip(eps_values, counts)),
        ambient_dim=ambient_dim,
        degenerate=degenerate,
    )


def box_dimension_estimate(source, sweep: ScaleSweep | None = None) -> DimensionFit:
    """Box-counting dimension estimate.

    Two input forms:

    * a PointCloud plus a ScaleSweep: the count at each scale is the
      exact covering_number, the fewest eps-balls that cover the cloud
      (uncapped in one dimension, at most EXACT_CAP points otherwise);
    * (scale, count) rows of a 1-D construction, such as N**m intervals
      at their length L_m: the counts are taken as given.

    The slope is clamped to [0, ambient dimension]; a flat count profile
    is reported as degenerate rather than hidden.
    """
    if isinstance(source, PointCloud):
        if sweep is None:
            raise DomainError("a PointCloud source needs a ScaleSweep")
        scales = sweep.scales()
        counts = [covering_number(source, e) for e in scales]
        return _fit(scales, counts, source.n)
    rows = list(source)
    return _fit([scale for scale, _ in rows], [count for _, count in rows], 1)
