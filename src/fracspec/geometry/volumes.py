"""Epsilon-neighborhood volumes and scale-normalized volume ratios."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

import numpy as np

from ..errors import DomainError
from ..numeric import LogRatio
from .cloud import PointCloud
from .intervals import IntervalUnion, tube_measure
from .sweeps import ScaleSweep

OCCUPANCY_CELLS_PER_EPS = 8  # grid cell side is eps / 8


@dataclass(frozen=True)
class VolumeResult:
    """Volume of an eps-neighborhood, with certified two-sided bounds.

    For 1-D clouds the volume is exact and low == value == high.  For the
    occupancy-grid estimate, low counts cells certified inside and high
    counts cells that might touch, so low <= true volume <= high up to
    float rounding in the distance tests.
    """

    value: Union[Fraction, float]
    low: Union[Fraction, float]
    high: Union[Fraction, float]


def _occupancy_volume(cloud: PointCloud, eps: float) -> VolumeResult:
    pts = cloud.as_array()
    n = cloud.n
    eps = float(eps)
    cell = eps / OCCUPANCY_CELLS_PER_EPS
    half_diag = 0.5 * cell * math.sqrt(n)
    lo = pts.min(axis=0) - eps - cell
    hi = pts.max(axis=0) + eps + cell
    axes = [np.arange(lo[k] + cell / 2, hi[k], cell) for k in range(n)]
    # a product grid: the squared distance from p to every cell center is a
    # broadcast sum of one 1-D term per axis, added in axis order
    d2 = np.full([len(a) for a in axes], np.inf)
    for p in pts:
        terms = np.ix_(*[(a - c) ** 2 for a, c in zip(axes, p)])
        np.minimum(d2, sum(terms[1:], terms[0]), out=d2)
    d = np.sqrt(d2)
    cell_vol = cell**n
    inside = float(np.count_nonzero(d <= eps - half_diag) * cell_vol)
    maybe = float(np.count_nonzero(d < eps + half_diag) * cell_vol)
    return VolumeResult(0.5 * (inside + maybe), inside, maybe)


def eps_neighborhood_volume(cloud: PointCloud, eps) -> VolumeResult:
    """Lebesgue volume of the open eps-neighborhood of a point cloud.

    1-D clouds get exact rational volumes from the gap (tube) formula;
    open and closed neighborhoods agree in measure.  Clouds in dimension
    >= 2 get an occupancy-grid estimate with certified bounds on a grid of
    cell side eps / OCCUPANCY_CELLS_PER_EPS.
    """
    if not eps > 0:
        raise DomainError("eps must be positive")
    if not isinstance(cloud, PointCloud):
        raise DomainError(f"unsupported input type {type(cloud).__name__}")
    if cloud.n == 1:
        v = tube_measure(0, cloud.gap_counts, cloud.denominator, eps)
        return VolumeResult(v, v, v)
    return _occupancy_volume(cloud, eps)


@dataclass(frozen=True)
class MinkowskiRow:
    eps: object
    ratio: float
    ratio_exact: Fraction | None


@dataclass
class MinkowskiSweep:
    """Scale-by-scale values of eps**(alpha - 1) * |union(eps)|."""

    rows: list[MinkowskiRow] = field(default_factory=list)

    @property
    def sup_ratio(self) -> float:
        return max(r.ratio for r in self.rows)

    def bounded_by(self, limit: float) -> bool:
        return self.sup_ratio <= limit


def _ratio_factor(alpha, eps, n: int):
    """eps**(alpha - n), exact Fraction when alpha is a LogRatio and eps
    a matching power, float otherwise."""
    if isinstance(alpha, LogRatio):
        exact = alpha.exact_power(eps, shift=-n)
        if exact is not None:
            return exact
    return float(eps) ** (float(alpha) - n)


def minkowski_ratio_sweep(union: IntervalUnion, alpha, sweep: ScaleSweep) -> MinkowskiSweep:
    """Sweep eps**(alpha - 1) * |union(eps)| over a scale schedule.

    For bounded sets of packing dimension alpha this ratio stays bounded
    as eps shrinks.  The neighborhood measure is exact, so ratio_exact
    holds the exact ratio whenever eps**(alpha - 1) is rational (alpha a
    LogRatio and eps a matching power), and None otherwise.
    """
    if not (0 <= float(alpha) <= 1):
        raise DomainError("alpha must lie in [0, 1]")
    result = MinkowskiSweep()
    for eps in sweep.scales():
        vol = union.neighborhood_measure(eps)
        factor = _ratio_factor(alpha, eps, 1)
        if isinstance(factor, Fraction):
            exact = factor * vol
            ratio = float(exact)
        else:
            exact = None
            ratio = factor * float(vol)
        result.rows.append(MinkowskiRow(eps, ratio, exact))
    return result
