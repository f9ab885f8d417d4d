"""Epsilon-neighborhood volumes and scale-normalized volume ratios."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

import numpy as np

from ..errors import DomainError
from ..numeric import LogRatio, as_fraction
from .cloud import PointCloud
from .intervals import IntervalUnion, tube_measure
from .sweeps import ScaleSweep

OCCUPANCY_CELLS_PER_EPS = 8  # grid cell side is eps / 8


@dataclass(frozen=True)
class VolumeResult:
    """Volume of an eps-neighborhood, with certified two-sided bounds.

    For exact inputs low == value == high and exact is True.  For the
    occupancy-grid estimate, low counts cells certified inside and high
    counts cells that might touch, so low <= true volume <= high up to
    float rounding in the distance tests.
    """

    value: Union[Fraction, float]
    low: Union[Fraction, float]
    high: Union[Fraction, float]
    exact: bool


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
    return VolumeResult(0.5 * (inside + maybe), inside, maybe, exact=False)


def eps_neighborhood_volume(obj, eps) -> VolumeResult:
    """Lebesgue volume of the open eps-neighborhood of obj.

    IntervalUnion and 1-D clouds get exact rational volumes from the gap
    (tube) formula; open and closed neighborhoods agree in measure.
    Clouds in dimension >= 2 get an occupancy-grid estimate with certified
    bounds on a grid of cell side eps / OCCUPANCY_CELLS_PER_EPS.
    """
    if not eps > 0:
        raise DomainError("eps must be positive")
    if isinstance(obj, IntervalUnion):
        v = obj.neighborhood_measure(eps)
        return VolumeResult(v, v, v, exact=True)
    if isinstance(obj, PointCloud):
        if obj.n == 1:
            v = tube_measure(Fraction(0), obj.gap_counts, eps)
            return VolumeResult(v, v, v, exact=True)
        return _occupancy_volume(obj, eps)
    raise DomainError(f"unsupported input type {type(obj).__name__}")


@dataclass(frozen=True)
class MinkowskiRow:
    eps: object
    volume: object
    ratio: float
    ratio_exact: Fraction | None
    ratio_low: float
    ratio_high: float


@dataclass
class MinkowskiSweep:
    """Scale-by-scale values of eps**(alpha - n) * volume(eps-neighborhood)."""

    alpha: object
    ambient_dim: int
    rows: list[MinkowskiRow] = field(default_factory=list)

    @property
    def sup_ratio(self) -> float:
        return max(r.ratio_high for r in self.rows)

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


def minkowski_ratio_sweep(obj, alpha, sweep: ScaleSweep) -> MinkowskiSweep:
    """Sweep eps**(alpha - n) * |obj(eps)| over a scale schedule.

    For bounded sets of packing dimension alpha this ratio stays bounded
    as eps shrinks; the sweep reports per-scale ratios with whatever
    exactness the inputs allow.
    """
    n = obj.n if isinstance(obj, PointCloud) else 1
    a = float(alpha)
    if not (0 <= a <= n):
        raise DomainError(f"alpha must lie in [0, {n}]")
    result = MinkowskiSweep(alpha=alpha, ambient_dim=n)
    for eps in sweep.scales():
        vol = eps_neighborhood_volume(obj, eps)
        factor = _ratio_factor(alpha, eps, n)
        exact = None
        if isinstance(factor, Fraction) and vol.exact:
            exact = factor * as_fraction(vol.value)
            ratio = float(exact)
            low = high = ratio
        else:
            f = float(factor)
            ratio = f * float(vol.value)
            low, high = f * float(vol.low), f * float(vol.high)
        result.rows.append(MinkowskiRow(eps, vol.value, ratio, exact, low, high))
    return result
