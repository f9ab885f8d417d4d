"""Epsilon-neighborhood volumes and scale-normalized volume ratios."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

import numpy as np

from ..errors import DomainError, SizeError
from ..numeric import LogRatio
from .cloud import PointCloud
from .intervals import Tube
from .sweeps import ScaleSweep

OCCUPANCY_CELLS_PER_EPS = 8  # grid cell side is eps / 8
# cells of the occupancy grid over the cloud's padded bounding box; a
# larger grid raises SizeError before it is allocated
OCCUPANCY_MAX_CELLS = 2**24


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


def _cell_windows(origin: np.ndarray, pts: np.ndarray, cell: float, reach: int) -> list:
    """Per point, index slices (one per axis) of the grid cells within
    reach cells of the cell whose center is nearest to it; origin is the
    center of cell (0, ..., 0)."""
    nearest = np.rint((pts - origin) / cell).astype(int).tolist()
    return [tuple(slice(max(0, i - reach), i + reach + 1) for i in row) for row in nearest]


def _occupancy_volume(cloud: PointCloud, eps: float) -> VolumeResult:
    pts = cloud.array
    n = cloud.n
    eps = float(eps)
    cell = eps / OCCUPANCY_CELLS_PER_EPS
    half_diag = 0.5 * cell * math.sqrt(n)
    lo = pts.min(axis=0) - eps - cell
    hi = pts.max(axis=0) + eps + cell
    origin = lo + cell / 2
    axes = [np.arange(origin[k], hi[k], cell) for k in range(n)]
    shape = [len(a) for a in axes]
    if math.prod(shape) > OCCUPANCY_MAX_CELLS:
        raise SizeError(
            f"occupancy grid of {' x '.join(map(str, shape))} cells exceeds "
            f"{OCCUPANCY_MAX_CELLS}; use a coarser eps or a smaller cloud"
        )
    # a cell farther than eps + half_diag from every point is in neither
    # count, and one more cell of reach absorbs the rounding of the index
    reach = math.ceil((eps + half_diag) / cell) + 1
    inside_limit, maybe_limit = eps - half_diag, eps + half_diag
    # the k-th axis term broadcasts along the k-th grid axis
    orient = [tuple(-1 if j == k else 1 for j in range(n)) for k in range(n)]
    inside = np.zeros(shape, dtype=bool)
    maybe = np.zeros(shape, dtype=bool)
    for p, window in zip(pts, _cell_windows(origin, pts, cell, reach)):
        # a product grid: the squared distance from p to every cell center is
        # a broadcast sum of one 1-D term per axis, added in axis order
        terms = [((a[w] - c) ** 2).reshape(o) for a, w, c, o in zip(axes, window, p, orient)]
        # sqrt is monotone, so marking each point's cells is the test of the
        # distance to the nearest point
        d = np.sqrt(sum(terms[1:], terms[0]))
        inside[window] |= d <= inside_limit
        maybe[window] |= d < maybe_limit
    cell_vol = cell**n
    low = float(np.count_nonzero(inside) * cell_vol)
    high = float(np.count_nonzero(maybe) * cell_vol)
    return VolumeResult(0.5 * (low + high), low, high)


def eps_neighborhood_volume(cloud: PointCloud, eps) -> VolumeResult:
    """Lebesgue volume of the open eps-neighborhood of a point cloud.

    1-D clouds get exact rational volumes from the gap (tube) formula;
    open and closed neighborhoods agree in measure.  Clouds in dimension
    >= 2 get an occupancy-grid estimate with certified bounds on a grid of
    cell side eps / OCCUPANCY_CELLS_PER_EPS; each point is measured only
    against the cells near it, and a grid of more than OCCUPANCY_MAX_CELLS
    cells raises SizeError.
    """
    if not eps > 0:
        raise DomainError("eps must be positive")
    if not isinstance(cloud, PointCloud):
        raise DomainError(f"unsupported input type {type(cloud).__name__}")
    if cloud.n == 1:
        v = Tube(0, cloud.gap_counts, cloud.denominator).volume(eps)
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


def minkowski_ratio_sweep(tube: Tube, alpha, sweep: ScaleSweep) -> MinkowskiSweep:
    """Sweep eps**(alpha - 1) * |E(eps)| over a scale schedule, for the
    set E whose tube data `tube` holds.

    For bounded sets of packing dimension alpha this ratio stays bounded
    as eps shrinks.  The neighborhood measure is exact, so ratio_exact
    holds the exact ratio whenever eps**(alpha - 1) is rational (alpha a
    LogRatio and eps a matching power), and None otherwise.
    """
    if not (0 <= float(alpha) <= 1):
        raise DomainError("alpha must lie in [0, 1]")
    result = MinkowskiSweep()
    for eps in sweep.scales():
        vol = tube.volume(eps)
        factor = _ratio_factor(alpha, eps, 1)
        if isinstance(factor, Fraction):
            exact = factor * vol
            ratio = float(exact)
        else:
            exact = None
            ratio = factor * float(vol)
        result.rows.append(MinkowskiRow(eps, ratio, exact))
    return result
