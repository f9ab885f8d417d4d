"""Epsilon-neighborhood volumes and scale-normalized tube volume ratios."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from ..errors import DomainError, SizeError
from ..numeric import LogRatio, as_fraction
from .cloud import PointCloud, _check_eps
from .intervals import Tube

OCCUPANCY_CELLS_PER_EPS = 8  # grid cell side is eps / 8
# cells of the occupancy grid over the cloud's padded bounding box; a
# larger grid raises SizeError before it is allocated
OCCUPANCY_MAX_CELLS = 2**24


def _occupancy_volume(cloud: PointCloud, eps: float) -> tuple[float, float]:
    pts = cloud.array
    n = cloud.n
    eps = float(eps)
    cell = eps / OCCUPANCY_CELLS_PER_EPS
    half_diag = 0.5 * cell * math.sqrt(n)
    lo = pts.min(axis=0) - eps - cell
    hi = pts.max(axis=0) + eps + cell
    origin = lo + cell / 2
    # np.arange's length rule, so the budget is checked before any allocation
    shape = [math.ceil((hi[k] - origin[k]) / cell) for k in range(n)]
    if math.prod(shape) > OCCUPANCY_MAX_CELLS:
        raise SizeError(
            f"occupancy grid of {' x '.join(map(str, shape))} cells exceeds "
            f"{OCCUPANCY_MAX_CELLS}; use a coarser eps or a smaller cloud"
        )
    # a cell farther than eps + half_diag from every point is in neither
    # count, and one more cell of reach absorbs the rounding of the index
    reach = math.ceil((eps + half_diag) / cell) + 1
    offsets = np.arange(-reach, reach + 1)
    # the cell centers per axis, padded by reach cells at infinity
    axes = [np.full(m + 2 * reach, np.inf) for m in shape]
    for k, a in enumerate(axes):
        a[reach:-reach] = np.arange(origin[k], hi[k], cell)
    inside = np.zeros(math.prod(shape), dtype=bool)
    maybe = np.zeros(inside.shape, dtype=bool)
    # each point is measured on the cells within reach of its nearest cell
    # center, all windows stacked, up to 2**20 cells at a time
    step = max(1, 2**20 // len(offsets) ** n)
    for s in range(0, len(pts), step):
        part = pts[s : s + step]
        nearest = np.rint((part - origin) / cell).astype(int)
        d2 = flat = 0
        for k in range(n):
            # a product grid: the squared distances are a broadcast sum of
            # one term per axis, added in axis order
            i = nearest[:, k, None] + offsets
            orient = (len(part),) + tuple(-1 if j == k else 1 for j in range(n))
            d2 = d2 + ((axes[k][i + reach] - part[:, k, None]) ** 2).reshape(orient)
            flat = flat * shape[k] + i.reshape(orient)
        # sqrt is monotone, so marking each point's cells is the test of
        # the distance to the nearest point
        d = np.sqrt(d2)
        inside[flat[d <= eps - half_diag]] = True
        maybe[flat[d < eps + half_diag]] = True
    return float(np.count_nonzero(inside) * cell**n), float(np.count_nonzero(maybe) * cell**n)


def eps_neighborhood_volume(cloud: PointCloud, eps) -> tuple:
    """(low, high) bounds on the Lebesgue volume of the open
    eps-neighborhood of a point cloud.

    1-D clouds get the exact rational volume from the gap (tube) formula,
    as low == high; open and closed neighborhoods agree in measure.
    Clouds in dimension >= 2 get an occupancy-grid estimate on a grid of
    cell side eps / OCCUPANCY_CELLS_PER_EPS: low counts the cells
    certified inside and high the cells that might touch, so low <= true
    volume <= high up to float rounding in the distance tests.  Every
    point's window of nearby cells is measured in one stacked array, and
    a grid of more than OCCUPANCY_MAX_CELLS cells raises SizeError.
    """
    _check_eps(eps, cloud)
    if cloud.n == 1:
        v = Tube(0, cloud.gap_counts, cloud.denominator).volume(eps)
        return v, v
    return _occupancy_volume(cloud, eps)


def _ratio_factor(alpha, eps, n: int):
    """eps**(alpha - n), exact Fraction when alpha is a LogRatio and eps
    a matching power, float otherwise."""
    if isinstance(alpha, LogRatio):
        exact = alpha.exact_power(eps, shift=-n)
        if exact is not None:
            return exact
    return float(eps) ** (float(alpha) - n)


def _scaled(factor, volume):
    """factor * volume: exact for a Fraction factor, while a float factor
    multiplies the float of the exact volume."""
    return factor * volume if isinstance(factor, Fraction) else factor * float(volume)


# floor(2**40 / sqrt(n)) / 2**40 as an exact rational <= 1/sqrt(n)
_SQRT_SHIFT = 40


def _inv_sqrt_lower(n: int) -> Fraction:
    return Fraction(math.isqrt((1 << (2 * _SQRT_SHIFT)) // n), 1 << _SQRT_SHIFT)


def tube_ratios(tube: Tube, alpha, scales, power: int = 1) -> tuple:
    """(eps, low, high) rows bounding eps**(alpha - n) * |E_eps| over the
    scales, for E the n-th Cartesian power (n = power) of the set whose
    tube data `tube` holds.

    The eps-neighborhood of E is sandwiched between products of
    coordinate neighborhoods B_r of the base set:

        B_{eps/sqrt(n)}**n  <=  E_eps  <=  B_eps**n

    (a point within eps of E is within eps of the base in every
    coordinate; per-coordinate slack eps/sqrt(n) keeps the joint distance
    below eps).  eps/sqrt(n) is rounded down to a rational, so the lower
    volume stays an exact underestimate; at n = 1 it is eps itself, and
    low == high.  Both bounds are exact 1-D volumes
    raised to the power, so no cube is enumerated.  The rows hold
    Fractions where eps**(alpha - n) is rational (alpha a LogRatio and
    eps a matching power) and floats elsewhere.  For sets of packing
    dimension alpha the ratios stay bounded as eps shrinks.
    """
    n = power
    if not (0 <= float(alpha) <= n):
        raise DomainError(f"alpha must lie in [0, {n}]")
    shrink = _inv_sqrt_lower(n)
    rows = []
    for eps in scales:
        factor = _ratio_factor(alpha, eps, n)
        vol = tube.volume(eps)
        if n == 1:
            # the shrink is exactly 1: one volume is both bounds
            ratio = _scaled(factor, vol)
            rows.append((eps, ratio, ratio))
        else:
            low = tube.volume(as_fraction(eps) * shrink) ** n
            rows.append((eps, _scaled(factor, low), _scaled(factor, vol**n)))
    return tuple(rows)
