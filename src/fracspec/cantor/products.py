"""Volume sandwich for Cartesian powers of a 1-D construction level."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from ..errors import DomainError
from ..geometry.intervals import Tube
from ..geometry.sweeps import ScaleSweep
from ..geometry.volumes import _ratio_factor
from ..numeric import as_fraction

# floor(2**40 / sqrt(n)) / 2**40 as an exact rational <= 1/sqrt(n)
_SQRT_SHIFT = 40


def _inv_sqrt_lower(n: int) -> Fraction:
    return Fraction(math.isqrt((1 << (2 * _SQRT_SHIFT)) // n), 1 << _SQRT_SHIFT)


@dataclass(frozen=True)
class ProductVolumeRow:
    eps: object
    ratio_low: float
    ratio_high: float


@dataclass
class ProductMinkowskiBounds:
    """Two-sided eps**(alpha - n) * volume bounds for base**power.

    With B_r the r-neighborhood of base, the eps-neighborhood of the
    product is sandwiched between products of coordinate neighborhoods:

        B_{eps/sqrt(n)}**n  <=  neighborhood  <=  B_eps**n

    (a point within eps of the product is within eps of base in every
    coordinate; conversely per-coordinate slack eps/sqrt(n) keeps the
    joint distance below eps).  eps/sqrt(n) is rounded down to a rational
    so the lower volume stays an exact underestimate.
    """

    rows: list[ProductVolumeRow] = field(default_factory=list)

    @property
    def sup_ratio_high(self) -> float:
        return max(r.ratio_high for r in self.rows)

    @property
    def inf_ratio_low(self) -> float:
        return min(r.ratio_low for r in self.rows)

    def within(self, lo: float, hi: float) -> bool:
        return all(lo <= r.ratio_low and r.ratio_high <= hi for r in self.rows)


def product_minkowski_bounds(
    base: Tube, power: int, alpha, sweep: ScaleSweep
) -> ProductMinkowskiBounds:
    """Bound the scale-normalized neighborhood volume of the power-th
    Cartesian power of the set whose tube data `base` holds.

    Never enumerates cubes: both bounds come from exact 1-D neighborhood
    measures raised to the power, so deep levels stay cheap.
    """
    n = power
    a = float(alpha)
    if not (0 <= a <= n):
        raise DomainError(f"alpha must lie in [0, {n}]")
    shrink = _inv_sqrt_lower(n)
    out = ProductMinkowskiBounds()
    for eps in sweep.scales():
        e = as_fraction(eps)
        vol_hi = base.volume(e) ** n
        vol_lo = base.volume(e * shrink) ** n
        factor = _ratio_factor(alpha, eps, n)
        if isinstance(factor, Fraction):
            # the exact products decide the floats
            lo, hi = float(factor * vol_lo), float(factor * vol_hi)
        else:
            lo, hi = factor * float(vol_lo), factor * float(vol_hi)
        out.rows.append(ProductVolumeRow(eps, lo, hi))
    return out
