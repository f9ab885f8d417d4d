"""Volume sandwich for Cartesian powers of interval unions."""

from fractions import Fraction

import pytest

from fracspec.cantor.levels import build_level, level_tube
from fracspec.cantor.params import middle_thirds_params
from fracspec.cantor.products import product_minkowski_bounds
from fracspec.errors import DomainError
from fracspec.geometry.intervals import Tube
from fracspec.geometry.sweeps import ScaleSweep
from fracspec.numeric import LogRatio
from tube_oracle import union_tube


def test_cube_budget():
    # bounds never enumerate cubes: 4096**2 = 16.7M of them at depth 12,
    # and the closed-form base gives the built level's bounds
    sweep = ScaleSweep(Fraction(1, 9), Fraction(1, 3), 4)
    bounds = product_minkowski_bounds(
        level_tube(middle_thirds_params(), 12), 2, LogRatio(4, 3), sweep
    )
    assert len(bounds.rows) == 4
    built = union_tube(build_level(middle_thirds_params(), 12).intervals)
    assert bounds == product_minkowski_bounds(built, 2, LogRatio(4, 3), sweep)


def test_square_volume_sandwich_frozen():
    """The planar ternary square keeps eps**(2 beta - 2) * volume in [1, 9].

    The extreme ratios over the sweep below were computed once from the
    exact coordinate fattenings and are pinned here to guard regressions:
    sup of the upper ratios 25/4, inf of the lower ratios about 4.87.
    """
    alpha = LogRatio(4, 3)  # 2 * log 2 / log 3
    sweep = ScaleSweep(Fraction(1, 9), Fraction(1, 3), 7)
    bounds = product_minkowski_bounds(level_tube(middle_thirds_params(), 8), 2, alpha, sweep)
    assert bounds.within(1.0, 9.0)
    # 6.25 is the float of 25/4 exactly
    assert bounds.rows[0].ratio_high == 6.25
    assert bounds.sup_ratio_high == 6.25
    assert 4.87 < bounds.inf_ratio_low < 4.88
    for row in bounds.rows:
        assert row.ratio_low <= row.ratio_high


def test_product_bounds_validation():
    base = Tube(1, (), 1)  # [0, 1]
    sweep = ScaleSweep(Fraction(1, 2), Fraction(1, 2), 4)
    for alpha in (2.5, -0.5):
        with pytest.raises(DomainError):
            product_minkowski_bounds(base, 2, alpha, sweep)


def test_unit_square_sandwich_brackets_truth():
    # [0,1]**2 at alpha = 2: ratio_low <= (1 + 2 eps)**2 <= ratio_high
    sweep = ScaleSweep(Fraction(1, 4), Fraction(1, 2), 5)
    bounds = product_minkowski_bounds(Tube(1, (), 1), 2, 2.0, sweep)
    for row, eps in zip(bounds.rows, sweep.scales()):
        truth = float((1 + 2 * eps) ** 2)
        assert row.ratio_low <= truth + 1e-12
        assert row.ratio_high >= truth - 1e-12
