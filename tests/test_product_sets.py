"""Volume sandwich for Cartesian powers of interval unions."""

import math
from fractions import Fraction

import pytest

from fracspec.cantor.levels import build_level, level_tube
from fracspec.cantor.params import middle_thirds_params
from fracspec.errors import DomainError
from fracspec.geometry.intervals import Tube
from fracspec.geometry.sweeps import geometric_scales
from fracspec.geometry.volumes import tube_ratios
from fracspec.numeric import LogRatio
from interval_oracle import level_union
from tube_oracle import union_tube


def test_cube_budget():
    # bounds never enumerate cubes: 4096**2 = 16.7M of them at depth 12,
    # and the closed-form base gives the built level's bounds
    scales = geometric_scales(Fraction(1, 9), Fraction(1, 3), 4)
    rows = tube_ratios(level_tube(middle_thirds_params(), 12), LogRatio(4, 3), scales, power=2)
    assert len(rows) == 4
    built = union_tube(level_union(build_level(middle_thirds_params(), 12)))
    assert rows == tube_ratios(built, LogRatio(4, 3), scales, power=2)


def test_square_volume_sandwich_frozen():
    """The planar ternary square keeps eps**(2 beta - 2) * volume in [1, 9].

    The extreme ratios over the sweep below were computed once from the
    exact coordinate fattenings and are pinned here to guard regressions:
    sup of the upper ratios 25/4, inf of the lower ratios about 4.87.
    """
    alpha = LogRatio(4, 3)  # 2 * log 2 / log 3
    scales = geometric_scales(Fraction(1, 9), Fraction(1, 3), 7)
    rows = tube_ratios(level_tube(middle_thirds_params(), 8), alpha, scales, power=2)
    assert [eps for eps, _, _ in rows] == list(scales)
    # exact rows: eps**(alpha - 2) is rational at eps = 3**-m
    assert all(isinstance(r, Fraction) for _, low, high in rows for r in (low, high))
    assert all(1 <= low and high <= 9 for _, low, high in rows)
    assert rows[0][2] == Fraction(25, 4)
    assert max(high for _, _, high in rows) == Fraction(25, 4)
    assert 4.87 < float(min(low for _, low, _ in rows)) < 4.88
    for _, low, high in rows:
        assert low < high


def test_product_rows_match_coordinate_sandwich():
    """Each row is eps**(alpha - n) times the n-th powers of the base's
    volumes at eps and at k eps / 2**40, k the largest integer with
    k**2 n <= 2**80: exact for a LogRatio alpha, and the floated volumes
    times a float factor otherwise."""
    base = level_tube(middle_thirds_params(), 8)
    scales = geometric_scales(Fraction(1, 9), Fraction(1, 3), 5)
    for n in (2, 3):
        k = math.isqrt(2**80 // n)
        assert k * k * n <= 2**80 < (k + 1) ** 2 * n
        shrink = Fraction(k, 2**40)
        alpha = LogRatio(2**n, 3)  # n * log 2 / log 3
        rows = tube_ratios(base, alpha, scales, power=n)
        for m, (eps, low, high) in enumerate(rows, 2):
            assert eps == Fraction(1, 3**m)
            # eps**(alpha - n) = 2**(-n m) * 3**(n m)
            factor = Fraction(3**n, 2**n) ** m
            assert high == factor * base.volume(eps) ** n
            assert low == factor * base.volume(eps * shrink) ** n
        alpha = 0.5 * n
        for (_, low, high), eps in zip(tube_ratios(base, alpha, scales, power=n), scales):
            factor = float(eps) ** (alpha - n)
            assert high == factor * float(base.volume(eps) ** n)
            assert low == factor * float(base.volume(eps * shrink) ** n)
            assert low < high


def test_product_bounds_validation():
    base = Tube(1, (), 1)  # [0, 1]
    scales = geometric_scales(Fraction(1, 2), Fraction(1, 2), 4)
    for alpha in (2.5, -0.5):
        with pytest.raises(DomainError, match=r"alpha must lie in \[0, 2\]"):
            tube_ratios(base, alpha, scales, power=2)


def test_unit_square_sandwich_brackets_truth():
    # [0,1]**2 at alpha = 2: low <= (1 + 2 eps)**2 <= high
    scales = geometric_scales(Fraction(1, 4), Fraction(1, 2), 5)
    for (_, low, high), eps in zip(tube_ratios(Tube(1, (), 1), 2.0, scales, power=2), scales):
        truth = float((1 + 2 * eps) ** 2)
        assert low <= truth + 1e-12
        assert high >= truth - 1e-12
