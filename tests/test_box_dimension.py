"""Box-counting dimension fits."""

import math
from fractions import Fraction

import numpy as np
import pytest

from fracspec.cantor.levels import build_level
from fracspec.cantor.params import middle_thirds_params
from fracspec.errors import DomainError
from fracspec.geometry.cloud import PointCloud, covering_number
from fracspec.geometry.dimension import MIN_SCALES, box_dimension_estimate
from fracspec.geometry.sweeps import geometric_scales

LOG2_OVER_LOG3 = math.log(2) / math.log(3)


def covering_rows(cloud, scales):
    """(eps, covering_number) rows, as the radial scan builds them."""
    return [(eps, covering_number(cloud, eps)) for eps in scales]


def test_structural_counts_give_exact_slope():
    lengths = middle_thirds_params().level_lengths(10)
    fit = box_dimension_estimate([(lengths[m], 2**m) for m in range(3, 11)])
    # counts 2**m at scales 3**-m make the log-log fit a perfect line
    assert abs(fit.slope - LOG2_OVER_LOG3) < 1e-12
    assert fit.residual_rms < 1e-12
    assert not fit.degenerate


def test_dense_interval_sample_slope_near_one():
    cloud = PointCloud.from_points([Fraction(k, 4096) for k in range(4097)])
    fit = box_dimension_estimate(covering_rows(cloud, geometric_scales(Fraction(1, 8), Fraction(1, 2), 6)))
    assert abs(fit.slope - 1.0) < 0.02


def test_single_point_is_degenerate():
    cloud = PointCloud.from_points([Fraction(1, 2)])
    fit = box_dimension_estimate(covering_rows(cloud, geometric_scales(Fraction(1, 2), Fraction(1, 2), 5)))
    assert fit.degenerate
    assert fit.slope == 0.0


def test_slope_clamped_to_ambient():
    # counts 8**m at scales 2**-m trend with slope 3, above the ambient
    # dimension 1; counts that fall as eps shrinks trend with slope -3
    rising = [(Fraction(1, 2**m), 8**m) for m in range(4)]
    falling = [(eps, 8**3 // count) for eps, count in rising]
    for rows, raw, clamped in ((rising, 3.0, 1.0), (falling, -3.0, 0.0)):
        x = [math.log(1 / float(eps)) for eps, _ in rows]
        y = [math.log(count) for _, count in rows]
        assert np.polyfit(x, y, 1)[0] == pytest.approx(raw)
        assert box_dimension_estimate(rows).slope == clamped
    # a cloud's covering counts stay in range
    pts = [Fraction(0), Fraction(1, 100), Fraction(99, 100), Fraction(1)]
    scales = geometric_scales(Fraction(2), Fraction(1, 200), 4)
    fit = box_dimension_estimate(covering_rows(PointCloud.from_points(pts), scales))
    assert 0.0 <= fit.slope <= 1.0


def test_needs_enough_scales():
    cloud = PointCloud.from_points([0, 1])
    with pytest.raises(DomainError):
        box_dimension_estimate(covering_rows(cloud, geometric_scales(1, Fraction(1, 2), 3)))
    with pytest.raises(DomainError):
        box_dimension_estimate([(Fraction(1, 2**m), 0) for m in range(MIN_SCALES)])
    with pytest.raises(DomainError):
        box_dimension_estimate([])


@pytest.mark.parametrize(
    "scales",
    [
        [Fraction(1, 3)] * 4,
        # distinct rationals that float to one value
        [Fraction(1, 3) + Fraction(k, 10**30) for k in range(4)],
    ],
    ids=["scales0", "scales1"],
)
def test_one_scale_value_is_refused(scales):
    """Rows whose log(1/eps) floats take one value leave the fit rank
    deficient (np.polyfit warns and returns a meaningless slope, 0.3616 for
    counts 1..4 at eps = 1/3), so they are refused before it."""
    with pytest.raises(DomainError, match="two distinct values"):
        box_dimension_estimate(list(zip(scales, (1, 2, 3, 4))))


def test_cloud_route_agrees_with_structural_route():
    """Covering counts of level endpoints reproduce the structural counts.

    At scale 3**-m, the level-m endpoint cloud is covered by exactly one
    ball per interval (closed coverage reaches the interval mate), so the
    two routes fit the same line.
    """
    params = middle_thirds_params()
    pts = []
    level = build_level(params, 6)
    for s in level.starts:
        pts.append(Fraction(s, level.denominator))
        pts.append(Fraction(s + level.length, level.denominator))
    cloud = PointCloud.from_points(pts)
    rows = covering_rows(cloud, geometric_scales(Fraction(1, 27), Fraction(1, 3), 4))
    assert [c for _, c in rows] == [8, 16, 32, 64]
    fit = box_dimension_estimate(rows)
    assert abs(fit.slope - LOG2_OVER_LOG3) < 1e-12
