"""Ball masses of the natural measure on a level, counted exactly on the
level's integer starts, against the float atom route and Fraction
enumeration."""

import math
from fractions import Fraction

from measure_oracle import natural_measure, upper_density_estimate

from fracspec.acceptance import _ball_count
from fracspec.cantor.levels import build_level
from fracspec.cantor.params import middle_thirds_params
from fracspec.geometry.sweeps import geometric_scales

BETA = math.log(2) / math.log(3)
# the upper-density criterion's radii, 3**-k / 9 for k = 0..8
CRITERION_RADII = geometric_scales(Fraction(1, 9), Fraction(1, 3), 9)


def exact_rows(level, center, alpha, radii):
    """(r, mass, ratio) rows of the closed balls around the point whose
    start would be the integer center, each interval of the level carrying
    mass 1 / len(starts), as the criterion computes them."""
    starts, _, den = level
    rows = []
    for r in radii:
        mass = _ball_count(starts, center, math.floor(r * den)) / len(starts)
        rows.append((float(r), mass, mass * (2.0 * float(r)) ** (-alpha)))
    return tuple(rows)


def test_ball_mass_closed_boundary():
    """The level-1 midpoints 1/6 and 5/6 are 2/3 apart: the closed ball of
    radius 2/3 holds both, and any smaller radius holds one."""
    level = build_level(middle_thirds_params(), 1)
    below = Fraction(2, 3) - Fraction(1, 10**9)
    for center in level.starts:
        rows = exact_rows(level, center, 0.0, [Fraction(2, 3), below])
        assert [mass for _, mass, _ in rows] == [1.0, 0.5]


def test_rows_match_per_radius_oracle():
    """At the criterion's depth 12, for every one of the 4096 centers and
    each of its 9 radii, the exact count gives the float route's mass and
    ratio bit for bit."""
    params = middle_thirds_params()
    level = build_level(params, 12)
    mu = natural_measure(params, 12)
    for center, x in zip(level.starts, mu[0]):
        want = upper_density_estimate(mu, x, BETA, CRITERION_RADII)
        assert exact_rows(level, center, BETA, CRITERION_RADII) == want


def test_closed_ball_ties_match_fraction_enumeration():
    """At level 8 the radii 2 / 3**k, k = 1..7, are distances between
    midpoints, so midpoints sit exactly on ball boundaries: the integer
    count equals a count over the exact Fraction midpoints for every
    center.  The float route miscounts some of these ties, which is why
    its comparison above keeps to the criterion's radii."""
    starts, length, den = level = build_level(middle_thirds_params(), 8)
    radii = [Fraction(2, 3**k) for k in range(1, 8)]
    midpoints = [Fraction(2 * s + length, 2 * den) for s in starts]
    for s, c in zip(starts, midpoints):
        distances = [abs(m - c) for m in midpoints]
        want = [sum(d <= r for d in distances) / len(starts) for r in radii]
        assert [mass for _, mass, _ in exact_rows(level, s, 0.0, radii)] == want


def test_ternary_upper_density_hits_two_to_minus_beta():
    """At a level-J midpoint, the ball of radius 3**-k captures exactly the
    ancestor's mass 2**-k, so (2r)**-beta * mass = 2**-beta at every k."""
    level = build_level(middle_thirds_params(), 10)
    radii = geometric_scales(Fraction(1, 9), Fraction(1, 3), 6)
    rows = exact_rows(level, level.starts[0], BETA, radii)
    expected = 2.0 ** (-BETA)
    assert len(rows) == 6
    for _, _, ratio in rows:
        assert abs(ratio - expected) < 1e-12


def test_uniform_grid_density_at_full_dimension():
    # near-Lebesgue reference: n abutting intervals [2k, 2k + 2] / (2n),
    # where (2r)**-1 * mass(B_r) ~ 1 for interior x; x = 1/2 sits where a
    # start of n - 1 would
    n = 4096
    level = (tuple(range(0, 2 * n, 2)), 2, 2 * n)
    rows = exact_rows(level, n - 1, 1.0, geometric_scales(Fraction(1, 8), Fraction(1, 2), 5))
    assert abs(max(ratio for _, _, ratio in rows) - 1.0) < 0.01
