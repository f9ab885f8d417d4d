"""Ball masses and upper-density estimates."""

import math
from fractions import Fraction

import pytest

from fracspec.cantor.measures import natural_measure
from fracspec.cantor.params import middle_thirds_params
from fracspec.errors import DomainError
import numpy as np

from fracspec.geometry.density import WeightedMeasure, upper_density_estimate
from fracspec.geometry.sweeps import geometric_scales

BETA = math.log(2) / math.log(3)


def ball_mass(measure, x, r):
    """Mass of the closed ball of radius r around x, one radius per call:
    the oracle for the masses upper_density_estimate sums per radius."""
    if isinstance(x, (int, float)):
        x = (x,)
    d2 = ((measure.atoms - np.asarray(x, dtype=float)) ** 2).sum(axis=1)
    return float(measure.weights[d2 <= r * r].sum())


def measure_of(atoms, weights):
    """A measure from per-atom lists, one row per atom."""
    return WeightedMeasure(
        np.asarray(atoms, dtype=float).reshape(len(weights), -1), np.asarray(weights, dtype=float)
    )


def masses(measure, x, radii):
    """The masses upper_density_estimate reports (alpha 0: ratio = mass)."""
    return [mass for _, mass, _ in upper_density_estimate(measure, x, 0.0, radii)]


def test_measure_is_its_two_arrays():
    """A measure is the named pair (atoms, weights), and the alpha bound
    is the dimension of the atoms."""
    atoms = np.array([[0.0, 0.0], [1.0, 1.0]])
    mu = WeightedMeasure(atoms, np.array([0.25, 0.75]))
    assert mu._fields == ("atoms", "weights") and mu.atoms is atoms
    assert masses(mu, (0.0, 0.0), [1.0, 2.0]) == [0.25, 1.0]
    assert upper_density_estimate(mu, (0.0, 0.0), 2.0, [0.5]) == ((0.5, 0.25, 0.25),)
    with pytest.raises(DomainError, match=r"alpha must lie in \[0, 2\]"):
        upper_density_estimate(mu, (0.0, 0.0), 2.5, [1.0])


def test_ball_mass_closed_boundary():
    mu = measure_of([0.0, 1.0], [0.5, 0.5])
    # atom exactly on the boundary counts: the ball is closed
    assert masses(mu, 0.0, [1.0, 0.999]) == [1.0, 0.5]
    assert masses(mu, (0.5,), [0.5]) == [1.0]
    assert ball_mass(mu, 0.0, 1.0) == 1.0 and ball_mass(mu, 0.0, 0.999) == 0.5


def test_rows_match_per_radius_oracle():
    """Distances computed once give each radius's mass and ratio bit for
    bit as one ball_mass call per radius did, over the criterion's 9
    radii floated once or taken from the schedule."""
    mu = natural_measure(middle_thirds_params(), 8)
    scales = geometric_scales(Fraction(1, 9), Fraction(1, 3), 9)
    radii = [float(r) for r in scales]
    for x in (mu.atoms[0], mu.atoms[77], (0.5,), 0.3):
        rows = upper_density_estimate(mu, x, BETA, radii)
        assert rows == upper_density_estimate(mu, x, BETA, scales)
        want = []
        for r in radii:
            mass = ball_mass(mu, x, r)
            want.append((r, mass, mass * (2.0 * r) ** (-BETA)))
        assert rows == tuple(want)


def test_ternary_upper_density_hits_two_to_minus_beta():
    """At a level-J midpoint, the ball of radius 3**-k captures exactly the
    ancestor's mass 2**-k, so (2r)**-beta * mass = 2**-beta at every k."""
    params = middle_thirds_params()
    mu = natural_measure(params, 10)
    x = mu.atoms[0]
    rows = upper_density_estimate(mu, x, BETA, geometric_scales(Fraction(1, 9), Fraction(1, 3), 6))
    expected = 2.0 ** (-BETA)
    assert len(rows) == 6
    for _, _, ratio in rows:
        assert abs(ratio - expected) < 1e-12


def test_uniform_grid_density_at_full_dimension():
    # near-Lebesgue reference: (2r)**-1 * mass(B_r) ~ 1 for interior x
    n = 4096
    mu = measure_of([(k + 0.5) / n for k in range(n)], [1.0 / n] * n)
    rows = upper_density_estimate(mu, (0.5,), 1.0, geometric_scales(Fraction(1, 8), Fraction(1, 2), 5))
    assert abs(max(ratio for _, _, ratio in rows) - 1.0) < 0.01


def test_density_input_validation():
    mu = measure_of([0.0], [1.0])
    radii = geometric_scales(Fraction(1, 2), Fraction(1, 2), 4)
    with pytest.raises(DomainError):
        upper_density_estimate(mu, 0.0, 1.5, radii)
    with pytest.raises(DomainError):
        upper_density_estimate(mu, 0.0, -0.2, radii)

