"""The Cephes J0 port: bit for bit against scipy.special.j0 (a test-only
dependency), and against values typed in from Abramowitz-Stegun Table 9.1."""

import numpy as np
import pytest
from scipy.special import j0 as scipy_j0

from fracspec.numeric import j0


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


def test_matches_scipy_bit_for_bit():
    x = np.random.default_rng(14).uniform(0.0, 50.0, 1_000_000)
    assert np.array_equal(bits(j0(x)), bits(scipy_j0(x)))


@pytest.mark.parametrize(
    "x",
    [
        0.0,
        -0.0,
        5e-324,
        1e-5,  # the first argument of the rational form
        np.nextafter(1e-5, 0.0),  # the last of 1 - x**2 / 4
        5.0,  # the last argument of the rational form
        np.nextafter(5.0, 6.0),  # the first of the modulus-phase form
        -0.75,
        -5.0,
        -31.5,
        1e300,  # x * x overflows, and the phase alone is left
    ],
)
def test_edges_match_scipy(x):
    got = j0(x)
    assert np.ndim(got) == 0
    assert bits(got) == bits(scipy_j0(x))


def test_out_may_alias_the_argument():
    x = np.random.default_rng(3).uniform(-40.0, 40.0, (64, 4, 32))
    want = scipy_j0(x)
    assert j0(x, out=x) is x
    assert np.array_equal(bits(x), bits(want))


@pytest.mark.parametrize(
    "x, value",
    [
        (2.404825557695773, 0.0),  # the first zero
        (5.520078110286311, 0.0),  # the second zero
        (1.0, 0.7651976865579666),
    ],
)
def test_abramowitz_stegun_values(x, value):
    assert abs(j0(x) - value) < 1e-15
