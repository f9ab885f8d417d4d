"""The standard bump, its transform, and the dyadic weight profile.

scipy.integrate.quad is the independent quadrature oracle here; the
package's own panel rule must agree with it to quad's reported accuracy.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from fracspec.errors import DomainError
from fracspec.fourier.bump import (
    BumpFunction,
    annulus_sup_squared,
    bump_profile,
)
from fracspec.numeric import unit_ball_volume


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_normalization_against_quad(dim):
    chi = BumpFunction.standard(dim)
    surface = 2 * math.pi ** (dim / 2) / math.gamma(dim / 2)
    val, err = quad(lambda r: float(chi.profile(np.array([r]))[0]) * r ** (dim - 1), 0.0, 1.0)
    assert abs(surface * val - 1.0) < max(1e-9, 10 * err)
    assert abs(chi.integral() - 1.0) < 1e-10


def test_profile_support():
    chi = BumpFunction.standard(2)
    r = np.array([0.0, 0.5, 0.999, 1.0, 1.5])
    vals = chi.profile(r)
    assert vals[0] == pytest.approx(chi.normalizer * math.exp(-1.0))
    assert vals[3] == 0.0 and vals[4] == 0.0
    assert np.all(vals >= 0)


def test_transform_at_zero_is_prefactor():
    for dim in (1, 2, 3):
        chi = BumpFunction.standard(dim)
        assert chi.fourier_radial(0.0) == pytest.approx((2 * math.pi) ** (-dim / 2), rel=1e-12)


def test_transform_1d_against_quad():
    chi = BumpFunction.standard(1)
    for rho in (0.5, 3.0, 11.0):
        val, err = quad(lambda r: 2 * float(chi.profile(np.array([r]))[0]) * math.cos(rho * r), 0.0, 1.0)
        want = (2 * math.pi) ** -0.5 * val
        assert abs(chi.fourier_radial(rho) - want) < max(1e-10, 10 * err)


def test_mollifier_preserves_mass():
    """x -> eps**-1 * chi(x / eps) keeps the bump's unit mass."""
    chi = BumpFunction.standard(1)
    eps = 0.05
    kernel = lambda x: float(chi.profile(np.array([abs(x) / eps]))[0]) / eps
    val, err = quad(kernel, -eps, eps, limit=200)
    assert abs(val - 1.0) < 1e-8


def test_dyadic_weights_low_octave_asymptote():
    """As j -> -infinity the annulus sup approaches |transform(0)|**2, so
    a_j approaches 2**(j(dim - alpha)) * (2 pi)**-dim."""
    chi = BumpFunction.standard(2)
    profile = bump_profile(chi, 1.0, -24, -20)
    for j, a in zip(range(-24, -19), profile.a):
        predicted = 2.0**j * (2 * math.pi) ** -2.0
        assert abs(a / predicted - 1.0) < 1e-10


def test_dyadic_partial_sums_stabilize():
    chi = BumpFunction.standard(2)
    profile = bump_profile(chi, 0.5, -10, 14)
    assert all(a > 0 for a in profile.a)
    # smooth bump transform decays fast: the tail must go quiet
    assert all(a < 1e-8 for a in profile.a[-4:])
    assert profile.a_at(profile.j_lo) == profile.a[0]
    with pytest.raises(DomainError):
        profile.a_at(profile.j_hi + 1)


def test_annulus_sup_dominates_samples():
    chi = BumpFunction.standard(2)
    for j in (-2, 0, 3):
        sup = annulus_sup_squared(2, j)
        rhos = np.linspace(2.0**j, 2.0 ** (j + 1), 17)
        samples = chi.fourier_radial(rhos) ** 2
        assert sup >= samples.max() - 1e-12


def test_profile_validation():
    chi = BumpFunction.standard(2)
    with pytest.raises(DomainError):
        bump_profile(chi, 2.0, -4, 4)
    with pytest.raises(DomainError):
        bump_profile(chi, 1.0, 4, -4)
    with pytest.raises(DomainError):
        BumpFunction.standard(0)


def test_ball_volume_constant():
    assert unit_ball_volume(1) == pytest.approx(2.0)
    assert unit_ball_volume(2) == pytest.approx(math.pi)
    assert unit_ball_volume(3) == pytest.approx(4 * math.pi / 3)
