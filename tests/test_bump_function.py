"""The standard bump, its transform, and the dyadic weight profile.

scipy.integrate.quad is the independent quadrature oracle here; the
package's own panel rule must agree with it to quad's reported accuracy.
The cached, batched transform must equal a per-radius quadrature (a
copy of the rule it replaced) bit for bit.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import j0

from fracspec.errors import DomainError
from fracspec.fourier import bump
from fracspec.fourier.bump import (
    BumpFunction,
    annulus_sups_squared,
    bump_profile,
)
from fracspec.fourier.mollifier import bessel_tail_profile, mollifier_sum
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
    for j, sup in zip((-2, 0, 3), annulus_sups_squared(2, (-2, 0, 3))):
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


def per_rho_integral(fn, lo, hi, panel_width):
    """The composite 32-node Gauss-Legendre rule, evaluated for one integrand."""
    count = max(1, math.ceil((hi - lo) / panel_width))
    edges = np.linspace(lo, hi, count + 1)
    x, w = np.polynomial.legendre.leggauss(32)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halves = 0.5 * np.diff(edges)
    pts = mids[:, None] + halves[:, None] * x[None, :]
    vals = np.asarray(fn(pts.ravel()), dtype=float).reshape(pts.shape)
    return float(np.sum(vals * w[None, :] * halves[:, None]))


def per_rho_transform(chi, rho):
    """Oracle: one quadrature per radius, profile and nodes rebuilt each time."""
    n = chi.dim
    prefactor = (2 * math.pi) ** (-n / 2)
    rho = abs(float(rho))
    if rho == 0.0:
        return prefactor
    width = min(0.25, 12.0 / rho)
    if n == 1:
        kernel = lambda r: 2 * chi.profile(r) * np.cos(rho * r)
    elif n == 2:
        kernel = lambda r: 2 * math.pi * chi.profile(r) * j0(rho * r) * r
    else:
        kernel = lambda r: 4 * math.pi * chi.profile(r) * np.sin(rho * r) / rho * r
    return prefactor * per_rho_integral(kernel, 0.0, 1.0, width)


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


# 0, tiny radii, the shared 4-panel range below 48, its edge, and radii
# whose panel count grows with rho
ORACLE_RADII = [0.0, 5e-324, 1e-300, 2.0**-20, 0.3, 1.0, 7.5, 47.999, 48.0, 48.5, 60.0, 121.0, 999.0, 4000.0]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_transform_matches_per_rho_oracle(dim):
    chi = BumpFunction.standard(dim)
    rng = np.random.default_rng(dim)
    radii = np.concatenate([ORACLE_RADII, 2.0 ** rng.uniform(-20, math.log2(48), 200), rng.uniform(48, 600, 40)])
    want = np.array([per_rho_transform(chi, rho) for rho in radii])
    # one scalar call per radius: every group has one member
    assert np.array_equal(bits([chi.fourier_radial(float(rho)) for rho in radii]), bits(want))
    # one array call: groups of many panel counts, zeros and signs mixed
    rng.shuffle(radii)
    signs = np.where(rng.random(len(radii)) < 0.5, -1.0, 1.0)
    want = np.array([per_rho_transform(chi, rho) for rho in radii])
    got = chi.fourier_radial(signs * radii)
    assert got.shape == radii.shape
    assert np.array_equal(bits(got), bits(want))
    grid = chi.fourier_radial(radii[:40].reshape(5, 8))
    assert grid.shape == (5, 8)
    assert np.array_equal(bits(grid.ravel()), bits(want[:40]))


def test_transform_input_shapes_and_refusals():
    chi = BumpFunction.standard(2)
    for rho in (0.0, 3.0, np.float64(3.0), np.array(3.0)):
        assert np.ndim(chi.fourier_radial(rho)) == 0
    assert chi.fourier_radial([3.0]).shape == (1,)
    with pytest.raises(DomainError):
        BumpFunction(4, 1.0).fourier_radial([0.0, 1.0])
    assert BumpFunction(4, 1.0).fourier_radial(0.0) == (2 * math.pi) ** -2
    for bad in (math.nan, math.inf, [1.0, -math.inf]):
        with pytest.raises(DomainError, match="finite"):
            chi.fourier_radial(bad)


def per_rho_golden_max(fn, lo, hi, samples=64):
    """The annulus scan with one call per sample, then golden-section steps."""
    xs = np.linspace(lo, hi, samples)
    vals = np.array([fn(x) for x in xs])
    k = int(np.argmax(vals))
    a = xs[max(0, k - 1)]
    b = xs[min(len(xs) - 1, k + 1)]
    inv_phi = (math.sqrt(5) - 1) / 2
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    fc, fd = fn(c), fn(d)
    best = max(float(vals[k]), fc, fd)
    while (b - a) > 1e-8 * max(hi - lo, 1e-30):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fn(d)
        best = max(best, fc, fd)
    return best


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_annulus_sups_match_per_rho_scan(dim):
    """The octaves refined in lockstep find each max a per-octave search
    with one transform call per radius finds; j = 7 mixes panel counts
    into the lockstep calls."""
    chi = BumpFunction.standard(dim)
    fn = lambda rho: per_rho_transform(chi, rho) ** 2
    js = range(-20, 5) if dim == 2 else (-20, -3, 0, 4, 7)
    bump._ANNULUS_SUPS.clear()
    sups = annulus_sups_squared(dim, js)
    for j, sup in zip(js, sups):
        want = per_rho_golden_max(fn, 2.0**j, 2.0 ** (j + 1))
        assert bits(sup) == bits(want), j


def test_annulus_refinements_share_transform_calls(monkeypatch):
    """The 25 default octaves take one call per dense scan and one per
    lockstep step (about 30), not one per golden-section point (about 800)."""
    calls = []
    transform = BumpFunction.fourier_radial
    monkeypatch.setattr(
        BumpFunction, "fourier_radial", lambda chi, rho: calls.append(rho) or transform(chi, rho)
    )
    bump._ANNULUS_SUPS.clear()
    annulus_sups_squared(2, range(-20, 5))
    assert 25 < len(calls) < 75


def test_default_mollifier_sum_builds_one_node_set(monkeypatch):
    """Every rho the default sweep reaches lies below 48: one panel count."""
    builds = []
    panels = bump._panels

    def counting(lo, hi, count):
        builds.append(count)
        return panels(lo, hi, count)

    monkeypatch.setattr(bump, "_panels", counting)
    bump._ANNULUS_SUPS.clear()
    bump._radial_nodes.cache_clear()
    mollifier_sum(bessel_tail_profile(), BumpFunction.standard(2), 1.0, [2.0**-k for k in range(2, 9)])
    assert builds == [4]


def test_node_cache_keeps_small_panel_counts_only():
    """Node sets past CACHED_PANELS_MAX panels are rebuilt, not kept."""
    chi = BumpFunction.standard(1)
    bump._radial_nodes.cache_clear()
    chi.fourier_radial(12.0 * bump.CACHED_PANELS_MAX)
    assert bump._radial_nodes.cache_info().currsize == 1
    far = 12.0 * bump.CACHED_PANELS_MAX + 1.0
    assert chi.fourier_radial(far) == per_rho_transform(chi, far)
    assert bump._radial_nodes.cache_info().currsize == 1
