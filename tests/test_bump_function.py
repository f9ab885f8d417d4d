"""The standard bump, its transform, and the dyadic weights a_j.

scipy.integrate.quad is the independent quadrature oracle here; the
package's own panel rule must agree with it to quad's reported accuracy.
The batched transform must equal a per-radius quadrature (a copy of the
rule it replaced) bit for bit.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import j0

from fracspec.errors import DomainError, SizeError
from fracspec.fourier import bump
from fracspec.fourier.bump import _raw_profile, annulus_sups_squared, bump_transform
from fracspec.fourier.mollifier import bessel_tail_profile, mollifier_sum
from fracspec.numeric import integrate_panels, sphere_surface_area, unit_ball_volume


def bump_profile(dim):
    """The bump's radial values at |x| = r (vectorized, zero outside [0, 1))."""
    normalizer = bump_transform(dim)[1]
    return lambda r: normalizer * _raw_profile(r)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_normalization_against_quad(dim):
    profile = bump_profile(dim)
    surface = 2 * math.pi ** (dim / 2) / math.gamma(dim / 2)
    val, err = quad(lambda r: float(profile(np.array([r]))[0]) * r ** (dim - 1), 0.0, 1.0)
    assert abs(surface * val - 1.0) < max(1e-9, 10 * err)
    integral = sphere_surface_area(dim) * integrate_panels(
        lambda r: profile(r) * r ** (dim - 1), 0.0, 1.0, panel_width=0.125
    )
    assert abs(integral - 1.0) < 1e-10


def test_profile_support():
    r = np.array([0.0, 0.5, 0.999, 1.0, 1.5])
    vals = bump_profile(2)(r)
    assert vals[0] == pytest.approx(bump_transform(2)[1] * math.exp(-1.0))
    assert vals[3] == 0.0 and vals[4] == 0.0
    assert np.all(vals >= 0)


def test_transform_at_zero_is_prefactor():
    for dim in (1, 2, 3):
        assert bump_transform(dim)[0](0.0) == pytest.approx((2 * math.pi) ** (-dim / 2), rel=1e-12)


def test_transform_1d_against_quad():
    transform, profile = bump_transform(1)[0], bump_profile(1)
    for rho in (0.5, 3.0, 11.0):
        val, err = quad(lambda r: 2 * float(profile(np.array([r]))[0]) * math.cos(rho * r), 0.0, 1.0)
        want = (2 * math.pi) ** -0.5 * val
        assert abs(transform(rho) - want) < max(1e-10, 10 * err)


def test_mollifier_preserves_mass():
    """x -> eps**-1 * chi(x / eps) keeps the bump's unit mass."""
    profile = bump_profile(1)
    eps = 0.05
    kernel = lambda x: float(profile(np.array([abs(x) / eps]))[0]) / eps
    val, err = quad(kernel, -eps, eps, limit=200)
    assert abs(val - 1.0) < 1e-8


def dyadic_weights(alpha, j_lo, j_hi):
    """The a_j of a planar sweep over octaves j_lo..j_hi, by octave."""
    sweep = mollifier_sum(bessel_tail_profile(dim=2), alpha, [0.25], j_lo=j_lo, j_hi=j_hi)
    assert [row.j for row in sweep.rows] == list(range(j_lo, j_hi + 1))
    return [row.a for row in sweep.rows]


def test_dyadic_weights_low_octave_asymptote():
    """As j -> -infinity the annulus sup approaches |transform(0)|**2, so
    a_j approaches 2**(j(dim - alpha)) * (2 pi)**-dim."""
    for j, a in zip(range(-24, -19), dyadic_weights(1.0, -24, -20)):
        predicted = 2.0**j * (2 * math.pi) ** -2.0
        assert abs(a / predicted - 1.0) < 1e-10


def test_dyadic_partial_sums_stabilize():
    weights = dyadic_weights(0.5, -10, 14)
    assert all(a > 0 for a in weights)
    # smooth bump transform decays fast: the tail must go quiet
    assert all(a < 1e-8 for a in weights[-4:])
    # each weight is the octave's sup scaled by 2**(j(dim - alpha))
    sups = annulus_sups_squared(2, range(-10, 15))
    assert weights == [2.0 ** (j * 1.5) * sup for j, sup in zip(range(-10, 15), sups)]


def test_annulus_sup_dominates_samples():
    transform = bump_transform(2)[0]
    for j, sup in zip((-2, 0, 3), annulus_sups_squared(2, (-2, 0, 3))):
        rhos = np.linspace(2.0**j, 2.0 ** (j + 1), 17)
        samples = transform(rhos) ** 2
        assert sup >= samples.max() - 1e-12


def test_profile_validation():
    f = bessel_tail_profile(dim=2)
    with pytest.raises(DomainError):
        mollifier_sum(f, 2.0, [0.25], j_lo=-4, j_hi=4)
    with pytest.raises(DomainError):
        mollifier_sum(f, 1.0, [0.25], j_lo=4, j_hi=-4)
    with pytest.raises(DomainError):
        bump_transform(0)


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


def per_rho_transform(n, rho):
    """Oracle: one quadrature per radius, profile and nodes rebuilt each time."""
    profile = bump_profile(n)
    prefactor = (2 * math.pi) ** (-n / 2)
    rho = abs(float(rho))
    if rho == 0.0:
        return prefactor
    width = min(0.25, 12.0 / rho)
    if n == 1:
        kernel = lambda r: 2 * profile(r) * np.cos(rho * r)
    elif n == 2:
        kernel = lambda r: 2 * math.pi * profile(r) * j0(rho * r) * r
    else:
        kernel = lambda r: 4 * math.pi * profile(r) * np.sin(rho * r) / rho * r
    return prefactor * per_rho_integral(kernel, 0.0, 1.0, width)


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


# 0, tiny radii, the shared 4-panel range below 48, its edge, and radii
# whose panel count grows with rho
ORACLE_RADII = [0.0, 5e-324, 1e-300, 2.0**-20, 0.3, 1.0, 7.5, 47.999, 48.0, 48.5, 60.0, 121.0, 999.0, 4000.0]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_transform_matches_per_rho_oracle(dim):
    transform = bump_transform(dim)[0]
    rng = np.random.default_rng(dim)
    radii = np.concatenate([ORACLE_RADII, 2.0 ** rng.uniform(-20, math.log2(48), 200), rng.uniform(48, 600, 40)])
    want = np.array([per_rho_transform(dim, rho) for rho in radii])
    # one scalar call per radius: every group has one member
    assert np.array_equal(bits([transform(float(rho)) for rho in radii]), bits(want))
    # one array call: groups of many panel counts, zeros and signs mixed
    rng.shuffle(radii)
    signs = np.where(rng.random(len(radii)) < 0.5, -1.0, 1.0)
    want = np.array([per_rho_transform(dim, rho) for rho in radii])
    got = transform(signs * radii)
    assert got.shape == radii.shape
    assert np.array_equal(bits(got), bits(want))
    grid = transform(radii[:40].reshape(5, 8))
    assert grid.shape == (5, 8)
    assert np.array_equal(bits(grid.ravel()), bits(want[:40]))


def test_transform_input_shapes_and_refusals():
    transform = bump_transform(2)[0]
    for rho in (0.0, 3.0, np.float64(3.0), np.array(3.0)):
        assert np.ndim(transform(rho)) == 0
    assert transform([3.0]).shape == (1,)
    with pytest.raises(DomainError, match="dim <= 3"):
        bump_transform(4)
    for bad in (math.nan, math.inf, [1.0, -math.inf]):
        with pytest.raises(DomainError, match="finite"):
            transform(bad)


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
    fn = lambda rho: per_rho_transform(dim, rho) ** 2
    js = range(-20, 5) if dim == 2 else (-20, -3, 0, 4, 7)
    sups = annulus_sups_squared(dim, js)
    for j, sup in zip(js, sups):
        want = per_rho_golden_max(fn, 2.0**j, 2.0 ** (j + 1))
        assert bits(sup) == bits(want), j


def record_transform_calls(monkeypatch) -> list:
    """Make every evaluator the annulus scans build record the radii of
    each of its calls, in the returned list."""
    calls = []
    made = bump.bump_transform

    def recording(dim):
        evaluate, normalizer = made(dim)
        return (lambda rho: calls.append(rho) or evaluate(rho)), normalizer

    monkeypatch.setattr(bump, "bump_transform", recording)
    return calls


def test_annulus_refinements_share_transform_calls(monkeypatch):
    """The 25 default octaves take one call per dense scan and one per
    lockstep step (about 30), not one per golden-section point (about 800).
    The scans come first, in octave order; each step then evaluates one
    point of every search still running, so the calls never grow."""
    calls = record_transform_calls(monkeypatch)
    js = range(-20, 5)
    annulus_sups_squared(2, js)
    assert 25 < len(calls) < 75
    for j, scan in zip(js, calls):
        assert np.array_equal(scan, np.linspace(2.0**j, 2.0 ** (j + 1), 64))
    sizes = [len(rho) for rho in calls[len(js) :]]
    assert sizes[0] == sizes[1] == len(js)
    assert sizes == sorted(sizes, reverse=True) and sizes[-1] >= 1


def test_annulus_scan_budget(monkeypatch):
    """The top octave's dense scan, 64 radii x panels x 32 nodes, is refused
    over MAX_SCAN_NODES before the bump is built, so before any transform
    is evaluated; at the budget the scan runs."""

    def refuse(dim):
        raise AssertionError("the bump was built")

    monkeypatch.setattr(bump, "bump_transform", refuse)
    # the largest octave mollifier_sum admits in the plane: its count of
    # about 2**496 panels must not overflow
    with pytest.raises(SizeError):
        annulus_sups_squared(2, [499])
    # j = 4 tops out at rho 32, which shares rho 48's 4 panels
    monkeypatch.setattr(bump, "MAX_SCAN_NODES", 64 * 4 * 32 - 1)
    with pytest.raises(SizeError):
        annulus_sups_squared(2, range(-2, 5))
    # j = 5 tops out at rho 64: 6 panels
    monkeypatch.setattr(bump, "MAX_SCAN_NODES", 64 * 6 * 32 - 1)
    with pytest.raises(SizeError):
        annulus_sups_squared(2, [5])
    monkeypatch.setattr(bump, "bump_transform", bump_transform)
    monkeypatch.setattr(bump, "MAX_SCAN_NODES", 64 * 4 * 32)
    assert len(annulus_sups_squared(2, range(-2, 5))) == 7


def count_node_builds(monkeypatch) -> list:
    """Record the panel count of every node set the bump's evaluators build."""
    builds = []
    panels = bump._panels

    def counting(lo, hi, count):
        builds.append(count)
        return panels(lo, hi, count)

    monkeypatch.setattr(bump, "_panels", counting)
    return builds


def test_default_mollifier_sum_builds_one_node_set(monkeypatch):
    """Every rho the default sweep reaches lies below 48: one panel count.
    Each sweep's scan builds its node set once and keeps nothing, so a
    second sweep in the same process builds it again and repeats the first
    bit for bit."""
    builds = count_node_builds(monkeypatch)
    schedule = [2.0**-k for k in range(2, 9)]
    first = mollifier_sum(bessel_tail_profile(), 1.0, schedule)
    second = mollifier_sum(bessel_tail_profile(), 1.0, schedule)
    assert builds == [4, 4]
    assert repr(first) == repr(second)


def test_node_cache_keeps_small_panel_counts_only(monkeypatch):
    """Across the calls of one evaluator, a node set of at most
    CACHED_PANELS_MAX panels is built once, and a larger one is built on
    every call."""
    builds = count_node_builds(monkeypatch)
    transform = bump_transform(1)[0]
    top = bump.CACHED_PANELS_MAX
    edge = 12.0 * top
    transform(edge)
    transform([edge, 1.0])
    assert builds == [top, 4]
    far = edge + 1.0
    assert transform(far) == per_rho_transform(1, far)
    transform(far)
    assert builds == [top, 4, top + 1, top + 1]


def test_evaluator_keeps_sixteen_node_sets(monkeypatch):
    """A 17th distinct panel count evicts the least recently used one."""
    builds = count_node_builds(monkeypatch)
    transform = bump_transform(3)[0]
    # 12 / rho is the panel width cap: count + 1 panels each
    radii = [12.0 * count + 6.0 for count in range(4, 21)]
    for rho in radii:
        transform(rho)
    assert len(builds) == len(set(builds)) == 17
    transform(radii[1])
    assert len(builds) == 17
    transform(radii[0])
    assert builds[17:] == builds[:1]
