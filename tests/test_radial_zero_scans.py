"""Radial zero scans on the planar frequency lattice."""

import numpy as np
import pytest

from fracspec import experiments
from fracspec.config import ExperimentConfig
from fracspec.errors import DomainError
from fracspec.tauberian.grid import vanishing
from fracspec.tauberian.spherical import (
    _lattice_norms,
    mask_spectrum_on_radii,
    spherical_zero_radii,
)


def per_shell_zero_radii(values):
    """The scan as it was first written: one shell mask per radius
    r = 1, 2, ... up to the largest lattice radius, and r is a zero when
    every coefficient with r - 1/2 <= |k| < r + 1/2 vanishes."""
    zero, _ = vanishing(np.fft.fft2(np.asarray(values, dtype=complex), norm="ortho"))
    zero = zero.ravel()
    m = len(values)
    freqs = np.fft.fftfreq(m, d=1.0 / m)
    kx, ky = np.meshgrid(freqs, freqs, indexing="ij")
    norms = np.sqrt(kx**2 + ky**2).ravel()
    r_max = float(norms.max())
    radii = []
    r = 1.0
    while r <= r_max:
        mask = (norms >= r - 0.5) & (norms < r + 0.5)
        if zero[mask].all():
            radii.append(r)
        r += 1.0
    return tuple(radii)


def test_centered_frequencies():
    """Index i of each axis stands for frequency i, or i - m past m/2."""
    norms = _lattice_norms(8)
    assert norms[:, 0].tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 3.0, 2.0, 1.0]
    assert norms[0].tolist() == norms[:, 0].tolist()
    assert norms[3, 4] == np.hypot(3.0, 4.0)


def oracle_grids():
    """Per size m = 2..119: the zero function, a subnormal constant and a
    random grid masked near a few random radii with a random band."""
    rng = np.random.default_rng(2016)
    for m in range(2, 120):
        yield np.zeros((m, m))
        yield np.full((m, m), 1e-320)
        values = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        radii = rng.uniform(0.5, m / 2, size=rng.integers(1, 5))
        yield mask_spectrum_on_radii(values, radii, rng.uniform(0.2, 1.5))


def test_scan_matches_per_shell_oracle():
    """The bincount scan returns the per-shell loop's tuple on 354 grids,
    as sorted positive floats."""
    grids = list(oracle_grids())
    assert len(grids) == 354
    for values in grids:
        got = spherical_zero_radii(values)
        assert got == per_shell_zero_radii(values), len(values)
        assert all(type(r) is float and r > 0 for r in got)
        assert list(got) == sorted(got)


def test_round_trip_masked_radii_recovered():
    """Zero the spectrum near chosen radii, then rediscover exactly them."""
    rng = np.random.default_rng(41)
    m = 64
    values = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    targets = (5.0, 11.0, 19.0)
    radii = spherical_zero_radii(mask_spectrum_on_radii(values, targets, band=1.2))
    # every target shows up; neighbors half a lattice step away may too,
    # since the mask band 1.2 swallows them
    for t in targets:
        assert t in radii
    for r in radii:
        assert min(abs(r - t) for t in targets) <= 1.2


def test_unmasked_noise_has_no_zero_radii():
    rng = np.random.default_rng(17)
    m = 32
    assert spherical_zero_radii(rng.normal(size=(m, m))) == ()


def test_every_scanned_shell_holds_a_lattice_point():
    """The proof in spherical_zero_radii's docstring, checked with the
    scan's own norms and float comparisons on every grid size below 200,
    and the shell index the scan counts with: floor(|k| + 1/2) = r puts
    each lattice point on the shell r - 1/2 <= |k| < r + 1/2.  The
    windows [r - 1/2, r + 1/2) are exact in floats and partition the
    reals, so no point lies on any other shell."""
    for m in range(2, 200):
        norms = _lattice_norms(m)
        shell = np.floor(norms + 0.5).astype(np.intp)
        assert np.all((norms >= shell - 0.5) & (norms < shell + 0.5)), m
        norms = np.sort(norms.ravel())
        r = np.arange(1.0, np.floor(norms[-1]) + 1.0)
        lo = np.searchsorted(norms, r - 0.5, side="left")
        hi = np.searchsorted(norms, r + 0.5, side="left")
        assert np.all(hi > lo), m


def test_scan_validation():
    for values in (np.ones(8), np.ones((2, 3)), np.ones((1, 1))):
        with pytest.raises(DomainError):
            spherical_zero_radii(values)
        with pytest.raises(DomainError):
            mask_spectrum_on_radii(values, (1.0,), 1.0)


@pytest.mark.parametrize("value", [0.0, 1e-320])
def test_vanishing_shells_with_zero_tol(value):
    """The zero function, and a subnormal constant whose tol underflows to
    0, vanish off the origin: every scanned radius is a zero."""
    values = np.full((8, 8), value)
    assert vanishing(np.fft.fft2(values, norm="ortho"))[1] == 0.0
    assert spherical_zero_radii(values) == (1.0, 2.0, 3.0, 4.0, 5.0)


def test_mask_keeps_unmasked_energy():
    rng = np.random.default_rng(4)
    m = 32
    values = rng.normal(size=(m, m))
    masked = mask_spectrum_on_radii(values, (6.0,), band=1.0)
    # masking only removes energy
    assert np.sum(np.abs(masked) ** 2) < np.sum(np.abs(values) ** 2)
    # and the removed band is really silent
    assert 6.0 in spherical_zero_radii(masked)


def meshgrid_lattice(values):
    """(fhat, |k|) as the scans first formed them: a meshgrid of fftfreq
    and a new transform of the caller's grid."""
    vals = np.asarray(values, dtype=complex)
    freqs = np.fft.fftfreq(len(vals), d=1.0 / len(vals))
    kx, ky = np.meshgrid(freqs, freqs, indexing="ij")
    return np.fft.fft2(vals, norm="ortho"), np.sqrt(kx**2 + ky**2)


def where_masked(values, radii, band):
    """mask_spectrum_on_radii as first written: one OR-ed mask over the
    radii, and np.where's masked copy of the transform."""
    fhat, norms = meshgrid_lattice(values)
    mask = np.zeros_like(norms, dtype=bool)
    for r in radii:
        mask |= np.abs(norms - float(r)) <= band
    return np.fft.ifft2(np.where(mask, 0.0, fhat), norm="ortho")


def bincount_zero_radii(values):
    """spherical_zero_radii as first written: an intp shell array over the
    meshgrid norms, and a bincount of the nonvanishing points' shells."""
    fhat, norms = meshgrid_lattice(values)
    zero, _ = vanishing(fhat)
    top = int(norms.max())
    shell = np.floor(norms + 0.5).astype(np.intp)
    live = np.bincount(shell[~zero], minlength=top + 1)
    return tuple(float(r) for r in np.flatnonzero(live[1 : top + 1] == 0) + 1)


def drawn_base(m, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("m", [2, 3, 64, 127, 128])
def test_in_place_scan_matches_first_formulation(m):
    """The in-place norms, mask and shell index give the first
    formulation's bits: masked grids on half-integer shell edges (whose
    band edges fall on lattice norms) and at band 0, and the zero radii of
    each, while the caller's values keep their bytes."""
    values = drawn_base(m, m)
    kept = values.copy()
    norms = meshgrid_lattice(values)[1]
    assert same_bits(_lattice_norms(m), norms)
    edges = np.arange(0.5, m / 2, 1.0)
    cases = [
        (edges, 0.5),
        (edges[::3], 0.0),
        ((1.0, 5.0, m / 2), 0.0),
        ((1.0, 2.0), 0.7),
        ((), 1.0),
    ]
    for radii, band in cases:
        got = mask_spectrum_on_radii(values, radii, band)
        want = where_masked(values, radii, band)
        assert same_bits(got, want), (radii, band)
        assert spherical_zero_radii(got) == bincount_zero_radii(want)
        assert same_bits(values, kept)
    assert spherical_zero_radii(values) == bincount_zero_radii(values)
    assert same_bits(values, kept)
    zeros = np.zeros((m, m), dtype=complex)
    assert spherical_zero_radii(zeros) == bincount_zero_radii(zeros)
    assert same_bits(zeros, np.zeros((m, m), dtype=complex))


@pytest.mark.parametrize("m", [2, 3, 64, 127, 128])
def test_runner_base_grid_matches_first_formulation(tmp_path, monkeypatch, m):
    """The radial runner fills its complex grid through .real and .imag:
    the grid it masks is a + 1j * b of the same two draws, bit for bit."""
    seen = []
    real = experiments.mask_spectrum_on_radii
    monkeypatch.setattr(
        experiments,
        "mask_spectrum_on_radii",
        lambda values, radii, band: seen.append(values.copy()) or real(values, radii, band),
    )
    path = tmp_path / "radial.cfg"
    path.write_text(f"tauberian.kind = radial\ntauberian.m = {m}\ntauberian.radii = 0.5\n")
    cfg = ExperimentConfig.from_file(path, experiment="tauberian", seed=5, out=str(tmp_path))
    experiments.run_experiment(cfg)
    assert len(seen) == 1 and same_bits(seen[0], drawn_base(m, 5))
