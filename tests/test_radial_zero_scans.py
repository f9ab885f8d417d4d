"""Radial zero scans on the planar frequency lattice."""

import numpy as np
import pytest

from fracspec.errors import DomainError
from fracspec.tauberian.grid import GridFunction
from fracspec.tauberian.spherical import (
    SphericalZeroSet,
    centered_frequencies,
    mask_spectrum_on_radii,
    spherical_zero_radii,
)


def test_centered_frequencies():
    freqs = centered_frequencies(8)
    assert freqs.tolist() == [0.0, 1.0, 2.0, 3.0, -4.0, -3.0, -2.0, -1.0]


def test_round_trip_masked_radii_recovered():
    """Zero the spectrum near chosen radii, then rediscover exactly them."""
    rng = np.random.default_rng(41)
    m = 64
    f = GridFunction(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
    targets = (5.0, 11.0, 19.0)
    masked = mask_spectrum_on_radii(f, targets, band=1.2)
    zs = spherical_zero_radii(masked)
    # every target shows up; neighbors half a lattice step away may too,
    # since the mask band 1.2 swallows them
    for t in targets:
        assert t in zs.radii
    for r in zs.radii:
        assert min(abs(r - t) for t in targets) <= 1.2
    assert zs.tol > 0


def test_unmasked_noise_has_no_zero_radii():
    rng = np.random.default_rng(17)
    m = 32
    f = GridFunction(rng.normal(size=(m, m)))
    zs = spherical_zero_radii(f)
    assert zs.radii == ()


def test_every_scanned_shell_holds_a_lattice_point():
    """The proof in spherical_zero_radii's docstring, checked with the
    scan's own norms and float comparisons on every grid size below 200."""
    for m in range(2, 200):
        freqs = centered_frequencies(m)
        kx, ky = np.meshgrid(freqs, freqs, indexing="ij")
        norms = np.sort(np.sqrt(kx**2 + ky**2).ravel())
        r = np.arange(1.0, np.floor(norms[-1]) + 1.0)
        lo = np.searchsorted(norms, r - 0.5, side="left")
        hi = np.searchsorted(norms, r + 0.5, side="left")
        assert np.all(hi > lo), m


def test_scan_validation():
    f1 = GridFunction(np.ones(8))
    with pytest.raises(DomainError):
        spherical_zero_radii(f1)
    with pytest.raises(DomainError):
        mask_spectrum_on_radii(f1, (1.0,), 1.0)


@pytest.mark.parametrize("value", [0.0, 1e-320])
def test_vanishing_shells_with_zero_tol(value):
    """The zero function, and a subnormal constant whose tol underflows to
    0, vanish off the origin: every scanned radius is a zero."""
    zs = spherical_zero_radii(GridFunction(np.full((8, 8), value)))
    assert zs.tol == 0.0
    assert zs.radii == (1.0, 2.0, 3.0, 4.0, 5.0)


def test_zero_set_dataclass_validation():
    with pytest.raises(DomainError):
        SphericalZeroSet((0.0,), 1e-9)
    with pytest.raises(DomainError):
        SphericalZeroSet((2.0, 1.0), 1e-9)
    ok = SphericalZeroSet((1.0, 2.0), 1e-9)
    assert ok.radii == (1.0, 2.0)


def test_mask_keeps_unmasked_energy():
    rng = np.random.default_rng(4)
    m = 32
    f = GridFunction(rng.normal(size=(m, m)))
    masked = mask_spectrum_on_radii(f, (6.0,), band=1.0)
    # masking only removes energy
    assert np.sum(np.abs(masked.values) ** 2) < np.sum(np.abs(f.values) ** 2)
    # and the removed band is really silent
    zs = spherical_zero_radii(masked)
    assert 6.0 in zs.radii
