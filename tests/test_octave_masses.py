"""Octave mass tables for |transform|**q, against closed-form integrals."""

import math

import numpy as np
import pytest

from fracspec.errors import DomainError
from fracspec.fourier.annuli import (
    MIN_OCTAVES,
    SpectralGrid,
    lq_annulus_diagnostics,
)


def inverse_sqrt(r):
    return np.asarray(r, dtype=float) ** -0.5


def test_power_law_ratios_closed_form():
    """|xi|**(-1/2) in one dimension: octave mass scales by 2**(1 - q/2).

    q = 3 gives ratio 2**(-1/2), a summable-like trend; q = 2 gives
    ratio exactly 1, divergent-like.  Both follow from integrating
    r**(-q/2) over [2**j, 2**(j+1)].
    """
    d3 = lq_annulus_diagnostics(inverse_sqrt, 3.0, 2, 8, dim=1)
    assert d3.verdict == "summable-like"
    for row in d3.rows[1:]:
        assert abs(row.ratio - 2.0**-0.5) < 1e-12

    d2 = lq_annulus_diagnostics(inverse_sqrt, 2.0, 2, 8, dim=1)
    assert d2.verdict == "divergent-like"
    for row in d2.rows[1:]:
        assert abs(row.ratio - 1.0) < 1e-12

    # first octave of q = 3 against the antiderivative (surface factor 2)
    want = 2 * 2 * (4.0**-0.5 - 8.0**-0.5)
    assert abs(d3.rows[0].integral - want) < 1e-12


def test_grid_route_matches_callable_route():
    spacing = 1e-3
    xi = np.arange(spacing, 2.0**7 + spacing, spacing)
    grid = SpectralGrid(xi, inverse_sqrt(xi), spacing)
    from_grid = lq_annulus_diagnostics(grid, 3.0, 2, 6)
    from_fn = lq_annulus_diagnostics(inverse_sqrt, 3.0, 2, 6, dim=1)
    # one-sided grid carries half the two-sided mass; ratios are unaffected
    for g, f in zip(from_grid.rows, from_fn.rows):
        assert abs(2 * g.integral - f.integral) < 1e-3 * f.integral
    assert from_grid.verdict == from_fn.verdict == "summable-like"


def test_verdict_needs_tail_below_threshold():
    # r**-p at q = 1 has octave ratio 2**(1-p); pick p so the ratio is
    # 0.95, above the 0.9 threshold, hence divergent-like
    p = 1.0 - math.log2(0.95)
    slow = lambda r: np.asarray(r, dtype=float) ** -p
    diag = lq_annulus_diagnostics(slow, 1.0, 2, 8, dim=1)
    for row in diag.rows[1:]:
        assert abs(row.ratio - 0.95) < 1e-9
    assert diag.verdict == "divergent-like"


def test_octave_window_validation():
    with pytest.raises(DomainError):
        lq_annulus_diagnostics(inverse_sqrt, 3.0, 2, 2 + MIN_OCTAVES - 2, dim=1)
    with pytest.raises(DomainError):
        lq_annulus_diagnostics(inverse_sqrt, 0.5, 2, 8, dim=1)
    with pytest.raises(DomainError):
        lq_annulus_diagnostics(3, 3.0, 2, 8, dim=1)


def test_grid_extent_must_cover_window():
    spacing = 0.01
    xi = np.arange(spacing, 10.0, spacing)
    grid = SpectralGrid(xi, inverse_sqrt(xi), spacing)
    with pytest.raises(DomainError):
        lq_annulus_diagnostics(grid, 2.0, 0, 4)


def test_spectral_grid_validation():
    with pytest.raises(DomainError):
        SpectralGrid(np.array([1.0, 2.0]), np.array([1.0, 2.0]), 0.0)
    with pytest.raises(DomainError):
        SpectralGrid(np.array([1.0, 2.0]), np.array([1.0]), 0.5)
    grid = SpectralGrid(np.array([-5.0, 1.0]), np.array([1.0, 1.0]), 0.5)
    assert grid.norms().tolist() == [5.0, 1.0]
    assert grid.extent == 5.0


def test_zero_mass_tail_ratio():
    # compactly supported magnitude: later octaves are all zero
    bump = lambda r: np.where(np.asarray(r, dtype=float) < 6.0, 1.0, 0.0)
    diag = lq_annulus_diagnostics(bump, 2.0, 1, 6, dim=1)
    assert diag.rows[-1].integral == 0.0
    assert diag.rows[-1].ratio == 0.0
    assert diag.verdict == "summable-like"
