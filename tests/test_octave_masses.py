"""Octave mass tables for |transform|**q, against closed-form integrals."""

import math
from fractions import Fraction

import numpy as np
import pytest

from octave_oracle import lq_annulus_diagnostics, mask_masses, spectral_grid

from fracspec.cantor.params import CantorParams, middle_thirds_params
from fracspec.errors import DomainError
from fracspec.fourier.annuli import (
    MIN_OCTAVES,
    lq_grid_diagnostics,
    lq_radial_diagnostics,
    octave_grid,
)


def inverse_sqrt(r):
    return np.asarray(r, dtype=float) ** -0.5


def test_power_law_ratios_closed_form():
    """|xi|**(-1/2) in one dimension: octave mass scales by 2**(1 - q/2).

    q = 3 gives ratio 2**(-1/2), a summable-like trend; q = 2 gives
    ratio exactly 1, divergent-like.  Both follow from integrating
    r**(-q/2) over [2**j, 2**(j+1)].
    """
    d3 = lq_radial_diagnostics(inverse_sqrt, 3.0, 2, 8, dim=1)
    assert d3.verdict == "summable-like"
    for row in d3.rows[1:]:
        assert abs(row.ratio - 2.0**-0.5) < 1e-12

    d2 = lq_radial_diagnostics(inverse_sqrt, 2.0, 2, 8, dim=1)
    assert d2.verdict == "divergent-like"
    for row in d2.rows[1:]:
        assert abs(row.ratio - 1.0) < 1e-12

    # first octave of q = 3 against the antiderivative (surface factor 2)
    want = 2 * 2 * (4.0**-0.5 - 8.0**-0.5)
    assert abs(d3.rows[0].integral - want) < 1e-12


def test_grid_route_matches_callable_route():
    spacing = 1e-3
    xi = np.arange(spacing, 2.0**7 + spacing, spacing)
    from_grid = lq_annulus_diagnostics(xi, inverse_sqrt(xi), spacing, 3.0, 2, 6)
    from_fn = lq_radial_diagnostics(inverse_sqrt, 3.0, 2, 6, dim=1)
    # one-sided grid carries half the two-sided mass; ratios are unaffected
    for g, f in zip(from_grid.rows, from_fn.rows):
        assert abs(2 * g.integral - f.integral) < 1e-3 * f.integral
    assert from_grid.verdict == from_fn.verdict == "summable-like"


def test_verdict_needs_tail_below_threshold():
    # r**-p at q = 1 has octave ratio 2**(1-p); pick p so the ratio is
    # 0.95, above the 0.9 threshold, hence divergent-like
    p = 1.0 - math.log2(0.95)
    slow = lambda r: np.asarray(r, dtype=float) ** -p
    diag = lq_radial_diagnostics(slow, 1.0, 2, 8, dim=1)
    for row in diag.rows[1:]:
        assert abs(row.ratio - 0.95) < 1e-9
    assert diag.verdict == "divergent-like"


def test_octave_window_validation():
    with pytest.raises(DomainError):
        lq_radial_diagnostics(inverse_sqrt, 3.0, 2, 2 + MIN_OCTAVES - 2, dim=1)
    with pytest.raises(DomainError):
        lq_radial_diagnostics(inverse_sqrt, 0.5, 2, 8, dim=1)
    params = middle_thirds_params()
    with pytest.raises(DomainError, match="octaves"):
        lq_grid_diagnostics(params, 3, (3.0,), 2, 2 + MIN_OCTAVES - 2, 4)
    with pytest.raises(DomainError, match="q must be"):
        lq_grid_diagnostics(params, 3, (3.0, 0.5), 2, 8, 4)


def test_window_ending_just_below_top_edge_runs():
    """At 3 samples per octave over j = -3..1 the arange's last frequency
    rounds to just below 4.  The top octave is half-open, so the window
    runs, and its masses are those of one mask per octave over the whole
    arange grid, bit for bit."""
    params = middle_thirds_params()
    spacing, step, size, _ = octave_grid(-3, 1, 3)
    assert spacing + (size - 1) * step < 4.0
    qs = (2.0, 3.0)
    streamed = lq_grid_diagnostics(params, 3, qs, -3, 1, 3)
    xi, spacing, values, _ = spectral_grid(params, 3, -3, 1, 3)
    for q, diag in zip(qs, streamed):
        got = [row.integral for row in diag.rows]
        assert bits(got) == bits(mask_masses(xi, values, spacing, q, -3, 1))


@pytest.mark.parametrize("j0", range(-6, 5))
def test_octave_grid_covers_every_window(j0):
    """Over 4 to 9 octaves at 1 to 699 samples per octave, the stop half a
    spacing past 2**(j1 + 1) leaves the last frequency within 1e-9
    spacings of that edge, and every octave holds at least one index."""
    for octaves in range(MIN_OCTAVES, 10):
        j1 = j0 + octaves - 1
        for per_octave in range(1, 700):
            spacing, step, size, edges = octave_grid(j0, j1, per_octave)
            assert all(lo < hi for lo, hi in zip(edges, edges[1:]))
            assert abs(spacing + (size - 1) * step - 2.0 ** (j1 + 1)) <= 1e-9 * spacing


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


@pytest.mark.parametrize("seed", range(20))
def test_octave_slices_match_mask_on_random_grids(seed):
    """On ascending grids that hold every octave edge, the slice between two
    searchsorted edges selects what the boolean mask selects, in the same
    order, so every mass agrees bit for bit."""
    rng = np.random.default_rng(seed)
    j0 = int(rng.integers(-3, 3))
    j1 = j0 + int(rng.integers(MIN_OCTAVES - 1, 8))
    top = 2.0 ** (j1 + 1)
    draws = rng.uniform(0.0, top * 1.25, size=int(rng.integers(50, 5000)))
    edges = 2.0 ** np.arange(j0, j1 + 2)
    xi = np.unique(np.concatenate([draws[draws > 0], edges]))
    values = rng.standard_normal(xi.size) + 1j * rng.standard_normal(xi.size)
    spacing = float(rng.uniform(1e-3, 1.0))
    for q in (1.0, 2.5, 3.0, 6.0):
        diag = lq_annulus_diagnostics(xi, values, spacing, q, j0, j1)
        got = [row.integral for row in diag.rows]
        assert bits(got) == bits(mask_masses(xi, values, spacing, q, j0, j1))


def test_zero_mass_tail_ratio():
    # compactly supported magnitude: later octaves are all zero
    bump = lambda r: np.where(np.asarray(r, dtype=float) < 6.0, 1.0, 0.0)
    diag = lq_radial_diagnostics(bump, 2.0, 1, 6, dim=1)
    assert diag.rows[-1].integral == 0.0
    assert diag.rows[-1].ratio == 0.0
    assert diag.verdict == "summable-like"


@pytest.mark.parametrize("seed", range(30))
def test_octave_grid_matches_arange(seed):
    """The grid's length, frequencies and octave edges are those of the
    np.arange the full-array route builds, and of searchsorted on it."""
    rng = np.random.default_rng(seed)
    for _ in range(100):
        j0 = int(rng.integers(-12, 12))
        j1 = j0 + int(rng.integers(MIN_OCTAVES - 1, 8))
        per_octave = int(rng.choice([1, 2, 3, 5, 7, 500, 512, int(rng.integers(1, 1000))]))
        if per_octave * 2 ** (j1 + 1 - j0) > 2**18:
            continue
        spacing, step, size, edges = octave_grid(j0, j1, per_octave)
        xi = np.arange(spacing, 2.0 ** (j1 + 1) + spacing / 2, spacing)
        assert size == len(xi)
        assert bits(spacing + np.arange(size) * step) == bits(xi)
        assert edges == np.searchsorted(xi, 2.0 ** np.arange(j0, j1 + 2)).tolist()


SALEM_4 = CantorParams.create(4, Fraction(1, 16), (0, Fraction(3, 10), Fraction(9, 20), 0.8))


@pytest.mark.parametrize(
    "params, depth, j0, j1, per_octave, qs",
    [
        (middle_thirds_params(), 6, 2, 9, 1, (3.0, 6.0)),
        (SALEM_4, 5, -3, 2, 1, (2.0,)),
        (SALEM_4, 8, -2, 3, 3, (1.0, 2.5, 6.0)),
        (middle_thirds_params(), 7, 2, 7, 500, (3.0,)),
        (SALEM_4, 4, -4, 1, 500, (1.5, 3.0, 6.0)),
        (SALEM_4, 6, 0, 5, 512, (3.0, 6.0)),
    ],
    ids=[
        "params0-6-2-9-1-qs0",
        "params1-5--3-2-1-qs1",
        "params2-8--2-3-3-qs2",
        "params3-7-2-7-500-qs3",
        "params4-4--4-1-500-qs4",
        "params5-6-0-5-512-qs5",
    ],
)
def test_streamed_masses_match_full_grid(params, depth, j0, j1, per_octave, qs):
    """Each streamed octave mass equals, bit for bit, the full-array route's:
    the slice sum over the whole grid and the boolean-mask sum alike."""
    diags = lq_grid_diagnostics(params, depth, qs, j0, j1, per_octave)
    xi, spacing, values, _ = spectral_grid(params, depth, j0, j1, per_octave)
    assert len(diags) == len(qs)
    for q, diag in zip(qs, diags):
        got = [row.integral for row in diag.rows]
        assert bits(got) == bits(mask_masses(xi, values, spacing, q, j0, j1))
        full = lq_annulus_diagnostics(xi, values, spacing, q, j0, j1)
        assert diag == full
