"""Transforms of construction measures: product formula versus atom sums.

The independent oracle is the direct atom sum over the level-J measure,
which is exact up to float rounding for small J.  The product-formula
route must agree to near machine precision.
"""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

import fracspec.fourier.transforms
from fracspec.cantor.measures import natural_measure
from fracspec.cantor.params import CantorParams, middle_thirds_params
from fracspec.cantor.sampling import sample_salem_offsets
from fracspec.errors import DomainError, SizeError
from fracspec.fourier.transforms import BLOCK, branch_sum, cantor_fourier_grid


def transform_at(params, depth, xi):
    """The grid transform at the single frequency xi."""
    return complex(cantor_fourier_grid(params, depth, xi)[0])


def atom_sum_transform(params, depth, xi):
    """Direct sum over the level-depth atoms, the oracle route."""
    mu = natural_measure(params, depth)
    return sum(
        float(w) * cmath.exp(-1j * xi * float(a)) for (a,), w in zip(mu.atoms, mu.weights)
    )


@pytest.mark.parametrize("xi", [0.0, 1.0, math.pi, 17.3, -42.0])
def test_product_formula_matches_atom_sum(xi):
    params = middle_thirds_params()
    for depth in (1, 2, 5, 8):
        got = transform_at(params, depth, xi)
        want = atom_sum_transform(params, depth, xi)
        assert abs(got - want) < 1e-12


def test_atom_sum_agreement_random_offsets():
    params = CantorParams.create(
        3, Fraction(1, 5), (Fraction(0), Fraction(3, 10), Fraction(61, 100))
    )
    for xi in (0.7, 9.2, 55.0):
        got = transform_at(params, 6, xi)
        want = atom_sum_transform(params, 6, xi)
        assert abs(got - want) < 1e-12


def test_mass_normalization_and_modulus():
    params = middle_thirds_params()
    assert transform_at(params, 8, 0.0) == pytest.approx(1.0, abs=1e-14)
    xi = np.linspace(-60, 60, 401)
    values, errors = cantor_fourier_grid(params, 8, xi)
    assert np.all(np.abs(values) <= 1.0 + 1e-12)
    assert np.all(errors >= 0)
    # conjugate symmetry: the measure is real
    back, _ = cantor_fourier_grid(params, 8, -xi)
    assert np.max(np.abs(np.conj(values) - back)) < 1e-14


def unblocked_transform(params, depth, xi):
    """The transform as it was first computed: one (F, N) exp per level."""
    xi_arr = np.asarray(xi, dtype=float)
    scales = [float(length) for length in params.level_lengths(depth)]
    offsets = np.array([float(a) for a in params.offsets])
    values = np.ones(xi_arr.shape, dtype=complex)
    for j in range(1, depth + 1):
        phases = np.exp(-1j * xi_arr[..., None] * (offsets * scales[j - 1]))
        values *= phases.mean(axis=-1)
    values *= np.exp(-0.5j * xi_arr * scales[depth])
    errors = np.abs(xi_arr) * scales[depth]
    return values, errors


TAPERED = CantorParams.create(
    3, Fraction(1, 5), (Fraction(0), Fraction(3, 10), Fraction(61, 100)), eta_rule="tapered"
)
# the spectral benchmark's construction: 4 branches, ratio 1/16, offsets
# drawn as `fracspec fourier` draws them at seed 1
SALEM_4 = CantorParams.create(
    4, Fraction(1, 16), sample_salem_offsets(4, Fraction(1, 16), np.random.default_rng(1)), seed=1
)


def evenly_spaced(branches):
    """Offsets k / N with ratio 1 / (N + 2): a valid construction for any N."""
    return CantorParams.create(
        branches, Fraction(1, branches + 2), [Fraction(k, branches) for k in range(branches)]
    )


# branch counts on each path of the pairwise order: sequential (2, 3), four
# accumulators with and without leftover rows (4, 5, 8, 9), halving (70)
GRID_PARAMS = {
    "constant": middle_thirds_params(),
    "tapered": TAPERED,
    "salem4": SALEM_4,
    "even5": evenly_spaced(5),
    "even8": evenly_spaced(8),
    "even9": evenly_spaced(9),
    "even70": evenly_spaced(70),
}


@pytest.mark.parametrize("params", GRID_PARAMS.values(), ids=GRID_PARAMS.keys())
@pytest.mark.parametrize(
    "shape",
    [(0,), (1,), (BLOCK - 1,), (BLOCK,), (BLOCK + 1,), (5 * BLOCK // 2,), (37, 301), ()],
)
def test_blocked_grid_matches_unblocked_reference(params, shape):
    """Blocking over xi changes no bit of the values or the error bounds."""
    rng = np.random.default_rng(sum(shape) + 1)
    xi = rng.uniform(-3000.0, 3000.0, size=shape)
    values, errors = cantor_fourier_grid(params, 9, xi)
    ref_values, ref_errors = unblocked_transform(params, 9, xi)
    assert values.shape == ref_values.shape == np.shape(xi)
    assert np.array_equal(values.reshape(-1).view(float), ref_values.reshape(-1).view(float))
    assert np.shape(errors) == np.shape(ref_errors)
    assert np.array_equal(errors, ref_errors)


@pytest.mark.parametrize("branches", range(1, 151))
def test_branch_sum_matches_numpy_mean(branches):
    """branch_sum / N is numpy's mean over a contiguous axis, bit for bit,
    signed zeros included: one column holds only -0.0, others mix in +-0.0
    and values of very different sizes, so the order of the adds shows."""
    rng = np.random.default_rng(branches)
    parts = rng.standard_normal((2, branches, 64)) * 10.0 ** rng.integers(-12, 12, (2, branches, 64))
    parts[rng.random(parts.shape) < 0.2] = 0.0
    parts[rng.random(parts.shape) < 0.2] = -0.0
    parts[:, :, 0] = -0.0
    rows = np.empty((branches, 64), dtype=complex)
    rows.real, rows.imag = parts
    got = branch_sum(rows) / branches
    want = np.ascontiguousarray(rows.T).mean(axis=-1)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_truncation_bound_certifies_depth_gap():
    """|F_J - F_(J+5)| must stay within the level-J error bound."""
    params = middle_thirds_params()
    xi = np.linspace(0.5, 200.0, 57)
    shallow, err = cantor_fourier_grid(params, 6, xi)
    deep, _ = cantor_fourier_grid(params, 11, xi)
    assert np.all(np.abs(shallow - deep) <= err + 1e-15)


def test_self_similarity_identity():
    """F(xi / 3) = e^(i xi/3) mean-phase relation via the product form.

    Concretely, the depth-J transform at 3*xi equals the depth-(J-1)
    transform at xi times the single-branch factor at 3*xi; checking
    F(3**k pi) against F(pi) is the acceptance-level version, so here
    the raw recursion is verified instead.
    """
    params = middle_thirds_params()
    xi = 2.37
    deep = transform_at(params, 9, 3 * xi)
    shallow = transform_at(params, 8, xi)
    offsets = [float(a) for a in params.offsets]
    branch = np.mean([np.exp(-3j * xi * a) for a in offsets])
    # midpoint phases: deep carries exp(-i 3 xi L9), shallow exp(-i xi L8 / 2)
    scales = [float(length) for length in params.level_lengths(9)]
    phase_fix = np.exp(-0.5j * 3 * xi * scales[9]) / np.exp(-0.5j * xi * scales[8])
    assert abs(deep - branch * shallow * phase_fix) < 1e-12


def test_nondecay_along_ternary_frequencies():
    # |F(3**k pi)| is constant in k for the ternary measure;
    # depth 18 keeps the truncation error of the largest frequency tiny
    params = middle_thirds_params()
    moduli = np.abs(cantor_fourier_grid(params, 18, [3.0**k * math.pi for k in range(6)])[0])
    assert np.all(np.abs(moduli - moduli[0]) < 1e-7)


def test_grid_depth_validation():
    with pytest.raises(DomainError):
        cantor_fourier_grid(middle_thirds_params(), 0, np.array([1.0]))


def test_grid_phase_budget(monkeypatch):
    """The budget counts frequencies x depth x branches and is inclusive."""
    monkeypatch.setattr(fracspec.fourier.transforms, "MAX_GRID_PHASES", 10 * 3 * 2)
    xi = np.linspace(1.0, 50.0, 10)
    cantor_fourier_grid(middle_thirds_params(), 3, xi)
    with pytest.raises(SizeError, match="10 frequencies x 4 levels x 2 branches"):
        cantor_fourier_grid(middle_thirds_params(), 4, xi)
    with pytest.raises(SizeError):
        cantor_fourier_grid(middle_thirds_params(), 3, np.append(xi, 1.0))
