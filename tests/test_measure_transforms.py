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

from measure_oracle import natural_measure

import fracspec.fourier.transforms
from fracspec.cantor.params import CantorParams, middle_thirds_params
from fracspec.cantor.sampling import sample_salem_offsets
from fracspec.errors import DomainError, SizeError
from fracspec.fourier.transforms import BLOCK, branch_sum, cantor_fourier_grid


def transform_at(params, depth, xi):
    """The grid transform at the single frequency xi."""
    return complex(cantor_fourier_grid(params, depth, xi)[0])


def atom_sum_transform(params, depth, xi):
    """Direct sum over the level-depth atoms, the oracle route."""
    atoms, weights = natural_measure(params, depth)
    return sum(float(w) * cmath.exp(-1j * xi * float(a)) for (a,), w in zip(atoms, weights))


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
    values, length = cantor_fourier_grid(params, 8, xi)
    assert np.all(np.abs(values) <= 1.0 + 1e-12)
    assert length == float(Fraction(1, 3) ** 8)
    # conjugate symmetry: the measure is real
    back, _ = cantor_fourier_grid(params, 8, -xi)
    assert np.max(np.abs(np.conj(values) - back)) < 1e-14


def unblocked_transform(params, depth, xi):
    """The transform as it was first computed: one (F, N) complex exp per
    level, and the level length."""
    xi_arr = np.asarray(xi, dtype=float)
    scales = [float(length) for length in params.level_lengths(depth)]
    offsets = np.array([float(a) for a in params.offsets])
    values = np.ones(xi_arr.shape, dtype=complex)
    for j in range(1, depth + 1):
        phases = np.exp(-1j * xi_arr[..., None] * (offsets * scales[j - 1]))
        values *= phases.mean(axis=-1)
    values *= np.exp(-0.5j * xi_arr * scales[depth])
    return values, scales[depth]


# three branches on a non-dyadic lattice
THREE_1_5 = CantorParams.create(
    3, Fraction(1, 5), (Fraction(0), Fraction(3, 10), Fraction(61, 100))
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
    "three-1-5": THREE_1_5,
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
    ids=[f"shape{k}" for k in range(8)],
)
def test_blocked_grid_matches_unblocked_reference(params, shape):
    """Blocking over xi and taking real cos/sin rows in place of the complex
    exp change no bit of the values, signed zeros included, nor the length."""
    rng = np.random.default_rng(sum(shape) + 1)
    xi = rng.uniform(-3000.0, 3000.0, size=shape)
    if xi.size >= 3:
        xi.reshape(-1)[1:3] = 0.0, -0.0
    values, length = cantor_fourier_grid(params, 9, xi)
    ref_values, ref_length = unblocked_transform(params, 9, xi)
    assert values.shape == ref_values.shape == np.shape(xi)
    assert np.array_equal(
        values.reshape(-1).view(np.uint64), ref_values.reshape(-1).view(np.uint64)
    )
    assert length == ref_length


def test_deep_levels_match_unblocked_reference():
    """The benchmark's construction at its depth 12, on k/128 across the
    first block edge: from level 10 on every phase is below 2**-27, where
    cos rounds to 1 and sin to its argument, and the bits still agree."""
    xi = np.concatenate([[0.0, -0.0], np.arange(1, BLOCK + 300) / 128])
    values, _ = cantor_fourier_grid(SALEM_4, 12, xi)
    ref_values, _ = unblocked_transform(SALEM_4, 12, xi)
    assert np.array_equal(values.view(np.uint64), ref_values.view(np.uint64))
    assert float(SALEM_4.level_lengths(9)[9]) * xi.max() < 2.0**-27


def test_exp_of_imaginary_phase_is_cos_sin():
    """The one assumption of the cos/sin route: numpy's complex exp of
    (+-0, y) is (cos y, sin y) bit for bit, for y of every size."""
    rng = np.random.default_rng(20)
    tiny = [0.0, 5e-324, 2.0**-1022, 1e-300, 2.0**-28, 2.0**-27, 2.0**-26]
    y = np.concatenate(
        [
            tiny,
            np.negative(tiny),
            rng.uniform(-10.0, 10.0, 20000),
            rng.uniform(-3000.0, 3000.0, 20000),
            rng.standard_normal(20000) * 10.0 ** rng.integers(-12, 23, 20000),
            [1e22, -1e22, np.pi * 2**60],
        ]
    )
    assert np.signbit(y[len(tiny)])
    for real in (0.0, -0.0):
        z = np.empty(y.shape, dtype=complex)
        z.real, z.imag = real, y
        got = np.exp(z)
        assert np.array_equal(got.real.view(np.uint64), np.cos(y).view(np.uint64))
        assert np.array_equal(got.imag.view(np.uint64), np.sin(y).view(np.uint64))


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
    shallow, length = cantor_fourier_grid(params, 6, xi)
    deep, _ = cantor_fourier_grid(params, 11, xi)
    assert np.all(np.abs(shallow - deep) <= np.abs(xi) * length + 1e-15)


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


@pytest.mark.parametrize(
    "bad", [math.inf, -math.inf, math.nan, -math.nan], ids=["inf", "-inf", "nan0", "nan1"]
)
@pytest.mark.parametrize("at", [0, BLOCK + 5])
def test_grid_rejects_non_finite_frequencies(bad, at):
    """A NaN or infinite frequency raises, wherever it sits, so every
    accepted frequency has a finite phase."""
    xi = np.linspace(-50.0, 50.0, 2 * BLOCK)
    xi[at] = bad
    with pytest.raises(DomainError, match="frequencies must be finite"):
        cantor_fourier_grid(middle_thirds_params(), 4, xi)
    with pytest.raises(DomainError, match="frequencies must be finite"):
        cantor_fourier_grid(middle_thirds_params(), 4, bad)
    assert cantor_fourier_grid(middle_thirds_params(), 4, np.array([]))[0].size == 0


def test_grid_phase_budget(monkeypatch):
    """The budget counts frequencies x depth x branches and is inclusive."""
    monkeypatch.setattr(fracspec.fourier.transforms, "MAX_GRID_PHASES", 10 * 3 * 2)
    xi = np.linspace(1.0, 50.0, 10)
    cantor_fourier_grid(middle_thirds_params(), 3, xi)
    with pytest.raises(SizeError, match="10 frequencies x 4 levels x 2 branches"):
        cantor_fourier_grid(middle_thirds_params(), 4, xi)
    with pytest.raises(SizeError):
        cantor_fourier_grid(middle_thirds_params(), 3, np.append(xi, 1.0))
