"""Translation-span dimension: three independent computations must agree.

Route one counts nonvanishing transform coefficients (the span oracle),
route two takes the numerical rank of the full translate matrix, and the
test-local route three counts coefficients from the raw DFT definition
without going through numpy's FFT.
"""

import numpy as np
import pytest

from fracspec.errors import DomainError
from fracspec.tauberian.grid import GridFunction, dft, dft_zero_set
from fracspec.tauberian.span import (
    circulant_matrix,
    circulant_rank,
    span_dimension_oracle,
)


def naive_dft_nonzero_count(values, tol):
    """Direct O(m^2) transform from the definition, unitary scaling."""
    m = len(values)
    count = 0
    for k in range(m):
        acc = 0j
        for x in range(m):
            acc += values[x] * np.exp(-2j * np.pi * k * x / m)
        if abs(acc / np.sqrt(m)) >= tol:
            count += 1
    return count


def test_three_routes_agree_on_seeded_grids():
    rng = np.random.default_rng(2024)
    for _ in range(20):
        f = GridFunction(rng.normal(size=16) + 1j * rng.normal(size=16))
        tol = 1e-9 * float(np.abs(dft(f)).max())
        oracle = span_dimension_oracle(f)
        rank = circulant_rank(f)
        naive = naive_dft_nonzero_count(f.values, tol)
        assert oracle == rank == naive
        assert oracle == f.m - dft_zero_set(f).count


def test_difference_of_adjacent_deltas():
    # e_0 - e_1 kills exactly the k = 0 coefficient
    values = np.zeros(8)
    values[0], values[1] = 1.0, -1.0
    f = GridFunction(values)
    assert span_dimension_oracle(f) == 7
    assert circulant_rank(f) == 7
    zs = dft_zero_set(f)
    assert zs.indices == (0,)


def test_comb_spans_half():
    # 1 on even residues of Z_8: transform is supported on {0, 4}
    values = np.array([1.0, 0, 1.0, 0, 1.0, 0, 1.0, 0])
    f = GridFunction(values)
    assert span_dimension_oracle(f) == 2
    assert circulant_rank(f) == 2


def test_circulant_matrix_structure():
    values = np.array([1.0, 2.0, 3.0, 4.0])
    mat = circulant_matrix(GridFunction(values))
    assert mat.shape == (4, 4)
    assert np.array_equal(mat[0], values)
    assert np.array_equal(mat[1], np.array([4.0, 1.0, 2.0, 3.0]))


def roll_circulant(values):
    """The translate matrix as it was first built: one np.roll per row."""
    return np.stack([np.roll(values, k) for k in range(len(values))])


@pytest.mark.parametrize("m", [2, 3, 64, 65])
def test_circulant_matrix_matches_roll_reference(m):
    rng = np.random.default_rng(m)
    f = GridFunction(rng.standard_normal(m) + 1j * rng.standard_normal(m))
    mat = circulant_matrix(f)
    ref = roll_circulant(f.values)
    assert mat.dtype == ref.dtype
    assert np.array_equal(mat, ref)


def test_span_requires_1d():
    f2 = GridFunction(np.ones((4, 4)))
    with pytest.raises(DomainError):
        span_dimension_oracle(f2)
    with pytest.raises(DomainError):
        circulant_rank(f2)
