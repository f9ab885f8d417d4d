"""Grid functions on Z_m, their transforms, and zero sets."""

import numpy as np
import pytest

from fracspec.errors import DomainError
from fracspec.tauberian.grid import (
    GridFunction,
    ZeroSet,
    dft,
    dft_zero_set,
)


def test_grid_validation():
    with pytest.raises(DomainError):
        GridFunction(np.zeros((2, 3)))
    with pytest.raises(DomainError):
        GridFunction(np.array([1.0]))
    with pytest.raises(DomainError):
        GridFunction(np.array([1.0, np.inf]))
    with pytest.raises(DomainError):
        GridFunction(np.zeros((2, 2, 2)))
    g = GridFunction(np.arange(6))
    assert g.m == 6 and g.n == 1
    g2 = GridFunction(np.zeros((4, 4)))
    assert g2.m == 4 and g2.n == 2


def test_dft_is_unitary():
    rng = np.random.default_rng(12)
    f = GridFunction(rng.normal(size=16) + 1j * rng.normal(size=16))
    fhat = dft(f)
    assert np.abs(np.sum(np.abs(f.values) ** 2) - np.sum(np.abs(fhat) ** 2)) < 1e-10
    f2 = GridFunction(rng.normal(size=(8, 8)))
    fhat2 = dft(f2)
    assert np.abs(np.sum(np.abs(f2.values) ** 2) - np.sum(np.abs(fhat2) ** 2)) < 1e-10


def test_delta_has_empty_zero_set():
    values = np.zeros(8)
    values[0] = 1.0
    zs = dft_zero_set(GridFunction(values))
    assert zs.count == 0 and zs.m == 8 and zs.n == 1


def test_constant_zeroes_all_but_dc():
    zs = dft_zero_set(GridFunction(np.ones(8)))
    assert zs.count == 7
    assert 0 not in zs.indices
    assert set(zs.indices) == set(range(1, 8))


def test_identically_zero_function():
    zs = dft_zero_set(GridFunction(np.zeros(6)))
    assert zs.count == 6


def test_two_dim_zero_indices():
    values = np.ones((4, 4))
    zs = dft_zero_set(GridFunction(values))
    assert zs.n == 2
    assert (0, 0) not in zs.indices
    assert zs.count == 15


def test_explicit_tolerance():
    values = np.zeros(8)
    values[0] = 1.0
    values[1] = 1e-6
    # fhat(k) = (1 + 1e-6 w^k)/sqrt(8): moduli near 0.3536, none below the
    # tolerance 1e-9 times the peak modulus
    tight = dft_zero_set(GridFunction(values))
    assert tight.count == 0
    assert tight.tol == 1e-9 * np.abs(dft(GridFunction(values))).max()
    with pytest.raises(DomainError):
        ZeroSet((), -1.0, 8, 1)

