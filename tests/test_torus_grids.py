"""The vanishing rule for transforms of functions on Z_m and Z_m x Z_m."""

import numpy as np
import pytest

from fracspec.errors import DomainError
from fracspec.tauberian.grid import vanishing
from fracspec.tauberian.spherical import _lattice_norms, _transform


def unitary(values):
    """The unitary transform of a 1-D or 2-D grid."""
    return np.fft.fftn(np.asarray(values, dtype=complex), norm="ortho")


def zero_indices(values):
    """Flat indices of the vanishing coefficients, and the tol."""
    zero, tol = vanishing(unitary(values))
    return np.flatnonzero(zero).tolist(), tol


def test_grid_validation():
    """A radial scan's grid is m x m with m >= 2 and finite values."""
    for values in (np.zeros((2, 3)), np.ones((1, 1)), np.zeros((2, 2, 2)), np.ones(8)):
        with pytest.raises(DomainError):
            _transform(values)
    with pytest.raises(DomainError):
        _transform(np.array([[1.0, np.inf], [0.0, 0.0]]))
    fhat, norms = _transform(np.zeros((4, 4))), _lattice_norms(4)
    assert fhat.shape == norms.shape == (4, 4)
    assert fhat.dtype == complex


def test_dft_is_unitary():
    """Parseval holds with constant 1 for the radial scan's transform."""
    rng = np.random.default_rng(12)
    values = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    fhat = _transform(values)
    assert np.abs(np.sum(np.abs(values) ** 2) - np.sum(np.abs(fhat) ** 2)) < 1e-10


def test_delta_has_empty_zero_set():
    values = np.zeros(8)
    values[0] = 1.0
    assert zero_indices(values)[0] == []


def test_constant_zeroes_all_but_dc():
    assert zero_indices(np.ones(8))[0] == list(range(1, 8))


def test_identically_zero_function():
    # tol is 0 and nothing is below it; every coefficient is exactly 0
    indices, tol = zero_indices(np.zeros(6))
    assert indices == list(range(6)) and tol == 0.0


def test_subnormal_tol_underflows_to_zero():
    indices, tol = zero_indices(np.full(8, 1e-320))
    assert tol == 0.0 and indices == list(range(1, 8))


def test_two_dim_zero_indices():
    zero, tol = vanishing(unitary(np.ones((4, 4))))
    assert zero.shape == (4, 4) and np.ndim(tol) == 0
    assert not zero[0, 0]
    assert np.count_nonzero(zero) == 15


def test_rows_get_their_own_tol():
    rows = np.array([[1.0, 1e-12, 0.0, 0.0], [0.5, 1e-12, 0.0, 0.0]])
    zero, tol = vanishing(rows, axis=-1)
    assert tol.tolist() == [1e-9 * 1.0, 1e-9 * 0.5]
    assert zero.tolist() == [[False, True, True, True], [False, True, True, True]]
    zero, tol = vanishing(np.array([[1.0, 1e-12], [1e-12, 1e-12]]), axis=-1)
    assert zero.tolist() == [[False, True], [False, False]]


def test_explicit_tolerance():
    values = np.zeros(8)
    values[0] = 1.0
    values[1] = 1e-6
    # fhat(k) = (1 + 1e-6 w^k)/sqrt(8): moduli near 0.3536, none below the
    # tolerance 1e-9 times the peak modulus
    indices, tol = zero_indices(values)
    assert indices == []
    assert tol == 1e-9 * np.abs(unitary(values)).max()
