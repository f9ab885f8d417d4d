"""Exact translation-span counts on the cyclic group Z_m, for stacks of trials.

The span of all translates of f diagonalizes in the character basis, so
its dimension is the number of nonvanishing transform coefficients.
The circulant-matrix rank gives the same number through generic linear
algebra; keeping both routes makes each an oracle for the other.  Both
run on a (T, m) stack of trial rows: one FFT along the rows, and one
stacked SVD of the translate matrices.  The matrices are strided views
of the rows, never materialized, so memory is O(T m), as for the rows.
"""

from __future__ import annotations

import numpy as np
from numpy.fft import fft
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import DomainError
from .grid import check_square_budget, vanishing


def translate_matrices(rows: np.ndarray) -> np.ndarray:
    """Read-only (T, m, m) view, entry (t, k, j) = rows[t, j - k mod m]:
    row k is the window of [row, row] at m - k, so nothing is copied."""
    m = rows.shape[-1]
    return sliding_window_view(np.concatenate([rows, rows], axis=-1), m, axis=-1)[:, m:0:-1]


def span_counts(values) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(span_dim, circulant_rank, dft_zeros) per row of a (T, m) stack.

    dft_zeros counts the vanishing coefficients of the row's unitary
    transform (grid.vanishing) and span_dim the others.  A circulant's
    singular values are sqrt(m) times those moduli, so the rank cutoff is
    sqrt(m) times the row's tol; the counts then agree on borderline
    coefficients.  An m over the translate matrix budget raises SizeError.
    """
    rows = np.asarray(values, dtype=complex)
    if rows.ndim != 2 or rows.shape[1] < 2:
        raise DomainError("span counts take a (trials, m) stack with m >= 2")
    if not np.isfinite(rows).all():
        raise DomainError("grid values must be finite")
    m = rows.shape[1]
    check_square_budget(m, "translate matrix")
    zero, tol = vanishing(fft(rows, axis=-1, norm="ortho"), axis=-1)
    zeros = np.count_nonzero(zero, axis=-1)
    rank = np.linalg.matrix_rank(translate_matrices(rows), tol=np.sqrt(m) * tol)
    return m - zeros, rank, zeros
