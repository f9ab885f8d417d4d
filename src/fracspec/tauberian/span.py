"""Exact translation-span counts on the cyclic group Z_m, for stacks of trials.

The span of all translates of f diagonalizes in the character basis, so
its dimension is the number of nonvanishing transform coefficients.
The circulant-matrix rank gives the same number through generic linear
algebra; keeping both routes makes each an oracle for the other.  Both
run on a (T, m) stack of trial rows: one FFT along the rows, and stacked
SVDs of the translate matrices.  The matrices are strided views of
(T, m) or (T, m/2) arrays, never materialized, so memory is O(T m), as
for the rows.

For even m = 2h the rank is taken on two h x h blocks (Davis, Circulant
Matrices, 1979): with f = (lo, hi) the circulant is [[A, B], [B, A]],
and the unitary (1/sqrt 2)[[I, I], [I, -I]] takes it to
diag(A + B, A - B), the circulant of lo + hi (f mod x^h - 1) and the
skew-circulant of lo - hi (f mod x^h + 1).  The singular values are
those of the two blocks together, unscaled, and the SVD work falls by
three quarters.  The fold is made once: folding all the way down is the
FFT, and the rank would no longer be an independent check of it.
"""

from __future__ import annotations

import numpy as np
from numpy.fft import fft
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import DomainError
from .grid import check_square_budget, vanishing


def translate_matrices(rows: np.ndarray, sign: int = 1) -> np.ndarray:
    """Read-only (T, m, m) view, entry (t, k, j) = rows[t, j - k] for
    j >= k and sign * rows[t, j - k + m] for j < k: row k is the window of
    [sign * row, row] at m - k, so nothing is copied.  sign 1 gives the
    circulant, sign -1 the skew-circulant."""
    m = rows.shape[-1]
    pair = np.concatenate([rows if sign > 0 else -rows, rows], axis=-1)
    return sliding_window_view(pair, m, axis=-1)[:, m:0:-1]


def rank_blocks(rows: np.ndarray) -> list[tuple[np.ndarray, int]]:
    """(rows, sign) of the translate matrices whose singular values
    together are those of the rows' circulants: the halves' sum and
    difference for even m, the rows themselves for odd m."""
    h, odd = divmod(rows.shape[-1], 2)
    if odd:
        return [(rows, 1)]
    lo, hi = rows[:, :h], rows[:, h:]
    return [(lo + hi, 1), (lo - hi, -1)]


def span_counts(values) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(span_dim, circulant_rank, dft_zeros) per row of a (T, m) stack.

    dft_zeros counts the vanishing coefficients of the row's unitary
    transform (grid.vanishing) and span_dim the others.  A circulant's
    singular values are sqrt(m) times those moduli, so the rank cutoff is
    sqrt(m) times the row's tol; the counts then agree on borderline
    coefficients.  For even m the rank sums those of the two blocks of
    rank_blocks at the same cutoff.  An m over the translate matrix budget
    raises SizeError.
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
    cut = np.sqrt(m) * tol
    rank = sum(
        np.linalg.matrix_rank(translate_matrices(block, sign), tol=cut)
        for block, sign in rank_blocks(rows)
    )
    return m - zeros, rank, zeros
