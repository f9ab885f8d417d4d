"""Exact translation-span counts on the cyclic group Z_m, for stacks of trials.

The span of all translates of f diagonalizes in the character basis, so
its dimension is the number of nonvanishing transform coefficients.
The circulant-matrix rank gives the same number through generic linear
algebra; keeping both routes makes each an oracle for the other.  Both
run on a (T, m) stack of trial rows: one FFT along the rows, and the
ranks of the translate matrices.  The matrices are strided views of
(T, m) or (T, m/2) arrays, copied only in batches of about T m entries,
so memory is O(T m), as for the rows.

An SVD decides a rank only where it has to.  A batch of matrices whose
smallest singular values are far above the cutoff is certified as full
rank by shifted Cholesky factorizations of their Gram matrices, at about
a quarter of the SVD's cost; a batch the certificate cannot clear goes
to the stacked SVD.  _ranks gives the bound under which the SVD counts
every certified matrix as full rank too, so the counts are the SVD's.
The Gram matrix and its factor are generic linear algebra on the matrix
entries, so the rank stays independent of the FFT.

For even m = 2h the rank is taken on two h x h blocks (Davis, Circulant
Matrices, 1979): with f = (lo, hi) the circulant is [[A, B], [B, A]],
and the unitary (1/sqrt 2)[[I, I], [I, -I]] takes it to
diag(A + B, A - B), the circulant of lo + hi (f mod x^h - 1) and the
skew-circulant of lo - hi (f mod x^h + 1).  The singular values are
those of the two blocks together, unscaled, and the rank work falls by
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
    rank_blocks at the same cutoff.  _ranks takes the matrices in batches
    of about the rows' entries: 4 blocks of 32 x 32 for 64 rows at m 64.
    An m over the translate matrix budget raises SizeError.
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
    blocks = rank_blocks(rows)
    batch = max(1, rows.size // blocks[0][0].shape[-1] ** 2)
    rank = sum(_ranks(block, sign, cut, batch) for block, sign in blocks)
    return m - zeros, rank, zeros


# The unit roundoff and the smallest normal float.
_U = np.finfo(float).eps / 2
_TINY = np.finfo(float).tiny


def _ranks(block: np.ndarray, sign: int, cut: np.ndarray, batch: int) -> np.ndarray:
    """Rank of each translate matrix of (block, sign) at its row's cutoff,
    as np.linalg.matrix_rank(translate_matrices(block, sign), tol=cut)
    counts it, taken batch matrices at a time.

    A batch is certified as all full rank when, for each h x h matrix A,
    with F = ||A||_F^2 (h times its row's squared norm), shift
    s = max(4 cut^2, K u F), K = 64 h and u the unit roundoff, the
    Cholesky factorization of fl(A^H A) - s I completes.  Any other batch
    goes to that matrix_rank call.  The certificate is sound:

    - The Gram matrix's rounding is at most sqrt(2) gamma_(h+2) F in
      norm, the shift's u (F + s), and a completed Cholesky factor R
      satisfies R^H R = H + E with ||E|| <= 2 gamma_(h+3) F (Higham,
      Accuracy and Stability of Numerical Algorithms, 2nd ed., 3.5,
      3.6 and 10.1, with complex arithmetic's constants).  Together with
      gamma_k = k u / (1 - k u) that is at most 32 h u F + u s <= 0.6 s,
      since s >= 64 h u F.  R^H R is positive semidefinite, so
      sigma_min(A)^2 >= 0.4 s: at least 1.6 cut^2 and 25 h u F.
    - zgesdd's singular values are within p(h) u ||A||_2 of the true
      ones, with p a modest polynomial, and ||A||_2 <= sqrt(F) <=
      sigma_min(A) / sqrt(25 h u).  So the computed smallest singular
      value is at least sigma_min(A) (1 - p(h) sqrt(u / (25 h)))
      > 1.26 cut for any p(h) <= h^2 at h <= 2048: the SVD also counts
      a certified matrix as rank h, and the counts are those of the SVD
      alone for every input.

    The certificate is tried only where the Gram matrix forms without
    overflow or gradual underflow: s finite (so F is, and the Gram
    entries are at most F / h) and s u at or above the smallest normal,
    so that a subnormal rounding errs by at most u^2 s.  A zero or
    non-finite shift, and any failed factorization, leaves the batch to
    the SVD.
    """
    h = block.shape[-1]
    mats = translate_matrices(block, sign)
    with np.errstate(over="ignore"):
        fro2 = h * np.sum(block.real**2 + block.imag**2, axis=-1)
        shift = np.maximum(4 * cut**2, 64 * h * _U * fro2)
    clear = np.isfinite(shift) & (shift * _U >= _TINY)
    rank = np.full(len(block), h, dtype=np.intp)
    for lo in range(0, len(block), batch):
        part = slice(lo, lo + batch)
        if not (clear[part].all() and _certified(mats[part], shift[part])):
            rank[part] = np.linalg.matrix_rank(mats[part], tol=cut[part])
    return rank


def _certified(mats: np.ndarray, shift: np.ndarray) -> bool:
    """Whether fl(A^H A) - s I has a Cholesky factor for every matrix A
    of the (n, h, h) stack, s its entry of shift.  Its copies live only
    for the call: a batch's Gram matrix is freed before the next is
    formed."""
    a = mats.copy()
    gram = a.conj().swapaxes(-1, -2) @ a
    gram.reshape(len(a), -1)[:, :: a.shape[-1] + 1] -= shift[:, None]
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return False
    return True
