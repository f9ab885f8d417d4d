"""Exact translation-span oracles on the cyclic group Z_m.

The span of all translates of f diagonalizes in the character basis, so
its dimension is the number of nonvanishing transform coefficients.
The circulant-matrix rank gives the same number through generic linear
algebra; keeping both routes makes each an oracle for the other.
"""

from __future__ import annotations

import numpy as np

from ..errors import DomainError
from .grid import GridFunction, check_square_budget, default_tol, dft


def _require_1d(f: GridFunction) -> None:
    if f.n != 1:
        raise DomainError("span oracles are defined on the 1-D torus")


def span_dimension_oracle(f: GridFunction) -> int:
    """Dimension of span{translates of f} = #{k : |fhat(k)| >= tol}, with
    tol = default_tol."""
    _require_1d(f)
    fhat = dft(f)
    tol = default_tol(fhat)
    return int(np.count_nonzero(np.abs(fhat) >= tol)) if tol > 0 else f.m


def circulant_matrix(f: GridFunction) -> np.ndarray:
    """Row k is the k-step cyclic translate of f: entry (k, j) is f[j - k mod m].

    A matrix of more than MAX_SQUARE_ENTRIES entries raises SizeError
    before it is allocated; its SVD would take seconds at the budget.
    """
    _require_1d(f)
    check_square_budget(f.m, "translate matrix")
    idx = np.arange(f.m)
    return f.values[(idx[None, :] - idx[:, None]) % f.m]


def circulant_rank(f: GridFunction) -> int:
    """Numerical rank of the translate matrix.

    The singular values of a circulant are sqrt(m) times the unitary
    transform moduli, so the rank cutoff is aligned to the same tol the
    zero set uses; without that alignment the two counts could disagree
    on borderline coefficients.
    """
    _require_1d(f)
    mat = circulant_matrix(f)
    tol = default_tol(dft(f))
    return int(np.linalg.matrix_rank(mat, tol=np.sqrt(f.m) * tol))

