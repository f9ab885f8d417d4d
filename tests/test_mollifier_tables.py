"""Shell tables and weighted sums."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from fracspec.errors import DomainError
from fracspec.fourier.bump import BumpFunction
from fracspec.fourier.mollifier import (
    RadialProfile,
    bessel_tail_profile,
    mollifier_sum,
)


def test_shell_entry_against_quad():
    """One table entry recomputed with scipy.quad as the oracle."""
    f = bessel_tail_profile(dim=2, p=4.0, truncate_at=1.0)
    eps = 0.25
    j = -2
    sweep = mollifier_sum(f, BumpFunction.standard(2), 1.0, [eps], j_lo=j, j_hi=j)
    lo, hi = 2.0**j / eps, 2.0 ** (j + 1) / eps
    hi = min(hi, 1.0)
    integrand = lambda r: (2 / (math.pi * r)) * math.cos(r - math.pi / 4) ** 2 * r
    val, err = quad(integrand, lo, hi)
    want = (2.0**-j * eps) ** 1.0 * 2 * math.pi * val
    got = sweep.rows[0].b[0]
    assert abs(got - want) < max(1e-9, 100 * err)


def test_zero_profile_gives_zero_sums():
    zero = RadialProfile(lambda r: np.zeros_like(np.asarray(r, dtype=float)), 2, 4.0, 1.0)
    sweep = mollifier_sum(zero, BumpFunction.standard(2), 1.0, [0.25, 0.125], j_lo=-6, j_hi=2)
    assert sweep.sums == (0.0, 0.0)
    assert sweep.final_over_initial == 0.0
    assert sweep.uniform_bound_ok


def test_truncated_support_empties_far_shells():
    f = bessel_tail_profile(dim=2, p=4.0, truncate_at=1.0)
    eps = 0.25
    sweep = mollifier_sum(f, BumpFunction.standard(2), 1.0, [eps], j_lo=0, j_hi=4)
    # shells with 2**j / eps >= 1 sit beyond the support
    for row in sweep.rows:
        if 2.0**row.j / eps >= 1.0:
            assert row.b[0] == 0.0


def test_holder_bound_and_tails_canonical_run():
    f = bessel_tail_profile(dim=2, p=4.0, truncate_at=1.0)
    eps_schedule = [2.0**-k for k in range(2, 9)]
    sweep = mollifier_sum(f, BumpFunction.standard(2), 1.0, eps_schedule)
    assert sweep.uniform_bound_ok
    assert sweep.tails_nonincreasing
    assert sweep.sums_nonincreasing()
    assert sweep.final_over_initial <= 0.1
    assert sweep.notes == ()
    # per-entry Holder domination, re-checked here row by row
    for row in sweep.rows:
        for b, bound in zip(row.b, row.holder_bounds):
            assert b <= bound * (1 + 1e-9) + 1e-300


def test_untruncated_profile_notes_open_support():
    f = bessel_tail_profile(dim=2, p=4.0, truncate_at=None)
    sweep = mollifier_sum(f, BumpFunction.standard(2), 1.0, [0.25], j_lo=-4, j_hi=0)
    assert any("unbounded support" in n for n in sweep.notes)


def test_mollifier_sum_validation():
    f = bessel_tail_profile(dim=2, p=4.0, truncate_at=1.0)
    chi2 = BumpFunction.standard(2)
    with pytest.raises(DomainError):
        mollifier_sum(f, BumpFunction.standard(1), 1.0, [0.25])
    with pytest.raises(DomainError):
        mollifier_sum(f, chi2, 2.0, [0.25])
    with pytest.raises(DomainError):
        mollifier_sum(f, chi2, 1.0, [])
    with pytest.raises(DomainError):
        mollifier_sum(f, chi2, 1.0, [0.0])
    with pytest.raises(DomainError):
        RadialProfile(lambda r: r, 2, 1.5)

