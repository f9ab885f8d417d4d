"""Shell tables and weighted sums."""

import math
import warnings

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad

import fracspec.fourier.mollifier
from fracspec.errors import DomainError, SizeError
from fracspec.fourier.mollifier import (
    SHELL_PANEL_WIDTH,
    RadialProfile,
    _panels,
    _shell_tables,
    bessel_tail_profile,
    mollifier_sum,
)
from fracspec.numeric import QUADRATURE_ORDER, sphere_surface_area


def test_shell_entry_against_quad():
    """One table entry recomputed with scipy.quad as the oracle."""
    f = bessel_tail_profile(dim=2, p=4.0, truncate_at=1.0)
    eps = 0.25
    j = -2
    sweep = mollifier_sum(f, 1.0, [eps], j_lo=j, j_hi=j)
    lo, hi = 2.0**j / eps, 2.0 ** (j + 1) / eps
    hi = min(hi, 1.0)
    integrand = lambda r: (2 / (math.pi * r)) * math.cos(r - math.pi / 4) ** 2 * r
    val, err = quad(integrand, lo, hi)
    want = (2.0**-j * eps) ** 1.0 * 2 * math.pi * val
    got = sweep.rows[0].b[0]
    assert abs(got - want) < max(1e-9, 100 * err)


def test_zero_profile_gives_zero_sums():
    zero = RadialProfile(lambda r: np.zeros_like(np.asarray(r, dtype=float)), 2, 4.0, 1.0)
    sweep = mollifier_sum(zero, 1.0, [0.25, 0.125], j_lo=-6, j_hi=2)
    assert sweep.sums == (0.0, 0.0)
    assert sweep.final_over_initial == 0.0
    assert sweep.uniform_bound_ok


def test_truncated_support_empties_far_shells():
    f = bessel_tail_profile(dim=2, p=4.0, truncate_at=1.0)
    eps = 0.25
    sweep = mollifier_sum(f, 1.0, [eps], j_lo=0, j_hi=4)
    # shells with 2**j / eps >= 1 sit beyond the support
    for row in sweep.rows:
        if 2.0**row.j / eps >= 1.0:
            assert row.b[0] == 0.0


def test_holder_bound_and_tails_canonical_run():
    f = bessel_tail_profile(dim=2, p=4.0, truncate_at=1.0)
    eps_schedule = [2.0**-k for k in range(2, 9)]
    sweep = mollifier_sum(f, 1.0, eps_schedule)
    assert sweep.uniform_bound_ok
    assert sweep.tails_nonincreasing
    assert sweep.sums_nonincreasing()
    assert sweep.final_over_initial <= 0.1
    assert sweep.notes == ()
    # per-entry Holder domination, recomputed here from the shell tables
    js = [row.j for row in sweep.rows]
    lo = np.array([[2.0**j / e for e in eps_schedule] for j in js])
    hi = np.array([[2.0 ** (j + 1) / e for e in eps_schedule] for j in js])
    _, vols, masses = _shell_tables(f, lo, hi)
    constants = []
    for row, row_vols, row_masses in zip(sweep.rows, vols, masses):
        for e, b, vol, mass in zip(eps_schedule, row.b, row_vols, row_masses):
            scale = (2.0**-row.j * e) ** 1.0
            if mass > 0:
                constants.append(scale * vol ** (1 - 2 / f.p))
                bound = constants[-1] * mass ** (2 / f.p)
            else:
                bound = 0.0
            assert b <= bound * (1 + 1e-9) + 1e-300
    assert sweep.holder_constant == max(constants)


def test_untruncated_profile_notes_open_support():
    f = bessel_tail_profile(dim=2, p=4.0, truncate_at=None)
    sweep = mollifier_sum(f, 1.0, [0.25], j_lo=-4, j_hi=0)
    assert any("unbounded support" in n for n in sweep.notes)


def test_mollifier_sum_validation():
    f = bessel_tail_profile(dim=2, p=4.0, truncate_at=1.0)
    with pytest.raises(DomainError):
        mollifier_sum(f, 2.0, [0.25])
    with pytest.raises(DomainError):
        mollifier_sum(f, 1.0, [])
    with pytest.raises(DomainError):
        mollifier_sum(f, 1.0, [0.0])
    with pytest.raises(DomainError):
        mollifier_sum(f, 1.0, [0.25], j_lo=4, j_hi=-4)
    # eps subnormal: the shell edges 2**j / eps overflow
    with pytest.raises(DomainError, match="shell edge"):
        mollifier_sum(f, 1.0, [0.25, 2.0**-1070])
    with pytest.raises(DomainError):
        RadialProfile(lambda r: r, 2, 1.5)



def per_shell_integrals(f, lo, hi):
    """Reference for one shell: its own node set, built from scalar
    endpoints, and three plain sums."""
    if f.support_radius is not None:
        hi = min(hi, f.support_radius)
    if hi <= lo:
        return 0.0, 0.0, 0.0
    edges = np.linspace(lo, hi, math.ceil((hi - lo) / SHELL_PANEL_WIDTH) + 1)
    x, w = leggauss(QUADRATURE_ORDER)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halves = 0.5 * np.diff(edges)
    r = (mids[:, None] + halves[:, None] * x[None, :]).ravel()
    weights = (w[None, :] * halves[:, None]).ravel()
    big_w = sphere_surface_area(f.dim) * weights * r ** (f.dim - 1)
    vals = np.abs(f(r))
    return (
        float(np.sum(big_w * vals**2)),
        float(np.sum(big_w)),
        float(np.sum(big_w * vals**f.p)),
    )


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("truncate_at", [None, 2.5, 3.7])
@pytest.mark.parametrize(
    "eps_schedule",
    [[2.0**-k for k in range(2, 9)], [0.3, 0.17, 0.11, 0.05, 0.013]],
)
def test_batched_shells_match_per_shell(dim, truncate_at, eps_schedule):
    """Shells grouped by panel count give each shell's own integrals bit for
    bit, on schedules whose octaves mix panel counts."""
    f = bessel_tail_profile(dim=dim, p=3.0, truncate_at=truncate_at)
    js = range(-8, 3)
    lo = np.array([[2.0**j / e for e in eps_schedule] for j in js])
    hi = np.array([[2.0 ** (j + 1) / e for e in eps_schedule] for j in js])
    top = np.minimum(hi, truncate_at or math.inf)
    mixed = [
        {math.ceil((t - l) / SHELL_PANEL_WIDTH) for l, t in zip(*row) if t > l}
        for row in zip(lo, top)
    ]
    assert any(len(counts) > 1 for counts in mixed)
    got = _shell_tables(f, lo, hi)
    want = np.array(
        [[per_shell_integrals(f, l, h) for l, h in zip(*row)] for row in zip(lo, hi)]
    )
    assert np.array_equal(np.moveaxis(got, 0, -1).view(np.int64), want.view(np.int64))


def test_shell_node_budget(monkeypatch):
    """The nodes of the nonempty shells are counted, as floats, before any
    is placed: the default sweep places 3360, and an untruncated sweep to
    eps = 2**-60 is refused without an int cast of its panel counts."""

    def refuse(*args):
        raise AssertionError("shell nodes were placed")

    module = fracspec.fourier.mollifier
    budget = module.MAX_SHELL_NODES
    f = bessel_tail_profile(dim=2, p=4.0, truncate_at=1.0)
    eps_schedule = [2.0**-k for k in range(2, 9)]
    monkeypatch.setattr(module, "MAX_SHELL_NODES", 3360)
    mollifier_sum(f, 1.0, eps_schedule)
    monkeypatch.setattr(module, "MAX_SHELL_NODES", 3359)
    monkeypatch.setattr(module, "_panels", refuse)
    with pytest.raises(SizeError):
        mollifier_sum(f, 1.0, eps_schedule)
    monkeypatch.setattr(module, "MAX_SHELL_NODES", budget)
    far = [2.0**-k for k in range(2, 61)]
    untruncated = bessel_tail_profile(dim=2, p=4.0, truncate_at=None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SizeError):
            mollifier_sum(untruncated, 1.0, far)
        # truncated at 1, the far shells are empty and not counted
        monkeypatch.setattr(module, "_panels", _panels)
        assert mollifier_sum(f, 1.0, far).sums[-1] == 0.0
