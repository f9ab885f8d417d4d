"""numpy's pairwise summation rebuilt from blocks, and the quadrature that
sums through it, against np.sum over the whole array."""

import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

import fracspec.numeric
from fracspec.fourier import bessel_tail_profile
from fracspec.fourier.annuli import OCTAVE_PANEL_WIDTH
from fracspec.numeric import (
    BLOCK,
    QUADRATURE_ORDER,
    _panels,
    integrate_panels,
    pairwise_sum,
    panel_count,
)


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64).tolist()


def terms(rng, n):
    # magnitudes over many decades, so the order of the additions shows
    return rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, size=n)


def blocked_sum(a):
    calls = []

    def leaf(lo, hi):
        calls.append(hi - lo)
        return np.sum(a[lo:hi])

    return pairwise_sum(leaf, 0, len(a)), calls


@pytest.mark.parametrize(
    "n", [*range(1, 10), 127, 128, 129, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5]
)
def test_pairwise_sum_matches_np_sum(n):
    a = terms(np.random.default_rng(n), n)
    total, calls = blocked_sum(a)
    assert bits(total) == bits(np.sum(a))
    assert sum(calls) == n and max(calls) <= BLOCK


@pytest.mark.parametrize("seed", range(8))
def test_pairwise_sum_matches_np_sum_random_lengths(seed, monkeypatch):
    """Any leaf size from numpy's own 128 up cuts the tree at its nodes."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 2**19))
    a = terms(rng, n)
    for block in (128, int(rng.integers(129, 5000)), BLOCK):
        monkeypatch.setattr(fracspec.numeric, "BLOCK", block)
        total, calls = blocked_sum(a)
        assert bits(total) == bits(np.sum(a))
        assert max(calls) <= block


def test_pairwise_sum_of_several_sums_per_leaf():
    """A leaf may return an array: each entry is added up its own tree."""
    a = terms(np.random.default_rng(7), 50_001)
    powers = (1.0, 2.0, 3.0)
    total = pairwise_sum(
        lambda lo, hi: np.array([np.sum(np.abs(a[lo:hi]) ** p) for p in powers]), 0, len(a)
    )
    assert bits(total) == bits([np.sum(np.abs(a) ** p) for p in powers])


def full_array_integral(fn, lo, hi, width):
    """The quadrature over one (panels, nodes) array of every node."""
    pts, w, halves = _panels(lo, hi, panel_count(lo, hi, width))
    vals = np.asarray(fn(pts.ravel()), dtype=float).reshape(pts.shape)
    return float(np.sum(vals * w[None, :] * halves[:, None]))


def lp_tail_integrand(q):
    f = bessel_tail_profile(dim=2, p=4.0, truncate_at=None)
    return lambda r: np.abs(np.asarray(f(r))) ** q * r


@pytest.mark.parametrize(
    "lo, hi, width",
    [
        (0.0, 1.0, 0.125),
        (16.0, 32.0, 0.5),
        (1.0, 65.0, 0.5),  # 4096 nodes, one block
        (1.0, 65.5, 0.5),  # 129 panels, just over a block
        (3.0, 1000.0, 0.37),  # panels cut by the leaf edges
        (1024.0, 2048.0, OCTAVE_PANEL_WIDTH),
    ],
)
def test_blocked_quadrature_matches_full_array(lo, hi, width):
    for fn in (lp_tail_integrand(5.0), np.cos):
        assert bits(integrate_panels(fn, lo, hi, panel_width=width)) == bits(
            full_array_integral(fn, lo, hi, width)
        )


def test_lp_tail_octave_is_integrated_in_blocks():
    """Octave j = 10 of the lp-tail criterion has 65,536 nodes; a block of
    them at a time keeps the traced peak far below the ~3 MB of holding
    every node's point, value and term."""
    fn = lp_tail_integrand(5.0)
    tracemalloc.start()
    try:
        integrate_panels(fn, 1024.0, 2048.0, panel_width=OCTAVE_PANEL_WIDTH)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20


def test_gauss_legendre_table_is_leggauss():
    """The tabulated rule is numpy's leggauss at the stated order, bit for
    bit, and _panels hands out its read-only arrays."""
    x, w = leggauss(QUADRATURE_ORDER)
    nodes, weights, _ = _panels(-1.0, 1.0, 1)
    assert bits(fracspec.numeric._GL_X) == bits(x) == bits(nodes[0])
    assert bits(weights) == bits(w)
    assert not (weights.flags.writeable or fracspec.numeric._GL_X.flags.writeable)
