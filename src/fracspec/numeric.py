"""Small numeric helpers shared across the package."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

import numpy as np


def as_fraction(x) -> Fraction:
    """Exact Fraction for x.

    Floats convert losslessly (every finite float is a binary rational),
    which is what lets geometry built from float data stay exact.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"cannot represent {x!r} as a rational")
        return Fraction(x)
    return Fraction(x)


def to_lattice(values: Iterable) -> tuple[list[int], int]:
    """Exact values as integer numerators over one common denominator.

    Returns (numerators, den) with den the lcm of the values' denominators
    (1 for no values), so the i-th value is numerators[i] / den.  Each
    value goes through as_fraction, so floats convert losslessly.
    """
    exact = [as_fraction(x) for x in values]
    den = math.lcm(*(x.denominator for x in exact))
    return [x.numerator * (den // x.denominator) for x in exact], den


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q', an integer, or a decimal literal into a Fraction."""
    s = text.strip()
    if "/" in s:
        num, den = s.split("/", 1)
        return Fraction(int(num.strip()), int(den.strip()))
    try:
        return Fraction(int(s))
    except ValueError:
        return Fraction(s)  # decimal string, exact


def _perfect_power_exponent(value: int, base: int) -> int | None:
    if value == 1:
        return 0
    m, v = 0, value
    while v > 1 and v % base == 0:
        v //= base
        m += 1
    return m if v == 1 else None


@dataclass(frozen=True)
class LogRatio:
    """The exponent log(num)/log(den), kept symbolic.

    Raising an exact integer power of 1/den to this exponent gives an
    exact rational: (den**-m) ** (log num / log den) == num**-m.  Several
    scale-sweep checks rely on that to produce exact ratios instead of
    float approximations.
    """

    num: int
    den: int

    def __post_init__(self):
        if self.num <= 1 or self.den <= 1:
            raise ValueError("LogRatio needs integers num, den > 1")

    @property
    def value(self) -> float:
        return math.log(self.num) / math.log(self.den)

    def __float__(self) -> float:
        return self.value

    def exact_power(self, base, shift: int = 0) -> Fraction | None:
        """base ** (value + shift) as a Fraction, when exact.

        Returns None unless base is an integer power of den (or of 1/den).
        """
        b = as_fraction(base)
        if b <= 0:
            return None
        if b.numerator == 1:
            m = _perfect_power_exponent(b.denominator, self.den)
            k = None if m is None else -m
        elif b.denominator == 1:
            k = _perfect_power_exponent(b.numerator, self.den)
        else:
            k = None
        if k is None:
            return None
        return Fraction(self.num) ** k * b**shift


def unit_ball_volume(n: int) -> float:
    """Lebesgue volume of the unit ball in R^n (2 for n=1, pi for n=2)."""
    return math.pi ** (n / 2) / math.gamma(n / 2 + 1)


def sphere_surface_area(n: int) -> float:
    """Surface measure of the unit sphere S^(n-1) in R^n (2, 2*pi, 4*pi, ...)."""
    return 2 * math.pi ** (n / 2) / math.gamma(n / 2)


# Gauss-Legendre nodes per panel of the shared quadrature rule
QUADRATURE_ORDER = 32


@lru_cache(maxsize=1)
def _gauss_legendre():
    return np.polynomial.legendre.leggauss(QUADRATURE_ORDER)


def panel_count(lo: float, hi: float, panel_width):
    """Panels of width <= panel_width over lo < hi: ceil((hi - lo) / width).

    Elementwise over an array of widths, so callers can group many
    integrals by the node set they share.
    """
    return np.ceil((hi - lo) / np.asarray(panel_width, dtype=float)).astype(int)


def _panels(lo: float, hi: float, count: int):
    """Gauss-Legendre nodes on count equal panels over [lo, hi].

    Returns the nodes (one row per panel), the reference weights and the
    panel half-widths; callers combine the weights in their own order.
    """
    edges = np.linspace(lo, hi, count + 1)
    x, w = _gauss_legendre()
    mids = 0.5 * (edges[:-1] + edges[1:])
    halves = 0.5 * np.diff(edges)
    return mids[:, None] + halves[:, None] * x[None, :], w, halves


def integrate_panels(fn, lo: float, hi: float, *, panel_width: float) -> float:
    """Composite Gauss-Legendre quadrature of fn over [lo, hi].

    panel_width caps each panel so oscillatory integrands stay resolved.
    The reduction is numpy's pairwise summation over the (panels, nodes)
    array: deterministic for a fixed node count, but not independent of
    the order in which the terms are added.
    """
    if hi <= lo:
        return 0.0
    pts, w, halves = _panels(lo, hi, panel_count(lo, hi, panel_width))
    vals = np.asarray(fn(pts.ravel()), dtype=float).reshape(pts.shape)
    return float(np.sum(vals * w[None, :] * halves[:, None]))


def quadrature_nodes(lo: float, hi: float, *, panel_width: float):
    """Nodes and weights of the same panelized rule used by integrate_panels.

    Exposed so that two integrals that must satisfy a pointwise inequality
    (e.g. a discrete Holder bound) can be evaluated on identical nodes.
    """
    if hi <= lo:
        return np.empty(0), np.empty(0)
    pts, w, halves = _panels(lo, hi, panel_count(lo, hi, panel_width))
    return pts.ravel(), (w[None, :] * halves[:, None]).ravel()
