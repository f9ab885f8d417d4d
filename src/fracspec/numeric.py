"""Small numeric helpers shared across the package."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple

import numpy as np


def as_fraction(x) -> Fraction:
    """Exact Fraction for x.

    Floats convert losslessly (every finite float is a binary rational),
    which is what lets geometry built from float data stay exact.
    """
    if isinstance(x, Fraction):
        return x
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


class _LogRatioFields(NamedTuple):
    num: int
    den: int


class LogRatio(_LogRatioFields):
    """The exponent log(num)/log(den), kept symbolic.

    Raising an exact integer power of 1/den to this exponent gives an
    exact rational: (den**-m) ** (log num / log den) == num**-m.  Several
    scale-sweep checks rely on that to produce exact ratios instead of
    float approximations.
    """

    __slots__ = ()

    def __new__(cls, num: int, den: int):
        if num <= 1 or den <= 1:
            raise ValueError("LogRatio needs integers num, den > 1")
        return super().__new__(cls, num, den)

    def __float__(self) -> float:
        return math.log(self.num) / math.log(self.den)

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
# Terms per leaf of pairwise_sum (at least 128), and frequencies per
# transform block: on 524,288 frequencies with N = 4 (2-core x86-64),
# blocks of 2048..16384 ran within 5 %, and 1024 and 65536 were slower.
BLOCK = 4096

# The QUADRATURE_ORDER-node Gauss-Legendre rule on [-1, 1], bit for bit the
# one numpy.polynomial.legendre.leggauss gives, each double written as the
# shortest decimal that parses back to it.  Its nodes are antisymmetric and
# its weights symmetric, so the positive nodes and their weights are listed,
# ascending, and mirrored into read-only arrays.
_GL_NODES = (
    0.048307665687738324, 0.1444719615827965, 0.23928736225213706, 0.33186860228212767,
    0.42135127613063533, 0.5068999089322294, 0.5877157572407623, 0.6630442669302152,
    0.7321821187402897, 0.7944837959679424, 0.84936761373257, 0.8963211557660521,
    0.9349060759377397, 0.9647622555875064, 0.9856115115452684, 0.9972638618494816,
)
_GL_WEIGHTS = (
    0.09654008851472766, 0.09563872007927471, 0.09384439908080451, 0.09117387869576378,
    0.08765209300440378, 0.08331192422694671, 0.07819389578707023, 0.07234579410884834,
    0.06582222277636168, 0.058684093478535565, 0.05099805926237609, 0.042835898022226836,
    0.034273862913021765, 0.025392065309262024, 0.016274394730905743, 0.007018610009470506,
)
_GL_X = np.array([-x for x in reversed(_GL_NODES)] + list(_GL_NODES))
_GL_W = np.array(_GL_WEIGHTS[::-1] + _GL_WEIGHTS)
_GL_X.flags.writeable = _GL_W.flags.writeable = False


def panel_count(lo: float, hi: float, panel_width):
    """Panels of width <= panel_width over lo < hi: ceil((hi - lo) / width).

    Elementwise over an array of widths, so callers can group many
    integrals by the node set they share.
    """
    return np.ceil((hi - lo) / np.asarray(panel_width, dtype=float)).astype(int)


def _panel_halves(lo, hi, count: int):
    edges = np.linspace(lo, hi, count + 1, axis=-1)
    return 0.5 * (edges[..., :-1] + edges[..., 1:]), 0.5 * np.diff(edges)


def _panels(lo, hi, count: int):
    """Gauss-Legendre nodes on count equal panels over [lo, hi].

    Returns the nodes (one row per panel), the reference weights and the
    panel half-widths; callers combine the weights in their own order.
    lo and hi may also be arrays of intervals with lo < hi, which put their
    shape in front of the nodes' and half-widths'; each interval's values
    are bit for bit those of a call on it alone.
    """
    mids, halves = _panel_halves(lo, hi, count)
    return mids[..., None] + halves[..., None] * _GL_X, _GL_W, halves


def pairwise_sum(leaf, start: int, stop: int):
    """np.sum of the terms start..stop-1, from leaf(lo, hi) = np.sum of the
    terms lo..hi-1 on ranges of at most BLOCK terms.

    numpy sums a contiguous float64 array along a fixed tree: up to 128
    terms in one pass, more split at n // 2 rounded down to a multiple of
    8.  Each node is the np.sum of its own range, so adding the leaves up
    the tree gives the whole sum bit for bit.  A leaf may return an array
    of sums over the same terms.
    """
    n = stop - start
    if n <= BLOCK:
        return leaf(start, stop)
    half = n // 2 - n // 2 % 8
    return pairwise_sum(leaf, start, start + half) + pairwise_sum(leaf, start + half, stop)


def integrate_panels(fn, lo: float, hi: float, *, panel_width: float) -> float:
    """Composite Gauss-Legendre quadrature of fn over [lo, hi].

    panel_width caps each panel so oscillatory integrands stay resolved.
    The reduction is numpy's sum of the flattened (panels, nodes) terms,
    taken by pairwise_sum, so fn sees at most BLOCK nodes per call.
    """
    if hi <= lo:
        return 0.0
    count = int(panel_count(lo, hi, panel_width))
    mids, halves = _panel_halves(lo, hi, count)

    def leaf(start, stop):
        # node k of the flattened (panels, nodes) array
        panel, node = np.divmod(np.arange(start, stop), QUADRATURE_ORDER)
        h = halves[panel]
        vals = np.asarray(fn(mids[panel] + h * _GL_X[node]), dtype=float)
        return np.sum(vals * _GL_W[node] * h)

    return float(pairwise_sum(leaf, 0, count * QUADRATURE_ORDER))


# Cephes j0 (Moshier, Methods and Programs for Mathematical Functions, 1989):
# a rational approximation on [0, 5] with the first two zeros factored out,
# and a modulus-phase (Hankel) form above 5.  The coefficients are the
# doubles scipy.special.j0 is compiled with, each written as the shortest
# decimal that parses back to it.
_J0_RP = (-4794432209.782018, 1956174919465.5657, -249248344360967.72, 9708622510473064.0)
_J0_RQ = (
    499.563147152651, 173785.4016763747, 48440965.83399621, 11185553704.535683,
    2112775201154.892, 310518229857422.56, 3.1812195594320496e+16, 1.7108629408104315e+18,
)
_J0_PP = (
    0.0007969367292973471, 0.08283523921074408, 1.239533716464143, 5.447250030587687,
    8.74716500199817, 5.303240382353949, 1.0,
)
_J0_PQ = (
    0.0009244088105588637, 0.08562884743544745, 1.2535274390105895, 5.470977403304171,
    8.761908832370695, 5.306052882353947, 1.0,
)
_J0_QP = (
    -0.011366383889846916, -1.2825271867050931, -19.553954425773597, -93.20601521237683,
    -177.68116798048806, -147.07750515495118, -51.41053267665993, -6.050143506007285,
)
_J0_QQ = (
    64.3178256118178, 856.4300259769806, 3882.4018360540163, 7240.467741956525,
    5930.727011873169, 2062.0933166032783, 242.0057402402914,
)
_J0_DR1 = 5.783185962946784  # first zero of J0, squared
_J0_DR2 = 30.471262343662087  # second zero, squared
_SQ2OPI = 0.7978845608028654  # sqrt(2 / pi)
_PIO4 = math.pi / 4


def _polevl(x: np.ndarray, coef: tuple) -> np.ndarray:
    # Horner from the leading coefficient, acc = acc * x + c, one rounding
    # per multiply and per add (no fused multiply-add)
    acc = x * coef[0]
    acc += coef[1]
    for c in coef[2:]:
        acc *= x
        acc += c
    return acc


def _p1evl(x: np.ndarray, coef: tuple) -> np.ndarray:
    # as _polevl, with a leading coefficient 1 that coef leaves out
    acc = x + coef[0]
    for c in coef[1:]:
        acc *= x
        acc += c
    return acc


def j0(x, out=None):
    """The Bessel function J0, elementwise.

    Cephes' evaluation, operation for operation, so each value is bit for
    bit the one scipy.special.j0 gives.  out may be x itself.
    """
    x = np.array(x, dtype=float)  # a copy, so out may alias the argument
    np.abs(x, out=x)
    if out is None:
        out = np.empty_like(x)
    near = x <= 5.0
    z = x[near]
    z *= z
    out[near] = (z - _J0_DR1) * (z - _J0_DR2) * _polevl(z, _J0_RP) / _p1evl(z, _J0_RQ)
    tiny = x < 1e-5
    if tiny.any():
        z = x[tiny]
        out[tiny] = 1.0 - z * z / 4.0
    far = ~near
    if far.any():
        x = x[far]
        w = 5.0 / x
        with np.errstate(over="ignore"):  # x * x is inf above 1e154, and q then 0
            q = 25.0 / (x * x)
        p = _polevl(q, _J0_PP) / _polevl(q, _J0_PQ)
        q = _polevl(q, _J0_QP) / _p1evl(q, _J0_QQ)
        xn = x - _PIO4
        out[far] = (p * np.cos(xn) - w * q * np.sin(xn)) * _SQ2OPI / np.sqrt(x)
    return out if out.ndim else out[()]
