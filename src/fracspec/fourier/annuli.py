"""Octave-by-octave L^q mass diagnostics for transform magnitudes.

No finite computation decides L^q membership, so the verdict vocabulary
is deliberately soft: "summable-like" when the last few octave masses
shrink geometrically, "divergent-like" otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import DomainError
from ..numeric import integrate_panels, sphere_surface_area

RATIO_THRESHOLD = 0.9
TAIL_RATIO_COUNT = 4
MIN_OCTAVES = 4
# panel width of the quadrature for radial (callable) sources
OCTAVE_PANEL_WIDTH = 0.5


@dataclass(frozen=True)
class OctaveRow:
    j: int
    lo: float
    hi: float
    integral: float
    ratio: float | None  # integral / previous integral


@dataclass(frozen=True)
class OctaveDiagnostics:
    rows: tuple
    tail_ratios: tuple
    verdict: str


def _diagnostics(mass, q: float, j0: int, j1: int) -> OctaveDiagnostics:
    """Rows of mass(2**j, 2**(j+1)) for j0 <= j <= j1, their ratios and
    the verdict.

    Verdict: "summable-like" iff the last TAIL_RATIO_COUNT consecutive
    octave ratios all fall below RATIO_THRESHOLD, else "divergent-like".
    This is a trend statement about the computed window only.
    """
    if q < 1:
        raise DomainError("q must be >= 1")
    if j1 - j0 + 1 < MIN_OCTAVES:
        raise DomainError(f"need at least {MIN_OCTAVES} octaves")
    rows = []
    for j in range(j0, j1 + 1):
        lo, hi = 2.0**j, 2.0 ** (j + 1)
        integral = mass(lo, hi)
        if not rows:
            ratio = None
        elif rows[-1].integral > 0:
            ratio = integral / rows[-1].integral
        else:
            ratio = 0.0 if integral == 0 else math.inf
        rows.append(OctaveRow(j, lo, hi, integral, ratio))
    tail = tuple(row.ratio for row in rows[1:])[-TAIL_RATIO_COUNT:]
    verdict = "summable-like" if all(r < RATIO_THRESHOLD for r in tail) else "divergent-like"
    return OctaveDiagnostics(tuple(rows), tail, verdict)


def lq_annulus_diagnostics(
    xi: np.ndarray, values: np.ndarray, spacing: float, q: float, j0: int, j1: int
) -> OctaveDiagnostics:
    """Riemann sums of |values|**q over the octaves 2**j <= xi < 2**(j+1).

    xi holds ascending positive frequencies (spectral_grid's are
    `spacing` apart), so each octave is the contiguous slice between two
    searchsorted edges and |values| is taken one slice at a time.  A
    one-sided 1-D grid yields one-sided integrals, which leaves all
    ratios unchanged.
    """
    if xi[-1] < 2.0 ** (j1 + 1):
        raise DomainError(
            f"grid extent {xi[-1]:g} does not cover octave [{2.0**j1:g}, {2.0**(j1 + 1):g}]"
        )

    def mass(lo, hi):
        start, stop = np.searchsorted(xi, [lo, hi])
        return float((np.abs(values[start:stop]) ** q).sum() * spacing)

    return _diagnostics(mass, q, j0, j1)


def lq_radial_diagnostics(fn, q: float, j0: int, j1: int, dim: int) -> OctaveDiagnostics:
    """Integrals of |fn(|xi|)|**q over the annuli 2**j <= |xi| <= 2**(j+1)
    in R^dim, for a radially symmetric magnitude fn: r -> values
    (quadrature against the surface-area weight)."""
    surface = sphere_surface_area(dim)

    def mass(lo, hi):
        def integrand(r):
            return np.abs(np.asarray(fn(r))) ** q * r ** (dim - 1)

        return surface * integrate_panels(integrand, lo, hi, panel_width=OCTAVE_PANEL_WIDTH)

    return _diagnostics(mass, q, j0, j1)
