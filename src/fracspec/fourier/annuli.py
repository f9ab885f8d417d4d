"""Octave-by-octave L^q mass diagnostics for transform magnitudes: a
construction's transform summed over a frequency grid a block at a
time, or a radial magnitude integrated by quadrature.

No finite computation decides L^q membership, so the verdict vocabulary
is deliberately soft: "summable-like" when the last few octave masses
shrink geometrically, "divergent-like" otherwise.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import NamedTuple

import numpy as np

from ..cantor.params import CantorParams
from ..errors import DomainError
from ..numeric import BLOCK, integrate_panels, pairwise_sum, sphere_surface_area
from .transforms import check_grid_budget, fourier_blocks

RATIO_THRESHOLD = 0.9
TAIL_RATIO_COUNT = 4
MIN_OCTAVES = 4
# panel width of the quadrature for radial (callable) sources
OCTAVE_PANEL_WIDTH = 0.5


class OctaveRow(NamedTuple):
    j: int
    lo: float
    hi: float
    integral: float
    ratio: float | None  # integral / previous integral


class OctaveDiagnostics(NamedTuple):
    rows: tuple
    tail_ratios: tuple
    verdict: str


def _check_window(qs, j0: int, j1: int) -> None:
    if any(q < 1 for q in qs):
        raise DomainError("q must be >= 1")
    if j1 - j0 + 1 < MIN_OCTAVES:
        raise DomainError(f"need at least {MIN_OCTAVES} octaves")


def _diagnostics(integrals, j0: int) -> OctaveDiagnostics:
    """Rows of the integrals over [2**j, 2**(j+1)], j = j0, j0 + 1, ...,
    their ratios and the verdict.

    Verdict: "summable-like" iff the last TAIL_RATIO_COUNT consecutive
    octave ratios all fall below RATIO_THRESHOLD, else "divergent-like".
    This is a trend statement about the computed window only.
    """
    rows = []
    for j, integral in enumerate(integrals, j0):
        lo, hi = 2.0**j, 2.0 ** (j + 1)
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


def octave_grid(j0: int, j1: int, per_octave: int) -> tuple[float, float, int, list]:
    """(spacing, step, size, edges): xi_i = spacing + i * step, i < size, is
    np.arange(spacing, 2**(j1 + 1) + spacing / 2, spacing) bit for bit,
    spacing = 2**j0 / per_octave, and octave j0 + k is the index range
    edges[k]..edges[k + 1] - 1.  The window must pass lq_grid_diagnostics.
    The stop, half a spacing past 2**(j1 + 1), leaves the last frequency
    within rounding of that edge, so the grid covers the window and no
    octave's range is empty.
    """
    spacing = 2.0**j0 / per_octave
    step = (spacing + spacing) - spacing
    size = math.ceil((2.0 ** (j1 + 1) + spacing / 2 - spacing) / spacing)
    edges = [
        bisect_left(range(size), 2.0**j, key=lambda i: spacing + i * step)
        for j in range(j0, j1 + 2)
    ]
    return spacing, step, size, edges


def lq_grid_diagnostics(
    params: CantorParams, depth: int, qs, j0: int, j1: int, per_octave: int = 512
) -> tuple[OctaveDiagnostics, ...]:
    """One-sided Riemann sums of |F|**q, F the level-`depth` transform,
    over the octaves 2**j <= xi < 2**(j+1) of octave_grid(j0, j1,
    per_octave): one OctaveDiagnostics per q.

    The budget is checked before any frequency is evaluated.  pairwise_sum
    takes an octave a block at a time, so no array of the grid's size is
    held, and each sum is numpy's over the whole octave bit for bit.
    """
    # 2**1001 and 2**-1000 / per_octave stay finite, nonzero floats
    if not -1000 <= j0 <= j1 <= 1000:
        raise DomainError("octaves must satisfy -1000 <= j_lo <= j_hi <= 1000")
    check_grid_budget(params.branches, depth, per_octave * 2 ** (j1 + 1 - j0))
    _check_window(qs, j0, j1)
    spacing, step, size, edges = octave_grid(j0, j1, per_octave)

    evaluate, _ = fourier_blocks(params, depth, BLOCK)

    def leaf(lo, hi):
        # numpy multiplies a lone complex value on its scalar path, so a
        # one-frequency octave is evaluated with the frequency after it
        xi = spacing + np.arange(lo, max(hi, lo + 2)) * step
        values = np.ones(len(xi), dtype=complex)
        evaluate(xi, values)
        magnitudes = np.abs(values[: hi - lo])
        return np.array([(magnitudes**q).sum() for q in qs])

    sums = [pairwise_sum(leaf, lo, hi) * spacing for lo, hi in zip(edges, edges[1:])]
    return tuple(_diagnostics((float(s[k]) for s in sums), j0) for k in range(len(qs)))


def lq_radial_diagnostics(fn, q: float, j0: int, j1: int, dim: int) -> OctaveDiagnostics:
    """Integrals of |fn(|xi|)|**q over the annuli 2**j <= |xi| <= 2**(j+1)
    in R^dim, for a radially symmetric magnitude fn: r -> values
    (quadrature against the surface-area weight)."""
    _check_window((q,), j0, j1)
    surface = sphere_surface_area(dim)

    def mass(lo, hi):
        def integrand(r):
            return np.abs(np.asarray(fn(r))) ** q * r ** (dim - 1)

        return surface * integrate_panels(integrand, lo, hi, panel_width=OCTAVE_PANEL_WIDTH)

    return _diagnostics((mass(2.0**j, 2.0 ** (j + 1)) for j in range(j0, j1 + 1)), j0)
