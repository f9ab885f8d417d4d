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
class SpectralGrid:
    """Uniformly spaced transform samples on a 1-D frequency lattice."""

    xi: np.ndarray
    values: np.ndarray
    spacing: float

    def __post_init__(self):
        if not self.spacing > 0:
            raise DomainError("spacing must be positive")
        if self.norms().shape != np.asarray(self.values).shape:
            raise DomainError("xi and values shapes disagree")

    def norms(self) -> np.ndarray:
        return np.abs(np.asarray(self.xi, dtype=float))

    @property
    def extent(self) -> float:
        return float(self.norms().max())


@dataclass(frozen=True)
class OctaveRow:
    j: int
    lo: float
    hi: float
    integral: float
    ratio: float | None  # integral / previous integral


@dataclass(frozen=True)
class OctaveDiagnostics:
    dim: int
    rows: tuple
    tail_ratios: tuple
    verdict: str


def _octave_rows_from_grid(grid: SpectralGrid, q: float, j0: int, j1: int) -> list[OctaveRow]:
    if grid.extent < 2.0**(j1 + 1):
        raise DomainError(
            f"grid extent {grid.extent:g} does not cover octave "
            f"[{2.0**j1:g}, {2.0**(j1 + 1):g}]"
        )
    norms = grid.norms().ravel()
    mags = np.abs(np.asarray(grid.values)).ravel()
    rows = []
    for j in range(j0, j1 + 1):
        lo, hi = 2.0**j, 2.0**(j + 1)
        mask = (norms >= lo) & (norms < hi)
        rows.append(OctaveRow(j, lo, hi, float((mags[mask] ** q).sum() * grid.spacing), None))
    return rows


def _octave_rows_from_callable(fn, q: float, j0: int, j1: int, dim: int) -> list[OctaveRow]:
    surface = sphere_surface_area(dim)
    rows = []
    for j in range(j0, j1 + 1):
        lo, hi = 2.0**j, 2.0**(j + 1)

        def integrand(r):
            return np.abs(np.asarray(fn(r))) ** q * r ** (dim - 1)

        val = surface * integrate_panels(integrand, lo, hi, panel_width=OCTAVE_PANEL_WIDTH)
        rows.append(OctaveRow(j, lo, hi, val, None))
    return rows


def _attach_ratios(rows: list[OctaveRow]) -> list[OctaveRow]:
    out = [rows[0]]
    for prev, cur in zip(rows, rows[1:]):
        if prev.integral > 0:
            ratio = cur.integral / prev.integral
        else:
            ratio = 0.0 if cur.integral == 0 else math.inf
        out.append(OctaveRow(cur.j, cur.lo, cur.hi, cur.integral, ratio))
    return out


def lq_annulus_diagnostics(source, q: float, j0: int, j1: int, dim: int = 1) -> OctaveDiagnostics:
    """Integrate |source|**q over the annuli 2**j <= |xi| <= 2**(j+1).

    source is either a SpectralGrid (lattice Riemann sums; a one-sided
    1-D grid yields one-sided integrals, which leaves all ratios
    unchanged) or a callable r -> values for radially symmetric
    magnitudes (quadrature against the surface-area weight).

    Verdict: "summable-like" iff the last TAIL_RATIO_COUNT consecutive
    octave ratios all fall below RATIO_THRESHOLD, else "divergent-like".
    This is a trend statement about the computed window only.
    """
    if q < 1:
        raise DomainError("q must be >= 1")
    if j1 - j0 + 1 < MIN_OCTAVES:
        raise DomainError(f"need at least {MIN_OCTAVES} octaves")
    if isinstance(source, SpectralGrid):
        rows = _octave_rows_from_grid(source, q, j0, j1)
        dim = 1
    elif callable(source):
        rows = _octave_rows_from_callable(source, q, j0, j1, dim)
    else:
        raise DomainError(f"unsupported source type {type(source).__name__}")
    rows = _attach_ratios(rows)
    ratios = [r.ratio for r in rows if r.ratio is not None]
    tail = tuple(ratios[-TAIL_RATIO_COUNT:])
    verdict = "summable-like" if all(r < RATIO_THRESHOLD for r in tail) else "divergent-like"
    return OctaveDiagnostics(dim, tuple(rows), tail, verdict)
