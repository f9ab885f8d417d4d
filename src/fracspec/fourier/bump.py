"""The canonical unit-ball bump, its transform, and dyadic annulus sups.

One fixed bump keeps every downstream table reproducible.  The annulus
suprema are certified only up to the sampling density: 64 radii per
octave plus golden-section refinement to 1e-8 relative.  A narrower
peak between two samples can be missed.

The transform at radius rho is a panelized Gauss-Legendre integral over
[0, 1] whose panel count depends on rho only through
ceil(1 / min(1/4, 12 / rho)), so every rho below 48 shares 4 panels.
The rho-independent part of the integrand (the nodes, the kernel
constant times the profile, the weights and the panel half-widths) is
built once per (bump, panel count) and cached, for counts up to
CACHED_PANELS_MAX.  An array of radii is grouped by panel count and each
group is evaluated as one (radii, panels, nodes) batch.  An octave's
64-radius dense scan is one call, and the golden-section refinements of
all octaves run in lockstep, one call per step.  The arithmetic is done
in the same order as a per-radius quadrature, so every value is
bit-identical to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..errors import DomainError, SizeError
from ..numeric import (
    QUADRATURE_ORDER,
    _panels,
    integrate_panels,
    j0,
    panel_count,
    sphere_surface_area,
)

NORMALIZATION_TOL = 1e-10
SUP_SAMPLES_PER_OCTAVE = 64
SUP_RELATIVE_TOL = 1e-8
# node sets of more panels (rho above 3072) are built per call and not
# kept, so the node cache stays near 2 MB
CACHED_PANELS_MAX = 256
# Quadrature nodes one transform call of an annulus scan may take (64
# radii x panels x 32 nodes).  The default octaves, j up to 4, take 2**13;
# j up to 14 fits.
MAX_SCAN_NODES = 2**23

def _raw_profile(r: np.ndarray) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    inside = np.abs(r) < 1
    t = r[inside]
    out[inside] = np.exp(-1.0 / (1.0 - t * t))
    return out


@dataclass(frozen=True)
class BumpFunction:
    """c * exp(-1/(1 - |x|^2)) on the open unit ball, 0 outside.

    c makes the integral over R^dim equal to 1.
    """

    dim: int
    normalizer: float

    @classmethod
    @lru_cache(maxsize=8)
    def standard(cls, dim: int) -> "BumpFunction":
        if dim < 1:
            raise DomainError("dim must be >= 1")
        surface = sphere_surface_area(dim)
        raw = surface * integrate_panels(
            lambda r: _raw_profile(r) * r ** (dim - 1), 0.0, 1.0, panel_width=0.125
        )
        chi = cls(dim, 1.0 / raw)
        if abs(chi.integral() - 1.0) > NORMALIZATION_TOL:
            raise DomainError("bump normalization drifted beyond tolerance")
        return chi

    def profile(self, r) -> np.ndarray:
        """Radial values at |x| = r (vectorized, zero outside [0, 1))."""
        return self.normalizer * _raw_profile(r)

    def integral(self) -> float:
        return sphere_surface_area(self.dim) * integrate_panels(
            lambda r: self.profile(r) * r ** (self.dim - 1),
            0.0,
            1.0,
            panel_width=0.125,
        )

    def fourier_radial(self, rho) -> np.ndarray:
        """The transform at |xi| = rho, with the (2pi)**(-dim/2) prefactor.

        The bump is even and real, so the transform is real; dims 1..3
        reduce to single radial integrals (cosine, Bessel J0, spherical
        sinc kernels respectively).  The radii are grouped by panel count
        and each group is evaluated as one batch on its cached nodes.
        """
        prefactor = (2 * math.pi) ** (-self.dim / 2)
        rho_arr = np.abs(np.asarray(rho, dtype=float))
        flat = rho_arr.reshape(-1)
        out = np.full(flat.shape, prefactor)  # at 0: chi has mass 1
        nonzero = np.flatnonzero(flat)
        if nonzero.size:
            if self.dim > 3:
                raise DomainError("radial transform implemented for dim <= 3")
            rhos = flat[nonzero]
            if not np.isfinite(rhos).all():
                raise DomainError("rho must be finite")
            # panels at most min(1/4, 12/rho) wide; 12/48 is exactly 1/4
            counts = panel_count(0.0, 1.0, 12.0 / np.maximum(rhos, 48.0))
            for count in set(counts.tolist()):
                group = nonzero[counts == count]
                out[group] = prefactor * self._integrals(flat[group], count)
        return out[0] if rho_arr.ndim == 0 else out.reshape(rho_arr.shape)

    def _integrals(self, rho: np.ndarray, count: int) -> np.ndarray:
        """The radial integrals at nonzero radii that share one panel count.

        The operations run in a per-radius quadrature's order,
        ((c * profile) * kernel(rho r)) * r, then (values * w) * halves,
        then one pairwise sum per radius, so each integral is bit-identical
        to evaluating that radius alone.
        """
        build = _radial_nodes if count <= CACHED_PANELS_MAX else _radial_nodes.__wrapped__
        r, weighted, w, halves = build(self, count)
        rr = rho[:, None, None]
        vals = rr * r
        if self.dim == 1:
            vals = weighted * np.cos(vals, out=vals)
        elif self.dim == 2:
            vals = weighted * j0(vals, out=vals)
            vals *= r
        else:
            vals = weighted * np.sin(vals, out=vals)
            vals /= rr
            vals *= r
        vals *= w
        vals *= halves
        return vals.reshape(len(rho), -1).sum(axis=1)


# the kernel's constant: the sphere's surface folded into the radial integral
_KERNEL_CONSTANT = {1: 2, 2: 2 * math.pi, 3: 4 * math.pi}


@lru_cache(maxsize=16)
def _radial_nodes(chi: BumpFunction, count: int):
    """Nodes r on count panels over [0, 1], the kernel constant times
    chi.profile(r), the reference weights and the panel half-widths (a
    column, one row per panel).

    Built once per (bump, panel count); each radius then pays only for
    its kernel factor cos, j0 or sin.  An entry holds about 64 * count
    floats, so only counts up to CACHED_PANELS_MAX are cached.
    """
    r, w, halves = _panels(0.0, 1.0, count)
    weighted = (_KERNEL_CONSTANT[chi.dim] * chi.profile(r.ravel())).reshape(r.shape)
    halves = halves[:, None]
    for shared in (r, weighted, halves):  # every caller reads the same arrays
        shared.setflags(write=False)
    return r, weighted, w, halves


def _golden_search(xs: np.ndarray, vals: list, tol: float):
    """Golden-section refinement around the best sample of a dense scan.

    A generator: it yields each point where it needs fn, is sent fn's value
    there, and returns the largest value seen once the bracket is narrower
    than tol.
    """
    k = int(np.argmax(vals))
    a = xs[max(0, k - 1)]
    b = xs[min(len(xs) - 1, k + 1)]
    inv_phi = (math.sqrt(5) - 1) / 2
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    fc = yield c
    fd = yield d
    best = max(vals[k], fc, fd)
    while (b - a) > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = yield c
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = yield d
        best = max(best, fc, fd)
    return best


def _golden_maxes(fn, intervals) -> list:
    """Max of fn on each [lo, hi]: a dense scan, then golden-section
    refinement to SUP_RELATIVE_TOL of the interval's width.

    fn maps an array of points to a list of floats.  Each interval's scan
    is one call; the refinements then run in lockstep, so every step is one
    call on the next point of each search still running.  Each search keeps
    its own bracket and stopping test, and fn's value at a point does not
    depend on the other points of the call, so each max is the one a search
    run alone would find.
    """
    searches = []
    for lo, hi in intervals:
        xs = np.linspace(lo, hi, SUP_SAMPLES_PER_OCTAVE)
        searches.append(_golden_search(xs, fn(xs), SUP_RELATIVE_TOL * max(hi - lo, 1e-30)))
    maxes = [0.0] * len(searches)
    active = [(i, search, next(search)) for i, search in enumerate(searches)]
    while active:
        values = fn(np.array([point for _, _, point in active]))
        still = []
        for (i, search, _), value in zip(active, values):
            try:
                still.append((i, search, search.send(value)))
            except StopIteration as done:
                maxes[i] = done.value
        active = still
    return maxes


def _squares(values: np.ndarray) -> list:
    """|values|**2 as Python float powers: x ** 2 and x * x differ in the
    last bit for some x, and the refinement steps compare the squares."""
    return [v**2 for v in values.tolist()]


# (dim, j) -> annulus sup, filled by annulus_sups_squared
_ANNULUS_SUPS: dict = {}


def annulus_sups_squared(dim: int, js) -> tuple:
    """sup over 2**j <= |xi| <= 2**(j+1) of |transform|^2 for the standard
    bump, for each j in js.

    Values are cached per (dim, j); the octaves not yet cached are refined
    together, one transform call per golden-section step.  The largest
    call is the dense scan of the top octave: if its quadrature nodes
    exceed MAX_SCAN_NODES, SizeError is raised before any is evaluated.
    """
    missing = [j for j in dict.fromkeys(js) if (dim, j) not in _ANNULUS_SUPS]
    if missing:
        # fourier_radial's panel count at the top radius, as a Python int
        top = max(2.0 ** (max(missing) + 1), 48.0)
        nodes = SUP_SAMPLES_PER_OCTAVE * math.ceil(1.0 / (12.0 / top)) * QUADRATURE_ORDER
        if nodes > MAX_SCAN_NODES:
            raise SizeError(
                f"{nodes} transform quadrature nodes in one annulus scan exceed "
                f"the budget of {MAX_SCAN_NODES}"
            )
        chi = BumpFunction.standard(dim)
        sups = _golden_maxes(
            lambda rho: _squares(chi.fourier_radial(rho)),
            [(2.0**j, 2.0 ** (j + 1)) for j in missing],
        )
        _ANNULUS_SUPS.update(((dim, j), sup) for j, sup in zip(missing, sups))
    return tuple(_ANNULUS_SUPS[dim, j] for j in js)
