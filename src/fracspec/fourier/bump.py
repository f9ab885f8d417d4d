"""The canonical unit-ball bump, its transform, and dyadic annulus sups.

One fixed bump keeps every downstream table reproducible.  The annulus
suprema are certified only up to the sampling density: 64 radii per
octave plus golden-section refinement to 1e-8 relative.  A narrower
peak between two samples can be missed.

The transform at radius rho is a panelized Gauss-Legendre integral over
[0, 1] whose panel count depends on rho only through
ceil(1 / min(1/4, 12 / rho)).  Each evaluator keeps the rho-independent
part of the integrand for its last 16 panel counts up to
CACHED_PANELS_MAX, and evaluates radii per panel count as one batch, in
the order of a per-radius quadrature, so every value is bit-identical to
it.  An annulus scan makes one evaluator, so nothing is kept between
scans.
"""

from __future__ import annotations

import math
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
# kept, so an evaluator's node sets stay near 2 MB
CACHED_PANELS_MAX = 256
# Quadrature nodes one transform call of an annulus scan may take (64
# radii x panels x 32 nodes).  The default octaves, j up to 4, take 2**13;
# j up to 14 fits.
MAX_SCAN_NODES = 2**23

# the kernel's constant: the sphere's surface folded into the radial integral
_KERNEL_CONSTANT = {1: 2, 2: 2 * math.pi, 3: 4 * math.pi}


def _raw_profile(r: np.ndarray) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    inside = np.abs(r) < 1
    t = r[inside]
    out[inside] = np.exp(-1.0 / (1.0 - t * t))
    return out


def bump_transform(dim: int):
    """(evaluate, normalizer) for the bump normalizer * exp(-1/(1 - |x|^2))
    on the open unit ball of R^dim, 0 outside; normalizer makes its
    integral equal to 1.

    evaluate(rho) is the transform at |xi| = rho, with the (2pi)**(-dim/2)
    prefactor.  The bump is even and real, so the transform is real; dims
    1..3 reduce to single radial integrals (cosine, Bessel J0, spherical
    sinc kernels respectively).
    """
    if dim not in _KERNEL_CONSTANT:
        raise DomainError("radial transform implemented for 1 <= dim <= 3")
    surface = sphere_surface_area(dim)
    normalizer = 1.0 / (
        surface
        * integrate_panels(lambda r: _raw_profile(r) * r ** (dim - 1), 0.0, 1.0, panel_width=0.125)
    )
    mass = surface * integrate_panels(
        lambda r: normalizer * _raw_profile(r) * r ** (dim - 1), 0.0, 1.0, panel_width=0.125
    )
    if abs(mass - 1.0) > NORMALIZATION_TOL:
        raise DomainError("bump normalization drifted beyond tolerance")
    prefactor = (2 * math.pi) ** (-dim / 2)

    def nodes(count: int):
        """Nodes r on count panels over [0, 1], the kernel constant times
        the bump at r, the reference weights and the panel half-widths (a
        column, one row per panel).  Each radius then pays only for its
        kernel factor cos, j0 or sin."""
        r, w, halves = _panels(0.0, 1.0, count)
        weighted = (_KERNEL_CONSTANT[dim] * (normalizer * _raw_profile(r.ravel()))).reshape(r.shape)
        return r, weighted, w, halves[:, None]

    # an entry holds about 64 * count floats
    kept = lru_cache(maxsize=16)(nodes)

    def integrals(rho: np.ndarray, count: int) -> np.ndarray:
        """The radial integrals at nonzero radii that share one panel count.

        The operations run in a per-radius quadrature's order,
        ((c * profile) * kernel(rho r)) * r, then (values * w) * halves,
        then one pairwise sum per radius, so each integral is bit-identical
        to evaluating that radius alone.
        """
        r, weighted, w, halves = (kept if count <= CACHED_PANELS_MAX else nodes)(count)
        rr = rho[:, None, None]
        vals = rr * r
        if dim == 1:
            vals = weighted * np.cos(vals, out=vals)
        elif dim == 2:
            vals = weighted * j0(vals, out=vals)
            vals *= r
        else:
            vals = weighted * np.sin(vals, out=vals)
            vals /= rr
            vals *= r
        vals *= w
        vals *= halves
        return vals.reshape(len(rho), -1).sum(axis=1)

    def evaluate(rho) -> np.ndarray:
        rho_arr = np.abs(np.asarray(rho, dtype=float))
        flat = rho_arr.reshape(-1)
        out = np.full(flat.shape, prefactor)  # at 0: the bump has mass 1
        nonzero = np.flatnonzero(flat)
        if nonzero.size:
            rhos = flat[nonzero]
            if not np.isfinite(rhos).all():
                raise DomainError("rho must be finite")
            # panels at most min(1/4, 12/rho) wide; 12/48 is exactly 1/4
            counts = panel_count(0.0, 1.0, 12.0 / np.maximum(rhos, 48.0))
            for count in set(counts.tolist()):
                group = nonzero[counts == count]
                out[group] = prefactor * integrals(flat[group], count)
        return out[0] if rho_arr.ndim == 0 else out.reshape(rho_arr.shape)

    return evaluate, normalizer


def _golden_maxes(fn, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Max of fn on each [lo[i], hi[i]]: a dense scan, then golden-section
    refinement around its best sample to SUP_RELATIVE_TOL of the width.

    fn maps an array of points to a list of floats.  Each interval's scan
    is one call; every later call evaluates the next point of each bracket
    still wider than its tolerance, in interval order.  Each bracket keeps
    its own steps and stopping test, and fn's value at a point does not
    depend on the other points of the call, so each max is the one a
    search run alone would find.
    """
    xs = np.linspace(lo, hi, SUP_SAMPLES_PER_OCTAVE, axis=-1)
    vals = np.array([fn(row) for row in xs])
    best = vals.argmax(axis=1)
    search = np.arange(len(xs))
    sups = vals[search, best]
    a = xs[search, np.maximum(best - 1, 0)]
    b = xs[search, np.minimum(best + 1, SUP_SAMPLES_PER_OCTAVE - 1)]
    tol = SUP_RELATIVE_TOL * np.maximum(hi - lo, 1e-30)
    inv_phi = (math.sqrt(5) - 1) / 2
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    fc = np.array(fn(c))
    fd = np.array(fn(d))
    sups = np.maximum(sups, np.maximum(fc, fd))
    while True:
        wide = (b - a) > tol
        search, a, b, c, d, fc, fd, tol = (v[wide] for v in (search, a, b, c, d, fc, fd, tol))
        if not search.size:
            return sups
        # fc > fd keeps [a, d], whose upper inner point is c; else [c, b],
        # whose lower inner point is d
        left = fc > fd
        inner, f_inner = np.where(left, c, d), np.where(left, fc, fd)
        a, b = np.where(left, a, c), np.where(left, d, b)
        point = np.where(left, b - inv_phi * (b - a), a + inv_phi * (b - a))
        f_point = np.array(fn(point))
        c, d = np.where(left, point, inner), np.where(left, inner, point)
        fc, fd = np.where(left, f_point, f_inner), np.where(left, f_inner, f_point)
        sups[search] = np.maximum(sups[search], f_point)


def annulus_sups_squared(dim: int, js) -> tuple:
    """sup over 2**j <= |xi| <= 2**(j+1) of |transform|^2 for the standard
    bump, for each j in js.

    The octaves are refined together on one evaluator, one transform call
    per golden-section step.  The largest call is the dense scan of the top
    octave: if its quadrature nodes exceed MAX_SCAN_NODES, SizeError is
    raised before the bump is built.
    """
    # the evaluator's panel count at the top radius, as a Python int
    top = max(2.0 ** (max(js) + 1), 48.0)
    nodes = SUP_SAMPLES_PER_OCTAVE * math.ceil(1.0 / (12.0 / top)) * QUADRATURE_ORDER
    if nodes > MAX_SCAN_NODES:
        raise SizeError(
            f"{nodes} transform quadrature nodes in one annulus scan exceed "
            f"the budget of {MAX_SCAN_NODES}"
        )
    evaluate, _ = bump_transform(dim)
    lo = np.ldexp(1.0, list(js))
    # Python float powers: x ** 2 and x * x differ in the last bit for some
    # x, and the refinement steps compare the squares
    sups = _golden_maxes(lambda rho: [v**2 for v in evaluate(rho).tolist()], lo, 2 * lo)
    return tuple(sups.tolist())
