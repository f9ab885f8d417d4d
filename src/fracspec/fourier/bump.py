"""The canonical unit-ball bump, its transform, and dyadic annulus sups.

One fixed bump keeps every downstream table reproducible.  The annulus
suprema are certified only up to the sampling density: 64 radii per
octave plus golden-section refinement to 1e-8 relative.  A narrower
peak between two samples can be missed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import j0

from ..errors import DomainError
from ..numeric import integrate_panels, sphere_surface_area

NORMALIZATION_TOL = 1e-10
SUP_SAMPLES_PER_OCTAVE = 64
SUP_RELATIVE_TOL = 1e-8

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
        sinc kernels respectively).
        """
        rho_arr = np.atleast_1d(np.asarray(rho, dtype=float))
        out = np.empty(rho_arr.shape)
        for idx, p in np.ndenumerate(rho_arr):
            out[idx] = self._fourier_one(abs(float(p)))
        if np.isscalar(rho) or np.asarray(rho).ndim == 0:
            return out.reshape(-1)[0]
        return out

    def _fourier_one(self, rho: float) -> float:
        n = self.dim
        prefactor = (2 * math.pi) ** (-n / 2)
        if rho == 0.0:
            return prefactor  # integral of chi is 1
        width = min(0.25, 12.0 / rho)
        if n == 1:
            kernel = lambda r: 2 * self.profile(r) * np.cos(rho * r)
        elif n == 2:
            kernel = lambda r: 2 * math.pi * self.profile(r) * j0(rho * r) * r
        elif n == 3:
            kernel = lambda r: 4 * math.pi * self.profile(r) * np.sin(rho * r) / rho * r
        else:
            raise DomainError("radial transform implemented for dim <= 3")
        return prefactor * integrate_panels(kernel, 0.0, 1.0, panel_width=width)


def _golden_max(fn, lo: float, hi: float, samples: int = SUP_SAMPLES_PER_OCTAVE) -> float:
    """Max of fn on [lo, hi]: dense scan, then golden-section refinement."""
    xs = np.linspace(lo, hi, samples)
    vals = np.array([fn(x) for x in xs])
    k = int(np.argmax(vals))
    a = xs[max(0, k - 1)]
    b = xs[min(len(xs) - 1, k + 1)]
    inv_phi = (math.sqrt(5) - 1) / 2
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    fc, fd = fn(c), fn(d)
    best = max(float(vals[k]), fc, fd)
    while (b - a) > SUP_RELATIVE_TOL * max(hi - lo, 1e-30):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fn(d)
        best = max(best, fc, fd)
    return best


@lru_cache(maxsize=2048)
def annulus_sup_squared(dim: int, j: int) -> float:
    """sup over 2**j <= |xi| <= 2**(j+1) of |transform|^2 for the standard bump."""
    chi = BumpFunction.standard(dim)
    fn = lambda rho: float(chi.fourier_radial(rho)) ** 2
    return _golden_max(fn, 2.0**j, 2.0 ** (j + 1))


@dataclass(frozen=True)
class DyadicProfile:
    """a_j = 2**(j(dim - alpha)) * (annulus sup of |transform|^2)."""

    dim: int
    j_lo: int
    j_hi: int
    a: tuple

    def a_at(self, j: int) -> float:
        if not (self.j_lo <= j <= self.j_hi):
            raise DomainError(f"j = {j} outside [{self.j_lo}, {self.j_hi}]")
        return self.a[j - self.j_lo]


def bump_profile(chi: BumpFunction, alpha: float, j_lo: int, j_hi: int) -> DyadicProfile:
    """Tabulate the dyadic weights a_j for the given exponent."""
    if not (0 <= alpha < chi.dim):
        raise DomainError(f"alpha must lie in [0, {chi.dim})")
    if j_hi < j_lo:
        raise DomainError("j_hi must be >= j_lo")
    js = range(j_lo, j_hi + 1)
    a = tuple(2.0 ** (j * (chi.dim - alpha)) * annulus_sup_squared(chi.dim, j) for j in js)
    return DyadicProfile(dim=chi.dim, j_lo=j_lo, j_hi=j_hi, a=a)
