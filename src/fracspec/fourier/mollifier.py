"""Shell tables b_j of radial profiles and their weighted sums.

For a radial f with declared exponent p, the table entry at scale eps
and octave j is

    b = (2**-j * eps)**(dim - alpha) * integral of |f|^2 over the shell
        2**j <= |eps x| <= 2**(j+1)

and the companion bound comes from Holder on the same quadrature nodes,
so the inequality b <= (2**-j eps)**(dim-alpha) * vol**(1-2/p) * mass**(2/p)
holds exactly in the discrete sense, not merely up to quadrature error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ..errors import DomainError
from ..numeric import _panels, panel_count, sphere_surface_area
from .bump import BumpFunction, bump_profile

SHELL_PANEL_WIDTH = 0.5
BOUND_SLACK = 1e-9


@dataclass(frozen=True)
class RadialProfile:
    """A radial function on R^dim with a declared integrability exponent."""

    func: Callable
    dim: int
    p: float
    support_radius: Optional[float] = None

    def __post_init__(self):
        if self.dim < 1:
            raise DomainError("dim must be >= 1")
        if self.p < 2:
            raise DomainError("declared p must be >= 2 for the shell bounds")
        if self.support_radius is not None and not self.support_radius > 0:
            raise DomainError("support_radius must be positive")

    def __call__(self, r) -> np.ndarray:
        return np.asarray(self.func(np.asarray(r, dtype=float)), dtype=float)


def bessel_tail_profile(dim: int = 2, p: float = 4.0, truncate_at: Optional[float] = 1.0) -> RadialProfile:
    """sqrt(2/(pi r)) * cos(r - pi/4), optionally zeroed for r >= truncate_at.

    The oscillating square-root tail is the classical borderline decay
    profile in the plane; truncating it to a ball keeps every L^p norm
    finite while preserving the near-origin singularity.
    """

    def func(r):
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        pos = r > 0
        rp = r[pos]
        vals = np.sqrt(2.0 / (math.pi * rp)) * np.cos(rp - math.pi / 4)
        if truncate_at is not None:
            vals = np.where(rp < truncate_at, vals, 0.0)
        out[pos] = vals
        return out

    return RadialProfile(func, dim, p, truncate_at)


@dataclass(frozen=True)
class MollifierRow:
    """One octave j of the sweep, tabulated across the eps schedule."""

    j: int
    a: float
    b: tuple
    holder_bounds: tuple
    shell_volumes: tuple
    shell_lp_masses: tuple
    tail_nonincreasing: bool


@dataclass(frozen=True)
class MollifierSweep:
    dim: int
    p: float
    eps: tuple
    rows: tuple
    sums: tuple  # per eps: sum over j of a_j * b_j
    holder_constant: float
    uniform_bound_ok: bool
    tails_nonincreasing: bool
    notes: tuple

    @property
    def final_over_initial(self) -> float:
        if self.sums[0] == 0:
            return 0.0 if self.sums[-1] == 0 else math.inf
        return self.sums[-1] / self.sums[0]

    def sums_nonincreasing(self) -> bool:
        return all(b <= a * (1 + BOUND_SLACK) for a, b in zip(self.sums, self.sums[1:]))


def _shell_tables(f: RadialProfile, lo: np.ndarray, hi: np.ndarray):
    """(integral of |f|^2, shell volume, integral of |f|^p) over each shell
    lo <= r <= hi, as three arrays shaped like lo.

    Each shell gets panels at most SHELL_PANEL_WIDTH wide, and all three
    integrals are sums against the identical discrete measure
    W_i = surface * w_i * r_i**(dim-1), which is what makes the Holder
    comparison exact at the discrete level.  The shells are grouped by
    panel count and each group is one (shells, nodes) batch; every value
    is bit-identical to a quadrature of its shell alone.
    """
    if f.support_radius is not None:
        hi = np.minimum(hi, f.support_radius)
    tables = np.zeros((3,) + lo.shape)
    nonempty = hi > lo
    counts = panel_count(lo, hi, SHELL_PANEL_WIDTH)
    surface = sphere_surface_area(f.dim)
    for count in set(counts[nonempty].tolist()):
        group = nonempty & (counts == count)
        r, w, halves = _panels(lo[group], hi[group], count)
        r = r.reshape(len(r), -1)
        big_w = surface * (w * halves[..., None]).reshape(r.shape) * r ** (f.dim - 1)
        vals = np.abs(f(r))
        tables[:, group] = [
            (big_w * vals**2).sum(axis=1),
            big_w.sum(axis=1),
            (big_w * vals**f.p).sum(axis=1),
        ]
    return tables


def mollifier_sum(
    f: RadialProfile,
    chi: BumpFunction,
    alpha: float,
    eps_schedule: Sequence,
    j_lo: int = -20,
    j_hi: int = 4,
) -> MollifierSweep:
    """Tabulate b over (j, eps), weight by the bump's a_j, and sum per eps.

    The schedule is used in the order given (decreasing eps is the
    intended direction).  Missing L^2 mass on the sampled range is a
    note, never an error: the machinery only consumes shell integrals.
    """
    if chi.dim != f.dim:
        raise DomainError("bump and profile dimensions disagree")
    if not (0 < alpha < f.dim):
        raise DomainError(f"alpha must lie in (0, {f.dim})")
    eps = [float(e) for e in eps_schedule]
    if not eps or any(not e > 0 for e in eps):
        raise DomainError("eps schedule must be positive")
    # 2.0**(j + 1), 2.0**-j and their dim-th powers stay finite floats
    if f.dim * max(-j_lo, j_hi + 1) > 1000:
        raise DomainError("octaves must satisfy dim * max(-j_lo, j_hi + 1) <= 1000")
    profile = bump_profile(chi, alpha, j_lo, j_hi)
    notes = []
    n = f.dim
    exponent = n - alpha
    rows = []
    js = range(j_lo, j_hi + 1)
    table = np.zeros((len(js), len(eps)))
    lo = np.array([[2.0**j / e for e in eps] for j in js])
    hi = np.array([[2.0 ** (j + 1) / e for e in eps] for j in js])
    sq_table, vol_table, lp_table = _shell_tables(f, lo, hi).tolist()
    for ji, j in enumerate(js):
        b_vals, bounds = [], []
        vols, masses = vol_table[ji], lp_table[ji]
        for e, sq, vol, lp in zip(eps, sq_table[ji], vols, masses):
            scale = (2.0**-j * e) ** exponent
            b = scale * sq
            if lp > 0 and vol > 0:
                bound = scale * vol ** (1 - 2 / f.p) * lp ** (2 / f.p)
            else:
                bound = 0.0
            b_vals.append(b)
            bounds.append(bound)
        table[ji] = b_vals
        peak = int(np.argmax(b_vals))
        tail = b_vals[peak:]
        nonincreasing = all(
            later <= earlier * (1 + BOUND_SLACK) for earlier, later in zip(tail, tail[1:])
        )
        rows.append(
            MollifierRow(
                j=j,
                a=profile.a_at(j),
                b=tuple(b_vals),
                holder_bounds=tuple(bounds),
                shell_volumes=tuple(vols),
                shell_lp_masses=tuple(masses),
                tail_nonincreasing=nonincreasing,
            )
        )
        if not all(math.isfinite(v) for v in b_vals):
            notes.append(f"non-finite shell integral at j = {j}")
    a_vec = np.asarray(profile.a)
    sums = tuple(float(s) for s in a_vec @ table)
    holder_constant = 0.0
    for row in rows:
        for e_idx in range(len(eps)):
            if row.shell_lp_masses[e_idx] > 0:
                scale = (2.0 ** -row.j * eps[e_idx]) ** exponent
                holder_constant = max(
                    holder_constant, scale * row.shell_volumes[e_idx] ** (1 - 2 / f.p)
                )
    if f.support_radius is None:
        notes.append("unbounded support: L^p mass reported per shell only")
    uniform_ok = all(
        b <= bound * (1 + BOUND_SLACK) + 1e-300
        for row in rows
        for b, bound in zip(row.b, row.holder_bounds)
    )
    tails_ok = all(row.tail_nonincreasing for row in rows)
    return MollifierSweep(
        dim=n,
        p=f.p,
        eps=tuple(eps),
        rows=tuple(rows),
        sums=sums,
        holder_constant=holder_constant,
        uniform_bound_ok=uniform_ok,
        tails_nonincreasing=tails_ok,
        notes=tuple(notes),
    )
