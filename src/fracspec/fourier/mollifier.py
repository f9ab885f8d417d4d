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

from ..errors import DomainError, SizeError
from ..numeric import QUADRATURE_ORDER, _panels, sphere_surface_area
from .bump import annulus_sups_squared

SHELL_PANEL_WIDTH = 0.5
BOUND_SLACK = 1e-9
# Quadrature nodes one sweep may place over its nonempty shells.  The
# default sweep places 3360; an untruncated one to eps = 2**-10 places
# about 2**22 in 0.8 s, and to eps = 2**-14 it would place 2**26 (1 GB).
MAX_SHELL_NODES = 2**22


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
    """One octave j of the sweep: the bump's weight a_j and b across the
    eps schedule."""

    j: int
    a: float
    b: tuple


@dataclass(frozen=True)
class MollifierSweep:
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
    is bit-identical to a quadrature of its shell alone.  More than
    MAX_SHELL_NODES nodes over the nonempty shells raise SizeError before
    any is placed, and an |f|^p integral that is not a finite float
    raises DomainError.
    """
    if f.support_radius is not None:
        hi = np.minimum(hi, f.support_radius)
    tables = np.zeros((3,) + lo.shape)
    nonempty = hi > lo
    # counted as floats: a far shell's panels need not fit an int
    panels = np.where(nonempty, np.ceil((hi - lo) / SHELL_PANEL_WIDTH), 0.0)
    nodes = panels.sum() * QUADRATURE_ORDER
    if not nodes <= MAX_SHELL_NODES:
        raise SizeError(
            f"{nodes:.4g} shell quadrature nodes exceed the budget of {MAX_SHELL_NODES}"
        )
    counts = panels.astype(int)
    surface = sphere_surface_area(f.dim)
    for count in set(counts[nonempty].tolist()):
        group = nonempty & (counts == count)
        r, w, halves = _panels(lo[group], hi[group], count)
        r = r.reshape(len(r), -1)
        big_w = surface * (w * halves[..., None]).reshape(r.shape) * r ** (f.dim - 1)
        vals = np.abs(f(r))
        # a large p may overflow |f|**p: refused below, without a warning
        with np.errstate(over="ignore"):
            lp = (big_w * vals**f.p).sum(axis=1)
        if not np.isfinite(lp).all():
            raise DomainError(f"a shell integral of |f|**{f.p:g} is not a finite float")
        tables[:, group] = [(big_w * vals**2).sum(axis=1), big_w.sum(axis=1), lp]
    return tables


def mollifier_sum(
    f: RadialProfile,
    alpha: float,
    eps_schedule: Sequence,
    j_lo: int = -20,
    j_hi: int = 4,
) -> MollifierSweep:
    """Tabulate b over (j, eps), weight by the standard bump's a_j, and sum
    per eps.

    a_j = 2**(j(dim - alpha)) * (sup over the octave j annulus of the bump's
    |transform|^2).  The schedule is used in the order given (decreasing
    eps is the intended direction).  Missing L^2 mass on the sampled range
    is a note, never an error: the machinery only consumes shell integrals.
    """
    n = f.dim
    if not (0 < alpha < n):
        raise DomainError(f"alpha must lie in (0, {n})")
    eps = [float(e) for e in eps_schedule]
    if not eps or any(not e > 0 for e in eps):
        raise DomainError("eps schedule must be positive")
    # 2.0**(j + 1), 2.0**-j and their dim-th powers stay finite floats
    if n * max(-j_lo, j_hi + 1) > 1000:
        raise DomainError("octaves must satisfy dim * max(-j_lo, j_hi + 1) <= 1000")
    if j_hi < j_lo:
        raise DomainError("j_hi must be >= j_lo")
    js = range(j_lo, j_hi + 1)
    lo = np.array([[2.0**j / e for e in eps] for j in js])
    hi = np.array([[2.0 ** (j + 1) / e for e in eps] for j in js])
    if not (np.isfinite(hi).all() and (lo > 0).all()):
        raise DomainError("every shell edge 2**j / eps must be a finite positive float")
    exponent = n - alpha
    a = [2.0 ** (j * exponent) * sup for j, sup in zip(js, annulus_sups_squared(n, js))]
    sq_table, vol_table, lp_table = _shell_tables(f, lo, hi).tolist()
    table = np.zeros((len(js), len(eps)))
    rows, notes = [], []
    holder_constant = 0.0
    uniform_ok = tails_ok = True
    for ji, j in enumerate(js):
        b_vals = []
        for e, sq, vol, lp in zip(eps, sq_table[ji], vol_table[ji], lp_table[ji]):
            scale = (2.0**-j * e) ** exponent
            b = scale * sq
            if lp > 0:  # then the shell is nonempty, so vol > 0
                holder = scale * vol ** (1 - 2 / f.p)
                holder_constant = max(holder_constant, holder)
                bound = holder * lp ** (2 / f.p)
            else:
                bound = 0.0
            uniform_ok = uniform_ok and b <= bound * (1 + BOUND_SLACK) + 1e-300
            b_vals.append(b)
        table[ji] = b_vals
        tail = b_vals[int(np.argmax(b_vals)) :]
        tails_ok = tails_ok and all(
            later <= earlier * (1 + BOUND_SLACK) for earlier, later in zip(tail, tail[1:])
        )
        rows.append(MollifierRow(j, a[ji], tuple(b_vals)))
        if not all(math.isfinite(v) for v in b_vals):
            notes.append(f"non-finite shell integral at j = {j}")
    sums = tuple(float(s) for s in np.asarray(a) @ table)
    if f.support_radius is None:
        notes.append("unbounded support: L^p mass reported per shell only")
    else:
        # the shells grow outward with j, so none meets the support once the
        # innermost edge 2**j_lo / eps lies beyond it; such a sum reads 0
        beyond = [e for e, edge in zip(eps, lo[0]) if edge >= f.support_radius]
        if beyond:
            notes.append(
                f"no shell of j = {j_lo}..{j_hi} meets the support at eps = "
                + ", ".join(map(str, beyond))
            )
    return MollifierSweep(
        eps=tuple(eps),
        rows=tuple(rows),
        sums=sums,
        holder_constant=holder_constant,
        uniform_bound_ok=uniform_ok,
        tails_nonincreasing=tails_ok,
        notes=tuple(notes),
    )
