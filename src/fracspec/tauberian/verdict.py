"""Guaranteed-dense p-intervals from measured zero-set dimensions.

Nothing here proves density in any continuous space.  The rows report
what the density results guarantee GIVEN a dimension estimate for the
transform's zero set, pushed through the interval-endpoint formulas.
Rows restating previously known results are labeled status
"prior-result" and are informational only.  radial_verdict applies the
rigid-motion theorem to a radial zero set, p_lo = 2n/(n+1-beta), and
translate_verdict the translation theorem to a full zero set in R^n,
p_lo = 2n/(2n-alpha).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from ..errors import DomainError

RULE_MOTION_RADIAL = "motion-span-radial"
RULE_TRANSLATE_FULL = "translate-span-full"
RULE_TRANSLATE_CONJUGATE = "translate-span-conjugate"

STATUS_DENSE = "guaranteed-dense"
STATUS_PRIOR = "prior-result"
STATUS_NONE = "no-conclusion"

NO_CONCLUSION_NOTE = "no conclusion from these density rules"


class _VerdictRowFields(NamedTuple):
    rule: str
    status: str
    p_lo: float
    p_hi: float
    formula: str
    notes: tuple = ()


class VerdictRow(_VerdictRowFields):
    __slots__ = ()

    def __new__(
        cls, rule: str, status: str, p_lo: float, p_hi: float, formula: str, notes: tuple = ()
    ):
        if status != STATUS_NONE and not (1.0 <= p_lo <= p_hi):
            raise DomainError("p-interval must sit inside [1, inf)")
        return super().__new__(cls, rule, status, p_lo, p_hi, formula, notes)

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "status": self.status,
            "p_lo": self.p_lo,
            "p_hi": None if math.isinf(self.p_hi) else self.p_hi,
            "p_lo_ci": None,  # no interval is estimated; the key keeps the layout
            "formula": self.formula,
            "notes": list(self.notes),
        }


class DensityVerdict(NamedTuple):
    ambient_dim: int
    zero_kind: str  # "radial" | "full"
    dim_estimate: float
    rows: tuple

    def as_dict(self) -> dict:
        return {
            "ambient_dim": self.ambient_dim,
            "zero_kind": self.zero_kind,
            "dim_estimate": self.dim_estimate,
            "dim_ci": None,  # no interval is estimated; the key keeps the layout
            "rows": [r.as_dict() for r in self.rows],
        }


def motion_p_lower(n: int, beta: float) -> float:
    """Left endpoint 2n/(n+1-beta) for radial zero sets; increasing in beta."""
    if not (0 <= beta < 1):
        raise DomainError("beta must lie in [0, 1)")
    return 2 * n / (n + 1 - beta)


def translate_p_lower(n: int, alpha: float) -> float:
    """Left endpoint 2n/(2n-alpha) for full zero sets; increasing in alpha."""
    if not (0 <= alpha < n):
        raise DomainError(f"alpha must lie in [0, {n})")
    return 2 * n / (2 * n - alpha)


def _prior_rows(n: int, zero_set_empty: bool) -> list[VerdictRow]:
    """Informational restatements of the earlier motion-group results,
    for ambient dimension n >= 2."""
    empty_note = f"radial zero set is {'empty' if zero_set_empty else 'nonempty'} on this grid"
    return [
        VerdictRow(
            rule="prior-l1",
            status=STATUS_PRIOR,
            p_lo=1.0,
            p_hi=1.0,
            formula="p = 1: dense iff no zero radii and nonzero mean",
            notes=(empty_note,),
        ),
        VerdictRow(
            rule="prior-small-p",
            status=STATUS_PRIOR,
            p_lo=1.0,
            p_hi=2 * n / (n + 1),
            formula="1 < p < 2n/(n+1): dense iff no zero radii",
            notes=(empty_note,),
        ),
        VerdictRow(
            rule="prior-mid-p",
            status=STATUS_PRIOR,
            p_lo=2.0,
            p_hi=2 * n / (n - 1),
            formula="2 <= p <= 2n/(n-1): dense when zero radii have zero length",
            notes=(),
        ),
        VerdictRow(
            rule="prior-large-p",
            status=STATUS_PRIOR,
            p_lo=2 * n / (n - 1),
            p_hi=math.inf,
            formula="2n/(n-1) < p: dense iff zero radii nowhere dense",
            notes=(),
        ),
    ]


def _checked(dim_estimate: float, n: int) -> float:
    """The estimate as a float, after checking it and the dimension n."""
    if n < 1:
        raise DomainError("ambient dimension must be >= 1")
    dim = float(dim_estimate)
    if dim < 0:
        raise DomainError("dimension estimate must be nonnegative")
    return dim


def radial_verdict(radii, beta: float, n: int) -> DensityVerdict:
    """The rigid-motion table for a radial zero set (plus prior-result
    reference rows): radii are its zero radii, beta the packing dimension
    estimate of the set of zero radii."""
    dim = _checked(beta, n)
    if n < 2:
        raise DomainError("radial verdicts need ambient dimension >= 2")
    if dim >= 1:
        row = VerdictRow(RULE_MOTION_RADIAL, STATUS_NONE, math.nan, math.nan,
                         "p_lo = 2n/(n+1-beta)", (NO_CONCLUSION_NOTE,))
    else:
        row = VerdictRow(RULE_MOTION_RADIAL, STATUS_DENSE, motion_p_lower(n, dim), 2.0,
                         "p_lo = 2n/(n+1-beta)")
    rows = (row, *_prior_rows(n, zero_set_empty=not radii))
    return DensityVerdict(ambient_dim=n, zero_kind="radial", dim_estimate=dim, rows=rows)


def translate_verdict(alpha: float, n: int) -> DensityVerdict:
    """The translation table for a full zero set in R^n: alpha is the
    packing dimension estimate of the zero set."""
    dim = _checked(alpha, n)
    if dim >= n:
        rows = (
            VerdictRow(RULE_TRANSLATE_FULL, STATUS_NONE, math.nan, math.nan,
                       "p_lo = 2n/(2n-alpha)", (NO_CONCLUSION_NOTE,)),
        )
    else:
        p_lo = translate_p_lower(n, dim)
        rows = (
            VerdictRow(RULE_TRANSLATE_FULL, STATUS_DENSE, p_lo, math.inf,
                       "p_lo = 2n/(2n-alpha)"),
            VerdictRow(
                RULE_TRANSLATE_CONJUGATE,
                STATUS_DENSE,
                p_lo,
                math.inf,
                "alpha <= 2n/q with 1/p + 1/q = 1",
                ("conjugate-exponent restatement of the same endpoint",),
            ),
        )
    return DensityVerdict(ambient_dim=n, zero_kind="full", dim_estimate=dim, rows=rows)
