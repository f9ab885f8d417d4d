"""Finite-torus translation-span experiments and density verdict tables."""

from .grid import check_square_budget, vanishing
from .span import span_counts
from .spherical import mask_spectrum_on_radii, spherical_zero_radii
from .verdict import (
    RULE_MOTION_RADIAL,
    RULE_TRANSLATE_CONJUGATE,
    RULE_TRANSLATE_FULL,
    STATUS_DENSE,
    STATUS_NONE,
    STATUS_PRIOR,
    DensityVerdict,
    VerdictRow,
    motion_p_lower,
    radial_verdict,
    translate_p_lower,
    translate_verdict,
)

__all__ = [
    "RULE_MOTION_RADIAL",
    "RULE_TRANSLATE_CONJUGATE",
    "RULE_TRANSLATE_FULL",
    "STATUS_DENSE",
    "STATUS_NONE",
    "STATUS_PRIOR",
    "DensityVerdict",
    "VerdictRow",
    "check_square_budget",
    "mask_spectrum_on_radii",
    "motion_p_lower",
    "radial_verdict",
    "span_counts",
    "spherical_zero_radii",
    "translate_p_lower",
    "translate_verdict",
    "vanishing",
]
