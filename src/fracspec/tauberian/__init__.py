"""Finite-torus translation-span experiments and density verdict tables."""

from .grid import (
    GridFunction,
    ZeroSet,
    check_square_budget,
    dft,
    vanishing,
)
from .span import span_counts
from .spherical import (
    SphericalZeroSet,
    centered_frequencies,
    mask_spectrum_on_radii,
    spherical_zero_radii,
)
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
    translate_p_lower,
    verdict,
)

__all__ = [
    "RULE_MOTION_RADIAL",
    "RULE_TRANSLATE_CONJUGATE",
    "RULE_TRANSLATE_FULL",
    "STATUS_DENSE",
    "STATUS_NONE",
    "STATUS_PRIOR",
    "DensityVerdict",
    "GridFunction",
    "SphericalZeroSet",
    "VerdictRow",
    "ZeroSet",
    "centered_frequencies",
    "check_square_budget",
    "dft",
    "mask_spectrum_on_radii",
    "motion_p_lower",
    "span_counts",
    "spherical_zero_radii",
    "translate_p_lower",
    "vanishing",
    "verdict",
]
