"""Finite-torus translation-span experiments and density verdict tables."""

from .grid import (
    GridFunction,
    ZeroSet,
    check_square_budget,
    default_tol,
    dft,
    dft_zero_set,
)
from .span import (
    circulant_matrix,
    circulant_rank,
    span_dimension_oracle,
)
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
    "circulant_matrix",
    "circulant_rank",
    "default_tol",
    "dft",
    "dft_zero_set",
    "mask_spectrum_on_radii",
    "motion_p_lower",
    "span_dimension_oracle",
    "spherical_zero_radii",
    "translate_p_lower",
    "verdict",
]
