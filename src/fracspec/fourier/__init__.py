"""Transforms of construction measures, octave diagnostics, and mollifiers."""

from .annuli import (
    MIN_OCTAVES,
    RATIO_THRESHOLD,
    OctaveDiagnostics,
    OctaveRow,
    lq_annulus_diagnostics,
    lq_radial_diagnostics,
)
from .bump import BumpFunction, annulus_sups_squared
from .mollifier import (
    MollifierRow,
    MollifierSweep,
    RadialProfile,
    bessel_tail_profile,
    mollifier_sum,
)
from .transforms import cantor_fourier_grid, check_grid_budget

__all__ = [
    "MIN_OCTAVES",
    "RATIO_THRESHOLD",
    "BumpFunction",
    "MollifierRow",
    "MollifierSweep",
    "OctaveDiagnostics",
    "OctaveRow",
    "RadialProfile",
    "annulus_sups_squared",
    "bessel_tail_profile",
    "cantor_fourier_grid",
    "check_grid_budget",
    "lq_annulus_diagnostics",
    "lq_radial_diagnostics",
    "mollifier_sum",
]
