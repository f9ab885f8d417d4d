"""Transforms of construction measures, octave diagnostics, and mollifiers."""

from .annuli import (
    MIN_OCTAVES,
    RATIO_THRESHOLD,
    OctaveDiagnostics,
    OctaveRow,
    SpectralGrid,
    lq_annulus_diagnostics,
)
from .bump import (
    BumpFunction,
    DyadicProfile,
    annulus_sups_squared,
    bump_profile,
)
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
    "DyadicProfile",
    "MollifierRow",
    "MollifierSweep",
    "OctaveDiagnostics",
    "OctaveRow",
    "RadialProfile",
    "SpectralGrid",
    "annulus_sups_squared",
    "bessel_tail_profile",
    "bump_profile",
    "cantor_fourier_grid",
    "check_grid_budget",
    "lq_annulus_diagnostics",
    "mollifier_sum",
]
