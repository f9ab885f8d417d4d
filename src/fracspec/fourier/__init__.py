"""Transforms of construction measures, octave diagnostics, and mollifiers."""

from .annuli import (
    MIN_OCTAVES,
    RATIO_THRESHOLD,
    OctaveDiagnostics,
    OctaveRow,
    lq_grid_diagnostics,
    lq_radial_diagnostics,
    octave_grid,
)
from .bump import annulus_sups_squared, bump_transform
from .mollifier import (
    MollifierRow,
    MollifierSweep,
    RadialProfile,
    bessel_tail_profile,
    mollifier_sum,
)
from .transforms import cantor_fourier_grid

__all__ = [
    "MIN_OCTAVES",
    "RATIO_THRESHOLD",
    "MollifierRow",
    "MollifierSweep",
    "OctaveDiagnostics",
    "OctaveRow",
    "RadialProfile",
    "annulus_sups_squared",
    "bessel_tail_profile",
    "bump_transform",
    "cantor_fourier_grid",
    "lq_grid_diagnostics",
    "lq_radial_diagnostics",
    "mollifier_sum",
    "octave_grid",
]
