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
    SUP_METADATA,
    BumpFunction,
    DyadicProfile,
    annulus_sup_squared,
    bump_profile,
)
from .mollifier import (
    MollifierRow,
    MollifierSweep,
    RadialProfile,
    bessel_tail_profile,
    mollifier_sum,
)
from .transforms import (
    TransformValue,
    cantor_fourier,
    cantor_fourier_grid,
)

__all__ = [
    "MIN_OCTAVES",
    "RATIO_THRESHOLD",
    "SUP_METADATA",
    "BumpFunction",
    "DyadicProfile",
    "MollifierRow",
    "MollifierSweep",
    "OctaveDiagnostics",
    "OctaveRow",
    "RadialProfile",
    "SpectralGrid",
    "TransformValue",
    "annulus_sup_squared",
    "bessel_tail_profile",
    "bump_profile",
    "cantor_fourier",
    "cantor_fourier_grid",
    "lq_annulus_diagnostics",
    "mollifier_sum",
]
