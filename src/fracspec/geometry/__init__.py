"""Exact and approximate covering/packing geometry on finite data."""

from .cloud import (
    DEFAULT_EXACT_CAP,
    Packing,
    PointCloud,
    covering_number,
    covering_witness,
    packing_number,
    packing_witness,
)
from .density import (
    DensityEstimate,
    WeightedMeasure,
    ball_mass,
    upper_density_estimate,
)
from .dimension import DimensionFit, box_dimension_estimate
from .intervals import IntervalUnion
from .sweeps import ScaleSweep
from .volumes import (
    MinkowskiRow,
    MinkowskiSweep,
    VolumeResult,
    eps_neighborhood_volume,
    minkowski_ratio_sweep,
)

__all__ = [
    "DEFAULT_EXACT_CAP",
    "DensityEstimate",
    "DimensionFit",
    "IntervalUnion",
    "MinkowskiRow",
    "MinkowskiSweep",
    "Packing",
    "PointCloud",
    "ScaleSweep",
    "VolumeResult",
    "WeightedMeasure",
    "ball_mass",
    "box_dimension_estimate",
    "covering_number",
    "covering_witness",
    "eps_neighborhood_volume",
    "minkowski_ratio_sweep",
    "packing_number",
    "packing_witness",
    "upper_density_estimate",
]
