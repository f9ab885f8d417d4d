"""Exact and approximate covering/packing geometry on finite data."""

from .cloud import (
    EXACT_CAP,
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
    "EXACT_CAP",
    "DensityEstimate",
    "DimensionFit",
    "IntervalUnion",
    "MinkowskiRow",
    "MinkowskiSweep",
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
