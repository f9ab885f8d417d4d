"""Exact and approximate covering/packing geometry on finite data."""

from .cloud import (
    EXACT_CAP,
    PointCloud,
    covering_number,
    packing_number,
)
from .density import (
    DensityEstimate,
    WeightedMeasure,
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
    "box_dimension_estimate",
    "covering_number",
    "eps_neighborhood_volume",
    "minkowski_ratio_sweep",
    "packing_number",
    "upper_density_estimate",
]
