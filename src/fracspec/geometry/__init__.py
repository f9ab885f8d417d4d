"""Exact and approximate covering/packing geometry on finite data."""

from .cloud import (
    EXACT_CAP,
    PointCloud,
    covering_number,
    packing_number,
)
from .density import WeightedMeasure, upper_density_estimate
from .dimension import DimensionFit, box_dimension_estimate
from .intervals import IntervalUnion
from .sweeps import geometric_scales
from .volumes import eps_neighborhood_volume, tube_ratios

__all__ = [
    "EXACT_CAP",
    "DimensionFit",
    "IntervalUnion",
    "PointCloud",
    "WeightedMeasure",
    "box_dimension_estimate",
    "covering_number",
    "eps_neighborhood_volume",
    "geometric_scales",
    "packing_number",
    "tube_ratios",
    "upper_density_estimate",
]
