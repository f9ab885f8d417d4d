"""Exact and approximate covering/packing geometry on finite data."""

from .cloud import (
    EXACT_CAP,
    PointCloud,
    covering_number,
    packing_number,
)
from .dimension import DimensionFit, box_dimension_estimate
from .sweeps import geometric_scales
from .volumes import eps_neighborhood_volume, tube_ratios

__all__ = [
    "EXACT_CAP",
    "DimensionFit",
    "PointCloud",
    "box_dimension_estimate",
    "covering_number",
    "eps_neighborhood_volume",
    "geometric_scales",
    "packing_number",
    "tube_ratios",
]
