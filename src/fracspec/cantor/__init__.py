"""Branching interval constructions, their levels, measures, and product bounds."""

from .io import read_level_csv, read_params, write_level_csv, write_params
from .levels import CantorLevel, build_level
from .measures import natural_measure
from .params import (
    CantorParams,
    ValidationReport,
    middle_thirds_params,
    similarity_dimension,
    tapered_eta,
    validate_params,
)
from .products import ProductMinkowskiBounds, product_minkowski_bounds
from .sampling import REJECTION_BUDGET, sample_salem_offsets

__all__ = [
    "REJECTION_BUDGET",
    "CantorLevel",
    "CantorParams",
    "ProductMinkowskiBounds",
    "ValidationReport",
    "build_level",
    "middle_thirds_params",
    "natural_measure",
    "product_minkowski_bounds",
    "read_level_csv",
    "read_params",
    "sample_salem_offsets",
    "similarity_dimension",
    "tapered_eta",
    "validate_params",
    "write_level_csv",
    "write_params",
]
