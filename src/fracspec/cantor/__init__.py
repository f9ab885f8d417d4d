"""Branching interval constructions, their levels, measures, and offset draws."""

from .io import write_level_csv, write_params
from .levels import CantorLevel, build_level, check_level_budget, level_tube
from .measures import natural_measure
from .params import (
    CantorParams,
    ValidationReport,
    middle_thirds_params,
    similarity_dimension,
    tapered_eta,
    validate_params,
)
from .sampling import REJECTION_BUDGET, sample_salem_offsets

__all__ = [
    "REJECTION_BUDGET",
    "CantorLevel",
    "CantorParams",
    "ValidationReport",
    "build_level",
    "check_level_budget",
    "level_tube",
    "middle_thirds_params",
    "natural_measure",
    "sample_salem_offsets",
    "similarity_dimension",
    "tapered_eta",
    "validate_params",
    "write_level_csv",
    "write_params",
]
