"""Branching interval constructions, their levels and tube data, and offset draws."""

from .io import write_level_csv, write_params
from .levels import CantorLevel, build_level, check_level_budget, level_tube
from .params import (
    CantorParams,
    middle_thirds_params,
    similarity_dimension,
    validate_params,
)
from .sampling import REJECTION_BUDGET, sample_salem_offsets

__all__ = [
    "REJECTION_BUDGET",
    "CantorLevel",
    "CantorParams",
    "build_level",
    "check_level_budget",
    "level_tube",
    "middle_thirds_params",
    "sample_salem_offsets",
    "similarity_dimension",
    "validate_params",
    "write_level_csv",
    "write_params",
]
