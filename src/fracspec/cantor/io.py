"""On-disk formats for construction parameters and levels.

Parameters round-trip through JSON with rationals serialized as "p/q"
strings, so a reload reproduces the construction bit for bit.  Levels
export to CSV with numerator/denominator columns for the same reason.
"""

from __future__ import annotations

import csv
import json
from fractions import Fraction
from pathlib import Path

from ..errors import ConfigError
from ..geometry.intervals import IntervalUnion
from ..numeric import parse_rational
from .levels import CantorLevel
from .params import CantorParams

LEVEL_FIELDS = ("index", "start_num", "start_den", "len_num", "len_den")


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def write_params(params: CantorParams, path) -> None:
    doc = {
        "branches": params.branches,
        "ratio": _frac_str(params.ratio),
        "offsets": [_frac_str(a) for a in params.offsets],
        "eta_rule": params.eta_rule,
    }
    if params.seed is not None:
        doc["seed"] = params.seed
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def read_params(path) -> CantorParams:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read parameter file {path}: {exc}") from exc
    try:
        return CantorParams.create(
            branches=int(doc["branches"]),
            ratio=parse_rational(doc["ratio"]),
            offsets=[parse_rational(a) for a in doc["offsets"]],
            eta_rule=doc.get("eta_rule", "constant"),
            seed=doc.get("seed"),
        )
    except KeyError as exc:
        raise ConfigError(f"parameter file {path} is missing {exc}") from exc


def write_level_csv(level: CantorLevel, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LEVEL_FIELDS)
        for i, (start, length) in enumerate(level.intervals):
            writer.writerow(
                [
                    i,
                    start.numerator,
                    start.denominator,
                    length.numerator,
                    length.denominator,
                ]
            )


def read_level_csv(path) -> IntervalUnion:
    """Reload interval data written by write_level_csv (geometry only)."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or set(LEVEL_FIELDS) - set(reader.fieldnames):
            raise ConfigError(f"{path} lacks the expected level columns")
        pairs = [
            (
                Fraction(int(row["start_num"]), int(row["start_den"])),
                Fraction(int(row["len_num"]), int(row["len_den"])),
            )
            for row in reader
        ]
    return IntervalUnion.from_pairs(pairs)
