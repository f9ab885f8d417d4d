"""On-disk formats for construction parameters and levels.

Parameters are written as JSON with rationals serialized as "p/q"
strings, and levels as CSV with numerator/denominator columns, so the
files record the exact rationals rather than rounded floats.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

from .levels import CantorLevel
from .params import CantorParams

LEVEL_FIELDS = ("index", "start_num", "start_den", "len_num", "len_den")


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def write_params(params: CantorParams, path) -> None:
    # every construction has one ratio; "eta_rule" stays as a fixed key so
    # the file keeps its layout
    doc = {
        "branches": params.branches,
        "ratio": _frac_str(params.ratio),
        "offsets": [_frac_str(a) for a in params.offsets],
        "eta_rule": "constant",
    }
    if params.seed is not None:
        doc["seed"] = params.seed
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def write_level_csv(level: CantorLevel, path) -> None:
    """One row per interval, each rational in lowest terms, in the bytes
    csv.writer would write: unquoted fields, rows ending in '\\r\\n'.
    The one length is reduced once, and the rows are streamed, never
    held as one string."""
    starts, length, den = level
    g = math.gcd(length, den)
    tail = f",{length // g},{den // g}\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(LEVEL_FIELDS) + "\r\n")
        fh.writelines(_level_rows(starts, den, tail))


def _level_rows(starts, den: int, tail: str):
    for i, start in enumerate(starts):
        g = math.gcd(start, den)
        yield f"{i},{start // g},{den // g}{tail}"
