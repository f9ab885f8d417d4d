"""Flat key-value configuration for experiment runs.

Format: one `section.key = value` per line, `#` comments, blank lines
ignored.  Rationals are written "p/q" and parsed exactly; nothing here
ever converts a ratio through a float.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import NamedTuple, Optional

from .errors import ConfigError
from .numeric import parse_rational

EXPERIMENT_IDS = ("construct", "dim", "minkowski", "fourier", "mollify", "tauberian")

# Table default of a key that has no default and must be given.
REQUIRED = object()


def parse_real(raw: str) -> float:
    """A number read exactly, then rounded once to a float."""
    return float(parse_rational(raw))


def list_of(parse):
    """Parser for comma-separated values, at least one, each read by parse."""

    def parse_list(raw: str) -> tuple:
        values = tuple(parse(part) for part in raw.split(",") if part.strip())
        if not values:
            raise ValueError("expected at least one value")
        return values

    return parse_list


def choice(*options: str):
    """Parser accepting exactly one of options."""

    def parse_choice(raw: str) -> str:
        if raw not in options:
            raise ValueError(f"expected one of {', '.join(options)}")
        return raw

    return parse_choice


def at_least(low, parse=int):
    """Parser: parse, then reject a value below low."""

    def parse_bounded(raw: str):
        value = parse(raw)
        if value < low:
            raise ValueError(f"must be >= {low}, got {value}")
        return value

    return parse_bounded


def parse_config_text(text: str) -> dict:
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


class _ExperimentConfigFields(NamedTuple):
    experiment: str
    options: dict
    seed: Optional[int]
    out: str


class ExperimentConfig(_ExperimentConfigFields):
    __slots__ = ()

    def __new__(
        cls,
        experiment: str,
        options: Optional[dict] = None,
        seed: Optional[int] = None,
        out: str = "out",
    ):
        if experiment not in EXPERIMENT_IDS:
            raise ConfigError(
                f"unknown experiment {experiment!r}; known: {', '.join(EXPERIMENT_IDS)}"
            )
        if seed is not None and seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {seed}")
        # a fresh dict per config: a shared default would carry one run's keys to the next
        return super().__new__(cls, experiment, {} if options is None else options, seed, out)

    @classmethod
    def from_file(
        cls,
        path,
        experiment: Optional[str] = None,
        seed: Optional[int] = None,
        out: Optional[str] = None,
    ) -> "ExperimentConfig":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(
                f"config {path} is not valid UTF-8: {exc.reason} at byte {exc.start}"
            ) from exc
        options = parse_config_text(text)
        cfg_exp = options.pop("experiment", None)
        exp = experiment or cfg_exp
        if exp is None:
            raise ConfigError("no experiment named on the command line or in the config")
        cfg_seed = options.pop("seed", None)
        if cfg_seed is not None:
            try:
                cfg_seed = int(cfg_seed)
            except ValueError as exc:
                raise ConfigError(f"seed must be an integer, got {cfg_seed!r}") from exc
        # the file's own experiment and seed must be valid even where the
        # command line overrides them
        cls(cfg_exp or exp, seed=cfg_seed)
        cfg_out = options.pop("out", None)
        return cls(
            experiment=exp,
            options=options,
            seed=cfg_seed if seed is None else seed,
            out=out if out is not None else (cfg_out or "out"),
        )

    def resolve(self, table: dict) -> dict:
        """Read the options through table, a `{key: (parse, default)}` map.

        Returns every key of the table: the parsed value where the
        option is given, else the default.  A parser takes the raw string
        and raises ValueError or ArithmeticError on malformed input.
        Raises ConfigError naming the key for an option the table lacks,
        a malformed value, or a missing REQUIRED key.
        """
        unknown = ", ".join(map(repr, sorted(set(self.options) - set(table))))
        if unknown:
            raise ConfigError(f"unknown key(s) for {self.experiment}: {unknown}")
        values = {}
        for key, (parse, default) in table.items():
            raw = self.options.get(key)
            if raw is None and default is REQUIRED:
                raise ConfigError(f"{key} is required")
            try:
                values[key] = default if raw is None else parse(raw)
            except (ValueError, ArithmeticError) as exc:
                raise ConfigError(f"{key} = {raw!r} is malformed: {exc}") from exc
        return values

    def digest(self, values: dict) -> str:
        """Stable identity of the computation inputs: the experiment, the
        seed and `values`, the map resolve returned.  Defaults are in it
        and every value is parsed, so an option given at its default, or
        written another way ("2/6" for "1/3"), hashes like the same run
        with it left out.

        The output location is excluded: it must not change any
        computed value, and the determinism tests rely on that exclusion
        to compare runs.
        """
        lines = [f"experiment={self.experiment}", f"seed={self.seed}"]
        lines.extend(f"{k}={v!r}" for k, v in sorted(values.items()))
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()
