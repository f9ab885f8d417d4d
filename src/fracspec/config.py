"""Flat key-value configuration for experiment runs.

Format: one `section.key = value` per line, `#` comments, blank lines
ignored.  Rationals are written "p/q" and parsed exactly; nothing here
ever converts a ratio through a float.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .errors import ConfigError
from .numeric import parse_rational

EXPERIMENT_IDS = ("construct", "dim", "minkowski", "fourier", "mollify", "tauberian")


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


@dataclass
class ExperimentConfig:
    experiment: str
    options: dict = field(default_factory=dict)
    seed: Optional[int] = None
    out: str = "out"

    def __post_init__(self):
        if self.experiment not in EXPERIMENT_IDS:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}; "
                f"known: {', '.join(EXPERIMENT_IDS)}"
            )

    @classmethod
    def from_file(
        cls,
        path,
        experiment: Optional[str] = None,
        seed: Optional[int] = None,
        out: Optional[str] = None,
    ) -> "ExperimentConfig":
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        options = parse_config_text(text)
        exp = experiment or options.pop("experiment", None)
        if exp is None:
            raise ConfigError("no experiment named on the command line or in the config")
        options.pop("experiment", None)
        cfg_seed = options.pop("seed", None)
        if seed is None and cfg_seed is not None:
            try:
                seed = int(cfg_seed)
            except ValueError as exc:
                raise ConfigError(f"seed must be an integer, got {cfg_seed!r}") from exc
        if "jobs" in options:
            raise ConfigError("the 'jobs' key was removed; every run is single-threaded")
        cfg_out = options.pop("out", None)
        return cls(
            experiment=exp,
            options=options,
            seed=seed,
            out=out if out is not None else (cfg_out or "out"),
        )

    def get(self, key: str, default=None) -> Optional[str]:
        return self.options.get(key, default)

    def get_int(self, key: str, default: Optional[int] = None) -> Optional[int]:
        raw = self.options.get(key)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"{key} must be an integer, got {raw!r}") from exc

    def get_float(self, key: str, default: Optional[float] = None) -> Optional[float]:
        raw = self.options.get(key)
        if raw is None:
            return default
        try:
            return float(Fraction(parse_rational(raw)))
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"{key} must be numeric, got {raw!r}") from exc

    def get_rational(self, key: str, default=None) -> Optional[Fraction]:
        raw = self.options.get(key)
        if raw is None:
            return default
        try:
            return parse_rational(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"{key} must be rational 'p/q', got {raw!r}") from exc

    def get_rational_list(self, key: str, default=None):
        raw = self.options.get(key)
        if raw is None:
            return default
        try:
            return tuple(parse_rational(part) for part in raw.split(",") if part.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"{key} must be comma-separated rationals, got {raw!r}") from exc

    def digest(self) -> str:
        """Stable identity of the computation inputs.

        The output location is excluded: it must not change any
        computed value, and the determinism tests rely on that exclusion
        to compare runs.
        """
        lines = [f"experiment={self.experiment}", f"seed={self.seed}"]
        lines.extend(f"{k}={v}" for k, v in sorted(self.options.items()))
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()
