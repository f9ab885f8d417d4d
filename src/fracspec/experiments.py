"""Experiment runners behind the command-line interface.

Each runner takes an ExperimentConfig, computes with the library
modules and returns (opts, metrics, flags, artifacts): the resolved
options, the report's metrics and flags, and a map from each artifact's
file name to a write(path) callable, in write order.  Runners touch no
file: run_experiment alone makes `<out>/<experiment>/` and writes every
artifact and then report.json, after every check has passed, so a
refused run leaves nothing on disk.  Artifact bytes are deterministic
for a fixed config and seed: write_csv formats every float with '.17g'
and rows are emitted in a fixed order.  Lines end in '\n', except in
level.csv, whose rows end in '\r\n' as csv.writer's do.  Wall time is
reported but is not part of the deterministic identity.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import numpy as np
from numpy.random import SeedSequence, default_rng

from .cantor import (
    CantorParams,
    build_level,
    check_level_budget,
    level_tube,
    middle_thirds_params,
    sample_salem_offsets,
    write_level_csv,
    write_params,
)
from .config import REQUIRED, ExperimentConfig, at_least, choice, list_of, parse_real
from .errors import ConfigError, DomainError, SizeError
from .fourier import (
    MIN_OCTAVES,
    bessel_tail_profile,
    cantor_fourier_grid,
    lq_grid_diagnostics,
    mollifier_sum,
    octave_grid,
)
from .geometry import (
    PointCloud,
    box_dimension_estimate,
    covering_number,
    geometric_scales,
    tube_ratios,
)
from .geometry.dimension import MIN_SCALES
from .numeric import parse_rational
from .tauberian import (
    check_square_budget,
    mask_spectrum_on_radii,
    radial_verdict,
    span_counts,
    spherical_zero_radii,
)


def fmt(x) -> str:
    """Canonical float formatting for CSV artifacts."""
    return format(float(x), ".17g")


def write_csv(path: Path, header, rows) -> None:
    """Write the header and then each row as one comma-separated line
    ending in '\n'; str and int cells are written as they are, any other
    through fmt.  The lines go to the open file one at a time, so rows may
    be a generator, and no list of lines or joined text is held."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(c) if isinstance(c, (str, int)) else fmt(c) for c in row) + "\n")


def write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


class ReportRecord(NamedTuple):
    experiment: str
    digest: str
    metrics: dict
    flags: dict
    wall_time_s: float

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "digest": self.digest,
            "metrics": self.metrics,
            "flags": self.flags,
            "wall_time_s": self.wall_time_s,
        }


def _real_or_none(raw: str):
    return None if raw in ("none", "") else parse_real(raw)


# The keys each runner reads, as {key: (parse, default)}; resolve rejects
# any other key.  The runners that build a construction share CANTOR_KEYS,
# and tauberian.kind selects SPAN_KEYS or RADIAL_KEYS.
CANTOR_KEYS = {
    "cantor.branches": (at_least(2), 2),
    "cantor.ratio": (parse_rational, Fraction(1, 3)),
    "cantor.offsets": (list_of(parse_rational), None),
}
CONSTRUCT_KEYS = {**CANTOR_KEYS, "level.depth": (at_least(0), 6)}
DIM_KEYS = {**CANTOR_KEYS, "dim.level_min": (at_least(0), 3), "dim.level_max": (int, 10)}
MINKOWSKI_KEYS = {
    **CANTOR_KEYS,
    "level.depth": (int, 12),
    "minkowski.m_min": (int, 2),
    "minkowski.m_max": (int, None),  # None: level.depth
    "minkowski.limit": (parse_real, 3.0),
}
FOURIER_KEYS = {
    **CANTOR_KEYS,
    "fourier.depth": (at_least(1), 8),
    "fourier.j_min": (int, 2),
    "fourier.j_max": (int, 10),
    "fourier.samples_per_octave": (at_least(1), 512),
    "fourier.q_list": (list_of(parse_real), (3.0, 6.0)),
}
MOLLIFY_KEYS = {
    "mollify.dim": (int, 2),
    "mollify.alpha": (parse_real, 1.0),
    "mollify.p": (parse_real, 4.0),
    "mollify.truncate": (_real_or_none, 1.0),
    "mollify.eps_exp_min": (int, 2),
    "mollify.eps_exp_max": (int, 8),
    "mollify.j_min": (int, -20),
    "mollify.j_max": (int, 4),
}
_KIND = {"tauberian.kind": (choice("span", "radial"), "span")}
SPAN_KEYS = {**_KIND, "tauberian.m": (at_least(2), 16), "tauberian.trials": (at_least(1), 100)}
RADIAL_KEYS = {
    **_KIND,
    "tauberian.m": (at_least(2), 128),
    "tauberian.band": (at_least(0, parse_real), 1.2),
    "tauberian.radii": (list_of(at_least(0, parse_real)), REQUIRED),
}


def _params_from_config(cfg: ExperimentConfig, opts: dict) -> CantorParams:
    branches, ratio, offsets = opts["cantor.branches"], opts["cantor.ratio"], opts["cantor.offsets"]
    if offsets is None:
        if branches == 2 and ratio == Fraction(1, 3):
            offsets = middle_thirds_params().offsets
        elif cfg.seed is None:
            raise ConfigError("cantor.offsets missing and no seed given to draw them")
        else:
            offsets = sample_salem_offsets(branches, ratio, default_rng(cfg.seed))
    return CantorParams.create(branches, ratio, offsets, seed=cfg.seed)


def _check_out(cfg: ExperimentConfig) -> None:
    """Refuse an <out>/<experiment> that is or lies under a non-directory,
    before any work and without making it."""
    path = Path(cfg.out) / cfg.experiment
    if not next(p for p in (path, *path.parents) if p.exists()).is_dir():
        raise ConfigError(f"cannot make output directory {path}: Not a directory")


def _out_dir(cfg: ExperimentConfig) -> Path:
    path = Path(cfg.out) / cfg.experiment
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {path}: {exc.strerror}") from exc
    return path


def run_construct(cfg: ExperimentConfig) -> tuple:
    opts = cfg.resolve(CONSTRUCT_KEYS)
    params = _params_from_config(cfg, opts)
    depth = opts["level.depth"]
    level = build_level(params, depth)
    count = level.member_count
    tube = level_tube(params, depth)
    metrics = {
        "depth": depth,
        "intervals": count,
        "total_length": float(Fraction(count * level.length, level.denominator)),
        "min_gap": tube.gaps[0][0] / tube.denominator if tube.gaps else 0.0,
        "dimension": float(params.dimension),
        "first_start": level.starts[0] / level.denominator,
    }
    flags = {"count_matches_branching": count == params.branches**depth}
    return opts, metrics, flags, {
        "params.json": lambda path: write_params(params, path),
        "level.csv": lambda path: write_level_csv(level, path),
    }


def run_dim(cfg: ExperimentConfig) -> tuple:
    opts = cfg.resolve(DIM_KEYS)
    lo, hi = opts["dim.level_min"], opts["dim.level_max"]
    if hi - lo + 1 < MIN_SCALES:
        raise ConfigError(f"dim.level_min..dim.level_max must span at least {MIN_SCALES} levels")
    params = _params_from_config(cfg, opts)
    # the counts are structural, branches**m intervals of length L_m, so no
    # level is built; a window build_level would refuse is still refused
    for depth in (lo, hi):
        check_level_budget(params, depth)
    lengths = params.level_lengths(hi)
    rows = [(lengths[m], params.branches**m) for m in range(lo, hi + 1)]
    fit = box_dimension_estimate(rows)
    metrics = {
        "slope": fit.slope,
        "residual_rms": fit.residual_rms,
        "expected": float(params.dimension),
        "abs_error": abs(fit.slope - float(params.dimension)),
    }
    return opts, metrics, {"degenerate": fit.degenerate}, {
        "counts.csv": lambda path: write_csv(path, ("eps", "count"), rows),
    }


def run_minkowski(cfg: ExperimentConfig) -> tuple:
    opts = cfg.resolve(MINKOWSKI_KEYS)
    depth, m_lo = opts["level.depth"], opts["minkowski.m_min"]
    m_hi = depth if opts["minkowski.m_max"] is None else opts["minkowski.m_max"]
    if not 1 <= m_lo <= m_hi <= depth:
        raise ConfigError("need 1 <= minkowski.m_min <= minkowski.m_max <= level.depth")
    limit = opts["minkowski.limit"]
    params = _params_from_config(cfg, opts)
    # the volumes come from the closed-form gap spectrum, so no level is
    # built; a depth build_level would refuse is still refused
    check_level_budget(params, depth)
    tube = level_tube(params, depth)
    try:
        alpha = params.dimension_log_ratio()
    except DomainError:  # eta is not 1/q: no exact exponent
        alpha = float(params.dimension)
    scales = geometric_scales(params.ratio**m_lo, params.ratio, m_hi - m_lo + 1)
    # at power 1 the bounds agree: one ratio per scale
    rows = tube_ratios(tube, alpha, scales)
    ratios = [float(ratio) for _, ratio, _ in rows]
    sup_ratio = max(ratios)
    metrics = {
        "sup_ratio": sup_ratio,
        "rows": len(rows),
        "exact_rows": sum(isinstance(ratio, Fraction) for _, ratio, _ in rows),
        "limit": limit,
    }
    table = ((eps, r, r, r) for (eps, _, _), r in zip(rows, ratios))
    return opts, metrics, {"bounded": sup_ratio <= limit}, {
        "ratios.csv": lambda path: write_csv(
            path, ("eps", "value", "bound_low", "bound_high"), table
        ),
    }


def run_fourier(cfg: ExperimentConfig) -> tuple:
    opts = cfg.resolve(FOURIER_KEYS)
    depth = opts["fourier.depth"]
    j_lo, j_hi = opts["fourier.j_min"], opts["fourier.j_max"]
    if j_hi - j_lo + 1 < MIN_OCTAVES:
        raise ConfigError(f"fourier.j_min..fourier.j_max must span at least {MIN_OCTAVES} octaves")
    per_octave, qs = opts["fourier.samples_per_octave"], opts["fourier.q_list"]
    params = _params_from_config(cfg, opts)
    diags = lq_grid_diagnostics(params, depth, qs, j_lo, j_hi, per_octave)
    # spectrum.csv's sample, in one call of its own
    spacing, step, size, _ = octave_grid(j_lo, j_hi, per_octave)
    xi = spacing + np.arange(0, size, max(1, size // 2048)) * step
    values, length = cantor_fourier_grid(params, depth, xi)
    sample = zip(xi.tolist(), values.tolist(), (np.abs(xi) * length).tolist())
    octaves = (
        (q, row.j, row.lo, row.hi, row.integral, "" if row.ratio is None else row.ratio)
        for q, diag in zip(qs, diags)
        for row in diag.rows
    )
    spectrum = ((x, v.real, v.imag, abs(v), e) for x, v, e in sample)
    metrics = {"depth": depth, "octaves": j_hi - j_lo + 1}
    flags = {}
    for q, diag in zip(qs, diags):
        metrics[f"tail_ratio_max_q{fmt(q)}"] = max(diag.tail_ratios)
        flags[f"summable_q{fmt(q)}"] = diag.verdict == "summable-like"
    return opts, metrics, flags, {
        "octaves.csv": lambda path: write_csv(
            path, ("q", "j", "lo", "hi", "integral", "ratio"), octaves
        ),
        "spectrum.csv": lambda path: write_csv(
            path, ("xi", "re", "im", "abs", "error_bound"), spectrum
        ),
    }


def run_mollify(cfg: ExperimentConfig) -> tuple:
    opts = cfg.resolve(MOLLIFY_KEYS)
    dim, alpha, p = opts["mollify.dim"], opts["mollify.alpha"], opts["mollify.p"]
    e_lo, e_hi = opts["mollify.eps_exp_min"], opts["mollify.eps_exp_max"]
    if e_hi < e_lo:
        raise ConfigError("mollify.eps_exp_max must be >= mollify.eps_exp_min")
    j_lo, j_hi = opts["mollify.j_min"], opts["mollify.j_max"]
    # eps = 2**-e is a finite positive float exactly for -1023 <= e <= 1074
    if not (-1023 <= e_lo and e_hi <= 1074):
        raise DomainError("eps exponents must satisfy -1023 <= e <= 1074")
    f = bessel_tail_profile(dim=dim, p=p, truncate_at=opts["mollify.truncate"])
    eps_schedule = [2.0**-e for e in range(e_lo, e_hi + 1)]
    sweep = mollifier_sum(f, alpha, eps_schedule, j_lo=j_lo, j_hi=j_hi)
    table = (
        (eps, row.j, row.b[e_idx], row.a, row.a * row.b[e_idx])
        for e_idx, eps in enumerate(sweep.eps)
        for row in sweep.rows
    )
    flags = {
        "sums_nonincreasing": sweep.sums_nonincreasing(),
        "tails_nonincreasing": sweep.tails_nonincreasing,
        "uniform_bound_ok": sweep.uniform_bound_ok,
    }
    summary = {
        "eps": [fmt(e) for e in sweep.eps],
        "sums": [fmt(s) for s in sweep.sums],
        "final_over_initial": fmt(sweep.final_over_initial),
        "holder_constant": fmt(sweep.holder_constant),
        "flags": flags,
        "notes": list(sweep.notes),
    }
    metrics = {
        "final_over_initial": sweep.final_over_initial,
        "holder_constant": sweep.holder_constant,
        "eps_count": len(sweep.eps),
    }
    return opts, metrics, flags, {
        "sweep.csv": lambda path: write_csv(path, ("eps", "j", "b", "a", "product"), table),
        "summary.json": lambda path: write_json(path, summary),
    }


# Complex entries of the rows drawn and counted at once (64 KB).
SPAN_CHUNK_ENTRIES = 2**12
# trials x m**3, the SVD work of the span trials: one trial at m 2048
# (about 1.8 s on a 2-core x86-64, as two 1024 x 1024 blocks) fits, and
# so do 1000 at m 64 (2**28).
MAX_SPAN_WORK = 2**33


def span_trials(m: int, root: SeedSequence, trials: int) -> np.ndarray:
    """(3, trials) span_counts; row t is m complex normals from root's t-th
    child, real parts first.  After the budget checks, rows are drawn and
    counted a chunk at a time in one array of at most SPAN_CHUNK_ENTRIES:
    it and span_counts' arrays of its size are all that is live."""
    check_square_budget(m, "translate matrix")
    if trials * m**3 > MAX_SPAN_WORK:
        raise SizeError(f"{trials} trials x {m}**3 exceed the span work budget of {MAX_SPAN_WORK}")
    counts = np.empty((3, trials), dtype=np.intp)
    rows = np.empty((min(max(1, SPAN_CHUNK_ENTRIES // m), trials), m), dtype=complex)
    for lo in range(0, trials, len(rows)):
        children = root.spawn(min(len(rows), trials - lo))
        for row, child in zip(rows, children):
            rng = default_rng(child)
            row.real = rng.standard_normal(m)
            row.imag = rng.standard_normal(m)
        counts[:, lo : lo + len(children)] = span_counts(rows[: len(children)])
    return counts


def span_matches(counts: np.ndarray) -> int:
    """Trials whose circulant rank equals the span dimension, the count of
    nonvanishing transform coefficients (span_dim is m - dft_zeros by
    definition, so this is the one equality the trials check)."""
    span_dim, rank, _ = counts
    return int(np.count_nonzero(span_dim == rank))


def _run_span_trials(cfg: ExperimentConfig, opts: dict) -> tuple:
    m, trials = opts["tauberian.m"], opts["tauberian.trials"]
    counts = span_trials(m, SeedSequence(cfg.seed or 0), trials)
    matches = span_matches(counts)
    table = zip(range(trials), *counts.tolist())
    metrics = {"m": m, "trials": trials, "matches": matches}
    return opts, metrics, {"all_match": matches == trials}, {
        "trials.csv": lambda path: write_csv(
            path, ("trial", "span_dim", "circulant_rank", "dft_zeros"), table
        ),
    }


def _run_radial_scan(cfg: ExperimentConfig, opts: dict) -> tuple:
    m, band = opts["tauberian.m"], opts["tauberian.band"]
    radii = tuple(sorted(opts["tauberian.radii"]))
    if radii[-1] >= m / 2:
        raise ConfigError("tauberian.radii must sit below the grid Nyquist radius m/2")
    check_square_budget(m, "radial scan grid")
    rng = default_rng(cfg.seed or 0)
    grid = np.empty((m, m), dtype=complex)
    grid.real = rng.standard_normal((m, m))
    grid.imag = rng.standard_normal((m, m))
    grid = mask_spectrum_on_radii(grid, radii, band)  # frees the drawn grid
    zero_radii = spherical_zero_radii(grid)
    recovered = all(any(abs(r - t) <= band for r in zero_radii) for t in radii)
    dim_est = 0.0
    if len(zero_radii) >= 2:
        cloud = PointCloud.from_points(zero_radii)
        lo = min(np.diff(zero_radii)) / 2
        hi = (zero_radii[-1] - zero_radii[0]) / 4
        if hi > lo > 0:
            scales = geometric_scales(
                Fraction(hi).limit_denominator(10**6),
                Fraction(np.exp(np.log(lo / hi) / 5)).limit_denominator(10**6),
                6,
            )
            dim_est = box_dimension_estimate([(e, covering_number(cloud, e)) for e in scales]).slope
    report = radial_verdict(zero_radii, dim_est, 2)
    metrics = {
        "m": m,
        "detected_radii": len(zero_radii),
        "target_radii": len(radii),
        "dim_estimate": dim_est,
    }
    return opts, metrics, {"all_targets_recovered": recovered}, {
        "radii.csv": lambda path: write_csv(path, ("radius",), ((r,) for r in zero_radii)),
        "verdict.json": lambda path: write_json(path, report.as_dict()),
    }


def run_tauberian(cfg: ExperimentConfig) -> tuple:
    # the kind picks the table; the table's choice rejects any other kind
    if cfg.options.get("tauberian.kind") == "radial":
        return _run_radial_scan(cfg, cfg.resolve(RADIAL_KEYS))
    return _run_span_trials(cfg, cfg.resolve(SPAN_KEYS))


EXPERIMENTS = {
    "construct": run_construct,
    "dim": run_dim,
    "minkowski": run_minkowski,
    "fourier": run_fourier,
    "mollify": run_mollify,
    "tauberian": run_tauberian,
}


def run_experiment(cfg: ExperimentConfig) -> ReportRecord:
    """Run cfg's experiment, then write its artifacts and report.json;
    wall_time_s covers the computation and the artifact writes."""
    runner = EXPERIMENTS[cfg.experiment]
    _check_out(cfg)
    started = time.perf_counter()
    opts, metrics, flags, artifacts = runner(cfg)
    out = _out_dir(cfg)
    for name, write in artifacts.items():
        write(out / name)
    record = ReportRecord(
        cfg.experiment, cfg.digest(opts), metrics, flags, time.perf_counter() - started
    )
    write_json(out / "report.json", record.to_dict())
    return record
