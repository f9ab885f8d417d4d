"""Experiment runners behind the command-line interface.

Each runner takes an ExperimentConfig, computes with the library
modules, writes its artifacts under `<out>/<experiment>/`, and returns
a ReportRecord.  Artifact bytes are deterministic for a fixed config
and seed: floats are always formatted with '.17g' and rows are emitted
in a fixed order.  Lines end in '\n', except in level.csv, whose rows
end in '\r\n' as csv.writer's do.  Wall time is reported but is not
part of the deterministic identity.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np
from numpy.random import SeedSequence, default_rng

from .cantor import (
    CantorParams,
    build_level,
    check_level_budget,
    level_tube,
    sample_salem_offsets,
    write_level_csv,
    write_params,
)
from .cantor.params import ETA_RULES
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


@dataclass
class ReportRecord:
    experiment: str
    digest: str
    metrics: dict = field(default_factory=dict)
    flags: dict = field(default_factory=dict)
    wall_time_s: float = 0.0

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
    "cantor.rule": (choice(*ETA_RULES), "constant"),
}
CONSTRUCT_KEYS = {**CANTOR_KEYS, "level.depth": (int, 6)}
DIM_KEYS = {**CANTOR_KEYS, "dim.level_min": (int, 3), "dim.level_max": (int, 10)}
MINKOWSKI_KEYS = {
    **CANTOR_KEYS,
    "level.depth": (int, 12),
    "minkowski.m_min": (int, 2),
    "minkowski.m_max": (int, None),  # None: level.depth
    "minkowski.limit": (parse_real, 3.0),
}
FOURIER_KEYS = {
    **CANTOR_KEYS,
    "fourier.depth": (int, 8),
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
            offsets = (Fraction(0), Fraction(2, 3))
        elif cfg.seed is None:
            raise ConfigError("cantor.offsets missing and no seed given to draw them")
        else:
            offsets = sample_salem_offsets(branches, ratio, default_rng(cfg.seed))
    return CantorParams.create(
        branches, ratio, offsets, eta_rule=opts["cantor.rule"], seed=cfg.seed
    )


def _out_dir(cfg: ExperimentConfig) -> Path:
    path = Path(cfg.out) / cfg.experiment
    path.mkdir(parents=True, exist_ok=True)
    return path


def run_construct(cfg: ExperimentConfig) -> ReportRecord:
    opts = cfg.resolve(CONSTRUCT_KEYS)
    params = _params_from_config(cfg, opts)
    depth = opts["level.depth"]
    level = build_level(params, depth)
    out = _out_dir(cfg)
    write_params(params, out / "params.json")
    write_level_csv(level, out / "level.csv")
    count = level.member_count
    tube = level_tube(params, depth)
    return ReportRecord(
        experiment=cfg.experiment,
        digest=cfg.digest(opts),
        metrics={
            "depth": depth,
            "intervals": count,
            "total_length": float(Fraction(count * level.length, level.denominator)),
            "min_gap": tube.gaps[0][0] / tube.denominator if tube.gaps else 0.0,
            "dimension": float(params.dimension),
            "first_start": level.starts[0] / level.denominator,
        },
        flags={"count_matches_branching": count == params.branches**depth},
    )


def run_dim(cfg: ExperimentConfig) -> ReportRecord:
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
    out = _out_dir(cfg)
    write_csv(out / "counts.csv", ("eps", "count"), ((fmt(eps), count) for eps, count in rows))
    return ReportRecord(
        experiment=cfg.experiment,
        digest=cfg.digest(opts),
        metrics={
            "slope": fit.slope,
            "residual_rms": fit.residual_rms,
            "expected": float(params.dimension),
            "abs_error": abs(fit.slope - float(params.dimension)),
        },
        flags={"degenerate": fit.degenerate},
    )


def run_minkowski(cfg: ExperimentConfig) -> ReportRecord:
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
    out = _out_dir(cfg)
    write_csv(
        out / "ratios.csv",
        ("eps", "value", "bound_low", "bound_high"),
        ((fmt(eps), fmt(r), fmt(r), fmt(r)) for (eps, _, _), r in zip(rows, ratios)),
    )
    sup_ratio = max(ratios)
    return ReportRecord(
        experiment=cfg.experiment,
        digest=cfg.digest(opts),
        metrics={
            "sup_ratio": sup_ratio,
            "rows": len(rows),
            "exact_rows": sum(isinstance(ratio, Fraction) for _, ratio, _ in rows),
            "limit": limit,
        },
        flags={"bounded": sup_ratio <= limit},
    )


def run_fourier(cfg: ExperimentConfig) -> ReportRecord:
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
    out = _out_dir(cfg)
    write_csv(
        out / "octaves.csv",
        ("q", "j", "lo", "hi", "integral", "ratio"),
        (
            (fmt(q), row.j, fmt(row.lo), fmt(row.hi), fmt(row.integral),
             "" if row.ratio is None else fmt(row.ratio))
            for q, diag in zip(qs, diags)
            for row in diag.rows
        ),
    )
    write_csv(
        out / "spectrum.csv",
        ("xi", "re", "im", "abs", "error_bound"),
        ((fmt(x), fmt(v.real), fmt(v.imag), fmt(abs(v)), fmt(e)) for x, v, e in sample),
    )
    metrics = {"depth": depth, "octaves": j_hi - j_lo + 1}
    flags = {}
    for q, diag in zip(qs, diags):
        metrics[f"tail_ratio_max_q{fmt(q)}"] = max(diag.tail_ratios)
        flags[f"summable_q{fmt(q)}"] = diag.verdict == "summable-like"
    return ReportRecord(cfg.experiment, cfg.digest(opts), metrics, flags)


def run_mollify(cfg: ExperimentConfig) -> ReportRecord:
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
    out = _out_dir(cfg)
    write_csv(
        out / "sweep.csv",
        ("eps", "j", "b", "a", "product"),
        (
            (fmt(eps), row.j, fmt(row.b[e_idx]), fmt(row.a), fmt(row.a * row.b[e_idx]))
            for e_idx, eps in enumerate(sweep.eps)
            for row in sweep.rows
        ),
    )
    summary = {
        "eps": [fmt(e) for e in sweep.eps],
        "sums": [fmt(s) for s in sweep.sums],
        "final_over_initial": fmt(sweep.final_over_initial),
        "holder_constant": fmt(sweep.holder_constant),
        "flags": {
            "sums_nonincreasing": sweep.sums_nonincreasing(),
            "tails_nonincreasing": sweep.tails_nonincreasing,
            "uniform_bound_ok": sweep.uniform_bound_ok,
        },
        "notes": list(sweep.notes),
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return ReportRecord(
        cfg.experiment,
        cfg.digest(opts),
        metrics={
            "final_over_initial": sweep.final_over_initial,
            "holder_constant": sweep.holder_constant,
            "eps_count": len(sweep.eps),
        },
        flags=dict(summary["flags"]),
    )


# Complex entries of the rows drawn and counted at once (256 KB).
SPAN_CHUNK_ENTRIES = 2**14
# trials x m**3, the SVD work of the span trials: one trial at m 2048
# (about 1.8 s on a 2-core x86-64, as two 1024 x 1024 blocks) fits, and
# so do 1000 at m 64 (2**28).
MAX_SPAN_WORK = 2**33


def span_trials(m: int, root: SeedSequence, trials: int) -> np.ndarray:
    """(3, trials) span_counts; row t is m complex normals from root's t-th
    child.  Rows are spawned, drawn and counted a chunk at a time, after
    the translate matrix and work budgets are checked."""
    check_square_budget(m, "translate matrix")
    if trials * m**3 > MAX_SPAN_WORK:
        raise SizeError(f"{trials} trials x {m}**3 exceed the span work budget of {MAX_SPAN_WORK}")
    counts = np.empty((3, trials), dtype=np.intp)
    draws = np.empty((min(max(1, SPAN_CHUNK_ENTRIES // m), trials), 2, m))
    for lo in range(0, trials, len(draws)):
        children = root.spawn(min(len(draws), trials - lo))
        for i, child in enumerate(children):
            rng = default_rng(child)
            rng.standard_normal(out=draws[i, 0])
            rng.standard_normal(out=draws[i, 1])
        part = draws[: len(children)]
        counts[:, lo : lo + len(children)] = span_counts(part[:, 0] + 1j * part[:, 1])
    return counts


def span_matches(counts: np.ndarray) -> int:
    """Trials whose circulant rank equals the span dimension, the count of
    nonvanishing transform coefficients (span_dim is m - dft_zeros by
    definition, so this is the one equality the trials check)."""
    span_dim, rank, _ = counts
    return int(np.count_nonzero(span_dim == rank))


def _run_span_trials(cfg: ExperimentConfig, opts: dict, out: Path) -> ReportRecord:
    m, trials = opts["tauberian.m"], opts["tauberian.trials"]
    seed = cfg.seed if cfg.seed is not None else 0
    counts = span_trials(m, SeedSequence(seed), trials)
    write_csv(
        out / "trials.csv",
        ("trial", "span_dim", "circulant_rank", "dft_zeros"),
        zip(range(trials), *counts.tolist()),
    )
    matches = span_matches(counts)
    return ReportRecord(
        cfg.experiment,
        cfg.digest(opts),
        metrics={"m": m, "trials": trials, "matches": matches},
        flags={"all_match": matches == trials},
    )


def _run_radial_scan(cfg: ExperimentConfig, opts: dict, out: Path) -> ReportRecord:
    m, band = opts["tauberian.m"], opts["tauberian.band"]
    radii = tuple(sorted(opts["tauberian.radii"]))
    if radii[-1] >= m / 2:
        raise ConfigError("tauberian.radii must sit below the grid Nyquist radius m/2")
    check_square_budget(m, "radial scan grid")
    seed = cfg.seed if cfg.seed is not None else 0
    rng = default_rng(seed)
    base = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    zero_radii = spherical_zero_radii(mask_spectrum_on_radii(base, radii, band))
    write_csv(out / "radii.csv", ("radius",), ((fmt(r),) for r in zero_radii))
    recovered = []
    for target in radii:
        hits = [r for r in zero_radii if abs(r - target) <= band]
        recovered.append(bool(hits))
    dim_est = 0.0
    if len(zero_radii) >= 2:
        cloud = PointCloud.from_points(zero_radii)
        lo = min(np.diff(zero_radii)) / 2
        hi = (zero_radii[-1] - zero_radii[0]) / 4
        if hi > lo > 0:
            count = 6
            scales = geometric_scales(
                Fraction(hi).limit_denominator(10**6),
                Fraction(np.exp(np.log(lo / hi) / (count - 1))).limit_denominator(10**6),
                count,
            )
            fit = box_dimension_estimate([(eps, covering_number(cloud, eps)) for eps in scales])
            dim_est = fit.slope
    report = radial_verdict(zero_radii, dim_est, 2)
    (out / "verdict.json").write_text(json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n")
    return ReportRecord(
        cfg.experiment,
        cfg.digest(opts),
        metrics={
            "m": m,
            "detected_radii": len(zero_radii),
            "target_radii": len(radii),
            "dim_estimate": dim_est,
        },
        flags={"all_targets_recovered": all(recovered)},
    )


def run_tauberian(cfg: ExperimentConfig) -> ReportRecord:
    # the kind picks the table; the table's choice rejects any other kind
    if cfg.options.get("tauberian.kind") == "radial":
        return _run_radial_scan(cfg, cfg.resolve(RADIAL_KEYS), _out_dir(cfg))
    return _run_span_trials(cfg, cfg.resolve(SPAN_KEYS), _out_dir(cfg))


EXPERIMENTS = {
    "construct": run_construct,
    "dim": run_dim,
    "minkowski": run_minkowski,
    "fourier": run_fourier,
    "mollify": run_mollify,
    "tauberian": run_tauberian,
}


def run_experiment(cfg: ExperimentConfig) -> ReportRecord:
    runner = EXPERIMENTS[cfg.experiment]
    started = time.perf_counter()
    record = runner(cfg)
    record.wall_time_s = time.perf_counter() - started
    out = _out_dir(cfg)
    (out / "report.json").write_text(
        json.dumps(record.to_dict(), indent=2, sort_keys=True) + "\n"
    )
    return record
