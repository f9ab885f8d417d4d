"""End-to-end acceptance criteria.

Each criterion checks one headline behavior on fixed seeds and fixed
tolerances and returns (passed, detail).  `run_criterion` alone records
it: it times the call, turns a crash into a failure, applies the time
limit and builds the CriterionResult named by the CRITERIA key.
`run_suite()` runs each named criterion once, in first-given order; the
CLI prints one pass/fail line each and exits nonzero if any fail.

Three criteria run an experiment's runner at its defaults on an
in-memory config and read its metrics and flags: box-dimension runs
`dim`, mollifier-sum runs `mollify`, and span-oracle runs the
`tauberian` span trials at tauberian.m = 8, 16 and 32, seeded 907 + m.

Three criteria take one keyword override each: `alpha` on
minkowski-ratio (a wrong exponent), `depth` on cantor-nondecay (a
truncated transform) and `alpha` on mollifier-sum (a wrong weight,
handed to the runner as the mollify.alpha option).  Those exist so tests
can inject faults and watch the criterion fail; the registry always runs
the defaults.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import NamedTuple

import numpy as np
from numpy.random import default_rng

from .cantor import (
    CantorParams,
    build_level,
    level_tube,
    middle_thirds_params,
    sample_salem_offsets,
)
from .fourier import (
    bessel_tail_profile,
    cantor_fourier_grid,
    lq_grid_diagnostics,
    lq_radial_diagnostics,
)
from .config import ExperimentConfig
from .experiments import run_dim, run_mollify, run_tauberian
from .geometry import (
    PointCloud,
    covering_number,
    eps_neighborhood_volume,
    geometric_scales,
    packing_number,
    tube_ratios,
)
from .numeric import LogRatio, unit_ball_volume
from .tauberian import (
    RULE_MOTION_RADIAL,
    RULE_TRANSLATE_FULL,
    radial_verdict,
    translate_verdict,
)

REL_SLACK = 1e-12


class CriterionResult(NamedTuple):
    name: str
    passed: bool
    detail: str
    wall_time_s: float

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"{mark} {self.name} [{self.wall_time_s:.2f}s]: {self.detail}"


# 1. covering / packing chain and the volume sandwich


def criterion_chain_inequalities() -> tuple[bool, str]:
    rng = default_rng(1811)
    # halving radii 4/5 .. 1/80: eps_values[k] = radii[k + 1], so 2 eps is
    # radii[k] and eps/2 is radii[k + 2]
    radii = geometric_scales(Fraction(4, 5), Fraction(1, 2), 7)
    eps_values = radii[1:-1]
    chain_ok = volume_ok = 0
    checks = 0
    for i in range(100):
        n = 1 if i % 2 == 0 else 2
        size = int(rng.integers(2, 16))
        coords = rng.integers(0, 10**6, size=(size, n))
        cloud = PointCloud.from_points(
            [tuple(Fraction(int(c), 10**6) for c in row) for row in coords]
        )
        covers = [covering_number(cloud, r) for r in radii]
        omega = unit_ball_volume(n)
        for k, eps in enumerate(eps_values):
            checks += 1
            n_double, n_eps, n_half = covers[k : k + 3]
            p_eps = packing_number(cloud, eps)
            if n_double <= p_eps <= n_half:
                chain_ok += 1
            vol_low, vol_high = eps_neighborhood_volume(cloud, eps)
            if n == 1:
                # everything here is an exact Fraction, and vol_low == vol_high
                low = 2 * p_eps * eps
                high = 2 * n_eps * radii[k]
                if low <= vol_low <= high:
                    volume_ok += 1
            else:
                low = omega * p_eps * float(eps) ** n
                high = omega * n_eps * (2 * float(eps)) ** n
                slack = 1 + REL_SLACK
                if low <= float(vol_high) * slack and float(vol_low) <= high * slack:
                    volume_ok += 1
    passed = chain_ok == checks and volume_ok == checks
    return passed, f"chain {chain_ok}/{checks}, volume sandwich {volume_ok}/{checks}"


# 2. box-counting dimension of the middle-thirds set


def criterion_box_dimension() -> tuple[bool, str]:
    metrics = run_dim(ExperimentConfig("dim"))[1]
    slope, expected, err = metrics["slope"], metrics["expected"], metrics["abs_error"]
    return err <= 0.02, f"slope {slope:.6f}, expected {expected:.6f}, error {err:.2e} (tol 0.02)"


# 3. scale-normalized neighborhood volume of the middle-thirds set


def criterion_minkowski_ratio(alpha=None) -> tuple[bool, str]:
    if alpha is None:
        alpha = LogRatio(2, 3)
    rows = tube_ratios(
        level_tube(middle_thirds_params(), 12),
        alpha,
        geometric_scales(Fraction(1, 9), Fraction(1, 3), 11),
    )
    ratios = [ratio for _, ratio, _ in rows]
    in_range = all(1.0 <= float(r) <= 3.0 for r in ratios)
    all_exact = all(isinstance(r, Fraction) for r in ratios)
    first = ratios[0] if isinstance(ratios[0], Fraction) else None
    first_ok = first == Fraction(5, 2)
    passed = in_range and all_exact and first_ok
    return passed, (
        f"ratios in [1,3]: {in_range}, exact rows: {all_exact}, "
        f"ratio at eps=1/9 is {first} (want 5/2)"
    )


# 4. product-set volume bounds


def criterion_product_bound() -> tuple[bool, str]:
    rows = tube_ratios(
        level_tube(middle_thirds_params(), 8),
        LogRatio(4, 3),
        geometric_scales(Fraction(1, 9), Fraction(1, 3), 7),
        power=2,
    )
    lows = [float(low) for _, low, _ in rows]
    highs = [float(high) for _, _, high in rows]
    passed = all(1.0 <= low and high <= 9.0 for low, high in zip(lows, highs))
    return passed, (
        f"ratio bounds within [1,9]: {passed} (inf {min(lows):.4f}, sup {max(highs):.4f})"
    )


# 5. middle-thirds transform: non-decay along powers of three


def criterion_cantor_nondecay(depth: int = 40) -> tuple[bool, str]:
    params = middle_thirds_params()
    # F at pi, at 3**k pi for k < 9, and at 0, in one call
    points = [math.pi, *(3.0**k * math.pi for k in range(9)), 0.0]
    moduli = np.abs(cantor_fourier_grid(params, depth, points)[0])
    max_dev = float(np.max(np.abs(moduli[1:10] - moduli[0])))
    powers_ok = max_dev <= 1e-6

    xi = np.linspace(0.1, 100.0, 1000)
    upper, _ = cantor_fourier_grid(params, depth, 3.0 * xi)
    lower, _ = cantor_fourier_grid(params, depth, xi)
    identity_dev = float(np.max(np.abs(np.abs(upper) - np.abs(np.cos(xi)) * np.abs(lower))))
    identity_ok = identity_dev <= 1e-10

    at_zero = float(moduli[10])
    zero_ok = abs(at_zero - 1.0) <= 1e-12

    passed = powers_ok and identity_ok and zero_ok
    return passed, (
        f"|F(3^k pi)| spread {max_dev:.2e} (tol 1e-6), "
        f"scale identity residual {identity_dev:.2e} (tol 1e-10), F(0)={at_zero:.12f}"
    )


# 6. random construction: decay dichotomy across L^q exponents


def criterion_salem_decay() -> tuple[bool, str]:
    """Decay dichotomy for the random 4-branch, ratio-1/16 construction.

    The window [16, 256] is one full base-16 block, aligned to the scale
    ratio: with a fixed offset vector the transform recurs 16-adically,
    so a window across a block edge sees the recurrence spike.  KNOWN
    LIMITATION: with one offset vector at every level, |transform|^6 has
    flat average mass per block (the sixth moment of the one-level factor
    is exactly 1/16, the scale ratio), so the q=6 summable reading holds
    for few draws.  This criterion is expected to FAIL the 3-of-5 level
    and is kept as an honest record rather than weakened.
    """
    branches, ratio = 4, Fraction(1, 16)
    seeds, j_lo, j_hi = (1, 2, 3, 4, 5), 4, 7
    q_summable, q_divergent = 6.0, 3.0
    wins = 0
    per_seed = []
    for seed in seeds:
        rng = default_rng(seed)
        offsets = sample_salem_offsets(branches, ratio, rng)
        params = CantorParams.create(branches, ratio, offsets, seed=seed)
        hi_q, lo_q = lq_grid_diagnostics(params, 8, (q_summable, q_divergent), j_lo, j_hi)
        ok = hi_q.verdict == "summable-like" and lo_q.verdict == "divergent-like"
        wins += ok
        per_seed.append(f"seed {seed}: q={q_summable:g} {hi_q.verdict}, "
                        f"q={q_divergent:g} {lo_q.verdict}")
    passed = wins >= 3
    return passed, (
        f"{wins}/{len(seeds)} seeds show the dichotomy (need >= 3); " + "; ".join(per_seed)
    )


# 7. weighted shell sums of the mollified profile


def criterion_mollifier_sum(alpha: float | None = None) -> tuple[bool, str]:
    options = {} if alpha is None else {"mollify.alpha": str(alpha)}
    _, metrics, flags, _ = run_mollify(ExperimentConfig("mollify", options))
    decreasing, tails_ok = flags["sums_nonincreasing"], flags["tails_nonincreasing"]
    bound_ok, final_ratio = flags["uniform_bound_ok"], metrics["final_over_initial"]
    passed = decreasing and final_ratio <= 0.1 and tails_ok and bound_ok
    return passed, (
        f"sums nonincreasing: {decreasing}, final/initial {final_ratio:.4f} (tol 0.1), "
        f"fixed-j tails monotone: {tails_ok}, Holder bound holds: {bound_ok}"
    )


# 8. octave mass of the slowly decaying surrogate at two exponents


def criterion_lp_tail_dichotomy() -> tuple[bool, str]:
    f = bessel_tail_profile(dim=2, p=4.0, truncate_at=None)
    diag_hi = lq_radial_diagnostics(f, 5.0, 4, 10, dim=2)
    diag_crit = lq_radial_diagnostics(f, 4.0, 4, 10, dim=2)
    hi_ratios = [r.ratio for r in diag_hi.rows if r.ratio is not None]
    crit_ratios = [r.ratio for r in diag_crit.rows if r.ratio is not None]
    hi_ok = all(r < 0.85 for r in hi_ratios)
    crit_ok = all(0.9 <= r <= 1.1 for r in crit_ratios)
    passed = hi_ok and crit_ok
    return passed, (
        f"p=5 ratios < 0.85: {hi_ok} (max {max(hi_ratios):.4f}); "
        f"p=4 ratios in [0.9,1.1]: {crit_ok} "
        f"(range [{min(crit_ratios):.4f}, {max(crit_ratios):.4f}])"
    )


# 9. span dimension: the circulant rank equals the DFT support count


def criterion_span_oracle() -> tuple[bool, str]:
    matches = total = 0
    for m in (8, 16, 32):
        cfg = ExperimentConfig("tauberian", {"tauberian.m": str(m)}, seed=907 + m)
        metrics = run_tauberian(cfg)[1]
        matches += metrics["matches"]
        total += metrics["trials"]
    return matches == total, (
        f"{matches}/{total} trials: circulant rank equals the DFT support count"
    )


# 10. verdict endpoint formulas


def criterion_verdict_formulas() -> tuple[bool, str]:
    issues = []

    report = radial_verdict((1.0,), 0.0, 2)
    row = next(r for r in report.rows if r.rule == RULE_MOTION_RADIAL)
    if not (abs(row.p_lo - 4.0 / 3.0) <= 1e-12 and row.p_hi == 2.0):
        issues.append(f"beta=0 radial endpoint ({row.p_lo}, {row.p_hi}) != (4/3, 2)")

    alpha_hat = 2 * math.log(2) / math.log(3)
    report = translate_verdict(alpha_hat, 2)
    row = next(r for r in report.rows if r.rule == RULE_TRANSLATE_FULL)
    if abs(row.p_lo - 4.0 / 2.7381) > 1e-3:
        issues.append(f"alpha=1.2619 endpoint {row.p_lo} not within 1e-3 of 4/2.7381")

    report = translate_verdict(0.0, 2)
    row = next(r for r in report.rows if r.rule == RULE_TRANSLATE_FULL)
    if not (row.p_lo == 1.0 and math.isinf(row.p_hi)):
        issues.append(f"alpha=0 endpoint ({row.p_lo}, {row.p_hi}) != (1, inf)")

    passed = not issues
    detail = "all endpoint formulas match" if passed else "; ".join(issues)
    return passed, detail


# 11. upper density of the natural middle-thirds measure


def _ball_count(starts, center: int, reach: int) -> int:
    """How many of the sorted integer starts lie within reach of center,
    both ends included.  On a level over den, a midpoint lies in the
    closed ball of radius r around another exactly when their starts
    differ by at most floor(r * den)."""
    return bisect_right(starts, center + reach) - bisect_left(starts, center - reach)


def criterion_upper_density() -> tuple[bool, str]:
    """(2r)**-beta times the natural measure of closed balls around level-12
    midpoints, each interval carrying mass 2**-12, counted exactly."""
    points = 200
    starts, _, den = build_level(middle_thirds_params(), 12)
    beta = math.log(2) / math.log(3)
    rng = default_rng(4217)
    idx = rng.choice(len(starts), size=points, replace=False)
    radii = geometric_scales(Fraction(1, 9), Fraction(1, 3), 9)
    reaches = [math.floor(r * den) for r in radii]
    lo_lim = 2.0**-beta - 0.05
    hi_lim = 1.05
    sup_min, sup_max = math.inf, -math.inf
    ok = 0
    for i in idx:
        center = starts[int(i)]
        sup = max(
            _ball_count(starts, center, reach) / len(starts) * (2.0 * float(r)) ** (-beta)
            for r, reach in zip(radii, reaches)
        )
        sup_min = min(sup_min, sup)
        sup_max = max(sup_max, sup)
        ok += lo_lim <= sup <= hi_lim
    passed = ok == points
    return passed, (
        f"{ok}/{points} points in [{lo_lim:.4f}, {hi_lim}] "
        f"(observed range [{sup_min:.4f}, {sup_max:.4f}])"
    )


# registry


CRITERIA = {
    "chain-inequalities": (criterion_chain_inequalities, 60.0),
    "box-dimension": (criterion_box_dimension, 5.0),
    "minkowski-ratio": (criterion_minkowski_ratio, None),
    "product-bound": (criterion_product_bound, None),
    "cantor-nondecay": (criterion_cantor_nondecay, None),
    "salem-decay": (criterion_salem_decay, None),
    "mollifier-sum": (criterion_mollifier_sum, None),
    "lp-tail-dichotomy": (criterion_lp_tail_dichotomy, None),
    "span-oracle": (criterion_span_oracle, 30.0),
    "verdict-formulas": (criterion_verdict_formulas, None),
    "upper-density": (criterion_upper_density, None),
}


def run_criterion(name: str) -> CriterionResult:
    fn, limit = CRITERIA[name]
    started = time.perf_counter()
    try:
        passed, detail = fn()
    except Exception as exc:  # a crash is a failure, not an abort
        passed, detail = False, f"raised {exc!r}"
    wall_time_s = time.perf_counter() - started
    if limit is not None and wall_time_s > limit:
        passed, detail = False, detail + f"; exceeded time limit {limit:.0f}s"
    return CriterionResult(name, bool(passed), detail, wall_time_s)


def run_suite(names=None) -> list[CriterionResult]:
    """Run each named criterion once, in first-given order (all of them
    by default)."""
    names = list(CRITERIA if names is None else dict.fromkeys(names))
    unknown = [n for n in names if n not in CRITERIA]
    if unknown:
        raise KeyError(f"unknown criteria: {', '.join(unknown)}")
    return [run_criterion(n) for n in names]
