"""The benchmark's workloads: the `fracspec` CLI steps one sample runs, the
inputs they get, and what a correct outcome of each step looks like.

The workload seed goes only into the generated config files; the program
sees nothing but those files and the argument lists below.  `--jobs` is
never passed, so every step runs at the CLI default of one job.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Seed whose artifact hashes are pinned in reference.json.
DEFAULT_SEED = 1


@dataclass(frozen=True)
class Step:
    """One `fracspec.cli.main(argv)` call and its correctness gate."""

    id: str
    argv: tuple
    # Config text; empty for `verify` steps, which take no config.
    config: str = ""
    expect_exit: int = 0
    # Report flags that must be true.
    flags: tuple = ()
    # (report metric, "<=" or "==", value) triples.
    checks: tuple = ()
    # Expected pass map of a `verify` step.
    criteria: dict = field(default_factory=dict)

    @property
    def is_verify(self) -> bool:
        return self.argv[0] == "verify"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    steps: tuple
    # Step ids reported as the end-to-end metrics step1_s, step2_s, step3_s.
    headline: tuple


def _config(seed: int, *lines: str) -> str:
    return "\n".join((f"seed = {seed}",) + lines) + "\n"


def exact_levels(seed: int, tiny: bool = False) -> Workload:
    # Two levels below depth 16, so that each step takes under a second: a
    # run then holds about a dozen samples, and their median holds still on
    # a host whose CPU speed drifts.
    depth, dim_max, mink_depth = (6, 8, 6) if tiny else (14, 14, 12)
    middle_thirds = ("cantor.branches = 2", "cantor.ratio = 1/3")
    steps = (
        Step(
            "construct",
            ("construct",),
            _config(seed, *middle_thirds, f"level.depth = {depth}"),
            flags=("count_matches_branching",),
        ),
        Step(
            "dim",
            ("dim",),
            _config(seed, *middle_thirds, "dim.level_min = 3", f"dim.level_max = {dim_max}"),
            checks=(("abs_error", "<=", 0.02),),
        ),
        Step(
            "minkowski",
            ("minkowski",),
            _config(seed, *middle_thirds, f"level.depth = {mink_depth}"),
            flags=("bounded",),
            checks=(("sup_ratio", "==", 2.5),),
        ),
    )
    return Workload(
        "exact-levels",
        "exact-rational path: build_level and interval fattening do the work, no transform or span code runs;"
        " step1-3_s = construct, dim, minkowski",
        steps,
        ("construct", "dim", "minkowski"),
    )


def spectral(seed: int, tiny: bool = False) -> Workload:
    # Half the frequencies of fourier.j_max = 12 and half of 2000 trials, so
    # that a run holds about ten samples; the two kernels still carry the
    # step time.
    depth, j_max, trials = (6, 6, 50) if tiny else (12, 11, 1000)
    steps = (
        Step(
            "fourier",
            ("fourier",),
            _config(
                seed,
                "cantor.branches = 4",
                "cantor.ratio = 1/16",
                f"fourier.depth = {depth}",
                f"fourier.j_max = {j_max}",
            ),
        ),
        Step(
            "mollify",
            ("mollify",),
            _config(seed),
            flags=("sums_nonincreasing", "tails_nonincreasing", "uniform_bound_ok"),
        ),
        Step(
            "tauberian-span",
            ("tauberian",),
            _config(seed, "tauberian.kind = span", "tauberian.m = 64", f"tauberian.trials = {trials}"),
            flags=("all_match",),
        ),
        Step(
            "tauberian-radial",
            ("tauberian",),
            _config(seed, "tauberian.kind = radial", "tauberian.m = 128", "tauberian.radii = 10, 20, 30"),
            flags=("all_targets_recovered",),
        ),
    )
    return Workload(
        "spectral",
        "float/numpy path: cantor_fourier_grid over 0.5M frequencies and 1000 circulant ranks, no level is built;"
        " step1-3_s = fourier, mollify, tauberian span",
        steps,
        ("fourier", "mollify", "tauberian-span"),
    )


# Registry order of `fracspec verify`.  The recorded outcome is 10 PASS and
# a known salem-decay FAIL (exit code 1), which counts as correct.
CRITERIA = (
    "chain-inequalities",
    "box-dimension",
    "minkowski-ratio",
    "product-bound",
    "cantor-nondecay",
    "salem-decay",
    "mollifier-sum",
    "lp-tail-dichotomy",
    "span-oracle",
    "verdict-formulas",
    "upper-density",
)
EXPECTED_FAILURES = ("salem-decay",)
# The criteria take no size parameter; the smoke run keeps the sub-second
# ones, the known failure among them.
TINY_CRITERIA = (
    "box-dimension",
    "product-bound",
    "cantor-nondecay",
    "salem-decay",
    "lp-tail-dichotomy",
    "verdict-formulas",
)


def acceptance(seed: int, tiny: bool = False) -> Workload:
    # The criteria run on their own fixed seeds, so the workload seed has
    # nothing to reach.
    del seed
    steps = []
    for name in TINY_CRITERIA if tiny else CRITERIA:
        passes = name not in EXPECTED_FAILURES
        steps.append(
            Step(
                name,
                ("verify", "--suite", name),
                expect_exit=0 if passes else 1,
                criteria={name: passes},
            )
        )
    return Workload(
        "acceptance",
        "the 11 verify criteria: many small calls, the only workload reaching geometry.cloud and geometry.density;"
        " step1-3_s = chain-inequalities, minkowski-ratio, upper-density",
        tuple(steps),
        ("chain-inequalities", "minkowski-ratio", "upper-density")
        if not tiny
        else ("box-dimension", "product-bound", "salem-decay"),
    )


WORKLOADS = {
    "exact-levels": exact_levels,
    "spectral": spectral,
    "acceptance": acceptance,
}
