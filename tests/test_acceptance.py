"""The acceptance suite, one pass/fail line per criterion.

`fracspec verify` prints the same lines from the command line.  One
criterion (salem-decay) is expected to fail; the reason lives in its
docstring and is summarized in the xfail mark below.
"""

import hashlib
import time
from fractions import Fraction
from itertools import takewhile
from pathlib import Path

import pytest

from fracspec import acceptance
from fracspec.acceptance import (
    CRITERIA,
    CriterionResult,
    criterion_cantor_nondecay,
    criterion_minkowski_ratio,
    criterion_mollifier_sum,
    run_criterion,
    run_suite,
)
from fracspec.numeric import LogRatio

SALEM_REASON = (
    "known limitation, recorded not weakened: with one offset vector reused "
    "at every level, the sixth-power octave masses are flat on average (the "
    "single-level factor's sixth moment equals the scale ratio 1/16), so the "
    "q=6 summable reading holds only for atypical draws; see the "
    "criterion_salem_decay docstring"
)


def criterion_params():
    for name in CRITERIA:
        if name == "salem-decay":
            yield pytest.param(name, marks=pytest.mark.xfail(strict=False, reason=SALEM_REASON))
        else:
            yield pytest.param(name)


@pytest.mark.parametrize("name", list(criterion_params()))
def test_criterion(name, capsys):
    result = run_criterion(name)
    with capsys.disabled():
        print()
        print(result.line())
    assert result.passed, result.detail


# Each criterion's verdict and detail, as `fracspec verify` prints them: a
# change to how the criteria compute must leave every line as it is.
DETAILS = {
    "chain-inequalities": (True, "chain 500/500, volume sandwich 500/500"),
    "box-dimension": (True, "slope 0.630930, expected 0.630930, error 1.11e-16 (tol 0.02)"),
    "minkowski-ratio": (
        True,
        "ratios in [1,3]: True, exact rows: True, ratio at eps=1/9 is 5/2 (want 5/2)",
    ),
    "product-bound": (True, "ratio bounds within [1,9]: True (inf 4.8713, sup 6.2500)"),
    "cantor-nondecay": (
        True,
        "|F(3^k pi)| spread 2.78e-16 (tol 1e-6), "
        "scale identity residual 5.94e-15 (tol 1e-10), F(0)=1.000000000000",
    ),
    "salem-decay": (
        False,
        "2/5 seeds show the dichotomy (need >= 3); "
        "seed 1: q=6 summable-like, q=3 divergent-like; "
        "seed 2: q=6 divergent-like, q=3 divergent-like; "
        "seed 3: q=6 divergent-like, q=3 divergent-like; "
        "seed 4: q=6 summable-like, q=3 divergent-like; "
        "seed 5: q=6 divergent-like, q=3 divergent-like",
    ),
    "mollifier-sum": (
        True,
        "sums nonincreasing: True, final/initial 0.0156 (tol 0.1), "
        "fixed-j tails monotone: True, Holder bound holds: True",
    ),
    "lp-tail-dichotomy": (
        True,
        "p=5 ratios < 0.85: True (max 0.7209); "
        "p=4 ratios in [0.9,1.1]: True (range [0.9619, 1.0157])",
    ),
    "span-oracle": (True, "300/300 trials: circulant rank equals the DFT support count"),
    "verdict-formulas": (True, "all endpoint formulas match"),
    # every sampled midpoint reads 2**-beta, as the float atom route read it
    "upper-density": (
        True,
        "200/200 points in [0.5958, 1.05] (observed range [0.6458, 0.6458])",
    ),
}


@pytest.mark.parametrize("name", list(CRITERIA))
def test_criterion_detail(name):
    result = run_criterion(name)
    assert (result.name, result.passed, result.detail) == (name, *DETAILS[name])


# SHA-256 of the per-check tuples of criterion_chain_inequalities, recorded
# before the pairwise-distance table and the cached gaps were introduced
CHAIN_CHECKS_SHA256 = "d29e305effaffc74e60285de6cd5a334f1d44724e333e270ecda27ef4f57091d"


def test_chain_inequalities_pinned(monkeypatch):
    """Every count and volume bound of chain-inequalities, not just its tally.

    Each check is (n_double, n_eps, n_half, p_eps, vol_low, vol_high) with
    exact volumes as Fractions and estimated ones as float.hex.  They are
    rebuilt from the criterion's own (args, result) pairs: eps and the
    check order come from its packing and volume calls, and the three
    covering counts are looked up at 2 eps, eps and eps/2 on the same cloud.
    """
    calls = {name: [] for name in ("covering_number", "packing_number", "eps_neighborhood_volume")}

    def record(name, fn):
        def wrapper(*args):
            out = fn(*args)
            calls[name].append((args, out))
            return out

        return wrapper

    for name in calls:
        monkeypatch.setattr(acceptance, name, record(name, getattr(acceptance, name)))
    passed, detail = acceptance.criterion_chain_inequalities()
    assert passed, detail

    def exact(v):
        return str(v) if isinstance(v, Fraction) else float(v).hex()

    # the recorded args keep every cloud alive, so no id is reused
    covers = {}
    for (cloud, radius), count in calls["covering_number"]:
        assert (id(cloud), radius) not in covers, "a cover was computed twice"
        covers[id(cloud), radius] = count
    # 100 clouds, each covered once at each of its 7 distinct radii
    assert len(calls["covering_number"]) == 700
    assert [args for args, _ in calls["packing_number"]] == [
        args for args, _ in calls["eps_neighborhood_volume"]
    ]
    checks = []
    for ((cloud, eps), p_eps), (_, (vol_low, vol_high)) in zip(
        calls["packing_number"], calls["eps_neighborhood_volume"]
    ):
        n_double, n_eps, n_half = (covers[id(cloud), r] for r in (2 * eps, eps, eps / 2))
        checks.append((n_double, n_eps, n_half, p_eps, exact(vol_low), exact(vol_high)))
    assert len(checks) == 500
    assert detail == "chain 500/500, volume sandwich 500/500"
    assert hashlib.sha256(repr(checks).encode()).hexdigest() == CHAIN_CHECKS_SHA256


def test_wrong_exponent_is_detected():
    passed, detail = criterion_minkowski_ratio(alpha=LogRatio(3, 4))
    assert not passed
    assert "exact rows: False" in detail


def test_truncated_transform_breaks_scale_identity():
    passed, _ = criterion_cantor_nondecay(depth=6)
    assert not passed


def test_wrong_weight_breaks_mollifier_ratio():
    passed, _ = criterion_mollifier_sum(alpha=1.9)
    assert not passed


def test_crash_is_a_failure_not_an_abort(monkeypatch):
    monkeypatch.setitem(acceptance.CRITERIA, "boom", (lambda: 1 / 0, None))
    result = run_criterion("boom")
    assert not result.passed
    assert "raised" in result.detail


def test_time_limit_enforced(monkeypatch):
    def slow():
        time.sleep(0.05)
        return True, "ok"

    monkeypatch.setitem(acceptance.CRITERIA, "slow", (slow, 0.01))
    result = run_criterion("slow")
    assert not result.passed
    assert result.detail == "ok; exceeded time limit 0s"
    assert result.wall_time_s >= 0.05


def test_unknown_names_rejected():
    with pytest.raises(KeyError):
        run_suite(["no-such-criterion"])


def test_result_line_format():
    res = CriterionResult(name="demo", passed=True, detail="fine", wall_time_s=0.5)
    assert res.line() == "PASS demo [0.50s]: fine"
    res = CriterionResult(name="demo", passed=False, detail="bad", wall_time_s=1.25)
    assert res.line() == "FAIL demo [1.25s]: bad"


def test_readme_table_lists_the_registry():
    """README's acceptance table names exactly the CRITERIA keys, in
    registry order, so no criterion lands undocumented."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = lines.index("| name | checks |") + 2  # past the header and its rule
    rows = takewhile(lambda line: line.startswith("|"), lines[start:])
    assert [row.split("|")[1].strip() for row in rows] == list(CRITERIA)
