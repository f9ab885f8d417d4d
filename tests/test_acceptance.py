"""The acceptance suite, one pass/fail line per criterion.

`fracspec verify` prints the same lines from the command line.  One
criterion (salem-decay) is expected to fail; the reason lives in its
docstring and is summarized in the xfail mark below.
"""

import hashlib
import time
from fractions import Fraction

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
    result = acceptance.criterion_chain_inequalities()
    assert result.passed, result.detail

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
    assert result.detail == "chain 500/500, volume sandwich 500/500"
    assert hashlib.sha256(repr(checks).encode()).hexdigest() == CHAIN_CHECKS_SHA256


def test_wrong_exponent_is_detected():
    result = criterion_minkowski_ratio(alpha=LogRatio(3, 4))
    assert not result.passed
    assert "exact rows: False" in result.detail


def test_truncated_transform_breaks_scale_identity():
    result = criterion_cantor_nondecay(depth=6)
    assert not result.passed


def test_wrong_weight_breaks_mollifier_ratio():
    result = criterion_mollifier_sum(alpha=1.9)
    assert not result.passed


def test_crash_is_a_failure_not_an_abort(monkeypatch):
    monkeypatch.setitem(acceptance.CRITERIA, "boom", (lambda: 1 / 0, None))
    result = run_criterion("boom")
    assert not result.passed
    assert "raised" in result.detail


def test_time_limit_enforced(monkeypatch):
    def slow():
        time.sleep(0.05)
        return CriterionResult(name="slow", passed=True, detail="ok")

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
