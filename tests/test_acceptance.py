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

    Each check is (n_double, n_eps, n_half, p_eps, vol.low, vol.high) with
    exact volumes as Fractions and estimated ones as float.hex, taken
    from the criterion's own calls in the order it makes them.
    """
    calls = []

    def record(fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            calls.append(out)
            return out

        return wrapper

    for name in ("covering_number", "packing_number", "eps_neighborhood_volume"):
        monkeypatch.setattr(acceptance, name, record(getattr(acceptance, name)))
    result = acceptance.criterion_chain_inequalities()
    assert result.passed, result.detail

    def exact(v):
        return str(v) if isinstance(v, Fraction) else float(v).hex()

    checks = [
        (n_double, n_eps, n_half, p_eps, exact(vol.low), exact(vol.high))
        for n_double, n_eps, n_half, p_eps, vol in zip(*[iter(calls)] * 5)
    ]
    assert len(checks) * 5 == len(calls)
    assert len(checks) == result.values["checks"] == 500
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
    assert "exceeded time limit" in result.detail


def test_unknown_names_rejected():
    with pytest.raises(KeyError):
        run_suite(["no-such-criterion"])


def test_result_line_format():
    res = CriterionResult(name="demo", passed=True, detail="fine", wall_time_s=0.5)
    assert res.line() == "PASS demo [0.50s]: fine"
    res = CriterionResult(name="demo", passed=False, detail="bad", wall_time_s=1.25)
    assert res.line() == "FAIL demo [1.25s]: bad"
