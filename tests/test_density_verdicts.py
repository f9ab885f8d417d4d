"""Verdict tables mapping zero-set dimension estimates to p-intervals."""

import math

import numpy as np
import pytest

from fracspec.errors import DomainError
from fracspec.tauberian.verdict import (
    NO_CONCLUSION_NOTE,
    RULE_MOTION_RADIAL,
    RULE_TRANSLATE_CONJUGATE,
    RULE_TRANSLATE_FULL,
    STATUS_DENSE,
    STATUS_NONE,
    STATUS_PRIOR,
    motion_p_lower,
    radial_verdict,
    translate_p_lower,
    translate_verdict,
)


def test_endpoint_formulas():
    assert motion_p_lower(2, 0.0) == pytest.approx(4.0 / 3.0)
    assert motion_p_lower(2, 0.5) == pytest.approx(1.6)
    assert translate_p_lower(2, 0.0) == pytest.approx(1.0)
    assert translate_p_lower(2, 1.0) == pytest.approx(4.0 / 3.0)
    beta = 2 * math.log(2) / math.log(3)
    assert translate_p_lower(2, beta) == pytest.approx(4.0 / (4.0 - beta))
    with pytest.raises(DomainError):
        motion_p_lower(2, 1.0)
    with pytest.raises(DomainError):
        translate_p_lower(2, 2.0)


def test_formulas_monotone_in_dimension():
    betas = np.linspace(0.0, 0.99, 25)
    vals = [motion_p_lower(2, b) for b in betas]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    alphas = np.linspace(0.0, 1.99, 25)
    vals = [translate_p_lower(2, a) for a in alphas]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_radial_verdict_table():
    v = radial_verdict((1.0,), 0.0, 2)
    assert v.zero_kind == "radial"
    motion = [r for r in v.rows if r.rule == RULE_MOTION_RADIAL]
    assert len(motion) == 1
    row = motion[0]
    assert row.status == STATUS_DENSE
    assert row.p_lo == pytest.approx(4.0 / 3.0)
    assert row.p_hi == 2.0
    assert row.p_lo <= 1.5 <= row.p_hi
    assert not row.p_lo <= 2.5 <= row.p_hi
    priors = [r for r in v.rows if r.status == STATUS_PRIOR]
    assert len(priors) == 4


def test_radial_no_conclusion_at_full_dimension():
    v = radial_verdict((1.0,), 1.0, 2)
    row = next(r for r in v.rows if r.rule == RULE_MOTION_RADIAL)
    assert row.status == STATUS_NONE
    assert NO_CONCLUSION_NOTE in row.notes
    assert math.isnan(row.p_lo)


def test_translate_verdict_table():
    v = translate_verdict(1.0, 2)
    assert v.zero_kind == "full"
    rules = {r.rule for r in v.rows}
    assert rules == {RULE_TRANSLATE_FULL, RULE_TRANSLATE_CONJUGATE}
    for row in v.rows:
        assert row.status == STATUS_DENSE
        assert row.p_lo == pytest.approx(4.0 / 3.0)
        assert math.isinf(row.p_hi)
    # serialization maps the infinite endpoint to None
    doc = v.as_dict()
    assert all(r["p_hi"] is None for r in doc["rows"])


def test_translate_no_conclusion_at_ambient():
    v = translate_verdict(2.0, 2)
    row = v.rows[0]
    assert row.status == STATUS_NONE


def test_verdict_validation():
    with pytest.raises(DomainError):
        radial_verdict((1.0,), 0.5, 1)
    with pytest.raises(DomainError):
        translate_verdict(-0.1, 2)
    with pytest.raises(DomainError):
        radial_verdict((1.0,), 0.5, 0)
    with pytest.raises(DomainError):
        translate_verdict(0.5, 0)


def test_prior_rows_empty_flagging():
    v = radial_verdict((), 0.0, 2)
    l1 = next(r for r in v.rows if r.rule == "prior-l1")
    assert any("empty" in n for n in l1.notes)
    nonempty = radial_verdict((1.0,), 0.0, 2)
    l1b = next(r for r in nonempty.rows if r.rule == "prior-l1")
    assert any("nonempty" in n for n in l1b.notes)
