"""Validation of branching construction parameters."""

import math
from fractions import Fraction

import pytest

from fracspec.cantor.params import (
    CantorParams,
    middle_thirds_params,
    similarity_dimension,
    validate_params,
)
from fracspec.errors import DomainError


def test_middle_thirds_defaults():
    p = middle_thirds_params()
    assert p.branches == 2
    assert p.ratio == Fraction(1, 3)
    assert p.offsets == (Fraction(0), Fraction(2, 3))
    assert abs(p.dimension - math.log(2) / math.log(3)) < 1e-15
    assert p.level_lengths(3) == (1, Fraction(1, 3), Fraction(1, 9), Fraction(1, 27))
    with pytest.raises(DomainError):
        p.level_lengths(-1)


def test_similarity_dimension_solves_moran():
    beta = similarity_dimension(3, Fraction(1, 5))
    assert abs(3 * 0.2**beta - 1.0) < 1e-12


def test_similarity_dimension_of_tiny_ratios():
    """A ratio whose float underflows to 0 is refused; a normal or
    subnormal one keeps the formula's value bit for bit."""
    with pytest.raises(DomainError, match="underflows to 0"):
        similarity_dimension(2, Fraction(1, 10**400))
    for ratio in (Fraction(1, 3), Fraction(2, 7), Fraction(1, 10**300), Fraction(1, 2**1023)):
        want = math.log(2) / math.log(1 / float(ratio))
        assert similarity_dimension(2, ratio) == want


def test_offsets_must_fit_and_separate():
    # gap exactly equal to eta is rejected: children would touch
    with pytest.raises(DomainError, match=r"gap offsets\[1\] - offsets\[0\] = 1/3 must exceed"):
        validate_params(2, Fraction(1, 3), [Fraction(0), Fraction(1, 3)])

    # offset outside [0, 1 - eta]
    with pytest.raises(DomainError, match=r"offset\[1\] = 3/4 leaves \[0, 2/3\]"):
        validate_params(2, Fraction(1, 3), [Fraction(0), Fraction(3, 4)])

    # too much total contraction
    with pytest.raises(DomainError, match="requires branches \\* ratio < 1, got 1"):
        validate_params(2, Fraction(1, 2), [Fraction(0), Fraction(1, 2)])

    # wrong offset count
    with pytest.raises(DomainError, match="need exactly 3 offsets, got 2"):
        validate_params(3, Fraction(1, 5), [Fraction(0), Fraction(1, 2)])

    # every violation is named in one message, joined by "; "
    with pytest.raises(DomainError) as info:
        CantorParams.create(2, Fraction(1, 2), [Fraction(0), Fraction(1, 2)])
    assert str(info.value) == (
        "open-set room requires branches * ratio < 1, got 1; "
        "gap offsets[1] - offsets[0] = 1/2 must exceed ratio 1/2"
    )
    # valid parameters pass silently
    assert validate_params(2, Fraction(1, 3), [Fraction(0), Fraction(2, 3)]) is None


def test_three_branch_feasibility():
    # eta = 2/5: no room for three children and two mandatory gaps
    with pytest.raises(DomainError, match="branches \\* ratio < 1, got 6/5"):
        validate_params(3, Fraction(2, 5), [Fraction(0), Fraction(1, 4), Fraction(1, 2)])
    # eta = 1/5 with comfortable gaps is fine
    good = CantorParams.create(
        3, Fraction(1, 5), [Fraction(0), Fraction(3, 10), Fraction(61, 100)]
    )
    assert good.dimension == similarity_dimension(3, Fraction(1, 5))


def test_dimension_log_ratio_exactness():
    p = middle_thirds_params()
    lr = p.dimension_log_ratio()
    assert (lr.num, lr.den) == (2, 3)
    assert lr.exact_power(Fraction(1, 27)) == Fraction(1, 8)
    irrational = CantorParams.create(
        2, Fraction(2, 7), (Fraction(0), Fraction(5, 7))
    )
    with pytest.raises(DomainError):
        irrational.dimension_log_ratio()


def test_branch_count_validation():
    with pytest.raises(DomainError, match="branches must be an integer >= 2, got 1"):
        validate_params(1, Fraction(1, 3), [Fraction(0)])
