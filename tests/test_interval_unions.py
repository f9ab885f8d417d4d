"""Exact interval-union arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracspec.errors import DomainError
from fracspec.geometry.intervals import IntervalUnion


def test_merging_and_touching():
    iu = IntervalUnion.from_pairs([(0, 1), (Fraction(1, 2), 1), (3, 1)])
    assert iu.count == 2
    assert iu.intervals == ((Fraction(0), Fraction(3, 2)), (Fraction(3), Fraction(1)))
    # touching endpoints merge: closed intervals share the point
    iu2 = IntervalUnion.from_pairs([(0, 1), (1, 1)])
    assert iu2.count == 1
    assert iu2.measure == 2


def test_measure_and_midpoints():
    iu = IntervalUnion.from_pairs([(0, Fraction(1, 3)), (Fraction(2, 3), Fraction(1, 3))])
    assert iu.measure == Fraction(2, 3)
    assert iu.midpoints() == (Fraction(1, 6), Fraction(5, 6))


def test_fatten_exact():
    iu = IntervalUnion.from_pairs([(0, Fraction(1, 3)), (Fraction(2, 3), Fraction(1, 3))])
    assert iu.gap_counts == ((Fraction(1, 3), 1),)
    # each piece grows by 2/9; the middle gap 1/3 > 2/9 keeps them apart
    assert iu.neighborhood_measure(Fraction(1, 9)) == Fraction(10, 9)
    # at eps = 1/6 the gap closes exactly: [-1/6, 7/6]
    assert iu.neighborhood_measure(Fraction(1, 6)) == Fraction(4, 3)
    assert iu.neighborhood_measure(0) == iu.measure == Fraction(2, 3)
    with pytest.raises(DomainError):
        iu.neighborhood_measure(-1)


def test_contains_endpoints_closed():
    iu = IntervalUnion.from_pairs([(0, 1), (2, 1)])
    for x in (0, 1, 2, 3, Fraction(1, 2)):
        assert any(s <= x <= s + l for s, l in iu)
    for x in (Fraction(3, 2), -1, 4):
        assert not any(s <= x <= s + l for s, l in iu)


def test_invalid_inputs():
    with pytest.raises(DomainError):
        IntervalUnion.from_pairs([(0, 0)])
    with pytest.raises(DomainError):
        IntervalUnion.from_pairs([(1, -1)])
    with pytest.raises(DomainError):
        IntervalUnion(((Fraction(0), Fraction(2)), (Fraction(1), Fraction(1))))
    assert IntervalUnion(()).measure == 0


pair = st.tuples(
    st.integers(min_value=-20, max_value=20).map(lambda k: Fraction(k, 4)),
    st.integers(min_value=1, max_value=12).map(lambda k: Fraction(k, 4)),
)


@settings(max_examples=100, deadline=None)
@given(pairs=st.lists(pair, min_size=1, max_size=8))
def test_normalization_invariants(pairs):
    iu = IntervalUnion.from_pairs(pairs)
    spans = iu.intervals
    # sorted, strictly separated, positive lengths
    for (s0, l0), (s1, _) in zip(spans, spans[1:]):
        assert s0 + l0 < s1
    assert all(l > 0 for _, l in spans)
    # measure never exceeds the raw total and never undershoots the longest piece
    assert iu.measure <= sum(l for _, l in pairs)
    assert iu.measure >= max(l for _, l in pairs)
    # every input point stays covered
    for s, l in pairs:
        assert any(a <= s and s + l <= a + b for a, b in spans)
    # idempotent under re-normalization
    assert IntervalUnion.from_pairs(spans).intervals == spans


@settings(max_examples=100, deadline=None)
@given(pairs=st.lists(pair, max_size=8), k=st.integers(min_value=0, max_value=16))
def test_neighborhood_measure_matches_merged_union(pairs, k):
    """The gap formula against merging the grown pieces, the enumerating oracle."""
    iu = IntervalUnion.from_pairs(pairs)
    eps = Fraction(k, 8)
    grown = IntervalUnion.from_pairs((s - eps, l + 2 * eps) for s, l in iu.intervals)
    assert iu.neighborhood_measure(eps) == grown.measure
