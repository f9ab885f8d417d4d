"""The merged-union oracle and the exact tube formula it checks."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracspec.errors import DomainError
from fracspec.geometry.intervals import Tube
from interval_oracle import Union, from_pairs
from tube_oracle import union_tube


def spans(union):
    """The union's (start, length) pairs as Fractions."""
    return tuple(
        (Fraction(s, union.denominator), Fraction(l, union.denominator))
        for s, l in union.intervals
    )


def test_merging_and_touching():
    iu = from_pairs([(0, 1), (Fraction(1, 2), 1), (3, 1)])
    assert iu.count == 2
    assert spans(iu) == ((Fraction(0), Fraction(3, 2)), (Fraction(3), Fraction(1)))
    # touching endpoints merge: closed intervals share the point
    iu2 = from_pairs([(0, 1), (1, 1)])
    assert iu2.count == 1
    assert iu2.measure == 2


def test_measure_and_midpoints():
    iu = from_pairs([(0, Fraction(1, 3)), (Fraction(2, 3), Fraction(1, 3))])
    assert iu.measure == Fraction(2, 3)
    twice = 2 * iu.denominator
    midpoints = tuple(Fraction(2 * s + l, twice) for s, l in iu.intervals)
    assert midpoints == (Fraction(1, 6), Fraction(5, 6))


def test_fatten_exact():
    iu = from_pairs([(0, Fraction(1, 3)), (Fraction(2, 3), Fraction(1, 3))])
    tube = union_tube(iu)
    # one gap of 1/3, a numerator over the denominator 3
    assert tube == Tube(2, ((1, 1),), 3)
    # each piece grows by 2/9; the middle gap 1/3 > 2/9 keeps them apart
    assert tube.volume(Fraction(1, 9)) == Fraction(10, 9)
    # at eps = 1/6 the gap closes exactly: [-1/6, 7/6]
    assert tube.volume(Fraction(1, 6)) == Fraction(4, 3)
    assert tube.volume(0) == iu.measure == Fraction(2, 3)
    with pytest.raises(DomainError):
        tube.volume(-1)


def test_contains_endpoints_closed():
    iu = from_pairs([(0, 1), (2, 1)])
    for x in (0, 1, 2, 3, Fraction(1, 2)):
        assert any(s <= x <= s + l for s, l in spans(iu))
    for x in (Fraction(3, 2), -1, 4):
        assert not any(s <= x <= s + l for s, l in spans(iu))


def test_invalid_inputs():
    with pytest.raises(DomainError):
        from_pairs([(0, 0)])
    with pytest.raises(DomainError):
        from_pairs([(1, -1)])
    # merged and reduced: numerators over a positive denominator, in lowest terms
    assert from_pairs([(0, 1), (Fraction(1, 2), Fraction(1, 2))]) == Union(((0, 1),), 1)
    assert from_pairs([(0, Fraction(2, 6)), (Fraction(4, 6), Fraction(2, 6))]) == Union(
        ((0, 1), (2, 1)), 3
    )
    assert from_pairs([]) == Union((), 1)
    assert from_pairs([]).measure == 0


pair = st.tuples(
    st.integers(min_value=-20, max_value=20).map(lambda k: Fraction(k, 4)),
    st.integers(min_value=1, max_value=12).map(lambda k: Fraction(k, 4)),
)


@settings(max_examples=100, deadline=None)
@given(pairs=st.lists(pair, min_size=1, max_size=8))
def test_normalization_invariants(pairs):
    iu = from_pairs(pairs)
    merged = spans(iu)
    # sorted, strictly separated, positive lengths
    for (s0, l0), (s1, _) in zip(merged, merged[1:]):
        assert s0 + l0 < s1
    assert all(l > 0 for _, l in merged)
    # measure never exceeds the raw total and never undershoots the longest piece
    assert iu.measure <= sum(l for _, l in pairs)
    assert iu.measure >= max(l for _, l in pairs)
    # every input point stays covered
    for s, l in pairs:
        assert any(a <= s and s + l <= a + b for a, b in merged)
    # idempotent under re-normalization
    assert from_pairs(merged) == iu


@settings(max_examples=100, deadline=None)
@given(pairs=st.lists(pair, min_size=1, max_size=8), k=st.integers(min_value=0, max_value=16))
def test_neighborhood_measure_matches_merged_union(pairs, k):
    """The tube formula against merging the grown pieces, the enumerating
    oracle; the empty union has no tube."""
    iu = from_pairs(pairs)
    eps = Fraction(k, 8)
    grown = from_pairs((s - eps, l + 2 * eps) for s, l in spans(iu))
    assert union_tube(iu).volume(eps) == grown.measure


def fraction_merge(pairs):
    """Sort and merge closed intervals in plain Fraction arithmetic."""
    merged = []
    for s, l in sorted(pairs):
        if merged and s <= merged[-1][0] + merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], s + l - merged[-1][0])
        else:
            merged.append([s, l])
    return [(s, l) for s, l in merged]


rational = st.fractions(min_value=-5, max_value=5, max_denominator=12)
positive = st.fractions(min_value=0, max_value=3, max_denominator=12).filter(lambda x: x > 0)


@settings(max_examples=100, deadline=None)
@given(
    pairs=st.lists(st.tuples(rational, positive), max_size=8),
    eps=st.fractions(min_value=0, max_value=2, max_denominator=12),
)
def test_lattice_union_matches_fraction_merge(pairs, eps):
    """Numerators over the lcm of mixed denominators read back as the
    Fraction merge, with its measure, gap multiset and eps-neighborhood."""
    iu = from_pairs(pairs)
    merged = fraction_merge(pairs)
    assert spans(iu) == tuple(merged)
    assert iu.measure == sum((l for _, l in merged), Fraction(0))
    if not merged:
        return  # the empty union has no tube
    tube = union_tube(iu)
    gaps = Counter(s1 - (s0 + l0) for (s0, l0), (s1, _) in zip(merged, merged[1:]))
    assert tube.gaps == tuple(sorted((g * iu.denominator, m) for g, m in gaps.items()))
    grown = fraction_merge([(s - eps, l + 2 * eps) for s, l in merged])
    assert tube.volume(eps) == sum((l for _, l in grown), Fraction(0))
