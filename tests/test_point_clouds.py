"""Covering and packing counts checked against brute-force enumeration.

The brute-force oracles below search all center subsets, so they are the
ground truth for small clouds; frozen literals in the tests were produced
by these oracles and are asserted exactly.
"""

import functools
import itertools
import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracspec.errors import DomainError, SizeError
from fracspec.geometry import cloud as cloud_module
from fracspec.geometry.cloud import (
    EXACT_CAP,
    PointCloud,
    _cover_masks,
    covering_number,
    packing_number,
)
from fracspec.geometry.dimension import box_dimension_estimate
from fracspec.geometry.sweeps import geometric_scales
from fracspec.geometry.volumes import eps_neighborhood_volume
from interval_oracle import from_pairs
from tube_oracle import union_tube


def dist2(p, q):
    return sum((a - b) ** 2 for a, b in zip(p, q))


def brute_min_cover(pts, eps):
    """Smallest number of closed eps-balls centered at pts that covers pts.

    Bit i of ball[c] says that the ball at pts[c] covers pts[i]; a set of
    centers covers when the union of its balls has every bit set.
    """
    e2 = eps * eps
    ball = [sum(1 << i for i, p in enumerate(pts) if dist2(p, c) <= e2) for c in pts]
    everything = (1 << len(pts)) - 1
    for k in range(1, len(pts) + 1):
        for centers in itertools.combinations(ball, k):
            if functools.reduce(operator.or_, centers) == everything:
                return k
    return len(pts)


def brute_max_packing(pts, eps):
    """Largest subset of pts with pairwise distance > 2*eps.

    Bit j of clash[i] says that pts[i] and pts[j] (j != i) are not farther
    apart than 2*eps; a subset packs when none of its members clashes
    with another.
    """
    thr = 4 * eps * eps
    clash = [
        sum(1 << j for j, q in enumerate(pts) if j != i and not dist2(p, q) > thr)
        for i, p in enumerate(pts)
    ]
    for k in range(len(pts), 0, -1):
        for sub in itertools.combinations(range(len(pts)), k):
            members = sum(1 << i for i in sub)
            if not any(clash[i] & members for i in sub):
                return k
    return 0


def ternary_level_endpoints(depth):
    starts = [Fraction(0)]
    length = Fraction(1)
    for _ in range(depth):
        starts = [s + a * length for s in starts for a in (Fraction(0), Fraction(2, 3))]
        length /= 3
    pts = []
    for s in sorted(starts):
        pts.append((s,))
        pts.append((s + length,))
    return pts


def test_cloud_normalization():
    cloud = PointCloud.from_points([3, 1, 1, 2])
    assert cloud == PointCloud(((1,), (2,), (3,)), 1)
    assert cloud.n == 1
    # equal points are one lattice point, whatever their types
    for first in (1, 1.0, Fraction(1)):
        assert PointCloud.from_points([first, 1, 1.0, Fraction(1)]) == PointCloud(((1,),), 1)
    with pytest.raises(DomainError):
        PointCloud.from_points([])
    with pytest.raises(DomainError):
        PointCloud.from_points([(1, 2), (3,)])
    # a cloud is a set of rationals, so non-finite floats are refused
    for bad in (float("nan"), float("inf")):
        with pytest.raises(DomainError):
            PointCloud.from_points([(0.5, bad)])


def test_exact_counts_match_brute_force_1d():
    pts = ternary_level_endpoints(3)
    cloud = PointCloud.from_points(pts)
    # frozen from the enumeration oracle above
    assert covering_number(cloud, Fraction(1, 27)) == 8 == brute_min_cover(pts, Fraction(1, 27))
    assert covering_number(cloud, Fraction(1, 54)) == 16
    assert packing_number(cloud, Fraction(1, 27)) == 8 == brute_max_packing(pts, Fraction(1, 27))
    assert packing_number(cloud, Fraction(1, 54)) == 8
    pts = ternary_level_endpoints(2)
    cloud = PointCloud.from_points(pts)
    assert covering_number(cloud, Fraction(1, 9)) == 4 == brute_min_cover(pts, Fraction(1, 9))
    assert packing_number(cloud, Fraction(1, 9)) == 4 == brute_max_packing(pts, Fraction(1, 9))


def test_exact_counts_match_brute_force_2d():
    pts = [
        (Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
        (Fraction(1), Fraction(1)),
        (Fraction(1, 2), Fraction(1, 2)),
    ]
    cloud = PointCloud.from_points(pts)
    # frozen: corners are 1 apart, center is sqrt(1/2) from each corner
    assert covering_number(cloud, Fraction(1, 2)) == 5 == brute_min_cover(pts, Fraction(1, 2))
    assert covering_number(cloud, Fraction(3, 4)) == 1
    assert packing_number(cloud, Fraction(1, 2)) == 2 == brute_max_packing(pts, Fraction(1, 2))
    assert packing_number(cloud, Fraction(3, 4)) == 1


def test_boundary_cases_are_exact():
    # closed coverage: a ball of radius exactly the distance covers
    cloud = PointCloud.from_points([Fraction(0), Fraction(1)])
    assert covering_number(cloud, Fraction(1)) == 1
    # strict packing: distance exactly 2*eps does not pack
    assert packing_number(cloud, Fraction(1, 2)) == 1
    assert packing_number(cloud, Fraction(1, 2) - Fraction(1, 1000)) == 2


def test_exact_cap_in_higher_dimension():
    pts = [(i, j) for i in range(4) for j in range(4)]
    cloud = PointCloud.from_points(pts)
    with pytest.raises(SizeError):
        covering_number(cloud, 1)
    with pytest.raises(SizeError):
        packing_number(cloud, 1)
    # a cloud at the cap is still searched
    at_cap = PointCloud.from_points(pts[:EXACT_CAP])
    assert covering_number(at_cap, 10) == 1
    assert packing_number(at_cap, 10) == 1


def test_eps_must_be_positive():
    cloud = PointCloud.from_points([0, 1])
    with pytest.raises(DomainError):
        covering_number(cloud, 0)
    with pytest.raises(DomainError):
        packing_number(cloud, Fraction(-1, 2))
    with pytest.raises(DomainError):
        covering_number(cloud, float("inf"))


coords = st.integers(min_value=-50, max_value=50).map(lambda k: Fraction(k, 10))


@settings(max_examples=60, deadline=None)
@given(
    xs=st.lists(coords, min_size=1, max_size=9, unique=True),
    eps_num=st.integers(min_value=1, max_value=30),
)
def test_chain_inequalities_hold_1d(xs, eps_num):
    """covering(2e) <= packing(e) <= covering(e/2), exact arithmetic."""
    eps = Fraction(eps_num, 20)
    cloud = PointCloud.from_points(xs)
    n2e = covering_number(cloud, 2 * eps)
    pe = packing_number(cloud, eps)
    nhalf = covering_number(cloud, eps / 2)
    assert n2e <= pe <= nhalf
    pts = [(x,) for x in xs]
    assert pe == brute_max_packing(pts, eps)
    assert n2e == brute_min_cover(pts, 2 * eps)


@settings(max_examples=30, deadline=None)
@given(
    pts=st.lists(st.tuples(coords, coords), min_size=1, max_size=7, unique=True),
    eps_num=st.integers(min_value=1, max_value=30),
)
def test_chain_inequalities_hold_2d(pts, eps_num):
    eps = Fraction(eps_num, 20)
    cloud = PointCloud.from_points(pts)
    assert (
        covering_number(cloud, 2 * eps)
        <= packing_number(cloud, eps)
        <= covering_number(cloud, eps / 2)
    )


@settings(max_examples=40, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.integers(-20, 20), st.integers(1, 6)), min_size=1, max_size=6
    ),
    pts=st.lists(st.tuples(coords, coords), min_size=1, max_size=7, unique=True),
    order=st.permutations([Fraction(k, 8) for k in range(1, 17)]),
)
def test_cached_tables_carry_no_eps(pairs, pts, order):
    """One union's tube and one exact 2-D cloud queried at every eps in
    shuffled order agree with the enumerating oracles, and the cloud with
    a fresh object."""
    iu = from_pairs((Fraction(a, 4), Fraction(b, 4)) for a, b in pairs)
    tube = union_tube(iu)
    cloud = PointCloud.from_points(pts)
    for eps in order:
        den = iu.denominator
        grown = from_pairs(
            (Fraction(s, den) - eps, Fraction(l, den) + 2 * eps) for s, l in iu.intervals
        )
        assert tube.volume(eps) == grown.measure
        fresh = PointCloud.from_points(pts)
        cover = covering_number(cloud, eps)
        assert cover == covering_number(fresh, eps) == brute_min_cover(pts, eps)
        pack = packing_number(cloud, eps)
        assert pack == packing_number(fresh, eps) == brute_max_packing(pts, eps)
    # the queries above ran on the kept table, which holds ints only
    assert "_dist2_table" in cloud.__dict__
    assert all(type(v) is int for row in cloud._dist2_table for part in row for v in part)


mixed_coords = st.one_of(
    st.floats(min_value=-2, max_value=2, allow_nan=False, allow_infinity=False),
    st.fractions(min_value=-2, max_value=2, max_denominator=30),
)
mixed_eps = st.one_of(
    st.fractions(min_value=0, max_value=2, max_denominator=40).filter(lambda e: e > 0),
    st.floats(min_value=1e-3, max_value=2),
)


@settings(max_examples=60, deadline=None)
@given(
    pts=st.one_of(
        st.lists(mixed_coords.map(lambda c: (c,)), min_size=1, max_size=7),
        st.lists(st.tuples(mixed_coords, mixed_coords), min_size=1, max_size=6),
    ),
    eps=mixed_eps,
)
# each float gap exceeds the decimal it rounds to by about one part in
# 10**17, so the cover needs 2 balls at that eps and the packing holds 2
# balls at half of it; in 2-D, 0.3 and 0.7 are floats just below and above
# the decimals, so the squared distance exceeds 1/4
@example(pts=[(0.47,), (0.52,)], eps=Fraction(1, 20))
@example(pts=[(0.47,), (0.52,)], eps=Fraction(1, 40))
@example(pts=[(0.07,), (0.17,)], eps=Fraction(1, 10))
@example(pts=[(0.07,), (0.17,)], eps=Fraction(1, 20))
@example(pts=[(0.26,), (0.46,)], eps=Fraction(1, 5))
@example(pts=[(0.26,), (0.46,)], eps=Fraction(1, 10))
@example(pts=[(0.5, 0.3), (0.8, 0.7)], eps=Fraction(1, 2))
@example(pts=[(0.5, 0.3), (0.8, 0.7)], eps=Fraction(1, 4))
def test_mixed_clouds_match_brute_force(pts, eps):
    """Float and mixed-denominator Fraction clouds against the enumerating
    oracles run on the exact Fraction values of the points and of eps."""
    cloud = PointCloud.from_points(pts)
    exact = [tuple(map(Fraction, p)) for p in pts]
    e = Fraction(eps)
    assert covering_number(cloud, eps) == brute_min_cover(exact, e)
    assert packing_number(cloud, eps) == brute_max_packing(exact, e)


def test_exact_cap_builds_no_pairwise_table():
    """A cloud above the cap is refused before its O(size**2) table exists."""
    rng = np.random.default_rng(7)
    cloud = PointCloud.from_points([tuple(map(float, p)) for p in rng.random((2000, 2))])
    assert len(cloud.lattice) > EXACT_CAP
    with pytest.raises(SizeError):
        covering_number(cloud, 0.2)
    with pytest.raises(SizeError):
        packing_number(cloud, 0.2)
    assert "_dist2_table" not in cloud.__dict__


# the radii 18..22 at eps = 1: centers 19 and 21 cover them, while a
# farthest-point net from 18 takes 18, 22 and then 20
RADII_18_22 = [Fraction(r) for r in range(18, 23)]


@settings(max_examples=40, deadline=None)
@given(extra=st.lists(st.integers(min_value=0, max_value=40), max_size=4, unique=True))
@example(extra=[])
def test_box_counts_are_minimum_covers_1d(extra):
    """The box-dimension rows read the fewest eps-balls that cover the cloud."""
    xs = RADII_18_22 + [Fraction(x) for x in extra]
    cloud = PointCloud.from_points(xs)
    scales = geometric_scales(Fraction(4), Fraction(1, 2), 5)
    rows = [(eps, covering_number(cloud, eps)) for eps in scales]
    assert Fraction(1) in scales
    pts = [(x,) for x in xs]
    assert [count for _, count in rows] == [brute_min_cover(pts, eps) for eps in scales]
    assert 0.0 <= box_dimension_estimate(rows).slope <= 1.0


def test_float_array_is_built_once_and_read_only():
    """The float rows are float() of each exact coordinate, bit for bit,
    for inputs that must round: thirds and sevenths, ints above 2**53,
    and floats put over one denominator with them."""
    pts = [
        (Fraction(1, 3), 0.5),
        (2, Fraction(-7, 5)),
        (0, 0),
        (2**53 + 1, 0.1),
        (Fraction(2**60 + 1, 3), -(2**70) - 3),
        (1e-300, Fraction(-2, 7)),
    ]
    cloud = PointCloud.from_points(pts)
    arr = cloud.array
    assert arr is cloud.array
    assert not arr.flags.writeable
    ordered = sorted(pts, key=lambda p: tuple(map(Fraction, p)))
    assert arr.tobytes() == np.array([[float(c) for c in p] for p in ordered]).tobytes()
    # -0.0 is the lattice point 0, so it reads +0.0
    assert PointCloud.from_points([-0.0]).array.tobytes() == np.zeros((1, 1)).tobytes()


def integer_grid(n, side):
    return list(itertools.product(range(side), repeat=n))


@pytest.mark.parametrize("n, side", [(2, 3), (2, 4), (3, 2)])
def test_tie_heavy_grids_match_brute_force(n, side):
    """Integer grids, where many pairs tie, at every radius that is a
    pairwise distance (the closed and strict boundaries) and just off it."""
    pts = integer_grid(n, side)[:EXACT_CAP]
    cloud = PointCloud.from_points(pts)
    lattice, den = cloud.lattice, cloud.denominator
    assert den == 1 and lattice == tuple(sorted(pts))
    table = [[dist2(p, q) for q in lattice] for p in lattice]
    for d2 in sorted({d for row in table for d in row} - {0}):
        # the lattice distances sqrt(d2) are exact radii only when d2 is a
        # square, so the rational radii bracket them
        root = math.isqrt(d2)
        radii = {Fraction(root), Fraction(root) + Fraction(1, 1000), Fraction(root, 2)}
        if root * root != d2:
            radii.add(Fraction(root + 1))
        for eps in sorted(radii):
            assert covering_number(cloud, eps) == brute_min_cover(lattice, eps)
            assert packing_number(cloud, eps) == brute_max_packing(lattice, eps)
        # the masks at each squared distance, against d2 <= reach2
        for reach2 in (d2 - 1, d2, d2 + 1):
            want = [sum(1 << j for j, d in enumerate(row) if d <= reach2) for row in table]
            assert _cover_masks(cloud, reach2) == want


def scan_cover_1d(xs, reach):
    """Reference one-dimensional cover: step a center right while it still
    covers the leftmost uncovered point, then step past what it covers."""
    count = 0
    i, n = 0, len(xs)
    while i < n:
        limit = xs[i] + reach
        c = i
        while c + 1 < n and xs[c + 1] <= limit:
            c += 1
        count += 1
        limit = xs[c] + reach
        while i < n and xs[i] <= limit:
            i += 1
    return count


def scan_pack_1d(xs, gap):
    """Reference one-dimensional packing: keep each point more than gap
    past the last one kept."""
    count = 1
    last = xs[0]
    for x in xs[1:]:
        if x - last > gap:
            count += 1
            last = x
    return count


@pytest.mark.parametrize(
    "gaps", [(1,), (1, 2), (2, 3, 5), (1, 1, 1, 4, 9)], ids=lambda g: "-".join(map(str, g))
)
def test_one_dimensional_counts_match_scans_on_large_tied_clouds(gaps):
    """Thousands of integer points whose consecutive gaps come from a few
    lengths, so many pairs lie exactly a reach apart: the counts equal the
    reference scans at every distance of up to three consecutive gaps, and
    one below and above it."""
    rng = np.random.default_rng(len(gaps))
    xs = np.cumsum(rng.choice(gaps, size=3000)).tolist()
    cloud = PointCloud.from_points(xs)
    assert [x for x, in cloud.lattice] == xs
    distances = {b - a for k in (1, 2, 3) for a, b in zip(xs, xs[k:])}
    for reach in sorted({d + s for d in distances for s in (-1, 0, 1)}):
        assert cloud_module._exact_cover_1d(xs, reach) == scan_cover_1d(xs, reach)
        assert cloud_module._exact_pack_1d(xs, reach) == scan_pack_1d(xs, reach)
    # through the public counts, at a tied radius and off it
    for eps in (Fraction(min(gaps)), Fraction(max(gaps), 2), Fraction(2 * max(gaps) + 1, 3)):
        assert covering_number(cloud, eps) == scan_cover_1d(xs, math.floor(eps))
        assert packing_number(cloud, eps) == scan_pack_1d(xs, math.floor(2 * eps))


@settings(max_examples=60, deadline=None)
@given(
    pts=st.lists(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)).flatmap(
            lambda t: st.tuples(
                st.sampled_from([t[0], float(t[0]) / 2, Fraction(t[0], 2)]),
                st.sampled_from([t[1], float(t[1]), Fraction(t[1], 4)]),
            )
        ),
        min_size=1,
        max_size=12,
    )
)
def test_lattice_is_the_sorted_distinct_points(pts):
    """from_points dedupes on the exact values and sorts as the exact
    tuples sort, over the lcm of the coordinate denominators."""
    cloud = PointCloud.from_points(pts)
    exact = sorted({tuple(map(Fraction, p)) for p in pts})
    den = cloud.denominator
    assert den == math.lcm(*(c.denominator for p in exact for c in p))
    assert [tuple(Fraction(c, den) for c in p) for p in cloud.lattice] == exact
    assert all(type(c) is int for p in cloud.lattice for c in p)


@settings(max_examples=40, deadline=None)
@given(
    pts=st.one_of(
        st.lists(mixed_coords.map(lambda c: (c,)), min_size=1, max_size=7),
        st.lists(st.tuples(mixed_coords, mixed_coords), min_size=1, max_size=6),
    ),
    eps=st.sampled_from([Fraction(1, 7), Fraction(1, 3), 0.25, Fraction(3, 2)]),
)
def test_direct_cloud_matches_from_points(pts, eps):
    """A cloud built as PointCloud(lattice, den) from the sorted distinct
    exact points gives the covers, packings and volumes of from_points."""
    exact = sorted({tuple(map(Fraction, p)) for p in pts})
    den = math.lcm(*(c.denominator for p in exact for c in p))
    direct = PointCloud(tuple(tuple(int(c * den) for c in p) for p in exact), den)
    cloud = PointCloud.from_points(pts)
    assert direct == cloud
    assert covering_number(direct, eps) == covering_number(cloud, eps)
    assert packing_number(direct, eps) == packing_number(cloud, eps)
    assert eps_neighborhood_volume(direct, eps) == eps_neighborhood_volume(cloud, eps)


@pytest.mark.parametrize(
    "eps",
    [Fraction(1, 3), Fraction(5, 2), 1, 3, 0.1, 0.5, 2.5, 1e-3, Fraction(5, 1000)],
    ids=["eps0", "eps1", "1", "3", "0.1", "0.5", "2.5", "0.001", "eps8"],
)
def test_integer_thresholds(monkeypatch, eps):
    """The integer reach of every count is floor(eps * den) and its square
    floor((eps * den)**2), at exact lattice distances too (eps 5/2 on
    the 2-D cloud, 1/3 on the 1-D one)."""
    seen = []
    for name in ("_exact_cover_1d", "_exact_pack_1d", "_exact_cover_nd", "_exact_pack_nd"):
        monkeypatch.setattr(cloud_module, name, lambda _, reach: seen.append(reach))
    for pts in ([0, Fraction(1, 3), 0.5, Fraction(4, 3)], [(0, 0), (Fraction(3, 2), 2), (0.25, 4)]):
        cloud = PointCloud.from_points(pts)
        den = cloud.denominator
        e = Fraction(eps)
        seen.clear()
        covering_number(cloud, eps)
        packing_number(cloud, eps)
        if cloud.n == 1:
            want = [math.floor(e * den), math.floor(2 * e * den)]
        else:
            want = [math.floor((e * den) ** 2), math.floor((2 * e * den) ** 2)]
        assert seen == want
        assert all(type(reach) is int for reach in seen)


@pytest.mark.parametrize(
    "bad",
    [0, -1, Fraction(-1, 2), -0.5, float("inf"), float("nan")],
    ids=["0", "-1", "bad2", "-0.5", "inf", "nan"],
)
def test_check_eps_message(bad):
    for cloud in (PointCloud.from_points([0, 1]), PointCloud.from_points([(0, 0), (1, 1)])):
        for measure in (covering_number, packing_number, eps_neighborhood_volume):
            with pytest.raises(DomainError, match="eps must be positive and finite"):
                measure(cloud, bad)
