"""Level recursion, natural measures, and on-disk round-trips."""

import csv
import json
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from fracspec.cantor.io import write_level_csv, write_params
from fracspec.cantor import levels
from fracspec.cantor.levels import MAX_INTERVALS, build_level, level_tube
from fracspec.cantor.measures import natural_measure
from fracspec.cantor.params import CantorParams, middle_thirds_params
from fracspec.cantor.sampling import REJECTION_BUDGET, sample_salem_offsets
from fracspec.errors import DomainError, SizeError
from fracspec.geometry.density import upper_density_estimate
from interval_oracle import from_pairs, level_union
from tube_oracle import union_tube


def spans(union):
    """The union's (start, length) pairs as Fractions."""
    return tuple(
        (Fraction(s, union.denominator), Fraction(l, union.denominator))
        for s, l in union.intervals
    )


def test_level_two_starts_frozen():
    level = build_level(middle_thirds_params(), 2)
    assert spans(level_union(level)) == tuple(
        (s, Fraction(1, 9)) for s in (Fraction(0), Fraction(2, 9), Fraction(2, 3), Fraction(8, 9))
    )
    assert level.member_count == 4
    assert level_union(level).measure == Fraction(4, 9)


def test_levels_nest():
    params = middle_thirds_params()
    prev = build_level(params, 0)
    assert spans(level_union(prev)) == ((Fraction(0), Fraction(1)),)
    for depth in range(1, 7):
        cur = build_level(params, depth)
        parents = spans(level_union(prev))
        # the i-th interval is a child of parent i // 2
        for i, (s, l) in enumerate(spans(level_union(cur))):
            ps, pl = parents[i // 2]
            assert ps <= s and s + l <= ps + pl
        assert cur.member_count == 2**depth
        prev = cur


def test_tapered_level_one_frozen():
    params = CantorParams.create(
        2, Fraction(1, 3), (Fraction(0), Fraction(2, 3)), eta_rule="tapered"
    )
    level = build_level(params, 1)
    # eta_1 = (1/3)(1 - 1/4) = 1/4
    assert spans(level_union(level)) == (
        (Fraction(0), Fraction(1, 4)),
        (Fraction(2, 3), Fraction(1, 4)),
    )


def test_depth_limits(monkeypatch):
    params = middle_thirds_params()
    three = CantorParams.create(
        3, Fraction(1, 5), (Fraction(0), Fraction(3, 10), Fraction(61, 100))
    )
    with pytest.raises(DomainError):
        build_level(params, -1)
    # the budget counts intervals: 2**20 keeps two branches at depth 20,
    # while three branches exceed it from depth 13 (1,594,323 intervals)
    assert MAX_INTERVALS == 2**20
    with pytest.raises(SizeError):
        build_level(params, 21)
    with pytest.raises(SizeError):
        build_level(three, 13)
    # at a small budget both sides of the boundary are cheap to build
    monkeypatch.setattr(levels, "MAX_INTERVALS", 16)
    assert build_level(params, 4).member_count == 16
    assert build_level(three, 2).member_count == 9
    with pytest.raises(SizeError):
        build_level(params, 5)
    with pytest.raises(SizeError):
        build_level(three, 3)


def merged_level(params, depth):
    """The enumerating route: every child of every parent, sorted and merged."""
    union = from_pairs([(0, 1)])
    for j in range(1, depth + 1):
        eta = params.eta_at(j)
        union = from_pairs(
            (s + a * l, l * eta) for s, l in reversed(spans(union)) for a in params.offsets
        )
    return union


TAPERED_3 = CantorParams.create(
    3,
    Fraction(1, 5),
    (Fraction(0), Fraction(3, 10), Fraction(61, 100)),
    eta_rule="tapered",
)
SEEDED_4 = CantorParams.create(
    4,
    Fraction(1, 16),
    sample_salem_offsets(4, Fraction(1, 16), np.random.default_rng(7)),
)

ORACLE_CASES = pytest.mark.parametrize(
    "params, depth",
    [(middle_thirds_params(), 8), (TAPERED_3, 6), (SEEDED_4, 5)],
    ids=["middle-thirds", "tapered-3", "seeded-4"],
)


@ORACLE_CASES
def test_build_level_matches_merged_enumeration(params, depth):
    level = build_level(params, depth)
    # both routes keep lowest terms, so the unions agree numerator for
    # numerator; the merge joins touching intervals, so equal counts mean
    # the built level's intervals are pairwise disjoint
    assert level_union(level) == merged_level(params, depth)
    assert level.member_count == params.branches**depth


# starts 1/4 + 1/36 = 5/18, 1/3, 7/9, 5/6 at depth 2: the lcm 324 of the
# steps' denominators is twice the least common denominator of the level
SHARED_FACTOR = CantorParams.create(2, Fraction(1, 9), (Fraction(1, 4), Fraction(3, 4)))


@pytest.mark.parametrize(
    "params",
    [middle_thirds_params(), TAPERED_3, SEEDED_4, SHARED_FACTOR],
    ids=["middle-thirds", "tapered-3", "seeded-4", "shared-factor"],
)
def test_build_level_matches_fraction_recursion(params):
    """The integer recursion against the Fraction one it replaced, with
    the measure, gap multiset and midpoints taken from the Fraction spans."""
    lengths = params.level_lengths(8)
    starts = [Fraction(0)]
    for depth in range(9):
        if depth:
            starts = [s + a * lengths[depth - 1] for s in starts for a in params.offsets]
        oracle = tuple((s, lengths[depth]) for s in starts)
        union = level_union(build_level(params, depth))
        assert spans(union) == oracle
        assert union.measure == len(oracle) * lengths[depth]
        gaps = Counter(s1 - (s0 + l0) for (s0, l0), (s1, _) in zip(oracle, oracle[1:]))
        den = union.denominator
        assert union_tube(union).gaps == tuple(sorted((g * den, m) for g, m in gaps.items()))
        twice = 2 * union.denominator
        midpoints = tuple(Fraction(2 * s + l, twice) for s, l in union.intervals)
        assert midpoints == tuple(s + l / 2 for s, l in oracle)


@ORACLE_CASES
def test_closed_form_rows_match_built_levels(params, depth):
    """The (L_m, N**m) rows that dim and box-dimension read without
    building a level are each built level's interval length and count;
    the test above holds build_level to the merged enumeration."""
    lengths = params.level_lengths(depth)
    assert len(lengths) == depth + 1
    for m in range(depth + 1):
        level = build_level(params, m)
        assert {l for _, l in spans(level_union(level))} == {lengths[m]}
        assert level.member_count == params.branches**m


def random_construction(rng):
    """Small rational parameters: N in 2..4, eta = p/q with N eta < 1, and
    offsets a_1 = w_0 room, a_(k+1) = a_k + eta + w_k room, whose integer
    weights w_0 and w_N may be 0 (descendants reach the parent's end) or
    not (they fall short of it)."""
    n = int(rng.integers(2, 5))
    q = int(rng.integers(n + 1, 4 * n + 2))
    eta = Fraction(int(rng.integers(1, max(2, q // n))), q)  # N eta < 1
    room = 1 - n * eta
    inner = (int(x) for x in rng.integers(1, 6, n - 1))
    w = [int(rng.integers(0, 4)), *inner, int(rng.integers(0, 4))]
    offsets = [w[0] * room / sum(w)]
    for k in range(1, n):
        offsets.append(offsets[-1] + eta + w[k] * room / sum(w))
    rule = ("constant", "tapered")[int(rng.integers(0, 2))]
    return CantorParams.create(n, eta, offsets, eta_rule=rule)


def tube_value(tube):
    """A tube's length and gap multiset as Fractions, free of its denominator."""
    den = tube.denominator
    return Fraction(tube.length, den), tuple((Fraction(g, den), m) for g, m in tube.gaps)


def test_level_tube_matches_built_levels():
    """The closed-form gap spectrum against the gaps of the built level,
    on 200 seeded random constructions, constant and tapered, at depths
    0..6: length, gap multiset and volume agree as exact Fractions."""
    rng = np.random.default_rng(2024)
    seen = Counter()
    for _ in range(200):
        params = random_construction(rng)
        depth = int(rng.integers(0, 7))
        built = union_tube(level_union(build_level(params, depth)))
        tube = level_tube(params, depth)
        assert tube_value(tube) == tube_value(built), (params, depth)
        for _ in range(5):
            eps = Fraction(int(rng.integers(0, 1000)), int(rng.integers(1, 10**6)))
            assert tube.volume(eps) == built.volume(eps), (params, depth, eps)
        a_1, a_n = params.offsets[0], params.offsets[-1]
        seen["short"] += a_1 > 0 and a_n + params.ratio < 1 and depth > 1
        seen[params.eta_rule] += 1
        seen["depth 0"] += depth == 0
    # every kind of case was drawn
    assert min(seen.values()) >= 10, seen


def test_unvalidated_offsets_raise():
    # CantorParams built without create skips validation; build_level
    # and level_tube still refuse overlapping or out-of-order children
    overlap = CantorParams(2, Fraction(1, 2), (Fraction(0), Fraction(1, 4)), 1.0)
    descending = CantorParams(2, Fraction(1, 3), (Fraction(2, 3), Fraction(0)), 0.63)
    for params in (overlap, descending):
        with pytest.raises(DomainError):
            build_level(params, 1)
        for depth in (1, 2):
            with pytest.raises(DomainError):
                level_tube(params, depth)


def test_natural_measure_totals_and_interval_mass():
    params = middle_thirds_params()
    level = build_level(params, 5)
    mu = natural_measure(params, 5)
    assert mu.atoms.shape == (32, 1) and mu.weights.shape == (32,)
    # the float of each exact midpoint, rounded once by Fraction
    twice = 2 * level.denominator
    midpoints = [Fraction(2 * s + level.length, twice) for s in level.starts]
    assert mu.atoms[:, 0].tolist() == [float(m) for m in midpoints]
    assert mu.weights.tolist() == [float(Fraction(1, 32))] * 32
    assert mu.weights.sum() == 1.0
    # each level-1 child, [0, 1/3] and [2/3, 1], carries exactly half the mass
    for center in (1 / 6, 5 / 6):
        rows = upper_density_estimate(mu, center, 0.0, [1 / 6])
        assert rows[0][1] == 0.5


def test_params_json_round_trip(tmp_path):
    params = CantorParams.create(
        2,
        Fraction(1, 3),
        (Fraction(0), Fraction(2, 3)),
        eta_rule="tapered",
        seed=11,
    )
    path = tmp_path / "params.json"
    write_params(params, path)
    doc = json.loads(path.read_text())
    assert doc == {
        "branches": 2,
        "ratio": "1/3",
        "offsets": ["0/1", "2/3"],
        "eta_rule": "tapered",
        "seed": 11,
    }
    back = CantorParams.create(
        doc["branches"],
        Fraction(doc["ratio"]),
        [Fraction(a) for a in doc["offsets"]],
        eta_rule=doc["eta_rule"],
        seed=doc["seed"],
    )
    assert back == params


def test_level_csv_round_trip(tmp_path):
    level = build_level(middle_thirds_params(), 4)
    path = tmp_path / "level.csv"
    write_level_csv(level, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["index", "start_num", "start_den", "len_num", "len_den"]
    stored = [
        (
            Fraction(int(row["start_num"]), int(row["start_den"])),
            Fraction(int(row["len_num"]), int(row["len_den"])),
        )
        for row in rows
    ]
    assert [int(row["index"]) for row in rows] == list(range(16))
    assert from_pairs(stored) == level_union(level)


def test_offset_sampling_respects_gaps():
    rng = np.random.default_rng(5)
    ratio = Fraction(1, 16)
    offsets = sample_salem_offsets(4, ratio, rng)
    assert len(offsets) == 4
    assert all(0 <= a <= 1 - ratio for a in offsets)
    assert all(b - a > ratio for a, b in zip(offsets, offsets[1:]))
    # seeded draws reproduce, and the params keep the drawn offsets
    again = sample_salem_offsets(4, ratio, np.random.default_rng(5))
    assert again == offsets
    params = CantorParams.create(4, ratio, offsets, seed=5)
    assert params.seed == 5
    assert params.offsets == offsets


def test_offset_sampling_feasibility():
    rng = np.random.default_rng(0)
    with pytest.raises(DomainError):
        sample_salem_offsets(3, Fraction(2, 5), rng)
    with pytest.raises(DomainError):
        sample_salem_offsets(2, Fraction(3, 4), rng)


def test_offset_sampling_budget_counts_uniforms():
    """A million branches get REJECTION_BUDGET // branches = 4 proposals,
    each 10**6 uniforms whose smallest gap falls far below eta, and then
    the budget is spent; a proposal wider than the budget draws nothing."""
    rng = np.random.default_rng(1)
    assert REJECTION_BUDGET // 10**6 == 4
    with pytest.raises(SizeError, match="in 4 proposals of 1000000 uniforms"):
        sample_salem_offsets(10**6, Fraction(1, 2 * 10**6), rng)
    # the four proposals took 4 * 10**6 uniforms from the stream
    expected = np.random.default_rng(1)
    for _ in range(4):
        expected.uniform(size=10**6)
    assert rng.uniform() == expected.uniform()
    with pytest.raises(SizeError, match="exceeds the rejection budget"):
        sample_salem_offsets(REJECTION_BUDGET + 1, Fraction(1, 10**8), rng)
    assert rng.uniform() == expected.uniform()


def test_random_params_reproducible():
    def draw(seed):
        ratio = Fraction(1, 16)
        offsets = sample_salem_offsets(4, ratio, np.random.default_rng(seed))
        return CantorParams.create(4, ratio, offsets, seed=seed)

    a, b, c = draw(3), draw(3), draw(4)
    assert a.offsets == b.offsets
    assert c.offsets != a.offsets
