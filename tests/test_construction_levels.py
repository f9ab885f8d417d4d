"""Level recursion, natural measures, and on-disk round-trips."""

import json
from fractions import Fraction

import numpy as np
import pytest

from fracspec.cantor.io import read_level_csv, read_params, write_level_csv, write_params
from fracspec.cantor import levels
from fracspec.cantor.levels import MAX_INTERVALS, build_level
from fracspec.cantor.measures import natural_measure
from fracspec.cantor.params import CantorParams, middle_thirds_params
from fracspec.cantor.sampling import sample_salem_offsets
from fracspec.errors import ConfigError, DomainError, SizeError


def test_level_two_starts_frozen():
    level = build_level(middle_thirds_params(), 2)
    assert level.starts() == (
        Fraction(0),
        Fraction(2, 9),
        Fraction(2, 3),
        Fraction(8, 9),
    )
    assert level.member_count == 4
    assert level.natural_scale == Fraction(1, 9)
    assert level.intervals.measure == Fraction(4, 9)


def test_levels_nest():
    params = middle_thirds_params()
    prev = build_level(params, 0)
    assert prev.intervals.intervals == ((Fraction(0), Fraction(1)),)
    for depth in range(1, 7):
        cur = build_level(params, depth)
        assert cur.intervals.is_subset_of(prev.intervals)
        assert cur.member_count == 2**depth
        prev = cur


def test_tapered_level_one_frozen():
    params = CantorParams.create(
        2, Fraction(1, 3), (Fraction(0), Fraction(2, 3)), eta_rule="tapered"
    )
    level = build_level(params, 1)
    # eta_1 = (1/3)(1 - 1/4) = 1/4
    assert level.intervals.intervals == (
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


def test_natural_measure_totals_and_interval_mass():
    params = middle_thirds_params()
    mu = natural_measure(params, 5)
    assert mu.total == 1
    assert mu.weight == Fraction(1, 32)
    # the left level-1 child carries exactly half the mass
    assert mu.mass_of_interval(0, Fraction(1, 3)) == Fraction(1, 2)
    assert mu.mass_of_interval(Fraction(2, 3), 1) == Fraction(1, 2)
    with pytest.raises(DomainError):
        mu.mass_of_interval(1, 0)
    weighted = mu.to_weighted()
    assert weighted.n == 1
    assert abs(weighted.total - 1.0) < 1e-12


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
    back = read_params(path)
    assert back == params
    assert back.level_length(2) == Fraction(1, 4) * Fraction(8, 27)
    doc = json.loads(path.read_text())
    assert doc["ratio"] == "1/3"
    assert doc["eta_rule"] == "tapered"
    assert doc["seed"] == 11


def test_params_read_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigError):
        read_params(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        read_params(bad)
    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text(json.dumps({"branches": 2}))
    with pytest.raises(ConfigError):
        read_params(incomplete)


def test_level_csv_round_trip(tmp_path):
    level = build_level(middle_thirds_params(), 4)
    path = tmp_path / "level.csv"
    write_level_csv(level, path)
    union = read_level_csv(path)
    assert union == level.intervals
    header = path.read_text().splitlines()[0]
    assert header == "index,start_num,start_den,len_num,len_den"


def test_level_csv_rejects_wrong_columns(tmp_path):
    path = tmp_path / "wrong.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ConfigError):
        read_level_csv(path)


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


def test_random_params_reproducible():
    def draw(seed):
        ratio = Fraction(1, 16)
        offsets = sample_salem_offsets(4, ratio, np.random.default_rng(seed))
        return CantorParams.create(4, ratio, offsets, seed=seed)

    a, b, c = draw(3), draw(3), draw(4)
    assert a.offsets == b.offsets
    assert c.offsets != a.offsets
