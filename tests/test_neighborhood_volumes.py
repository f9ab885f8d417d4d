"""Neighborhood volumes and scale-normalized volume ratios."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracspec.cantor.levels import level_tube
from fracspec.cantor.params import middle_thirds_params
from fracspec.errors import DomainError, SizeError
from fracspec.geometry import volumes
from fracspec.geometry.cloud import PointCloud
from fracspec.geometry.intervals import IntervalUnion, Tube
from fracspec.geometry.sweeps import ScaleSweep
from fracspec.geometry.volumes import (
    VolumeResult,
    eps_neighborhood_volume,
    minkowski_ratio_sweep,
)
from fracspec.numeric import LogRatio
from tube_oracle import union_tube


def test_interval_union_volume_exact():
    k1 = IntervalUnion.from_pairs([(0, Fraction(1, 3)), (Fraction(2, 3), Fraction(1, 3))])
    assert union_tube(k1).volume(Fraction(1, 9)) == Fraction(10, 9)
    assert level_tube(middle_thirds_params(), 1).volume(Fraction(1, 9)) == Fraction(10, 9)


def test_cloud_volume_1d_exact():
    cloud = PointCloud.from_points([Fraction(0), Fraction(1, 2), Fraction(1)])
    vol = eps_neighborhood_volume(cloud, Fraction(1, 8))
    # three disjoint intervals of length 1/4
    assert vol.value == vol.low == vol.high == Fraction(3, 4)
    # neighbors merge once 2*eps reaches the 1/2 spacing
    vol2 = eps_neighborhood_volume(cloud, Fraction(1, 4))
    assert vol2.value == Fraction(3, 2)


quarter = st.integers(min_value=-20, max_value=20)


@settings(max_examples=100, deadline=None)
@given(
    xs=st.lists(
        st.one_of(quarter.map(lambda k: Fraction(k, 4)), quarter.map(lambda k: k / 4)),
        min_size=1,
        max_size=8,
    ),
    k=st.integers(min_value=1, max_value=16),
)
def test_cloud_volume_1d_matches_merged_union(xs, k):
    """The gap formula against merging the pieces [x - eps, x + eps]."""
    eps = Fraction(k, 8)
    vol = eps_neighborhood_volume(PointCloud.from_points(xs), eps)
    pieces = IntervalUnion.from_pairs((Fraction(x) - eps, 2 * eps) for x in xs)
    assert vol.value == vol.low == vol.high == pieces.measure


def test_cloud_gap_counts_kept_across_scales():
    """A 1-D cloud builds its gap multiset once and every eps reuses it."""
    xs = [0, 0.25, Fraction(3, 4), 1, Fraction(5, 4), 3]
    cloud = PointCloud.from_points(xs)
    # gaps 1/4 (three times), 1/2 and 7/4 as numerators over 4
    assert cloud.denominator == 4
    assert cloud.gap_counts == ((1, 3), (2, 1), (7, 1))
    for k in (5, 1, 3):
        eps = Fraction(k, 8)
        fresh = eps_neighborhood_volume(PointCloud.from_points(xs), eps)
        assert eps_neighborhood_volume(cloud, eps).value == fresh.value
    assert "gap_counts" in cloud.__dict__
    with pytest.raises(DomainError):
        PointCloud.from_points([(0, 0), (1, 1)]).gap_counts


def test_occupancy_bounds_bracket_disk_area(monkeypatch):
    cloud = PointCloud.from_points([(0.0, 0.0)])
    eps = 0.5
    vol = eps_neighborhood_volume(cloud, eps)
    true_area = math.pi * eps * eps
    assert vol.low < true_area < vol.high
    # default cell eps/8 keeps the bracket within ~25 percent
    assert vol.high - vol.low < 0.5 * true_area
    # finer cells tighten the bracket
    monkeypatch.setattr(volumes, "OCCUPANCY_CELLS_PER_EPS", 32)
    fine = eps_neighborhood_volume(cloud, eps)
    assert fine.high - fine.low < vol.high - vol.low
    assert fine.low <= true_area <= fine.high


NUMPY_SQRT = np.sqrt


def meshgrid_occupancy(cloud, eps, cells_per_eps):
    """Reference: every cell center materialized, distances summed per row.

    Returns the volume and each point's squared distances to every cell
    center, shaped as the grid in ij order.
    """
    pts = cloud.array
    n = cloud.n
    eps = float(eps)
    cell = eps / cells_per_eps
    half_diag = 0.5 * cell * math.sqrt(n)
    lo = pts.min(axis=0) - eps - cell
    hi = pts.max(axis=0) + eps + cell
    axes = [np.arange(lo[k] + cell / 2, hi[k], cell) for k in range(n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    centers = np.stack([m.ravel() for m in mesh], axis=1)
    d2 = np.full(len(centers), np.inf)
    point_d2 = []
    for p in pts:
        point_d2.append(((centers - p) ** 2).sum(axis=1).reshape(mesh[0].shape))
        np.minimum(d2, point_d2[-1].ravel(), out=d2)
    d = NUMPY_SQRT(d2)
    cell_vol = cell**n
    inside = float(np.count_nonzero(d <= eps - half_diag) * cell_vol)
    maybe = float(np.count_nonzero(d < eps + half_diag) * cell_vol)
    return VolumeResult(0.5 * (inside + maybe), inside, maybe), point_d2


@pytest.mark.parametrize("cells_per_eps", [8, 32])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", ["float", "fraction"])
def test_occupancy_matches_meshgrid_reference(monkeypatch, kind, n, cells_per_eps):
    """The windowed grid gives exactly the reference's distances and bounds."""
    sqrt_args, windows = [], []

    def recording_sqrt(x):
        sqrt_args.append(x)
        return NUMPY_SQRT(x)

    def recording_windows(*args):
        made = cell_windows(*args)
        windows.extend(made)
        return made

    cell_windows = volumes._cell_windows
    monkeypatch.setattr(np, "sqrt", recording_sqrt)
    monkeypatch.setattr(volumes, "_cell_windows", recording_windows)
    monkeypatch.setattr(volumes, "OCCUPANCY_CELLS_PER_EPS", cells_per_eps)
    rng = np.random.default_rng(1000 * n + cells_per_eps)
    # points spread over [0, 1)^2, or [0, 1/4)^3 so the finest 3-D grid stays small
    spread = 1000 if n == 2 else 250
    for eps in (Fraction(1, 4), Fraction(1, 7), Fraction(3, 10)):
        coords = rng.integers(0, spread, size=(int(rng.integers(1, 7)), n))
        if kind == "float":
            pts = [tuple(map(float, row)) for row in (coords + rng.random(coords.shape)) / 1000]
        else:
            pts = [tuple(Fraction(int(c), 1000) for c in row) for row in coords]
        cloud = PointCloud.from_points(pts)
        sqrt_args.clear()
        windows.clear()
        vol = eps_neighborhood_volume(cloud, eps)
        ref, point_d2 = meshgrid_occupancy(cloud, eps, cells_per_eps)
        assert (vol.low, vol.high, vol.value) == (ref.low, ref.high, ref.value)
        # each point's squared distances match bit for bit, cell by cell,
        # on the window of cells it is measured against
        assert len(sqrt_args) == len(windows) == len(point_d2) == cloud.size
        for d2, window, ref_d2 in zip(sqrt_args, windows, point_d2):
            assert d2.shape == ref_d2[window].shape
            assert np.array_equal(d2.view(np.uint64), ref_d2[window].view(np.uint64))
        assert vol.low < vol.high


def grid_cells(cloud, eps):
    """Cells of the reference grid over the cloud's padded bounding box."""
    pts = cloud.array
    eps = float(eps)
    cell = eps / volumes.OCCUPANCY_CELLS_PER_EPS
    lo = pts.min(axis=0) - eps - cell
    hi = pts.max(axis=0) + eps + cell
    return math.prod(len(np.arange(lo[k] + cell / 2, hi[k], cell)) for k in range(cloud.n))


def test_occupancy_grid_budget(monkeypatch):
    """A grid over the cell budget is refused before it is allocated."""
    allocated = []
    zeros = np.zeros
    monkeypatch.setattr(np, "zeros", lambda *a, **k: allocated.append(a) or zeros(*a, **k))
    # a 3-D cloud spanning 4 units at eps 1/40: about 2.2e9 cells
    wide = PointCloud.from_points([(0, 0, 0), (4, 4, 4)])
    assert grid_cells(wide, Fraction(1, 40)) > 2 * 10**9
    with pytest.raises(SizeError, match="occupancy grid"):
        eps_neighborhood_volume(wide, Fraction(1, 40))
    assert allocated == []
    # the budget is inclusive: a grid of exactly that many cells is measured
    cloud = PointCloud.from_points([(0, 0), (Fraction(1, 2), Fraction(1, 3))])
    eps = Fraction(1, 10)
    want = eps_neighborhood_volume(cloud, eps)
    monkeypatch.setattr(volumes, "OCCUPANCY_MAX_CELLS", grid_cells(cloud, eps))
    assert eps_neighborhood_volume(cloud, eps) == want
    monkeypatch.setattr(volumes, "OCCUPANCY_MAX_CELLS", grid_cells(cloud, eps) - 1)
    with pytest.raises(SizeError):
        eps_neighborhood_volume(cloud, eps)


def test_volume_input_validation():
    with pytest.raises(DomainError, match="eps must be positive"):
        eps_neighborhood_volume(PointCloud.from_points([0]), 0)
    for unsupported in (IntervalUnion((), 1), [(0, 1)]):
        with pytest.raises(DomainError, match="unsupported input type"):
            eps_neighborhood_volume(unsupported, Fraction(1, 2))


def ternary_tube(depth):
    starts = [Fraction(0)]
    length = Fraction(1)
    for _ in range(depth):
        starts = [s + a * length for s in starts for a in (Fraction(0), Fraction(2, 3))]
        length /= 3
    return union_tube(IntervalUnion.from_pairs((s, length) for s in starts))


def test_ternary_ratio_exact_five_halves():
    """eps**(beta-1) * volume at eps = 1/9 for the ternary set is 10/4.

    Hand derivation: fattening the level-2 stage by 1/9 merges each
    sibling pair, leaving [-1/9, 4/9] and [5/9, 10/9], total 10/9, and
    (1/9)**(beta-1) = (1/9)**beta * 9 = 9/4, so the ratio is 10/4.
    """
    tube = ternary_tube(10)
    beta = LogRatio(2, 3)
    sweep = ScaleSweep(Fraction(1, 9), Fraction(1, 3), 5)
    result = minkowski_ratio_sweep(tube, beta, sweep)
    first = result.rows[0]
    assert first.ratio_exact == Fraction(5, 2)
    assert all(r.ratio_exact is not None for r in result.rows)
    assert all(Fraction(1) <= r.ratio_exact <= Fraction(3) for r in result.rows)
    assert result.bounded_by(3.0)


def test_ratio_sweep_alpha_range():
    tube = ternary_tube(4)
    sweep = ScaleSweep(Fraction(1, 9), Fraction(1, 3), 4)
    with pytest.raises(DomainError):
        minkowski_ratio_sweep(tube, 1.5, sweep)
    with pytest.raises(DomainError):
        minkowski_ratio_sweep(tube, -0.1, sweep)


def test_full_interval_ratio_constant():
    # alpha = 1 on [0, 1]: ratio = (1 + 2 eps) -> stays within [1, 3] for eps <= 1
    sweep = ScaleSweep(Fraction(1, 2), Fraction(1, 2), 6)
    result = minkowski_ratio_sweep(Tube(1, (), 1), 1.0, sweep)
    for row, eps in zip(result.rows, sweep.scales()):
        assert math.isclose(row.ratio, float(1 + 2 * eps), rel_tol=1e-12)
