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
from fracspec.geometry.intervals import Tube
from fracspec.geometry.sweeps import geometric_scales
from fracspec.geometry.volumes import eps_neighborhood_volume, tube_ratios
from fracspec.numeric import LogRatio
from interval_oracle import from_pairs
from tube_oracle import union_tube


def test_interval_union_volume_exact():
    k1 = from_pairs([(0, Fraction(1, 3)), (Fraction(2, 3), Fraction(1, 3))])
    assert union_tube(k1).volume(Fraction(1, 9)) == Fraction(10, 9)
    assert level_tube(middle_thirds_params(), 1).volume(Fraction(1, 9)) == Fraction(10, 9)


def test_cloud_volume_1d_exact():
    cloud = PointCloud.from_points([Fraction(0), Fraction(1, 2), Fraction(1)])
    # three disjoint intervals of length 1/4
    assert eps_neighborhood_volume(cloud, Fraction(1, 8)) == (Fraction(3, 4), Fraction(3, 4))
    # neighbors merge once 2*eps reaches the 1/2 spacing
    assert eps_neighborhood_volume(cloud, Fraction(1, 4)) == (Fraction(3, 2), Fraction(3, 2))


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
    low, high = eps_neighborhood_volume(PointCloud.from_points(xs), eps)
    pieces = from_pairs((Fraction(x) - eps, 2 * eps) for x in xs)
    assert low == high == pieces.measure


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
        assert eps_neighborhood_volume(cloud, eps) == fresh
    assert "gap_counts" in cloud.__dict__
    with pytest.raises(DomainError):
        PointCloud.from_points([(0, 0), (1, 1)]).gap_counts


def test_occupancy_bounds_bracket_disk_area(monkeypatch):
    cloud = PointCloud.from_points([(0.0, 0.0)])
    eps = 0.5
    low, high = eps_neighborhood_volume(cloud, eps)
    true_area = math.pi * eps * eps
    assert low < true_area < high
    # default cell eps/8 keeps the bracket within ~25 percent
    assert high - low < 0.5 * true_area
    # finer cells tighten the bracket
    monkeypatch.setattr(volumes, "OCCUPANCY_CELLS_PER_EPS", 32)
    fine_low, fine_high = eps_neighborhood_volume(cloud, eps)
    assert fine_high - fine_low < high - low
    assert fine_low <= true_area <= fine_high


NUMPY_SQRT = np.sqrt


def meshgrid_occupancy(cloud, eps, cells_per_eps):
    """Reference: every cell center materialized, distances summed per row.

    Returns the (low, high) volume bounds and each point's squared
    distances to every cell center, shaped as the grid in ij order.
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
    return (inside, maybe), point_d2


def window_reference(cloud, eps, cells_per_eps, reach, ref_d2):
    """Each point's squared distances to the cells within reach of the cell
    whose center is nearest to it, read off the reference's full grids,
    with inf for the cells off the grid."""
    pts = cloud.array
    cell = float(eps) / cells_per_eps
    origin = pts.min(axis=0) - float(eps) - cell + cell / 2
    windows = []
    for p, grid in zip(pts, ref_d2):
        nearest = np.rint((p - origin) / cell).astype(int)
        padded = np.pad(grid, reach, constant_values=np.inf)
        windows.append(padded[tuple(slice(i, i + 2 * reach + 1) for i in nearest)])
    return np.stack(windows)


@pytest.mark.parametrize("cells_per_eps", [8, 32])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", ["float", "fraction"])
def test_occupancy_matches_meshgrid_reference(monkeypatch, kind, n, cells_per_eps):
    """The windowed grid gives exactly the reference's distances and bounds."""
    sqrt_args = []

    def recording_sqrt(x):
        sqrt_args.append(x)
        return NUMPY_SQRT(x)

    monkeypatch.setattr(np, "sqrt", recording_sqrt)
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
        low, high = eps_neighborhood_volume(cloud, eps)
        ref, point_d2 = meshgrid_occupancy(cloud, eps, cells_per_eps)
        assert (low, high) == ref
        # the stacked squared distances, one window per point (in batches
        # of 2**20 cells at the finest 3-D grid), match the reference bit
        # for bit, cell by cell, and the cells off the grid at the edge of
        # the extreme points' windows are inf
        d2 = np.concatenate(sqrt_args)
        reach = (d2.shape[1] - 1) // 2
        assert d2.shape == (len(cloud.lattice),) + (2 * reach + 1,) * n
        want = window_reference(cloud, eps, cells_per_eps, reach, point_d2)
        assert np.array_equal(d2.view(np.uint64), want.view(np.uint64))
        assert np.isinf(d2).any() and np.isfinite(d2).any()
        assert low < high


def grid_cells(cloud, eps):
    """Cells of the reference grid over the cloud's padded bounding box."""
    pts = cloud.array
    eps = float(eps)
    cell = eps / volumes.OCCUPANCY_CELLS_PER_EPS
    lo = pts.min(axis=0) - eps - cell
    hi = pts.max(axis=0) + eps + cell
    return math.prod(len(np.arange(lo[k] + cell / 2, hi[k], cell)) for k in range(cloud.n))


def test_occupancy_grid_budget(monkeypatch):
    """A grid over the cell budget is refused before it or any of its
    axes is allocated."""
    allocated = []
    for name in ("zeros", "arange"):
        make = getattr(np, name)
        monkeypatch.setattr(np, name, lambda *a, make=make, **k: allocated.append(a) or make(*a, **k))
    # a 3-D cloud spanning 4 units at eps 1/40: about 2.2e9 cells
    wide = PointCloud.from_points([(0, 0, 0), (4, 4, 4)])
    with pytest.raises(SizeError, match="occupancy grid"):
        eps_neighborhood_volume(wide, Fraction(1, 40))
    # one axis of 8e9 cells (59.6 GiB as an arange) is refused as well
    far = PointCloud.from_points([(0, 0), (10**9, 0)])
    with pytest.raises(SizeError, match="occupancy grid of 8000000018 x 18 cells"):
        eps_neighborhood_volume(far, 1)
    assert allocated == []
    monkeypatch.undo()
    assert grid_cells(wide, Fraction(1, 40)) > 2 * 10**9
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
    for cloud in (PointCloud.from_points([0]), PointCloud.from_points([(0, 0)])):
        for eps in (0, -1, Fraction(-1, 2)):
            with pytest.raises(DomainError, match="eps must be positive"):
                eps_neighborhood_volume(cloud, eps)


def ternary_tube(depth):
    starts = [Fraction(0)]
    length = Fraction(1)
    for _ in range(depth):
        starts = [s + a * length for s in starts for a in (Fraction(0), Fraction(2, 3))]
        length /= 3
    return union_tube(from_pairs((s, length) for s in starts))


def test_ternary_ratio_exact_five_halves():
    """eps**(beta-1) * volume at eps = 1/9 for the ternary set is 10/4.

    Hand derivation: fattening the level-2 stage by 1/9 merges each
    sibling pair, leaving [-1/9, 4/9] and [5/9, 10/9], total 10/9, and
    (1/9)**(beta-1) = (1/9)**beta * 9 = 9/4, so the ratio is 10/4.
    """
    tube = ternary_tube(10)
    beta = LogRatio(2, 3)
    scales = geometric_scales(Fraction(1, 9), Fraction(1, 3), 5)
    rows = tube_ratios(tube, beta, scales)
    assert [eps for eps, _, _ in rows] == list(scales)
    # at power 1 the two bounds are one exact ratio
    assert all(low is high for _, low, high in rows)
    assert rows[0][1] == Fraction(5, 2)
    assert all(isinstance(r, Fraction) for _, r, _ in rows)
    assert all(Fraction(1) <= r <= Fraction(3) for _, r, _ in rows)
    # eps**(beta - 1) = 2**-m * 3**m at eps = 3**-m
    for m, (eps, r, _) in enumerate(rows, 2):
        assert r == Fraction(3, 2) ** m * tube.volume(eps)


def test_float_alpha_rows_are_floats():
    """A float alpha, or an eps that is no power of the LogRatio's base,
    gives float rows: eps**(alpha - 1) times the float of the exact
    volume."""
    tube = ternary_tube(6)
    scales = geometric_scales(Fraction(1, 9), Fraction(1, 3), 4)
    for alpha, eps_list in ((0.6, scales), (LogRatio(2, 3), (Fraction(1, 10), 0.01))):
        for (eps, low, high), e in zip(tube_ratios(tube, alpha, eps_list), eps_list):
            assert eps == e and low is high
            assert low == float(e) ** (float(alpha) - 1) * float(tube.volume(e))


def test_ratio_sweep_alpha_range():
    tube = ternary_tube(4)
    scales = geometric_scales(Fraction(1, 9), Fraction(1, 3), 4)
    for alpha in (1.5, -0.1):
        with pytest.raises(DomainError, match=r"alpha must lie in \[0, 1\]"):
            tube_ratios(tube, alpha, scales)


def test_full_interval_ratio_constant():
    # alpha = 1 on [0, 1]: ratio = (1 + 2 eps) -> stays within [1, 3] for eps <= 1
    scales = geometric_scales(Fraction(1, 2), Fraction(1, 2), 6)
    for (_, ratio, _), eps in zip(tube_ratios(Tube(1, (), 1), 1.0, scales), scales):
        assert math.isclose(ratio, float(1 + 2 * eps), rel_tol=1e-12)


def test_geometric_scales():
    """Each scale is the previous one times the ratio, in the inputs' type."""
    scales = geometric_scales(Fraction(1, 9), Fraction(1, 3), 4)
    assert scales == (Fraction(1, 9), Fraction(1, 27), Fraction(1, 81), Fraction(1, 243))
    floats = geometric_scales(0.5, 0.1, 3)
    assert floats == (0.5, 0.5 * 0.1, 0.5 * 0.1 * 0.1)
    assert geometric_scales(1, Fraction(1, 2), 1) == (1,)
    for args, message in (
        ((0, Fraction(1, 2), 3), "eps_max must be positive"),
        ((1, 1, 3), "ratio must lie strictly between 0 and 1"),
        ((1, 0, 3), "ratio must lie strictly between 0 and 1"),
        ((1, Fraction(1, 2), 0), "count must be at least 1"),
    ):
        with pytest.raises(DomainError, match=message):
            geometric_scales(*args)
