"""The squared distance transform and its two callers against brute force.

The references here use no package distance code: the transform is checked
against pairwise squared distances between cell indices, ``density_report``
against a copy of its former pairwise search over cell centers, and
``phase_count_map`` against a copy of its former offset-loop dilation.  A
work count pins the transform's exit bound: its scans make one
``np.minimum`` call and each min-plus shift makes two.
"""

from __future__ import annotations

import numpy as np
import pytest

from phasemin import diagnostics
from phasemin.diagnostics import (
    Phase,
    _ball_volume,
    _dilate,
    _part_values,
    _phase_parts,
    density_report,
    free_boundary_cells,
    phase_count_map,
)
from phasemin.functional import make_phase_field, partition_from_supports
from phasemin.grid import (
    as_point,
    cell_centers,
    distances,
    make_grid,
    squared_distance_transform,
)
from phasemin.oracle import ConeOnePhase, make_cone

SHAPES = [(1,), (2,), (9,), (40,), (1, 1), (1, 7), (7, 1), (6, 11), (13, 5), (24, 24)]


def brute_sq(features, cap=None):
    """Pairwise squared index distance to the nearest feature, ``inf`` if none.

    With ``cap``, only features at most ``cap`` cells away along every axis
    count.
    """
    cells = np.indices(features.shape).reshape(features.ndim, -1).T
    feats = np.argwhere(features)
    out = np.full(len(cells), np.inf)
    for k, c in enumerate(cells):
        off = feats - c
        if cap is not None:
            off = off[np.all(np.abs(off) <= cap, axis=1)]
        if len(off):
            out[k] = float(np.min(np.sum(off * off, axis=1)))
    return out.reshape(features.shape)


def feature_sets(shape, seed):
    """Random sets of several densities, face-touching sets, one cell, none."""
    rng = np.random.default_rng(seed)
    sets = [rng.random(shape) < p for p in (0.02, 0.1, 0.5)]
    for axis in range(len(shape)):
        for face in (0, -1):
            f = rng.random(shape) < 0.03
            f[(slice(None),) * axis + (face,)] = False
            idx = [rng.integers(0, n) for n in shape]
            idx[axis] = face
            f[tuple(idx)] = True
            sets.append(f)
    one = np.zeros(shape, dtype=bool)
    one[tuple(rng.integers(0, n) for n in shape)] = True
    sets.append(one)
    sets.append(np.zeros(shape, dtype=bool))
    return sets


class TestTransform:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_pairwise(self, shape):
        for feats in feature_sets(shape, seed=sum(shape)):
            got = squared_distance_transform(feats)
            assert got.shape == feats.shape
            assert np.array_equal(got, brute_sq(feats))

    @pytest.mark.parametrize("shape", [(40,), (6, 11), (13, 5), (24, 24)])
    @pytest.mark.parametrize("cap", [0, 1, 2, 3, 6])
    def test_cap_searches_the_box(self, shape, cap):
        for feats in feature_sets(shape, seed=cap + sum(shape)):
            got = squared_distance_transform(feats, cap=cap)
            assert np.array_equal(got, brute_sq(feats, cap=cap))
            exact = brute_sq(feats)
            near = exact <= cap * cap
            assert np.array_equal(got[near], exact[near])
            assert np.all(got[~near] > cap * cap)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("cap", [None, 0, 2, 6])
    def test_at_reads_the_full_transform(self, shape, cap):
        rng = np.random.default_rng(sum(shape) + (cap or 0))
        one = np.zeros(shape, dtype=bool)
        one[tuple(rng.integers(0, n) for n in shape)] = True
        reads = [rng.random(shape) < 0.3, np.zeros(shape, dtype=bool), np.ones(shape, dtype=bool), one]
        for feats in feature_sets(shape, seed=sum(shape)):
            want = brute_sq(feats, cap=cap)
            for at in reads:
                got = squared_distance_transform(feats, cap=cap, at=at)
                assert got.shape == (np.count_nonzero(at),)
                assert np.array_equal(got, want[at])

    @pytest.mark.parametrize("shape", [s for s in SHAPES if len(s) == 2])
    @pytest.mark.parametrize("cap", [None, 2, 6])
    def test_transpose_commutes(self, shape, cap):
        i, j = np.indices(shape)
        # half-planes normal to each axis, where the min-plus runs no shift
        # in one orientation and every shift in reach in the other, and
        # tilted ones
        halves = [i < shape[0] // 2, j < shape[1] // 2, 2 * i + j < shape[0], i + 2 * j < shape[1]]
        for feats in feature_sets(shape, seed=sum(shape) + 1) + halves:
            got = squared_distance_transform(feats.T, cap=cap)
            assert np.array_equal(got, squared_distance_transform(feats, cap=cap).T)
            assert np.array_equal(got, brute_sq(feats.T, cap=cap))


# ---------------------------------------------------------------------------
# work count: the min-plus shifts that the exit bound lets run
# ---------------------------------------------------------------------------


class CountingMinimum:
    """``np.minimum`` counting its calls; ``accumulate`` and the other ufunc
    attributes pass through uncounted."""

    def __init__(self, ufunc):
        self.ufunc = ufunc
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.ufunc(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.ufunc, name)


@pytest.fixture
def minimum_calls(monkeypatch):
    counter = CountingMinimum(np.minimum)
    monkeypatch.setattr(np, "minimum", counter)
    return counter


# one call for the scans: any shift makes it at least 3
NO_SHIFT_CALLS = 1


def test_half_plane_runs_no_shift(minimum_calls):
    # an interface along the rows: every row holds one distance
    shape = (40, 53)
    zero = np.indices(shape)[0] < 17
    got = squared_distance_transform(zero, at=~zero)
    assert minimum_calls.calls == NO_SHIFT_CALLS
    assert np.array_equal(got, brute_sq(zero)[~zero])


@pytest.mark.parametrize("normal", [(1, 2), (0, 1)])
def test_other_half_planes_run_shifts(normal, minimum_calls):
    # the counter sees shifts where the bound allows them: a tilted
    # interface, and one along the columns, where the shifts alone find the
    # distances
    i, j = np.indices((40, 53))
    zero = normal[0] * i + normal[1] * j < 17
    got = squared_distance_transform(zero, at=~zero)
    assert minimum_calls.calls > NO_SHIFT_CALLS
    assert np.array_equal(got, brute_sq(zero)[~zero])


def test_benchmark_cone_density_report_runs_no_shift(monkeypatch, minimum_calls):
    # the structure_scan benchmark's seed-0 sweep at its largest radius: a
    # slope-1 one-phase cone along x at h = 1/256, probes on its plane
    grid = make_grid(2, (256, 256), 1.0 / 256.0)
    u = make_cone(ConeOnePhase(1.0, (1.0, 0.0)), grid)
    w = partition_from_supports(u)
    per_call = []

    def counted(*args, **kwargs):
        before = minimum_calls.calls
        out = squared_distance_transform(*args, **kwargs)
        per_call.append(minimum_calls.calls - before)
        return out

    monkeypatch.setattr(diagnostics, "squared_distance_transform", counted)
    for y in np.linspace(0.3, 0.7, 4):
        ratios = density_report(u, w, 1, (0.5, float(y)), 0.2).density_ratios
        assert ratios["growth_floor"] > 0.0
    assert len(per_call) == 4
    assert max(per_call) <= NO_SHIFT_CALLS


# ---------------------------------------------------------------------------
# density_report against its former pairwise search
# ---------------------------------------------------------------------------


def pairwise_density_ratios(u, i, x0, r):
    """``density_report``'s ratios with the zero set searched pair by pair.

    This is the former implementation with one change: the 2h cut has a
    1e-9 relative slack, so a cell exactly two cells from the zero set
    counts at every h.  The former strict cut compared rounded center
    differences, which at non-dyadic h fall just below 2h for some pairs.
    At dyadic h the differences are exact and both cuts agree.
    """
    grid, vals = _part_values(u, Phase(i, 1))
    pt = as_point(grid, x0)
    h = grid.spacing
    d = distances(grid, pt)
    ball = (d < r) & grid.mask
    hn = grid.cell_volume
    mean_sq = float(np.sum(vals[ball] ** 2)) * hn / _ball_volume(grid.dim, r) / r**2
    support = vals > 0.0
    pos_vol = float(np.count_nonzero(ball & support)) * hn / r**grid.dim
    comp_vol = float(np.count_nonzero(ball & ~support)) * hn / r**grid.dim
    centers = cell_centers(grid).reshape(-1, grid.dim)
    window = (d < r + 2.0 * h) & grid.mask
    zero_pts = centers[(window & ~support).reshape(-1)]
    sup_idx = np.flatnonzero((ball & support).reshape(-1))
    floor = np.inf
    if len(zero_pts) and len(sup_idx):
        chunk = 256
        delta = np.empty(len(sup_idx))
        for start in range(0, len(sup_idx), chunk):
            block = centers[sup_idx[start : start + chunk]]
            d2 = np.sum((block[:, None, :] - zero_pts[None, :, :]) ** 2, axis=-1)
            delta[start : start + chunk] = np.sqrt(np.min(d2, axis=1))
        v_flat = vals.reshape(-1)[sup_idx]
        ok = delta >= 2.0 * h * (1.0 - 1e-9)
        if np.any(ok):
            floor = float(np.min(v_flat[ok] / delta[ok]))
    return {
        "mean_square": mean_sq,
        "positive_volume": pos_vol,
        "growth_floor": floor if np.isfinite(floor) else 0.0,
        "complement_volume": comp_vol,
    }


def random_phase_field(dim, shape, h, seed):
    """A smooth random two-sign field on a random mask, as a one-phase field."""
    rng = np.random.default_rng(seed)
    grid0 = make_grid(dim, shape, h)
    x = cell_centers(grid0)
    ext = np.asarray(shape) * h
    vals = np.full(shape, rng.uniform(-0.3, 0.3))
    for _ in range(4):
        k = rng.uniform(1.0, 6.0, size=dim) / ext
        vals = vals + rng.uniform(0.3, 1.0) * np.sin(
            2.0 * np.pi * (x @ k) + rng.uniform(0.0, 2.0 * np.pi)
        )
    mask = rng.random(shape) > 0.08
    grid = make_grid(dim, shape, h, mask=mask)
    return make_phase_field(grid, [np.where(mask, vals, 0.0)])


def probes(u, rng, count):
    """Boundary-cell centers, the ones nearest each box face first, then random."""
    grid = u.grid
    boundary = np.argwhere(free_boundary_cells(u, Phase(1)))
    picks = []
    for axis in range(grid.dim):
        picks.append(boundary[np.argmin(boundary[:, axis])])
        picks.append(boundary[np.argmax(boundary[:, axis])])
    picks.extend(boundary[rng.choice(len(boundary), size=count, replace=False)])
    centers = cell_centers(grid)
    return [centers[tuple(c)] for c in picks]


DENSITY_CASES = [
    (1, (64,), 1.0 / 64.0),
    (1, (301,), 1.0 / 256.0),
    (1, (97,), 0.013),
    (2, (64, 40), 1.0 / 64.0),
    (2, (48, 64), 1.0 / 128.0),
    (2, (97, 102), 0.013),
    (2, (64, 69), 0.013),
]


@pytest.mark.parametrize("dim, shape, h", DENSITY_CASES)
@pytest.mark.parametrize("seed", [0, 1])
def test_density_report_matches_pairwise(dim, shape, h, seed):
    u = random_phase_field(dim, shape, h, seed)
    w = partition_from_supports(u)
    rng = np.random.default_rng(seed)
    dyadic = np.log2(h) == np.round(np.log2(h))
    extent = min(shape) * h
    radii = (2.5 * h, 5.0 * h, 0.2 * extent, 0.45 * extent)
    for pt in probes(u, rng, count=4):
        for r in radii:
            got = density_report(u, w, 1, pt, r).density_ratios
            want = pairwise_density_ratios(u, 1, pt, r)
            assert got.keys() == want.keys()
            if dyadic:
                assert got == want
            else:
                for key in want:
                    assert got[key] == pytest.approx(want[key], rel=1e-12, abs=0.0)


def test_cell_two_cells_from_zero_set_counts_at_non_dyadic_h():
    # at h = 0.013 the rounded centers of cells 19 and 21 are less than 2h apart
    h = 0.013
    grid = make_grid(1, (40,), h)
    k = np.arange(40)
    vals = np.where(k > 19, (k - 19) * h, 0.0)
    vals[21] = h  # v / dist = 1/2 at cell 21, 1 at every other support cell
    u = make_phase_field(grid, [vals])
    w = partition_from_supports(u)
    rep = density_report(u, w, 1, cell_centers(grid)[20], 0.1)
    assert rep.density_ratios["growth_floor"] == 0.5


# ---------------------------------------------------------------------------
# phase_count_map against its former offset-loop dilation
# ---------------------------------------------------------------------------


def offset_dilate(mask, grid, radius):
    """Cells within the given center distance of a set cell, offset by offset."""
    steps = int(np.floor(radius / grid.spacing + 1e-9))
    out = np.zeros(grid.shape, dtype=bool)
    ranges = [range(-steps, steps + 1)] * grid.dim
    for offset in np.stack(np.meshgrid(*ranges, indexing="ij"), axis=-1).reshape(
        -1, grid.dim
    ):
        if float(np.sum(offset.astype(float) ** 2)) * grid.spacing**2 > radius**2 + 1e-12:
            continue
        src = [slice(None)] * grid.dim
        dst = [slice(None)] * grid.dim
        for a in range(grid.dim):
            o = int(offset[a])
            n = grid.shape[a]
            if o >= 0:
                src[a] = slice(0, n - o)
                dst[a] = slice(o, n)
            else:
                src[a] = slice(-o, n)
                dst[a] = slice(0, n + o)
        out[tuple(dst)] |= mask[tuple(src)]
    return out


@pytest.mark.parametrize(
    "shape, h",
    [
        ((256, 256), 1.0 / 256.0),
        ((64, 69), 1.0 / 256.0),
        ((97, 102), 0.013),
        ((301,), 0.013),
    ],
)
def test_dilate_matches_offset_loop(shape, h):
    u = random_phase_field(len(shape), shape, h, seed=3)
    grid = u.grid
    support = u.fields[0].values > 0.0
    # sets in a small index box, one touching the first face of every axis and
    # one away from the faces, so the transform's crop is clipped or not
    rng = np.random.default_rng(len(shape))
    at_face = np.zeros(shape, dtype=bool)
    at_face[tuple(slice(0, 5) for _ in shape)] = rng.random((5,) * len(shape)) < 0.4
    at_face[(0,) * len(shape)] = True
    inner = np.zeros(shape, dtype=bool)
    inner[tuple(slice(n // 2 - 2, n // 2 + 2) for n in shape)] = rng.random((4,) * len(shape)) < 0.5
    inner[tuple(n // 2 for n in shape)] = True
    empty = np.zeros(shape, dtype=bool)
    # at h = 1/256 the offset (3, 0) passes this radius's 1e-12 slack, yet lies
    # beyond its 2-step offset box
    below_3h = np.sqrt(9.0 * h * h - 0.5e-12)
    for mask in (support, at_face, inner, empty):
        for radius in (2.0 * h, 2.0 * h * (1.0 + 1e-9), below_3h, 6.0 * h, 0.1):
            want = offset_dilate(mask, grid, radius)
            assert np.array_equal(_dilate(mask, grid, radius), want)


def offset_phase_count_map(u, r):
    grid = u.grid
    counts = np.zeros(grid.shape, dtype=np.int64)
    for part in _phase_parts(u):
        _, vals = _part_values(u, part)
        support = (vals > 0.0) & grid.mask
        near_support = offset_dilate(support, grid, r * (1.0 - 1e-12))
        near_boundary = offset_dilate(
            free_boundary_cells(u, part), grid, 2.0 * grid.spacing * (1.0 + 1e-9)
        )
        counts += (near_support & near_boundary).astype(np.int64)
    counts[~grid.mask] = 0
    return counts


def three_phase_field(dim, shape, h, seed):
    """Two free-sign phases and one nonnegative phase with disjoint supports."""
    u = random_phase_field(dim, shape, h, seed)
    grid = u.grid
    v = u.fields[0].values
    rng = np.random.default_rng(seed + 100)
    split = rng.random(shape) < 0.5
    third = np.where(~split & (v > 0.5), v, 0.0)
    first = np.where(split, v, 0.0)
    second = np.where(~split & (third == 0.0), -v, 0.0)
    return make_phase_field(grid, [first, second, third])


@pytest.mark.parametrize(
    "dim, shape, h",
    [
        (2, (256, 256), 1.0 / 256.0),
        (2, (97, 102), 0.013),
        (2, (64, 69), 1.0 / 64.0),
        (1, (301,), 1.0 / 256.0),
        (1, (97,), 0.013),
    ],
)
def test_phase_count_map_matches_offset_loop(dim, shape, h):
    u = three_phase_field(dim, shape, h, seed=sum(shape))
    for r in (4.0 * h, 6.0 * h, 0.1):
        assert np.array_equal(phase_count_map(u, r), offset_phase_count_map(u, r))
