"""The matrix-free face-edge stencil against an independently assembled matrix.

The reference operator is built here, cell by cell, with no package stencil
code: on a region R of in-mask cells, ``A = -lap_R + c`` has, per cell and
per axis direction, ``1/h**2`` on the diagonal and ``-1/h**2`` to an in-region
neighbor for every in-mask neighbor, and ``2/h**2`` on the diagonal for every
wall slot (box face or unmasked neighbor: the zero sits at half spacing).
The edge energy, its region restriction and cellwise split, the wall count
and the free boundary are checked against plain loops over each cell's
face slots; the multigrid child reductions against numpy's block
reductions, and the V-cycle against one written from its plain formulas.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

sparse = pytest.importorskip("scipy.sparse")

from phasemin.diagnostics import Phase, _grad_sq_cells, free_boundary_cells
from phasemin.elliptic import (
    COARSEST_EXTRA_SWEEPS,
    DIRECT_CELLS,
    MIN_COARSE_CELLS,
    OMEGA,
    SWEEPS,
    _child_reduce,
    _levels,
    _pcg,
    _vcycle,
    harmonic_extension,
    solve_landscape,
    solve_phase,
)
from phasemin.functional import (
    FREE,
    PowerLaw,
    make_functional_spec,
    make_partition,
    make_phase_field,
)
from phasemin.grid import (
    distances,
    gradient_energy,
    index_box,
    laplacian_apply,
    make_field,
    make_grid,
    neighbor_sum,
    wall_slot_count,
)
from phasemin.minimize import _release_energy

CASES = [(dim, seed) for dim in (1, 2) for seed in range(4)]
REGION_KINDS = ("mask", "interior", "face", "cell", "strip")
MG_CASES = [
    (dim, kind, seed) for dim in (1, 2) for kind in REGION_KINDS for seed in range(2)
]


def assemble(grid, region, coeff):
    """Sparse ``-lap + coeff`` on the boolean cell set ``region``, zero outside."""
    h2 = grid.spacing**2
    shape = grid.shape
    rows, cols, vals = [], [], []
    for cell in itertools.product(*(range(n) for n in shape)):
        if not region[cell]:
            continue
        k = np.ravel_multi_index(cell, shape)
        diag = coeff[cell]
        for axis in range(grid.dim):
            for step in (-1, 1):
                nbr = list(cell)
                nbr[axis] += step
                nbr = tuple(nbr)
                if not 0 <= nbr[axis] < shape[axis] or not grid.mask[nbr]:
                    diag += 2.0 / h2
                    continue
                diag += 1.0 / h2
                if region[nbr]:
                    rows.append(k)
                    cols.append(np.ravel_multi_index(nbr, shape))
                    vals.append(-1.0 / h2)
        rows.append(k)
        cols.append(k)
        vals.append(diag)
    n = grid.num_cells
    return sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))


def slots(grid, cell):
    """``(neighbor, is_wall)`` for each of the cell's ``2 * dim`` face slots."""
    for axis in range(grid.dim):
        for step in (-1, 1):
            nbr = list(cell)
            nbr[axis] += step
            nbr = tuple(nbr)
            inside = 0 <= nbr[axis] < grid.shape[axis]
            yield nbr, not inside or not grid.mask[nbr]


def random_grid(dim, seed):
    rng = np.random.default_rng(seed)
    if dim == 1:
        shape = (int(rng.integers(5, 20)),)
    else:
        shape = tuple(int(s) for s in rng.integers(3, 8, size=dim))
    mask = rng.random(shape) < 0.8
    mask.flat[rng.integers(mask.size)] = True
    return make_grid(dim, shape, float(rng.uniform(0.05, 0.5)), mask=mask), rng


def restricted(a, keep):
    """Rows and columns of ``a`` on the flat cell set ``keep``."""
    idx = np.flatnonzero(keep.ravel())
    return a[idx][:, idx].toarray()


def odd_span(rng, n, at_face):
    """An odd-length index range of ``0..n-1``, at the low face or inside."""
    length = 2 * int(rng.integers(1, (n - 1) // 2)) + 1
    start = 0 if at_face else int(rng.integers(1, n - length))
    return slice(start, start + length)


def multigrid_case(dim, kind, seed):
    """A masked grid, a solve region whose bounding box has odd sides, a coefficient.

    ``mask``: the whole mask, holes included, touching every box face;
    ``interior``: the mask on an inner box; ``face``: a box at the low box
    faces with extra holes; ``cell``: one cell; ``strip``: a run of cells
    with no holes, one cell wide in 2D.
    """
    rng = np.random.default_rng(1000 * dim + 10 * REGION_KINDS.index(kind) + seed)
    sides = rng.integers(10, 30, size=1) if dim == 1 else rng.integers(5, 12, size=2)
    shape = tuple(2 * int(k) + 1 for k in sides)
    mask = rng.random(shape) < 0.9
    box = tuple(odd_span(rng, n, kind == "face") for n in shape)
    if kind == "mask":
        box = tuple(slice(0, n) for n in shape)
    elif kind == "cell":
        box = tuple(slice(k, k + 1) for k in (int(rng.integers(n)) for n in shape))
    elif kind == "strip" and dim == 2:
        thin = seed % 2
        box = tuple(
            slice(s.start, s.start + 1) if axis == thin else s
            for axis, s in enumerate(box)
        )
    inside = np.zeros(shape, dtype=bool)
    inside[box] = True
    region = inside & mask
    if kind == "face":
        region &= rng.random(shape) < 0.85
    if kind in ("cell", "strip"):
        region = inside
    for corner in ((s.start for s in box), (s.stop - 1 for s in box)):
        region[tuple(corner)] = True
    grid = make_grid(dim, shape, float(rng.uniform(0.05, 0.5)), mask=mask | region)
    coeff = rng.uniform(0.0, 3.0, size=shape) if seed % 2 else np.zeros(shape)
    return grid, region, coeff, rng


def precondition(levels, v):
    """The V-cycle applied to a box-shaped vector that is zero off the region."""
    levels[0].rhs[...] = v
    _vcycle(levels)
    return levels[0].out.copy()


@pytest.mark.parametrize("dim,kind,seed", MG_CASES)
def test_vcycle_is_symmetric_positive_definite(dim, kind, seed):
    grid, region, coeff, rng = multigrid_case(dim, kind, seed)
    box = index_box(region)
    levels = _levels(wall_slot_count(grid)[box], grid.spacing, region[box], coeff[box])
    inside = region[box]
    assert inside.shape == tuple(s.stop - s.start for s in box)
    assert all(n % 2 == 1 for n in inside.shape)
    if kind == "mask":
        assert len(levels) >= 2
    for _ in range(5):
        a = np.where(inside, rng.normal(size=inside.shape), 0.0)
        b = np.where(inside, rng.normal(size=inside.shape), 0.0)
        ma, mb = precondition(levels, a), precondition(levels, b)
        assert np.all(ma[~inside] == 0.0)
        ama = float(np.sum(a * ma))
        assert ama > 0.0
        assert abs(float(np.sum(a * mb)) - float(np.sum(b * ma))) <= 1e-12 * ama

    columns = []
    for k in np.flatnonzero(inside.ravel()):
        e = np.zeros(inside.size)
        e[k] = 1.0
        columns.append(precondition(levels, e.reshape(inside.shape))[inside])
    m = np.stack(columns, axis=1)
    assert np.allclose(m, m.T, rtol=0.0, atol=1e-12 * np.max(np.abs(m)))
    assert np.linalg.eigvalsh(0.5 * (m + m.T))[0] > 0.0


def block_view(a, coarse):
    """``a`` split into (coarse cell, child) axis pairs, odd trailing layer dropped."""
    even = tuple(slice(0, 2 * n) for n in coarse)
    return a[even].reshape([m for n in coarse for m in (n, 2)])


@st.composite
def coarsening_case(draw):
    dim = draw(st.sampled_from((1, 2)))
    shape = tuple(draw(st.integers(2, 9)) for _ in range(dim))
    size = int(np.prod(shape))
    value = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from((0.0, -0.0)),
    )
    scale = st.one_of(st.just(0.0), st.floats(1e-300, 1e300))
    a = np.array(draw(st.lists(value, min_size=size, max_size=size))).reshape(shape)
    c = np.array(draw(st.lists(scale, min_size=size, max_size=size))).reshape(shape)
    m = np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size)))
    return a, c, m.reshape(shape)


@settings(max_examples=300, deadline=None)
@given(coarsening_case())
def test_child_reduce_matches_block_reductions(case):
    """The strided child reductions against numpy's block reductions."""
    a, c, m = case
    coarse = tuple(n // 2 for n in a.shape)
    axes = tuple(range(1, 2 * a.ndim, 2))
    b = block_view(a, coarse)
    with np.errstate(over="ignore", invalid="ignore"):
        got = _child_reduce(np.add, a, coarse)
        want = b.sum(axis=axes)
        if a.ndim == 1:
            pairs = b[:, 0] + b[:, 1]
        else:
            pairs = (b[:, 0, :, 0] + b[:, 0, :, 1]) + (b[:, 1, :, 0] + b[:, 1, :, 1])
    assert got.tobytes() == pairs.tobytes()
    # numpy adds by the same pairs, bit for bit up to the sign of zero
    # (its sum starts from +0.0), except with one coarse cell along the
    # last axis of a 2D box: there it adds the four children in sequence
    numpy_pairs = a.ndim == 1 or coarse[-1] > 1
    if numpy_pairs:
        assert np.array_equal(got, want, equal_nan=True)
    got = _child_reduce(np.add, c * 0.5**c.ndim, coarse)
    mean = block_view(c, coarse).mean(axis=axes)
    assert np.allclose(got, mean, rtol=1e-15, atol=0.0)
    if numpy_pairs:
        assert got.tobytes() == mean.tobytes()
    got = _child_reduce(np.logical_and, m, coarse)
    assert np.array_equal(got, block_view(m, coarse).all(axis=axes))


def reference_vcycle(grid, region, coeff, b):
    """One V-cycle on the box of ``region`` from the plain formulas.

    Levels come from numpy reductions over ``(n0, 2, n1, 2)`` block views:
    the coarse region is ``all`` of the children, walls are the child sum
    over ``2**(dim-1)`` and the coefficient is the child mean.  A sweep is
    ``x += OMEGA * (b - A x) / D``, restriction is the child mean and
    prolongation copies to the children; every vector is zero off the region.
    A coarsest level of at most ``MIN_COARSE_CELLS`` region cells is solved
    exactly, on its operator assembled from unit vectors.
    """
    box = index_box(region)
    dim = grid.dim
    region, coeff = region[box], coeff[box]
    walls = wall_slot_count(grid)[box].astype(float)
    h2 = grid.spacing**2

    def level(region, walls, coeff, h2):
        return region, np.where(region, (2 * dim + walls) / h2 + coeff, 1.0), h2

    axes = tuple(range(1, 2 * dim, 2))
    levels = [level(region, walls, coeff, h2)]
    while min(region.shape) > 2 and np.count_nonzero(region) > MIN_COARSE_CELLS:
        coarse = tuple(n // 2 for n in region.shape)
        region = block_view(region, coarse).all(axis=axes)
        if not np.any(region):
            break
        walls = block_view(walls, coarse).sum(axis=axes) / 2 ** (dim - 1)
        coeff = block_view(coeff, coarse).mean(axis=axes)
        h2 *= 4.0
        levels.append(level(region, walls, coeff, h2))

    def apply(k, v):
        region, diag, h2 = levels[k]
        return np.where(region, diag * v - neighbor_sum(v) / h2, 0.0)

    def smooth(k, b, x, sweeps):
        for _ in range(sweeps):
            x = x + OMEGA * (b - apply(k, x)) / levels[k][1]
        return x

    def cycle(k, b):
        region = levels[k][0]
        if k == len(levels) - 1 and np.count_nonzero(region) <= MIN_COARSE_CELLS:
            cells = np.flatnonzero(region)
            units = np.eye(region.size)[cells].reshape((-1,) + region.shape)
            a = np.stack([apply(k, e).ravel()[cells] for e in units], axis=1)
            x = np.zeros(region.size)
            x[cells] = np.linalg.solve(a, b.ravel()[cells])
            return x.reshape(region.shape)
        x = OMEGA * b / levels[k][1]
        if k == len(levels) - 1:
            return smooth(k, b, x, 2 * SWEEPS + COARSEST_EXTRA_SWEEPS - 1)
        x = smooth(k, b, x, SWEEPS - 1)
        region = levels[k + 1][0]
        r = block_view(b - apply(k, x), region.shape).mean(axis=axes)
        correction = cycle(k + 1, np.where(region, r, 0.0))
        block_view(x, region.shape)[...] += correction.reshape(
            [m for n in region.shape for m in (n, 1)]
        )
        return smooth(k, b, x, SWEEPS)

    return len(levels), cycle(0, b)


@pytest.mark.parametrize("dim,kind,seed", MG_CASES)
def test_vcycle_matches_reference(dim, kind, seed):
    grid, region, coeff, rng = multigrid_case(dim, kind, seed)
    box = index_box(region)
    levels = _levels(wall_slot_count(grid)[box], grid.spacing, region[box], coeff[box])
    inside = region[box]
    for _ in range(3):
        b = np.where(inside, rng.normal(size=inside.shape), 0.0)
        depth, want = reference_vcycle(grid, region, coeff, b)
        assert len(levels) == depth
        got = precondition(levels, b)
        assert np.all(got[~inside] == 0.0)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("dim,kind,seed", MG_CASES)
def test_cropped_pcg_residual(dim, kind, seed):
    grid, region, coeff, rng = multigrid_case(dim, kind, seed)
    rhs = rng.uniform(-1.0, 1.0, size=grid.shape)
    x0 = rng.normal(size=grid.shape) if seed % 2 else None
    x, res, _ = _pcg(wall_slot_count(grid), grid.spacing, region, coeff, rhs, 1e-12, x0)
    assert x.shape == grid.shape
    assert np.all(x[~region] == 0.0)
    a = assemble(grid, region, coeff)
    b = np.where(region, rhs, 0.0).ravel()
    residual = np.linalg.norm(a @ x.ravel() - b) / np.linalg.norm(b)
    assert residual <= 1e-10
    assert res <= 1e-10


def extension_residual(grid, inner, data, window):
    """Relative residual of ``harmonic_extension`` on the assembled system.

    With ``d`` the data zeroed on the inner set R, the extension ``x`` solves
    ``A_R x = -(A_mask d)[R]``, both operators assembled with zero coefficient.
    Holes and walls can enclose R, leaving ``b = 0``; the residual is then
    absolute.
    """
    box = tuple(
        slice(max(int(idx.min()) - 1, 0), int(idx.max()) + 2) if window else slice(None)
        for idx in np.nonzero(inner)
    )
    (x,) = harmonic_extension(grid, box, inner[box], data[box][None])
    outside = np.where(inner, 0.0, data).ravel()
    b = -(assemble(grid, grid.mask, np.zeros(grid.shape)) @ outside)[inner.ravel()]
    a_inner = restricted(assemble(grid, inner, np.zeros(grid.shape)), inner)
    return np.linalg.norm(a_inner @ x - b) / (np.linalg.norm(b) or 1.0)


def extension_case(dim, seed):
    """A masked grid and a ball of masked cells cut by box faces and holes."""
    rng = np.random.default_rng(100 + seed)
    shape = (int(rng.integers(20, 60)),) if dim == 1 else (
        int(rng.integers(16, 32)), int(rng.integers(16, 32))
    )
    mask = rng.random(shape) >= 0.15
    grid = make_grid(dim, shape, 1.0 / shape[0], mask=mask)
    lo = np.zeros(dim)
    hi = np.asarray(shape) * grid.spacing
    x0 = rng.uniform(lo, hi) if seed % 2 else lo + 0.1 * (hi - lo)
    inner = mask & (distances(grid, x0) < rng.uniform(0.15, 0.3) * np.max(hi))
    inner.flat[np.flatnonzero(mask.ravel())[0]] = True
    return grid, inner, rng


@pytest.mark.parametrize("dim,seed", CASES)
@pytest.mark.parametrize("window", [False, True])
def test_harmonic_extension_direct_solve(dim, seed, window):
    grid, inner, rng = extension_case(dim, seed)
    assert np.count_nonzero(inner) <= DIRECT_CELLS
    data = np.where(grid.mask, rng.normal(size=grid.shape), 0.0)
    assert extension_residual(grid, inner, data, window) <= 1e-12


def test_harmonic_extension_above_direct_cells_runs_mgcg():
    grid = make_grid(2, (128, 128), 1 / 128)
    inner = distances(grid, np.array([0.45, 0.5])) < 0.75 * 0.3
    assert np.count_nonzero(inner) > DIRECT_CELLS
    rng = np.random.default_rng(7)
    data = rng.uniform(0.0, 1.0, size=grid.shape)
    assert extension_residual(grid, inner, data, True) <= 1e-10


@pytest.mark.parametrize("dim,seed", CASES)
def test_harmonic_extension_columns_match_single_solves(dim, seed):
    # one dense solve with three right-hand sides against three solves
    grid, inner, rng = extension_case(dim, seed)
    box = index_box(inner)
    box = tuple(slice(max(s.start - 1, 0), s.stop + 1) for s in box)
    data = np.where(grid.mask, rng.normal(size=(3,) + grid.shape), 0.0)[(slice(None), *box)]
    got = harmonic_extension(grid, box, inner[box], data)
    assert got.shape == (3, np.count_nonzero(inner))
    for row, d in zip(got, data):
        (one,) = harmonic_extension(grid, box, inner[box], d[None])
        assert np.max(np.abs(row - one)) <= 1e-15 * np.max(np.abs(one))


def test_harmonic_extension_columns_above_direct_cells():
    # MGCG runs once per right-hand side, so each row is the one-column solve
    grid = make_grid(2, (128, 128), 1 / 128)
    inner = distances(grid, np.array([0.45, 0.5])) < 0.75 * 0.3
    box = index_box(distances(grid, np.array([0.45, 0.5])) < 0.3 + grid.spacing)
    rng = np.random.default_rng(8)
    data = rng.uniform(0.0, 1.0, size=(2,) + grid.shape)[(slice(None), *box)]
    got = harmonic_extension(grid, box, inner[box], data)
    assert got.shape[1] > DIRECT_CELLS
    for row, d in zip(got, data):
        assert np.array_equal(row, harmonic_extension(grid, box, inner[box], d[None])[0])


@pytest.mark.parametrize("dim,seed", CASES)
def test_laplacian_apply_matches_assembled(dim, seed):
    grid, rng = random_grid(dim, seed)
    a = assemble(grid, grid.mask, np.zeros(grid.shape))
    v = make_field(grid, rng.normal(size=grid.shape))
    expected = -(a @ v.values.ravel()).reshape(grid.shape)
    got = laplacian_apply(v).values
    scale = np.max(np.abs(expected)) + 1.0
    assert np.max(np.abs(got - expected)) <= 1e-12 * scale


@pytest.mark.parametrize("dim,seed", CASES)
def test_gradient_energy_is_the_quadratic_form(dim, seed):
    grid, rng = random_grid(dim, seed)
    a = assemble(grid, grid.mask, np.zeros(grid.shape))
    v = make_field(grid, rng.normal(size=grid.shape)).values.ravel()
    form = grid.spacing**dim * float(v @ (a @ v))
    assert gradient_energy(make_field(grid, v.reshape(grid.shape))) == pytest.approx(
        form, rel=1e-12
    )


@pytest.mark.parametrize("dim,seed", CASES)
def test_region_operator_symmetric_positive_definite(dim, seed):
    grid, rng = random_grid(dim, seed)
    region = grid.mask & (rng.random(grid.shape) < 0.7)
    region.flat[np.flatnonzero(grid.mask.ravel())[0]] = True
    coeff = rng.uniform(0.0, 3.0, size=grid.shape)
    dense = restricted(assemble(grid, region, coeff), region)
    assert np.array_equal(dense, dense.T)
    assert np.linalg.eigvalsh(dense)[0] > 0.0

    # the package Laplacian, probed column by column on the mask
    cells = np.flatnonzero(grid.mask.ravel())
    columns = []
    for k in cells:
        e = np.zeros(grid.num_cells)
        e[k] = 1.0
        lap = laplacian_apply(make_field(grid, e.reshape(grid.shape)))
        columns.append(-lap.values.ravel()[cells])
    probed = np.stack(columns, axis=1)
    reference = restricted(assemble(grid, grid.mask, np.zeros(grid.shape)), grid.mask)
    assert np.allclose(probed, probed.T, rtol=0.0, atol=1e-9 * np.max(np.abs(probed)))
    assert np.allclose(probed, reference, rtol=1e-12, atol=0.0)
    assert np.linalg.eigvalsh(0.5 * (probed + probed.T))[0] > 0.0


@pytest.mark.parametrize("dim,seed", CASES)
def test_solve_phase_residual(dim, seed):
    grid, rng = random_grid(dim, seed)
    labels = np.where(grid.mask, rng.integers(0, 3, size=grid.shape), 0)
    labels.flat[np.flatnonzero(grid.mask.ravel())[0]] = 1
    w = make_partition(grid, 2, labels)
    f = rng.uniform(0.0, 3.0, size=grid.shape)
    g = rng.uniform(-2.0, 2.0, size=grid.shape)
    spec = make_functional_spec(
        grid,
        [make_field(grid, f), 0.0],
        [make_field(grid, g), 1.0],
        FREE,
        PowerLaw(0.1, 0.0),
    )
    region = labels == 1
    x = solve_phase(spec, w, 1, tol=1e-12).values
    assert np.all(x[~region] == 0.0)
    a = assemble(grid, region, spec.f[0].values)
    b = np.where(region, 0.5 * spec.g[0].values, 0.0).ravel()
    residual = np.linalg.norm(a @ x.ravel() - b) / np.linalg.norm(b)
    assert residual <= 1e-10


@pytest.mark.parametrize("dim,seed", CASES)
def test_solve_landscape_residual(dim, seed):
    grid, rng = random_grid(dim, seed)
    potential = make_field(grid, rng.uniform(0.0, 5.0, size=grid.shape))
    x = solve_landscape(grid, potential, tol=1e-12).values
    a = assemble(grid, grid.mask, potential.values)
    b = grid.mask.astype(float).ravel()
    residual = np.linalg.norm(a @ x.ravel() - b) / np.linalg.norm(b)
    assert residual <= 1e-10


@pytest.mark.parametrize("dim,seed", CASES)
def test_release_energy_matches_zeroing_one_cell(dim, seed):
    grid, rng = random_grid(dim, seed)
    a = assemble(grid, grid.mask, np.zeros(grid.shape))
    hn = grid.spacing**dim
    v = make_field(grid, rng.normal(size=grid.shape)).values
    release = _release_energy(grid, v)

    def energy(vals):
        flat = vals.ravel()
        return hn * float(flat @ (a @ flat))

    base = energy(v)
    for cell in zip(*np.nonzero(grid.mask)):
        zeroed = v.copy()
        zeroed[cell] = 0.0
        expected = energy(zeroed) - base
        tol = 1e-12 * (1.0 + abs(base))
        assert release[cell] == pytest.approx(expected, rel=1e-9, abs=tol)


def brute_force_energy(grid, v, region):
    """Edge-sum energy over edges with a masked endpoint in ``region``.

    An edge between masked cells counts if either end is in the region; a
    wall slot (box face or unmasked neighbor) counts if its masked cell is.
    """
    total = 0.0
    for cell in zip(*np.nonzero(grid.mask)):
        for nbr, wall in slots(grid, cell):
            if wall:
                if region[cell]:
                    total += 2.0 * v[cell] ** 2
            elif nbr > cell and (region[cell] or region[nbr]):
                total += (v[nbr] - v[cell]) ** 2
    return total * grid.spacing ** (grid.dim - 2)


@pytest.mark.parametrize("dim,seed", CASES)
def test_gradient_energy_region_matches_edge_brute_force(dim, seed):
    grid, rng = random_grid(dim, seed)
    f = make_field(grid, rng.normal(size=grid.shape))
    everywhere = np.ones(grid.shape, dtype=bool)
    assert gradient_energy(f) == pytest.approx(
        brute_force_energy(grid, f.values, everywhere), rel=1e-12
    )
    for _ in range(4):
        # the region reaches into the holes of the mask
        region = rng.random(grid.shape) < 0.5
        assert gradient_energy(f, region=region) == pytest.approx(
            brute_force_energy(grid, f.values, region), rel=1e-12
        )


@pytest.mark.parametrize("dim,seed", CASES)
def test_wall_slot_count_matches_cell_loop(dim, seed):
    grid, _ = random_grid(dim, seed)
    expected = np.zeros(grid.shape, dtype=np.int64)
    for cell in zip(*np.nonzero(grid.mask)):
        expected[cell] = sum(wall for _, wall in slots(grid, cell))
    assert np.array_equal(wall_slot_count(grid), expected)


@pytest.mark.parametrize("dim,seed", CASES)
def test_free_boundary_cells_match_cell_loop(dim, seed):
    grid, rng = random_grid(dim, seed)
    f = make_field(grid, rng.normal(size=grid.shape) * (rng.random(grid.shape) < 0.7))
    for sign in (1, -1):
        support = sign * f.values > 0.0
        expected = np.zeros(grid.shape, dtype=bool)
        for cell in zip(*np.nonzero(support)):
            expected[cell] = any(
                not wall and not support[nbr] for nbr, wall in slots(grid, cell)
            )
        u = make_phase_field(f.grid, [f])
        assert np.array_equal(free_boundary_cells(u, Phase(1, sign)), expected)


@pytest.mark.parametrize("dim,seed", CASES)
def test_grad_sq_cells_split_the_gradient_energy(dim, seed):
    grid, rng = random_grid(dim, seed)
    f = make_field(grid, rng.normal(size=grid.shape))
    v = f.values
    expected = np.zeros(grid.shape)
    for cell in zip(*np.nonzero(grid.mask)):
        for nbr, wall in slots(grid, cell):
            share = 2.0 * v[cell] ** 2 if wall else 0.5 * (v[nbr] - v[cell]) ** 2
            expected[cell] += share
    expected /= grid.spacing**2
    gsq = _grad_sq_cells(grid, v)
    assert np.allclose(gsq, expected, rtol=1e-12, atol=0.0)
    assert grid.cell_volume * float(np.sum(gsq)) == pytest.approx(
        gradient_energy(f), rel=1e-12
    )
