"""Constant fields: one number in memory, and the same results as full arrays.

``make_field(grid, c)`` stores a scalar ``c`` as a read-only zero-stride
view when every cell is masked in; ``cell_marginals`` does the same for a
power law's marginals.  numpy may order a reduction over a stride-0 operand
differently, so every routine that reads coefficients, weights or marginals
is run on a spec built from scalars and on the same spec built from full
arrays, and the results must agree bit for bit.
"""

from __future__ import annotations

import importlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phasemin.competitors import audit, audit_report_csv, seeded_probes
from phasemin.diagnostics import el_interface_check
from phasemin.elliptic import solve_landscape, solve_phase
from phasemin.functional import (
    FREE,
    NONNEGATIVE,
    PerRegion,
    PowerLaw,
    cell_marginals,
    cell_set_deltas,
    make_functional_spec,
    make_partition,
    make_phase_field,
    total_by_parts,
)
from phasemin.grid import bounding_box, make_field, make_grid
from phasemin.minimize import update_partition

# the package exports the function ``minimize`` under the module's name
COMPETITORS = importlib.import_module("phasemin.competitors")
MINIMIZE = importlib.import_module("phasemin.minimize")


def bits(x) -> bytes:
    """The bytes of a float or a float array: equal means bit-identical."""
    return np.ascontiguousarray(x, dtype=float).tobytes()


def outcome(fn, *args):
    """``repr`` of a result, or the text of the ValueError it raises."""
    try:
        return repr(fn(*args))
    except ValueError as err:
        return f"ValueError: {err}"


class TestConstantFieldCost:
    @pytest.mark.parametrize("shape", [(7,), (5, 6)])
    def test_scalar_is_a_read_only_zero_stride_view(self, shape):
        grid = make_grid(len(shape), shape, 0.125)
        values = make_field(grid, 2.5).values
        assert values.shape == shape
        assert values.strides == (0,) * len(shape)
        assert not values.flags.writeable
        assert np.all(values == 2.5)
        with pytest.raises(ValueError):
            values[0] = 1.0

    def test_scalar_on_a_masked_grid_is_zero_off_the_mask(self):
        mask = np.ones((5, 6), dtype=bool)
        mask[0, :3] = False
        grid = make_grid(2, (5, 6), 0.125, mask=mask)
        values = make_field(grid, -1.5).values
        assert np.all(values[mask] == -1.5)
        assert np.all(values[~mask] == 0.0)
        assert not values.flags.writeable
        with pytest.raises(ValueError, match="finite"):
            make_field(grid, np.nan)

    def test_power_law_marginals_are_views(self):
        grid = make_grid(2, (6, 6), 1 / 6)
        spec = make_functional_spec(grid, [0.0, 0.0], [1.0, 1.0], FREE, PowerLaw(0.1, 0.5))
        labels = np.where(np.arange(6)[:, None] < 3, 1, 2) * np.ones((6, 6), dtype=int)
        for lam in cell_marginals(spec, make_partition(grid, 2, labels)):
            assert lam.strides == (0, 0)
            assert not lam.flags.writeable

    def test_three_phase_scalar_spec_on_512_squared_retains_under_1_mb(self):
        grid = make_grid(2, (512, 512), 1 / 512)
        tracemalloc.start()
        try:
            spec = make_functional_spec(
                grid,
                [0.0, 0.5, 1.0],
                [2.0, 0.0, -1.0],
                NONNEGATIVE,
                PerRegion(tuple(make_field(grid, q) for q in (0.1, 0.2, -0.3))),
            )
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert spec.num_phases == 3
        # nine full 512**2 float64 arrays would retain 18.9 MB
        assert retained < 1_000_000


@st.composite
def twin_specs(draw):
    """One problem twice: coefficients, weights and the potential given as
    scalars, and as full arrays of the same values; plus a partition, a
    few cells with an edit of them, and a seed for probes.

    Grids are 1D or 2D, with or without a mask; phases (1 to 3) are free or
    nonnegative and priced by a power law or by per-region weights.
    """
    dim = draw(st.sampled_from([1, 2]))
    shape = tuple(draw(st.integers(6, 24 if dim == 1 else 12)) for _ in range(dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = None
    if draw(st.booleans()):
        mask = rng.random(shape) >= 0.15
        mask[tuple(s // 2 for s in shape)] = True
    grid = make_grid(dim, shape, 1.0 / shape[0], mask=mask)
    n = draw(st.integers(1, 3))
    num = st.floats(-4.0, 8.0, allow_nan=False, width=64)
    f = [draw(st.floats(0.0, 3.0, width=64)) for _ in range(n)]
    g = [draw(num) for _ in range(n)]
    signs = [draw(st.sampled_from([NONNEGATIVE, FREE])) for _ in range(n)]
    if draw(st.booleans()):
        q = [draw(st.floats(-1.0, 1.0, width=64)) for _ in range(n)]
        terms = (
            PerRegion(tuple(make_field(grid, c) for c in q)),
            PerRegion(tuple(make_field(grid, np.full(shape, c)) for c in q)),
        )
    else:
        law = PowerLaw(
            draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0)), draw(st.floats(0.5, 2.0))
        )
        terms = (law, law)

    def full(values):
        return [make_field(grid, np.full(shape, c)) for c in values]

    scalar = make_functional_spec(grid, f, g, signs, terms[0])
    arrays = make_functional_spec(grid, full(f), full(g), signs, terms[1])
    if draw(st.booleans()):  # stripes along axis 0, so phases meet at planes
        band = (np.arange(shape[0]) * n) // shape[0] + 1
        labels = band.reshape((-1,) + (1,) * (dim - 1)) * np.ones(shape, dtype=int)
    else:
        labels = rng.integers(0, n + 1, size=shape)
    w = make_partition(grid, n, labels)
    flat = np.sort(rng.choice(grid.num_cells, size=min(5, grid.num_cells), replace=False))
    cells = np.unravel_index(flat, shape)
    new_labels = rng.integers(0, n + 1, size=flat.size)
    return scalar, arrays, f[0], w, cells, new_labels, draw(st.integers(0, 100))


def solved_pair(spec, w):
    fields = [solve_phase(spec, w, i) for i in range(1, spec.num_phases + 1)]
    return make_phase_field(spec.grid, fields)


def contiguous_marginals(spec, w):
    return [np.array(lam) for lam in cell_marginals(spec, w)]


@settings(max_examples=100, deadline=None)
@given(twin_specs())
def test_scalar_and_array_specs_agree_bit_for_bit(case):
    scalar, arrays, potential, w, cells, new_labels, seed = case
    grid = scalar.grid
    u = solved_pair(scalar, w)
    u_arrays = solved_pair(arrays, w)
    for a, b in zip(u.fields, u_arrays.fields):
        assert bits(a.values) == bits(b.values)

    assert bits(total_by_parts(u, w, scalar)) == bits(total_by_parts(u, w, arrays))
    edited = [np.abs(f.values[cells]) for f in u.fields]
    star = (new_labels, [np.where(new_labels == i, v, 0.0) for i, v in enumerate(edited, 1)])
    deltas = [cell_set_deltas(spec, cells, (u, w), [star]) for spec in (scalar, arrays)]
    assert bits(deltas[0]) == bits(deltas[1])

    landscape = solve_landscape(grid, potential).values
    assert bits(landscape) == bits(solve_landscape(grid, arrays.f[0]).values)

    # cell_marginals gives a power law's marginals as views; the arrays spec
    # gets them as contiguous arrays
    swept = update_partition(scalar, u, w).labels
    with mock.patch.object(MINIMIZE, "cell_marginals", contiguous_marginals):
        assert np.array_equal(swept, update_partition(arrays, u, w).labels)

    lo, hi = bounding_box(grid)
    r = 0.1 * float(np.min(hi - lo))
    probes = seeded_probes(grid, 2, r, seed)
    report = audit_report_csv(audit(u, w, scalar, probes))
    with mock.patch.object(COMPETITORS, "cell_marginals", contiguous_marginals):
        assert report == audit_report_csv(audit(u, w, arrays, probes))

    center = (lo + hi) / 2
    r_fit = 0.45 * float(np.min(hi - lo))
    assert outcome(el_interface_check, u, w, scalar, center, r_fit) == outcome(
        el_interface_check, u, w, arrays, center, r_fit
    )


def test_el_interface_check_with_per_region_weights_agrees():
    # a two-phase interface at x = 1/2 that el_interface_check fits, priced
    # by constant per-region weights given as scalars and as full arrays
    grid = make_grid(2, (32, 32), 1 / 32)
    labels = np.where(np.arange(32)[:, None] < 16, 1, 2) * np.ones((32, 32), dtype=int)
    w = make_partition(grid, 2, labels)
    reports = []
    for weights in ((0.3, 0.5), [np.full(grid.shape, q) for q in (0.3, 0.5)]):
        spec = make_functional_spec(
            grid,
            [0.0, 0.0],
            [8.0, 8.0],
            NONNEGATIVE,
            PerRegion(tuple(make_field(grid, q) for q in weights)),
        )
        reports.append(el_interface_check(solved_pair(spec, w), w, spec, (0.5, 0.5), 0.3))
    assert repr(reports[0]) == repr(reports[1])
    assert all(np.isfinite(reports[0].el_residuals))
