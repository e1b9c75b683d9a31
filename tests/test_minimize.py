"""Unit tests for the alternating descent and the label sweep."""

from __future__ import annotations

import importlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from phasemin.elliptic import SolverError
from phasemin.functional import (
    FREE,
    NONNEGATIVE,
    PerRegion,
    PowerLaw,
    cell_marginals,
    energy,
    make_field,
    make_functional_spec,
    make_partition,
    make_phase_field,
    mass_term,
    region_volumes,
    restrict_support,
    total,
    total_by_parts,
    truncate_to_sign,
    volume_value,
)
from phasemin.grid import axis_centers, laplacian_apply, make_grid
from phasemin.minimize import (
    LOOSE_TOL,
    initial_partition,
    minimize,
    update_fields,
    update_partition,
    zero_set_fraction,
)
from phasemin.oracle import oracle_two_phase_1d

# the module, not the function that the package exports under the same name
minimize_module = importlib.import_module("phasemin.minimize")


def zero_fields(grid, n):
    return make_phase_field(grid, [np.zeros(grid.shape)] * n)


def exact_alternation(spec, init=None, max_outer=100, tol_j=1e-8, tol_solve=1e-8):
    """Reference loop: every outer cycle solves its fields at ``tol_solve``."""
    grid = spec.grid
    if init is None:
        w = initial_partition(grid, spec.num_phases)
        u = zero_fields(grid, spec.num_phases)
    else:
        u, w = init
        u = restrict_support(u, w)
    j = total(u, w, spec)
    slack = 1e-10 * (1.0 + abs(j))
    for _ in range(max_outer):
        u = update_fields(spec, w, u, tol_solve)
        j_fields = total(u, w, spec)
        w_new = update_partition(spec, u, w)
        u_new = restrict_support(u, w_new)
        j_new = total(u_new, w_new, spec)
        if j_new > j_fields + slack:
            u_new, w_new, j_new = u, w, j_fields
        same_partition = np.array_equal(w_new.labels, w.labels)
        u, w = u_new, w_new
        if same_partition or abs(j - j_new) <= tol_j * (1.0 + abs(j_new)):
            break
        j = j_new
    return u, w


class SolveLog:
    """Stands in for ``update_fields`` inside ``minimize`` and records each
    call's partition, tolerance and returned fields."""

    def __init__(self):
        self.calls = []

    def __call__(self, spec, w, u, tol=1e-8):
        fields = update_fields(spec, w, u, tol)
        self.calls.append((w, tol, fields))
        return fields

    def patch(self):
        return mock.patch.object(minimize_module, "update_fields", self)


def true_residuals(spec, w, u):
    """Per phase, ``||(-lap + f) u - g/2||`` on the field's nonzero cells over
    ``||g/2||`` on the phase's region of ``w``."""
    out = []
    for i, field in enumerate(u.fields, start=1):
        v = field.values
        nonzero = v != 0.0
        b = float(np.linalg.norm(0.5 * spec.g[i - 1].values[w.labels == i]))
        if not np.any(nonzero) or b == 0.0:
            out.append(0.0)
            continue
        res = (
            -laplacian_apply(field).values
            + spec.f[i - 1].values * v
            - 0.5 * spec.g[i - 1].values
        )
        out.append(float(np.linalg.norm(res[nonzero])) / b)
    return out


def mirrored_ramps(n):
    """Two phases with sources 8(1 - x) and 8x, lambda 0.05, Voronoi start."""
    grid = make_grid(2, (n, n), 1 / n)
    x = axis_centers(grid, 0)[:, None] * np.ones((1, n))
    spec = make_functional_spec(
        grid,
        [0.0, 0.0],
        [make_field(grid, 8 * (1 - x)), make_field(grid, 8 * x)],
        NONNEGATIVE,
        PowerLaw(0.05, 0.0),
    )
    w0 = initial_partition(grid, 2, [(0.25, 0.5), (0.75, 0.5)])
    return spec, (zero_fields(grid, 2), w0)


class TestInitialPartition:
    def test_stripes(self):
        grid = make_grid(1, (8,), 1 / 8)
        w = initial_partition(grid, 2)
        assert list(w.labels) == [1, 1, 1, 1, 2, 2, 2, 2]

    def test_voronoi(self):
        grid = make_grid(2, (16, 16), 1 / 16)
        w = initial_partition(grid, 2, seeds=[(0.25, 0.5), (0.75, 0.5)])
        assert np.all(w.labels[:8, :] == 1)
        assert np.all(w.labels[8:, :] == 2)

    def test_seed_count_mismatch(self):
        grid = make_grid(1, (8,), 1 / 8)
        with pytest.raises(ValueError):
            initial_partition(grid, 2, seeds=[(0.5,)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_seed(self, bad):
        grid = make_grid(2, (8, 8), 1 / 8)
        with pytest.raises(ValueError, match="finite"):
            initial_partition(grid, 2, seeds=[(bad, 0.5), (0.75, 0.5)])


class TestUpdateFields:
    def test_all_trash_gives_zero(self):
        grid = make_grid(1, (32,), 1 / 32)
        spec = make_functional_spec(grid, [0.0], [2.0], NONNEGATIVE, PowerLaw(0.1, 0.0))
        w = make_partition(grid, 1, np.zeros(grid.shape, dtype=int))
        u = update_fields(spec, w, zero_fields(grid, 1))
        assert np.all(u.fields[0].values == 0.0)

    def test_full_domain_parabola(self):
        grid = make_grid(1, (128,), 1 / 128)
        spec = make_functional_spec(grid, [0.0], [2.0], NONNEGATIVE, PowerLaw(0.0, 0.0))
        w = initial_partition(grid, 1)
        u = update_fields(spec, w, zero_fields(grid, 1), 1e-10)
        x = axis_centers(grid, 0)
        assert np.max(np.abs(u.fields[0].values - x * (1 - x) / 2)) < 1e-4

    def test_idempotent_and_descending(self):
        grid = make_grid(2, (24, 24), 1 / 24)
        spec = make_functional_spec(
            grid, [0.0, 0.0], [2.0, 1.0], NONNEGATIVE, PowerLaw(0.01, 0.0)
        )
        w = initial_partition(grid, 2)
        u0 = zero_fields(grid, 2)
        j0 = total(u0, w, spec)
        u1 = update_fields(spec, w, u0, 1e-10)
        j1 = total(u1, w, spec)
        assert j1 <= j0 + 1e-12
        u2 = update_fields(spec, w, u1, 1e-10)
        j2 = total(u2, w, spec)
        assert abs(j2 - j1) < 1e-9


class TestUpdatePartition:
    def test_zero_fields_powerlaw_all_trash(self):
        grid = make_grid(2, (16, 16), 1 / 16)
        spec = make_functional_spec(
            grid, [0.0, 0.0], [1.0, 1.0], NONNEGATIVE, PowerLaw(0.3, 0.0)
        )
        w = initial_partition(grid, 2)
        w2 = update_partition(spec, zero_fields(grid, 2), w)
        assert np.all(w2.labels == 0)

    def test_zero_fields_negative_weight_fills(self):
        grid = make_grid(2, (16, 16), 1 / 16)
        q1 = make_field(grid, np.full(grid.shape, -1.0))
        q2 = make_field(grid, np.zeros(grid.shape))
        spec = make_functional_spec(
            grid, [0.0, 0.0], [1.0, 1.0], NONNEGATIVE, PerRegion((q1, q2))
        )
        w = make_partition(grid, 2, np.zeros(grid.shape, dtype=int))
        w2 = update_partition(spec, zero_fields(grid, 2), w)
        assert np.all(w2.labels == 1)

    def test_direct_cost_comparison_keeps_label(self):
        # a cell carrying u=0.3 with g=2, lambda=0.1 stays in its phase:
        # the bulk gain outweighs both the trash and the switch options
        grid = make_grid(1, (3,), 1.0)
        spec = make_functional_spec(
            grid, [0.0, 0.0], [2.0, 2.0], NONNEGATIVE, PowerLaw(0.1, 0.0)
        )
        u = make_phase_field(grid, [np.full(grid.shape, 0.3), np.zeros(grid.shape)])
        w = make_partition(grid, 2, np.full(grid.shape, 1))
        w2 = update_partition(spec, u, w)
        assert np.all(w2.labels == 1)

    def test_zero_value_cells_leave_a_costly_phase(self):
        grid = make_grid(1, (10,), 0.1)
        x = axis_centers(grid, 0)
        u1 = np.where((x > 0.45) & (x < 0.85), 1.0, 0.0)
        spec = make_functional_spec(grid, [0.0], [2.0], NONNEGATIVE, PowerLaw(0.05, 0.0))
        u = make_phase_field(grid, [u1])
        w = make_partition(grid, 1, np.full(grid.shape, 1))
        w2 = update_partition(spec, u, w)
        # support cells stay (their keep cost is very negative); all
        # zero-valued cells are trashed (their keep cost is lambda * h > 0)
        assert np.array_equal(w2.labels == 1, u1 > 0)

    def test_slope_law_erosion(self):
        """A unit-slope tent keeps its edge cells iff marginal <= slope^2."""
        grid = make_grid(1, (64,), 1 / 64)
        x = axis_centers(grid, 0)
        tent = np.maximum(0.0, np.minimum(x - 0.25, 0.75 - x))
        support = tent > 0

        def sweep(lam):
            spec = make_functional_spec(
                grid, [0.0], [0.0], NONNEGATIVE, PowerLaw(lam, 0.0)
            )
            u = make_phase_field(grid, [tent])
            w = make_partition(grid, 1, np.where(support, 1, 0))
            return update_partition(spec, u, w)

        keep = sweep(0.5)  # 0.5 < slope^2 = 1: retained
        assert np.array_equal(keep.labels == 1, support)
        erode = sweep(2.0)  # 2.0 > 1: both edge cells leave
        assert np.count_nonzero(erode.labels == 1) == np.count_nonzero(support) - 2
        assert erode.labels[np.argmax(support)] == 0


@st.composite
def nonnegative_marginal_sweeps(draw):
    """A random 1D/2D pair with holes whose volume marginals are all >= 0.

    Phases (1 to 3) are free or nonnegative; fields of either sign live on
    their own region.  The volume term is a power law or per-region weights
    >= 0, with zero coefficients and zero weights drawn often, so that
    moving to a phase can tie with moving to trash.
    """
    dim = draw(st.sampled_from([1, 2]))
    if dim == 1:
        shape = (draw(st.integers(3, 40)),)
    else:
        shape = (draw(st.integers(3, 16)), draw(st.integers(3, 16)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.random(shape) >= draw(st.sampled_from([0.0, 0.1, 0.3]))
    if not mask.any():  # a grid needs a masked cell
        mask.flat[0] = True
    grid = make_grid(dim, shape, 1.0 / shape[0], mask=mask)
    n = draw(st.integers(1, 3))
    signs = [draw(st.sampled_from([FREE, NONNEGATIVE])) for _ in range(n)]
    if draw(st.booleans()):
        volume = PowerLaw(
            draw(st.sampled_from([0.0, 0.05, 1.0])),
            draw(st.sampled_from([0.0, 0.5])),
            draw(st.floats(0.5, 2.0)),
        )
    else:
        volume = PerRegion(tuple(
            make_field(grid, rng.uniform(0.0, 0.5, shape) * (rng.random(shape) < 0.7))
            for _ in range(n)
        ))
    f = [make_field(grid, rng.uniform(0.0, 3.0, shape)) for _ in range(n)]
    g = [make_field(grid, rng.normal(scale=5.0, size=shape)) for _ in range(n)]
    spec = make_functional_spec(grid, f, g, signs, volume)
    w = make_partition(grid, n, rng.integers(0, n + 1, shape))
    fields = [
        rng.normal(size=shape) * (w.labels == i) * (rng.random(shape) < 0.8)
        for i in range(1, n + 1)
    ]
    return spec, make_phase_field(grid, fields), w


class TestSupportsOnlyErode:
    """With every volume marginal >= 0, a sweep never grows a support: a cell
    of phase i pays the release to go to trash and the release plus
    ``lam_l * h**n`` to go to phase l, ties going to trash, and a trash cell
    pays 0 to stay against ``lam_l * h**n`` to join phase l."""

    @settings(max_examples=200, deadline=None)
    @given(nonnegative_marginal_sweeps())
    def test_new_label_is_old_label_or_trash(self, case):
        spec, u, w = case
        new = update_partition(spec, u, w).labels
        assert np.all((new == w.labels) | (new == 0))


class TestSeedDependence:
    """The 1D mirrored-ramp run ends where its seeds put the interface.

    The sweep only erodes supports, so the two-phase interface stays on the
    Voronoi face of the seeds, and every shifted seed pair below ends one
    cycle later at a lower J than the shipped split at 0.5.
    """

    CASES = [
        # seeds, interface, J: measured, all after 1 outer cycle
        ((0.25, 0.75), 0.5, -0.1406420),
        ((0.2, 0.75), 0.4765625, -0.1411271),
        ((0.1, 0.8), 0.44921875, -0.1429149),
        ((0.3, 0.9), 0.6015625, -0.1496631),
    ]

    def run(self, seeds):
        grid = make_grid(1, (256,), 1 / 256)
        x = axis_centers(grid, 0)
        spec = make_functional_spec(
            grid,
            [0.0, 0.0],
            [make_field(grid, 8 * (1 - x)), make_field(grid, 8 * x)],
            NONNEGATIVE,
            PowerLaw(0.05, 0.0),
        )
        w0 = initial_partition(grid, 2, [(s,) for s in seeds])
        u, w, rep = minimize(spec, init=(zero_fields(grid, 2), w0))
        ones = np.flatnonzero(w.labels == 1)
        twos = np.flatnonzero(w.labels == 2)
        assert ones.max() + 1 == twos.min()
        return (x[ones.max()] + x[twos.min()]) / 2, rep

    @pytest.mark.parametrize("seeds, interface, j", CASES)
    def test_interface_stays_on_the_voronoi_face(self, seeds, interface, j):
        got, rep = self.run(seeds)
        assert rep.iterations == 1 and rep.converged
        assert got == interface
        assert abs(got - sum(seeds) / 2) <= 1 / 512
        assert rep.j_history[-1] == pytest.approx(j, abs=1e-7)

    def test_shifted_seeds_end_lower(self):
        shipped = self.run(self.CASES[0][0])[1].j_history[-1]
        for seeds, _, _ in self.CASES[1:]:
            assert self.run(seeds)[1].j_history[-1] < shipped


class TestMinimize:
    def test_no_source_collapses_to_empty(self):
        grid = make_grid(1, (64,), 1 / 64)
        spec = make_functional_spec(grid, [0.0], [0.0], NONNEGATIVE, PowerLaw(0.2, 0.0))
        u, w, rep = minimize(spec)
        assert np.all(u.fields[0].values == 0.0)
        assert np.all(w.labels == 0)
        assert rep.j_history[-1] == 0.0
        assert rep.converged

    def test_one_phase_full_fill(self):
        grid = make_grid(1, (256,), 1 / 256)
        spec = make_functional_spec(grid, [0.0], [4.0], NONNEGATIVE, PowerLaw(0.25, 0.0))
        u, w, rep = minimize(spec, tol_solve=1e-10)
        assert np.all(w.labels == 1)
        # scan oracle with a silent second phase gives the one-phase table
        res = oracle_two_phase_1d(lambda t: 4 + 0 * t, lambda t: 0 * t, 0.25, 0.0, 2048)
        assert res.j_phase1_full == pytest.approx(-1 / 12, abs=1e-6)
        assert rep.j_history[-1] == pytest.approx(res.j_phase1_full, abs=2 / 256)
        assert rep.converged

    def test_negative_weight_fills_domain(self):
        grid = make_grid(2, (16, 16), 1 / 16)
        q = make_field(grid, np.full(grid.shape, -0.5))
        spec = make_functional_spec(grid, [0.0], [0.0], NONNEGATIVE, PerRegion((q,)))
        u, w, rep = minimize(spec)
        assert np.all(w.labels == 1)
        assert rep.j_history[-1] == pytest.approx(-0.5, abs=1e-12)

    def test_two_phase_interface_matches_oracle(self):
        grid = make_grid(1, (128,), 1 / 128)
        x = axis_centers(grid, 0)
        g1 = make_field(grid, 8 * (1 - x))
        g2 = make_field(grid, 8 * x)
        spec = make_functional_spec(
            grid, [0.0, 0.0], [g1, g2], NONNEGATIVE, PowerLaw(0.05, 0.0)
        )
        u, w, rep = minimize(spec, tol_solve=1e-10)
        res = oracle_two_phase_1d(lambda t: 8 * (1 - t), lambda t: 8 * t, 0.05, 0.05)
        ones = np.nonzero(w.labels == 1)[0]
        twos = np.nonzero(w.labels == 2)[0]
        assert ones.size > 0 and twos.size > 0
        interface = (x[ones.max()] + x[twos.min()]) / 2
        assert abs(interface - res.s_split) <= 2 / 128
        assert rep.j_history[-1] == pytest.approx(res.j_split, abs=5e-3)

    def test_history_nonincreasing(self):
        grid = make_grid(2, (32, 32), 1 / 32)
        x = axis_centers(grid, 0)
        g1 = make_field(grid, (2 * (1 - x))[:, None] * np.ones((1, 32)))
        g2 = make_field(grid, (2 * x)[:, None] * np.ones((1, 32)))
        spec = make_functional_spec(
            grid, [0.0, 0.0], [g1, g2], NONNEGATIVE, PowerLaw(0.02, 0.0)
        )
        u, w, rep = minimize(spec, tol_solve=1e-10)
        hist = np.array(rep.j_history)
        slack = 1e-10 * (1 + abs(hist[0]))
        assert np.all(np.diff(hist) <= slack)
        assert rep.iterations == len(rep.outer_j) - 1
        assert len(rep.outer_volumes) == len(rep.outer_j)

    def test_restart_is_stable(self):
        grid = make_grid(1, (128,), 1 / 128)
        spec = make_functional_spec(grid, [0.0], [4.0], NONNEGATIVE, PowerLaw(0.25, 0.0))
        u, w, rep = minimize(spec, tol_solve=1e-10)
        u2, w2, rep2 = minimize(spec, init=(u, w), tol_solve=1e-10)
        assert rep2.iterations <= 2
        assert rep2.j_history[-1] == pytest.approx(rep.j_history[-1], abs=1e-10)
        assert np.array_equal(w2.labels, w.labels)

    def test_single_cell_relabels_cannot_improve(self):
        """Local stationarity: converged pairs resist one-cell changes."""
        grid = make_grid(2, (24, 24), 1 / 24)
        x = axis_centers(grid, 0)
        g1 = make_field(grid, (3 * (1 - x))[:, None] * np.ones((1, 24)))
        g2 = make_field(grid, (3 * x)[:, None] * np.ones((1, 24)))
        spec = make_functional_spec(
            grid, [0.0, 0.0], [g1, g2], NONNEGATIVE, PowerLaw(0.03, 0.0)
        )
        u, w, rep = minimize(spec, tol_solve=1e-11)
        j = total(u, w, spec)
        rng = np.random.default_rng(5)
        cells = rng.integers(0, 24, size=(30, 2))
        for (ci, cj) in cells:
            for new_label in range(3):
                if new_label == w.labels[ci, cj]:
                    continue
                labels = w.labels.copy()
                labels[ci, cj] = new_label
                w_try = make_partition(grid, 2, labels)
                u_try = restrict_support(u, w_try)
                assert total(u_try, w_try, spec) >= j - 1e-8 * (1 + abs(j))

    def test_report_fields(self):
        grid = make_grid(1, (64,), 1 / 64)
        spec = make_functional_spec(grid, [0.0], [2.0], NONNEGATIVE, PowerLaw(0.01, 0.0))
        u, w, rep = minimize(spec)
        assert rep.final_volumes == region_volumes(w)
        assert rep.zero_set_fraction == zero_set_fraction(u)
        assert 0.0 <= rep.zero_set_fraction <= 1.0

    def test_option_validation(self):
        grid = make_grid(1, (16,), 1 / 16)
        spec = make_functional_spec(grid, [0.0], [1.0], NONNEGATIVE, PowerLaw(0.1, 0.0))
        with pytest.raises(ValueError):
            minimize(spec, max_outer=0)
        with pytest.raises(ValueError):
            minimize(spec, tol_j=-1.0)

    def test_discarded_sweep_report(self):
        """A sweep that would raise J is discarded and ends the run."""
        grid = make_grid(1, (7,), 1 / 7)
        f = make_field(grid, np.array([2.964, 0.03, 4.233, 2.175, 4.894, 2.066, 1.309]))
        g = make_field(
            grid, np.array([12.732, 4.549, 11.758, -7.647, -10.335, -7.207, -8.27])
        )
        spec = make_functional_spec(grid, [f], [g], FREE, PowerLaw(0.443, 0.374))
        u, w, rep = minimize(spec)
        assert np.array_equal(w.labels, [0, 0, 0, 0, 1, 1, 0])
        # the sweep of cycle 2 would drop cell 5 and raise J
        w_sweep = update_partition(spec, u, w)
        assert np.array_equal(w_sweep.labels, [0, 0, 0, 0, 1, 0, 0])
        j_sweep = total(restrict_support(u, w_sweep), w_sweep, spec)
        assert j_sweep == pytest.approx(0.0546664, abs=1e-7)
        assert rep.iterations == 2
        assert rep.converged
        j_history = (0.817, 0.371976365315116, 0.1574433000120508, 0.05155795698264007)
        assert rep.j_history == pytest.approx(j_history + j_history[-1:], rel=1e-9)
        assert rep.j_history[-1] == rep.j_history[-2] < j_sweep
        assert rep.outer_j == pytest.approx(
            (0.817, 0.1574433000120508, 0.05155795698264007), rel=1e-9
        )
        np.testing.assert_allclose(rep.outer_volumes, [[1.0], [2 / 7], [2 / 7]])
        assert rep.final_volumes == pytest.approx((2 / 7,))
        assert rep.zero_set_fraction == pytest.approx(5 / 7)


@st.composite
def small_problems(draw):
    """Small random 1D/2D specs with a starting pair and an outer-cycle cap."""
    dim = draw(st.sampled_from([1, 2]))
    if dim == 1:
        shape = (draw(st.integers(4, 24)),)
    else:
        shape = (draw(st.integers(3, 9)), draw(st.integers(3, 9)))
    grid = make_grid(dim, shape, 1.0 / shape[0])
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    signs = [draw(st.sampled_from([FREE, NONNEGATIVE])) for _ in range(n)]
    f = [make_field(grid, rng.uniform(0.0, draw(st.sampled_from([0.0, 5.0])), shape))
         for _ in range(n)]
    # a nonnegative phase gets a nonnegative source: with a mixed-sign one the
    # sign-truncated solve can raise J (see test_sign_truncated_solve_raises_j)
    g = [
        make_field(grid, rng.uniform(-10.0 if sign == FREE else 0.0, 10.0, shape))
        for sign in signs
    ]
    if draw(st.booleans()):
        volume = PowerLaw(
            draw(st.floats(0.0, 0.2)), draw(st.floats(0.0, 0.2)), draw(st.floats(0.5, 2.0))
        )
    else:
        volume = PerRegion(
            tuple(make_field(grid, rng.uniform(-0.2, 0.2, shape)) for _ in range(n))
        )
    spec = make_functional_spec(grid, f, g, signs, volume)
    init = None
    if draw(st.booleans()):
        labels = rng.integers(0, n + 1, shape)
        init = (zero_fields(grid, n), make_partition(grid, n, labels))
    return spec, init, draw(st.sampled_from([1, 3, 50]))


class TestLooseCycles:
    """Cycles between the first and the last allowed one solve at LOOSE_TOL;
    the cycle that stops the loop is solved at ``tol_solve``."""

    def test_matches_exact_alternation_on_mirrored_ramps(self):
        spec, init = mirrored_ramps(64)
        log = SolveLog()
        with log.patch():
            u, w, rep = minimize(spec, init=init)
        assert LOOSE_TOL in [tol for _, tol, _ in log.calls]
        u_ref, w_ref = exact_alternation(spec, init)
        assert rep.iterations > 2
        assert np.array_equal(w.labels, w_ref.labels)
        for a, b in zip(u.fields, u_ref.fields):
            assert np.max(np.abs(a.values - b.values)) <= 1e-10

    @pytest.mark.parametrize("fixture", ["run_2d_128", "run_positivity"])
    def test_matches_exact_alternation_on_shipped_configs(self, request, fixture):
        run = request.getfixturevalue(fixture)
        plan = run.plan
        u_ref, w_ref = exact_alternation(
            plan.spec, plan.initial_pair(), plan.max_outer, plan.tol_j, plan.tol_solve
        )
        assert np.array_equal(run.w.labels, w_ref.labels)
        for a, b in zip(run.u.fields, u_ref.fields):
            assert np.max(np.abs(a.values - b.values)) <= 1e-10

    def test_stopping_cycle_is_exact(self):
        spec, init = mirrored_ramps(32)
        log = SolveLog()
        with log.patch():
            u, w, rep = minimize(spec, init=init, tol_solve=1e-9)
        tols = [tol for _, tol, _ in log.calls]
        assert tols[0] == tols[-1] == 1e-9
        assert LOOSE_TOL in tols
        # one j_history pair per cycle, however many solves a cycle took
        assert len(rep.j_history) == 2 * rep.iterations + 1
        assert np.array_equal(w.labels, log.calls[-1][0].labels)
        assert all(r <= 1e-8 for r in true_residuals(spec, w, u))

    def test_cycle_cap_ends_on_an_exact_solve(self):
        spec, init = mirrored_ramps(64)
        log = SolveLog()
        with log.patch():
            u, w, rep = minimize(spec, init=init, max_outer=3)
        assert rep.iterations == 3 and not rep.converged
        assert [tol for _, tol, _ in log.calls] == [1e-8, LOOSE_TOL, 1e-8]
        w_last, _, u_last = log.calls[-1]
        assert all(r <= 1e-7 for r in true_residuals(spec, w_last, u_last))
        restricted = restrict_support(u_last, w)
        for a, b in zip(u.fields, restricted.fields):
            assert np.array_equal(a.values, b.values)

    @pytest.mark.xfail(
        strict=True,
        reason="solve_phase's active set for a nonnegative phase can end above "
        "the previous field's objective when the source changes sign",
    )
    def test_sign_truncated_solve_raises_j(self):
        grid = make_grid(1, (6,), 1 / 6)
        g = make_field(grid, np.array([6.554, -1.816, 0.992, -9.449, 5.07, 0.763]))
        q = make_field(grid, np.array([-0.068, 0.115, -0.079, -0.019, -0.146, -0.039]))
        spec = make_functional_spec(grid, [0.0], [g], NONNEGATIVE, PerRegion((q,)))
        w0 = make_partition(grid, 1, np.array([1, 0, 1, 0, 0, 1]))
        u, w, rep = minimize(spec, init=(zero_fields(grid, 1), w0))
        hist = np.array(rep.j_history)
        assert np.all(np.diff(hist) <= 1e-10 * (1.0 + abs(hist[0])))

    @settings(max_examples=150, deadline=None)
    @given(small_problems())
    def test_random_problems_descend_and_end_exact(self, problem):
        spec, init, max_outer = problem
        tol_solve = 1e-8
        log = SolveLog()
        try:
            with log.patch():
                u, w, rep = minimize(spec, init=init, max_outer=max_outer)
        except (SolverError, ValueError):
            return
        hist = np.array(rep.j_history)
        assert np.all(np.diff(hist) <= 1e-10 * (1.0 + abs(hist[0])))
        assert total(u, w, spec) == rep.j_history[-1]  # raises if not admissible
        assert rep.iterations <= max_outer
        w_last, tol_last, _ = log.calls[-1]
        assert tol_last == tol_solve
        if np.array_equal(w.labels, w_last.labels):
            assert all(r <= 10 * tol_solve for r in true_residuals(spec, w, u))


@st.composite
def solved_pairs(draw):
    """A small random 1D/2D problem with its fields solved on a random
    partition at a loose (1e-2) or a tight (1e-10) tolerance: masks, free
    and nonnegative phases (the latter with nonnegative sources), and a
    power law or per-region weights of both signs."""
    dim = draw(st.sampled_from([1, 2]))
    if dim == 1:
        shape = (draw(st.integers(4, 24)),)
    else:
        shape = (draw(st.integers(3, 9)), draw(st.integers(3, 9)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.random(shape) >= draw(st.sampled_from([0.0, 0.1, 0.3]))
    if not mask.any():  # a grid needs a masked cell
        mask.flat[0] = True
    grid = make_grid(dim, shape, 1.0 / shape[0], mask=mask)
    n = draw(st.integers(1, 3))
    signs = [draw(st.sampled_from([FREE, NONNEGATIVE])) for _ in range(n)]
    f = [make_field(grid, rng.uniform(0.0, draw(st.sampled_from([0.0, 5.0])), shape))
         for _ in range(n)]
    g = [
        make_field(grid, rng.uniform(-10.0 if sign == FREE else 0.0, 10.0, shape))
        for sign in signs
    ]
    if draw(st.booleans()):
        volume = PowerLaw(
            draw(st.floats(0.0, 0.2)), draw(st.floats(0.0, 0.2)), draw(st.floats(0.5, 2.0))
        )
    else:
        volume = PerRegion(
            tuple(make_field(grid, rng.uniform(-0.2, 0.2, shape)) for _ in range(n))
        )
    spec = make_functional_spec(grid, f, g, signs, volume)
    w = make_partition(grid, n, rng.integers(0, n + 1, shape))
    try:
        u = update_fields(spec, w, zero_fields(grid, n), draw(st.sampled_from([1e-2, 1e-10])))
    except SolverError:
        assume(False)
    return spec, u, w


class TestJPricing:
    """``minimize`` prices each cycle's solved pair by summation by parts and
    its sweep by the edit on the relabelled cells, not by ``total``."""

    @settings(max_examples=150, deadline=None)
    @given(solved_pairs())
    def test_field_priced_j_matches_total(self, case):
        spec, u, w = case
        j = energy(u) + mass_term(u, spec) + volume_value(w, spec.volume_term)
        assert abs(total_by_parts(u, w, spec) - j) <= 1e-13 * (1.0 + abs(j))

    @settings(max_examples=150, deadline=None)
    @given(solved_pairs())
    def test_sweep_delta_matches_difference_of_totals(self, case):
        spec, u, w = case
        u_new, w_new, moved, delta = minimize_module._sweep(spec, u, w)
        assert np.array_equal(w_new.labels, update_partition(spec, u, w).labels)
        assert moved == np.count_nonzero(w_new.labels != w.labels)
        j = total(u, w, spec)
        want = total(u_new, w_new, spec) - j
        assert abs(delta - want) <= 1e-13 * (1.0 + abs(j))

    def test_total_runs_on_the_initial_and_the_returned_pair_only(self):
        spec, init = mirrored_ramps(64)
        calls = []

        def counted(u, w, spec):
            calls.append((u, w))
            return total(u, w, spec)

        with mock.patch.object(minimize_module, "total", counted):
            u, w, rep = minimize(spec, init=init)
        assert rep.iterations > 2
        assert len(calls) == 2
        assert calls[-1][0] is u and calls[-1][1] is w
        assert rep.outer_j[0] == total(*init, spec)
        assert rep.outer_j[-1] == rep.j_history[-1] == total(u, w, spec)


def reference_update_partition(spec, u, w):
    """The sweep as a cost stack over the labels and ``np.argmin`` over it."""
    grid = spec.grid
    n = spec.num_phases
    hn = grid.spacing**grid.dim
    labels = w.labels
    lam = cell_marginals(spec, w)
    release = np.zeros(grid.shape)
    bulk = np.zeros(grid.shape)
    keep_lam = np.zeros(grid.shape)
    for i in range(1, n + 1):
        on_i = labels == i
        if not np.any(on_i):
            continue
        vals = u.fields[i - 1].values
        trunc = truncate_to_sign(vals, spec.sign_constraints[i - 1])
        mass = (vals * vals * spec.f[i - 1].values - trunc * spec.g[i - 1].values) * hn
        release[on_i] = minimize_module._release_energy(grid, vals)[on_i]
        bulk[on_i] = mass[on_i]
        keep_lam[on_i] = lam[i - 1][on_i] * hn
    costs = np.empty((n + 1,) + grid.shape)
    costs[0] = release
    for ell in range(1, n + 1):
        costs[ell] = release + lam[ell - 1] * hn
    keep_cost = bulk + keep_lam
    np.put_along_axis(costs, labels[None], keep_cost[None], axis=0)
    return np.argmin(costs, axis=0)


@st.composite
def sweep_cases(draw):
    """Fields, coefficients and weights from small pools of values, so that
    costs tie; values near the largest double make some costs infinite, of
    either sign, or nan (inf - inf)."""
    dim = draw(st.sampled_from([1, 2]))
    shape = (draw(st.integers(3, 12)),) * dim
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.random(shape) >= draw(st.sampled_from([0.0, 0.2]))
    if not mask.any():  # a grid needs a masked cell
        mask.flat[0] = True
    grid = make_grid(dim, shape, 1.0 / shape[0], mask=mask)
    n = draw(st.integers(1, 3))
    specials = draw(st.sampled_from([[], [1e300], [-1e300], [1e300, -1e300], [1.7e308]]))
    pool = np.array([0.0, 0.0, 1.0, -1.0, 0.5, 2.0] + specials)

    def field(values=pool):
        return make_field(grid, rng.choice(values, size=shape))

    signs = [draw(st.sampled_from([FREE, NONNEGATIVE])) for _ in range(n)]
    if draw(st.booleans()):
        volume = PowerLaw(draw(st.sampled_from([0.0, 0.5])), draw(st.sampled_from([0.0, 0.5])))
    else:
        volume = PerRegion(tuple(field() for _ in range(n)))
    f = [field(pool[~(pool < 0.0)]) for _ in range(n)]
    spec = make_functional_spec(grid, f, [field() for _ in range(n)], signs, volume)
    u = make_phase_field(grid, [field() for _ in range(n)])
    w = make_partition(grid, n, rng.integers(0, n + 1, shape))
    return spec, u, w


@settings(max_examples=300, deadline=None)
@given(sweep_cases())
def test_update_partition_matches_argmin_over_the_cost_stack(case):
    spec, u, w = case
    with np.errstate(all="ignore"):
        want = make_partition(spec.grid, spec.num_phases, reference_update_partition(spec, u, w))
        got = update_partition(spec, u, w)
    assert np.array_equal(got.labels, want.labels)
