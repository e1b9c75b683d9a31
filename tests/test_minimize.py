"""Unit tests for the alternating descent and the label sweep."""

from __future__ import annotations

import numpy as np
import pytest

from phasemin.functional import (
    FREE,
    NONNEGATIVE,
    PerRegion,
    PowerLaw,
    make_field,
    make_functional_spec,
    make_partition,
    make_phase_field,
    region_volumes,
    restrict_support,
    total,
)
from phasemin.grid import axis_centers, make_grid
from phasemin.minimize import (
    initial_partition,
    minimize,
    update_fields,
    update_partition,
    zero_set_fraction,
)
from phasemin.oracle import oracle_two_phase_1d


def zero_fields(grid, n):
    return make_phase_field(grid, [np.zeros(grid.shape)] * n)


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
