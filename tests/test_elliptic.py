"""Unit tests for the linear phase/landscape solves."""

from __future__ import annotations

import numpy as np
import pytest

from phasemin import elliptic
from phasemin.elliptic import SolverError, solve_landscape, solve_phase
from phasemin.functional import (
    FREE,
    NONNEGATIVE,
    PowerLaw,
    make_functional_spec,
    make_partition,
    make_phase_field,
    total,
)
from phasemin.grid import ScalarField, axis_centers, make_field, make_grid
from phasemin.oracle import torsion_square_reference


def one_phase_spec(grid, f, g, sign=NONNEGATIVE):
    return make_functional_spec(grid, [f], [g], sign, PowerLaw(0.0, 0.0))


def full_partition(grid, label=1, num_phases=1):
    return make_partition(grid, num_phases, np.full(grid.shape, label))


class TestSolvePhase:
    def test_zero_source_gives_zero(self):
        grid = make_grid(1, (64,), 1 / 64)
        u = solve_phase(one_phase_spec(grid, 1.0, 0.0), full_partition(grid), 1)
        assert np.all(u.values == 0.0)

    def test_1d_parabola(self):
        grid = make_grid(1, (128,), 1 / 128)
        u = solve_phase(one_phase_spec(grid, 0.0, 2.0), full_partition(grid), 1, 1e-10)
        x = axis_centers(grid, 0)
        exact = x * (1 - x) / 2
        assert np.max(np.abs(u.values - exact)) < 1e-4
        assert np.max(u.values) == pytest.approx(0.125, abs=1e-4)

    def test_1d_refinement_is_second_order(self):
        errs = []
        for n in (32, 64, 128):
            grid = make_grid(1, (n,), 1.0 / n)
            u = solve_phase(
                one_phase_spec(grid, 0.0, 2.0), full_partition(grid), 1, 1e-12
            )
            x = axis_centers(grid, 0)
            errs.append(np.max(np.abs(u.values - x * (1 - x) / 2)))
        assert errs[0] / errs[1] > 3.2
        assert errs[1] / errs[2] > 3.2

    def test_2d_center_value(self):
        grid = make_grid(2, (128, 128), 1 / 128)
        u = solve_phase(one_phase_spec(grid, 0.0, 2.0), full_partition(grid), 1, 1e-9)
        assert np.max(u.values) == pytest.approx(torsion_square_reference(), abs=1e-3)

    def test_region_restriction(self):
        grid = make_grid(1, (100,), 0.01)
        x = axis_centers(grid, 0)
        labels = np.where(x < 0.5, 1, 2)
        spec = make_functional_spec(
            grid, [0.0, 0.0], [2.0, 2.0], NONNEGATIVE, PowerLaw(0.0, 0.0)
        )
        w = make_partition(grid, 2, labels)
        u1 = solve_phase(spec, w, 1, 1e-10)
        assert np.all(u1.values[x > 0.5] == 0.0)
        # an interior label boundary pins zero at the neighbor CENTER, so
        # the effective right endpoint is the first phase-2 center 0.505
        b = 0.505
        exact = np.where(x < 0.5, x * (b - x) / 2, 0.0)
        assert np.max(np.abs(u1.values - exact)) < 1e-4

    def test_empty_region_returns_zero(self):
        grid = make_grid(1, (64,), 1 / 64)
        spec = make_functional_spec(
            grid, [0.0, 0.0], [2.0, 2.0], NONNEGATIVE, PowerLaw(0.0, 0.0)
        )
        w = make_partition(grid, 2, np.full(grid.shape, 1))
        u2 = solve_phase(spec, w, 2)
        assert np.all(u2.values == 0.0)

    def test_maximum_principle(self):
        grid = make_grid(2, (48, 48), 1 / 48)
        rng = np.random.default_rng(3)
        g = make_field(grid, rng.uniform(0.0, 2.0, grid.shape))
        f = make_field(grid, rng.uniform(0.0, 1.0, grid.shape))
        spec = make_functional_spec(grid, [f], [g], FREE, PowerLaw(0.0, 0.0))
        u = solve_phase(spec, full_partition(grid), 1, 1e-10)
        assert np.min(u.values) >= -1e-12
        # 1D-section bound with f = 0: u <= max(g) * diam^2 / 8
        spec0 = make_functional_spec(grid, [0.0], [g], FREE, PowerLaw(0.0, 0.0))
        u0 = solve_phase(spec0, full_partition(grid), 1, 1e-10)
        assert np.max(u0.values) <= 2.0 * (np.sqrt(2.0)) ** 2 / 8 + 1e-10

    def test_energy_minimality(self):
        """The solved field beats 20 random perturbations on the same support."""
        grid = make_grid(2, (24, 24), 1 / 24)
        x = axis_centers(grid, 0)
        labels = np.where(x[:, None] < 0.6, 1, 0) * np.ones((1, 24), dtype=int)
        spec = one_phase_spec(grid, 0.5, 1.5, sign=FREE)
        w = make_partition(grid, 1, labels)
        u = solve_phase(spec, w, 1, 1e-11)
        base = total(make_phase_field(grid, [u.values]), w, spec)
        rng = np.random.default_rng(7)
        region = w.labels == 1
        for _ in range(20):
            bump = rng.normal(0.0, 0.01, grid.shape) * region
            pert = make_phase_field(grid, [u.values + bump])
            assert total(pert, w, spec) >= base - 1e-12

    def test_nonnegative_truncation(self):
        """A sign-flipping source forces the active-set path; result is >= 0."""
        grid = make_grid(1, (200,), 1 / 200)
        x = axis_centers(grid, 0)
        g = make_field(grid, np.where(x < 0.5, 8.0, -8.0))
        spec = make_functional_spec(grid, [0.0], [g], NONNEGATIVE, PowerLaw(0.0, 0.0))
        u = solve_phase(spec, full_partition(grid), 1, 1e-10)
        assert np.min(u.values) >= 0.0
        assert np.max(u.values) > 0.0
        # the free solve really does go negative for this source
        spec_free = make_functional_spec(grid, [0.0], [g], FREE, PowerLaw(0.0, 0.0))
        uf = solve_phase(spec_free, full_partition(grid), 1, 1e-10)
        assert np.min(uf.values) < -1e-4

    def test_warm_start_matches_cold(self):
        grid = make_grid(2, (32, 32), 1 / 32)
        spec = one_phase_spec(grid, 0.0, 2.0)
        w = full_partition(grid)
        cold = solve_phase(spec, w, 1, 1e-11)
        warm = solve_phase(spec, w, 1, 1e-11, initial=cold)
        assert np.max(np.abs(cold.values - warm.values)) < 1e-9

    def test_tiny_source_solves_by_linearity(self):
        # unscaled, r.z of this source underflows to zero on the first step
        grid = make_grid(2, (32, 32), 1 / 32)
        tiny = solve_phase(one_phase_spec(grid, 0.0, 2e-160), full_partition(grid), 1)
        unit = solve_phase(one_phase_spec(grid, 0.0, 2.0), full_partition(grid), 1)
        assert np.max(unit.values) > 0.0
        np.testing.assert_allclose(tiny.values / 1e-160, unit.values, rtol=1e-6)

    def test_validation(self):
        grid = make_grid(1, (64,), 1 / 64)
        spec = one_phase_spec(grid, 0.0, 2.0)
        w = full_partition(grid)
        with pytest.raises(ValueError):
            solve_phase(spec, w, 0)
        with pytest.raises(ValueError):
            solve_phase(spec, w, 2)
        with pytest.raises(ValueError):
            solve_phase(spec, w, 1, tol=0.0)


class TestSolveLandscape:
    def test_1d_center(self):
        grid = make_grid(1, (128,), 1 / 128)
        w0 = solve_landscape(grid, 0.0, 1e-10)
        x = axis_centers(grid, 0)
        assert np.max(np.abs(w0.values - x * (1 - x) / 2)) < 1e-4

    def test_2d_max(self):
        grid = make_grid(2, (128, 128), 1 / 128)
        w0 = solve_landscape(grid, 0.0, 1e-9)
        assert np.max(w0.values) == pytest.approx(torsion_square_reference(), abs=1e-3)
        assert np.min(w0.values[grid.mask]) > 0.0

    def test_reaction_dominated_bound(self):
        grid = make_grid(2, (32, 32), 1 / 32)
        w0 = solve_landscape(grid, 1e6, 1e-8)
        assert np.max(w0.values) <= 1e-6 + 1e-8

    def test_masked_domain(self):
        grid = make_grid(2, (64, 64), 1 / 64)
        yy, xx = np.meshgrid(np.arange(64), np.arange(64), indexing="ij")
        mask = (xx + 0.5 - 32) ** 2 + (yy + 0.5 - 32) ** 2 < 28**2
        disk = make_grid(2, (64, 64), 1 / 64, mask=mask)
        w0 = solve_landscape(disk, 0.0, 1e-9)
        assert np.all(w0.values[~mask] == 0.0)
        # torsion max of a radius-r disk is r^2/4
        r = 28 / 64
        assert np.max(w0.values) == pytest.approx(r**2 / 4, rel=0.05)

    def test_potential_validation(self):
        grid = make_grid(1, (64,), 1 / 64)
        bad = ScalarField(grid, np.full(grid.shape, -1.0))
        with pytest.raises(ValueError):
            solve_landscape(grid, bad)
        with pytest.raises(ValueError):
            solve_landscape(grid, 0.0, tol=-1.0)

    def test_iteration_cap_failure_reports_residual(self):
        grid = make_grid(2, (96, 96), 1 / 96)
        with pytest.raises(SolverError) as exc:
            solve_landscape(grid, 0.0, 1e-300)
        assert exc.value.residual > 0.0
        assert exc.value.iterations > 0

    def test_unreachable_tol_reports_true_residual(self):
        # The recursive CG residual drifts to ~1e-161 before r.z underflows;
        # the reported one must be ||b - Ax|| / ||b||, stuck near 1e-12.
        grid = make_grid(2, (96, 96), 1 / 96)
        with pytest.raises(SolverError) as exc:
            solve_landscape(grid, 0.0, 1e-300)
        assert exc.value.residual > 1e-14
        assert 0 < exc.value.iterations <= 4800

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_nonfinite_potential_raises_value_error(self, value):
        grid = make_grid(2, (32, 32), 1 / 32)
        with pytest.raises(ValueError, match="potential"):
            solve_landscape(grid, value)


class TestMultigridWork:
    """CG iterations per solve do not grow with 1/h."""

    @staticmethod
    def landscape_iterations(monkeypatch, dim, sizes):
        counts = []
        pcg = elliptic._pcg

        def counting(*args, **kwargs):
            result = pcg(*args, **kwargs)
            counts.append(result[2])
            return result

        monkeypatch.setattr(elliptic, "_pcg", counting)
        for n in sizes:
            solve_landscape(make_grid(dim, (n,) * dim, 1.0 / n), 0.0)
        assert len(counts) == len(sizes)
        return counts

    def test_2d_landscape_iterations_bounded(self, monkeypatch):
        its = self.landscape_iterations(monkeypatch, 2, (64, 128, 256))
        assert max(its) <= 30
        assert its[-1] <= 1.5 * its[0]

    def test_1d_landscape_iterations_bounded(self, monkeypatch):
        its = self.landscape_iterations(monkeypatch, 1, (256, 1024, 4096))
        assert max(its) <= 30

