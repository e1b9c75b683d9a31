"""Unit tests freezing the reference-oracle values."""

from __future__ import annotations

import numpy as np
import pytest

from phasemin.functional import (
    NONNEGATIVE,
    PowerLaw,
    make_functional_spec,
    make_partition,
    make_phase_field,
    partition_from_supports,
    total,
)
from phasemin.grid import axis_centers, make_grid
from phasemin.oracle import (
    ConeOnePhase,
    ConeTwoPhase,
    make_cone,
    oracle_two_phase_1d,
)

from torsion_series import torsion_square_reference, torsion_square_value


class TestTwoPhaseScan:
    def test_zero_sources_pick_empty(self):
        res = oracle_two_phase_1d(lambda t: 0 * t, lambda t: 0 * t, 0.3, 0.2, 1000)
        assert res.best_kind == "empty"
        assert res.j_star == 0.0
        assert res.s_star is None

    def test_constant_sources_concave_scan(self):
        res = oracle_two_phase_1d(lambda t: 4 + 0 * t, lambda t: 4 + 0 * t, 0.25, 0.25, 2000)
        # closed form J(s) = -s^3/3 - (1-s)^3/3 + 0.25
        s = res.s_values
        expected = -(s**3) / 3 - (1 - s) ** 3 / 3 + 0.25
        assert np.max(np.abs(res.j_values - expected)) < 1e-6
        assert res.best_kind in ("phase1_full", "phase2_full")
        assert res.j_star == pytest.approx(-1 / 12, abs=1e-6)
        assert res.s_star in (0.0, 1.0)
        # the balanced (equilibrium) split sits at the midpoint: both
        # interface slopes equal sqrt(lambda) = 0.5 exactly there
        assert res.s_split == pytest.approx(0.5, abs=1e-12)
        assert res.j_split == pytest.approx(1 / 6, abs=1e-6)

    def test_mirrored_ramps_split_at_half(self):
        res = oracle_two_phase_1d(
            lambda t: 8 * (1 - t), lambda t: 8 * t, 0.05, 0.05, 4096
        )
        assert res.s_split == pytest.approx(0.5, abs=1e-12)
        # closed forms: J(0.5) = -5/36, J(full fill) = -11/36
        assert res.j_split == pytest.approx(-5 / 36, abs=1e-6)
        assert res.j_phase1_full == pytest.approx(-11 / 36, abs=1e-6)
        assert res.j_phase2_full == pytest.approx(-11 / 36, abs=1e-6)
        # the scan honestly reports that one full phase beats the split
        assert res.best_kind in ("phase1_full", "phase2_full")
        assert res.j_star == pytest.approx(-11 / 36, abs=1e-6)

    def test_mirrored_ramps_table_symmetric(self):
        res = oracle_two_phase_1d(
            lambda t: 8 * (1 - t), lambda t: 8 * t, 0.05, 0.05, 4096
        )
        sym_gap = np.max(np.abs(res.j_values - res.j_values[::-1]))
        assert sym_gap <= 1e-10 * (1 + np.max(np.abs(res.j_values)))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            oracle_two_phase_1d(lambda t: t, lambda t: t, 0.1, 0.1, 999)
        with pytest.raises(ValueError):
            oracle_two_phase_1d(np.zeros(5), np.zeros(5), 0.1, 0.1, 1000)

    def test_scan_agrees_with_grid_objective(self):
        """J(s) matches functional.total on sampled exact solutions, O(h^2)."""
        n = 512
        grid = make_grid(1, (n,), 1.0 / n)
        x = axis_centers(grid, 0)
        lam = 0.25
        res = oracle_two_phase_1d(lambda t: 4 + 0 * t, lambda t: 4 + 0 * t, lam, lam, 4096)
        spec = make_functional_spec(
            grid, [0.0, 0.0], [4.0, 4.0], NONNEGATIVE, PowerLaw(lam, 0.0)
        )
        rng = np.random.default_rng(11)
        for k in rng.integers(low=8, high=n - 8, size=20):
            s = x[k]  # cell center, also a scan node since 4096 = 8 * 512
            u1 = np.where(x < s, x * (s - x), 0.0)
            u2 = np.where(x > s, (x - s) * (1 - x), 0.0)
            u = make_phase_field(grid, [u1, u2])
            labels = np.where(x <= s, 1, 2)
            w = make_partition(grid, 2, labels)
            j_grid = total(u, w, spec)
            node = int(round(s * 4096))
            assert res.s_values[node] == pytest.approx(s, abs=1e-12)
            assert j_grid == pytest.approx(float(res.j_values[node]), abs=1e-4)


class TestTorsion:
    def test_reference_value(self):
        assert torsion_square_reference() == pytest.approx(0.0736713, abs=1e-6)

    def test_truncation_stability(self):
        v100 = torsion_square_value(0.5, 0.5, 101)
        v200 = torsion_square_value(0.5, 0.5, 201)
        v400 = torsion_square_value(0.5, 0.5, 401)
        assert abs(v200 - v100) < 1e-6
        assert abs(v400 - v200) < 5e-8

    def test_boundary_zero(self):
        assert abs(torsion_square_value(0.0, 0.37)) < 1e-12
        assert abs(torsion_square_value(0.42, 1.0)) < 1e-8

    def test_reflection_symmetry(self):
        a = torsion_square_value(0.3, 0.5)
        b = torsion_square_value(0.7, 0.5)
        assert a == pytest.approx(b, abs=1e-10)


class TestMakeCone:
    def test_one_phase_axis_aligned(self):
        grid = make_grid(2, (64, 64), 1 / 64)
        u = make_cone(ConeOnePhase(1.0, (1.0, 0.0)), grid)
        x = axis_centers(grid, 0)
        expected = np.maximum(0.0, x - 0.5)
        assert np.allclose(u.fields[0].values, expected[:, None] * np.ones((1, 64)))

    def test_two_phase_disjoint(self):
        grid = make_grid(2, (64, 64), 1 / 64)
        u = make_cone(ConeTwoPhase(2.0, 1.0, (0.0, 1.0)), grid)
        prod = u.fields[0].values * u.fields[1].values
        assert np.all(prod == 0.0)
        w = partition_from_supports(u)
        assert set(np.unique(w.labels)) <= {0, 1, 2}

    def test_oblique_direction(self):
        grid = make_grid(2, (32, 32), 1 / 32)
        e = (1 / np.sqrt(2), 1 / np.sqrt(2))
        u = make_cone(ConeOnePhase(3.0, e), grid)
        v = u.fields[0].values
        assert v.min() == 0.0
        assert v.max() > 0.0

    def test_validation(self):
        grid = make_grid(2, (16, 16), 1 / 16)
        with pytest.raises(ValueError):
            make_cone(ConeOnePhase(1.0, (2.0, 0.0)), grid)
        with pytest.raises(ValueError):
            make_cone(ConeOnePhase(-1.0, (1.0, 0.0)), grid)
        with pytest.raises(ValueError):
            make_cone(ConeTwoPhase(1.0, 0.0, (1.0, 0.0)), grid)
