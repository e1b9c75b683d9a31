"""Unit tests for the competitor constructions and the minimality audit."""

from __future__ import annotations

import numpy as np
import pytest

from phasemin.competitors import (
    audit,
    audit_report_csv,
    cutoff_competitor,
    harmonic_competitor,
    seeded_probes,
)
from phasemin.elliptic import solve_phase
from phasemin.functional import (
    NONNEGATIVE,
    PerRegion,
    PowerLaw,
    make_field,
    make_functional_spec,
    make_partition,
    make_phase_field,
    total,
)
from phasemin.grid import bounding_box, cell_centers, make_grid
from phasemin.minimize import initial_partition, minimize


def zero_pair(grid, n):
    u = make_phase_field(grid, [np.zeros(grid.shape)] * n)
    w = make_partition(grid, n, np.zeros(grid.shape, dtype=int))
    return u, w


def solved_full_domain_pair(grid, g_value, lam):
    """One phase filling the grid, field solved to high accuracy."""
    spec = make_functional_spec(
        grid, [0.0], [g_value], NONNEGATIVE, PowerLaw(lam, 0.0)
    )
    w = make_partition(grid, 1, np.ones(grid.shape, dtype=int))
    u = make_phase_field(grid, [solve_phase(spec, w, 1, 1e-10).values])
    return spec, u, w


class TestCutoff:
    def test_zero_pair_zero_delta(self):
        grid = make_grid(2, (16, 16), 1 / 16)
        spec = make_functional_spec(grid, [0.0], [1.0], NONNEGATIVE, PowerLaw(0.1, 0.0))
        u, w = zero_pair(grid, 1)
        u2, w2, dj = cutoff_competitor(u, w, spec, (0.5, 0.5), 0.25, 0.5, [1])
        assert dj == 0.0
        assert np.all(u2.fields[0].values == 0.0)

    def test_empty_phase_selection_is_identity(self):
        grid = make_grid(2, (16, 16), 1 / 16)
        spec, u, w = solved_full_domain_pair(grid, 2.0, 0.05)
        u2, w2, dj = cutoff_competitor(u, w, spec, (0.5, 0.5), 0.25, 0.5, [])
        assert dj == 0.0
        assert np.array_equal(u2.fields[0].values, u.fields[0].values)
        assert np.array_equal(w2.labels, w.labels)

    def test_whole_grid_cutoff_is_empty_competitor(self):
        grid = make_grid(2, (24, 24), 1 / 24)
        spec, u, w = solved_full_domain_pair(grid, 4.0, 0.1)
        j = total(u, w, spec)
        u2, w2, dj = cutoff_competitor(u, w, spec, (0.5, 0.5), 100.0, 0.5, [1])
        assert np.all(u2.fields[0].values == 0.0)
        assert np.all(w2.labels == 0)
        assert dj == pytest.approx(-j, rel=1e-12, abs=1e-15)

    def test_field_geometry_of_the_ramp(self):
        grid = make_grid(2, (32, 32), 1 / 32)
        spec, u, w = solved_full_domain_pair(grid, 2.0, 0.0)
        x0, r, a = (0.5, 0.5), 0.25, 0.5
        u2, w2, dj = cutoff_competitor(u, w, spec, x0, r, a, [1])
        d = np.sqrt(np.sum((cell_centers(grid) - np.array(x0)) ** 2, axis=-1))
        inner = d < a * r
        outer = d >= r
        vals, old = u2.fields[0].values, u.fields[0].values
        assert np.all(vals[inner] == 0.0)
        assert np.array_equal(vals[outer], old[outer])
        mid = (d >= a * r) & (d < r)
        ramp = (d[mid] - a * r) / (r - a * r)
        assert np.allclose(vals[mid], ramp * old[mid], atol=1e-14)

    def test_trash_rule_respects_benefit(self):
        grid = make_grid(2, (16, 16), 1 / 16)
        # Negative per-cell weight: trashing vacated cells would RAISE the
        # volume term, so labels must be kept.
        q = make_field(grid, -np.ones(grid.shape))
        spec = make_functional_spec(grid, [0.0], [2.0], NONNEGATIVE, PerRegion((q,)))
        w = make_partition(grid, 1, np.ones(grid.shape, dtype=int))
        u = make_phase_field(grid, [solve_phase(spec, w, 1, 1e-10).values])
        u2, w2, dj = cutoff_competitor(u, w, spec, (0.5, 0.5), 100.0, 0.5, [1])
        assert np.all(u2.fields[0].values == 0.0)
        assert np.array_equal(w2.labels, w.labels)
        # Positive weight: now every vacated cell is trashed.
        q2 = make_field(grid, np.ones(grid.shape) * 0.05)
        spec2 = make_functional_spec(grid, [0.0], [2.0], NONNEGATIVE, PerRegion((q2,)))
        u3, w3, dj3 = cutoff_competitor(u, w, spec2, (0.5, 0.5), 100.0, 0.5, [1])
        assert np.all(w3.labels == 0)

    def test_validation(self):
        grid = make_grid(2, (16, 16), 1 / 16)
        spec, u, w = solved_full_domain_pair(grid, 2.0, 0.05)
        with pytest.raises(ValueError):
            cutoff_competitor(u, w, spec, (0.5, 0.5), 0.25, 0.0, [1])
        with pytest.raises(ValueError):
            cutoff_competitor(u, w, spec, (0.5, 0.5), 0.25, 1.0, [1])
        with pytest.raises(ValueError):
            cutoff_competitor(u, w, spec, (9.0, 9.0), 0.25, 0.5, [1])
        with pytest.raises(ValueError):
            cutoff_competitor(u, w, spec, (0.5, 0.5), 0.25, 0.5, [2])


class TestHarmonic:
    def test_zero_pair_zero_delta(self):
        grid = make_grid(2, (16, 16), 1 / 16)
        spec = make_functional_spec(grid, [0.0], [1.0], NONNEGATIVE, PowerLaw(0.0, 0.0))
        u, w = zero_pair(grid, 1)
        _, _, dj = harmonic_competitor(u, w, spec, (0.5, 0.5), 0.25, 0.5, 1)
        assert dj == 0.0

    def test_harmonic_field_is_fixed_point(self):
        # A linear profile is exactly discrete-harmonic, is positive on the
        # whole grid, and already owns every cell: the competitor must
        # return the identical pair.
        grid = make_grid(2, (32, 32), 1 / 32)
        spec = make_functional_spec(grid, [0.0], [0.0], NONNEGATIVE, PowerLaw(0.1, 0.0))
        x = cell_centers(grid)[..., 0]
        u = make_phase_field(grid, [x.copy()])
        w = make_partition(grid, 1, np.ones(grid.shape, dtype=int))
        u2, w2, dj = harmonic_competitor(u, w, spec, (0.5, 0.5), 0.25, 0.5, 1)
        assert np.allclose(u2.fields[0].values, x, atol=1e-9)
        assert np.array_equal(w2.labels, w.labels)
        assert abs(dj) < 1e-9

    def test_absorbing_empty_ball_costs_volume_only(self):
        # Phase 1 lives on {x > 0.75}; a ball far inside the trash zone is
        # absorbed: the field change is identically zero, so the objective
        # change is exactly the volume price of the newly owned cells.
        grid = make_grid(2, (64, 64), 1 / 64)
        lam = 0.1
        spec = make_functional_spec(grid, [0.0], [2.0], NONNEGATIVE, PowerLaw(lam, 0.0))
        x = cell_centers(grid)[..., 0]
        labels = np.where(x > 0.75, 1, 0).astype(int)
        w = make_partition(grid, 1, labels)
        u = make_phase_field(grid, [solve_phase(spec, w, 1, 1e-10).values])
        x0, r, a = (0.3, 0.5), 0.2, 0.5
        u2, w2, dj = harmonic_competitor(u, w, spec, x0, r, a, 1)
        assert np.array_equal(u2.fields[0].values, u.fields[0].values)
        d = np.sqrt(np.sum((cell_centers(grid) - np.array(x0)) ** 2, axis=-1))
        n_inner = int(np.count_nonzero(d < a * r))
        assert np.count_nonzero(w2.labels) == np.count_nonzero(labels) + n_inner
        assert dj == pytest.approx(lam * n_inner * grid.spacing**2, rel=1e-12)

    def test_max_norm_never_increases(self):
        grid = make_grid(2, (48, 48), 1 / 48)
        spec, u, w = solved_full_domain_pair(grid, 8.0, 0.05)
        before = float(np.max(np.abs(u.fields[0].values)))
        for a in (0.5, 0.75):
            u2, _, _ = harmonic_competitor(u, w, spec, (0.5, 0.5), 0.3, a, 1)
            after = float(np.max(np.abs(u2.fields[0].values)))
            assert after <= before + 1e-12

    def test_two_phase_annulus_relabeling(self):
        # Two vertical half-planes; ball centered on phase 1 territory but
        # overlapping the interface.  Inside B(ar) everything becomes phase
        # 1; phase 2 values are damped and survive only on its own cells.
        grid = make_grid(2, (64, 64), 1 / 64)
        spec = make_functional_spec(
            grid, [0.0, 0.0], [2.0, 2.0], NONNEGATIVE, PowerLaw(0.05, 0.0)
        )
        w = initial_partition(grid, 2, seeds=[(0.25, 0.5), (0.75, 0.5)])
        u = make_phase_field(
            grid,
            [
                solve_phase(spec, w, 1, 1e-10).values,
                solve_phase(spec, w, 2, 1e-10).values,
            ],
        )
        x0, r, a = (0.45, 0.5), 0.2, 0.5
        u2, w2, dj = harmonic_competitor(u, w, spec, x0, r, a, 1)
        d = np.sqrt(np.sum((cell_centers(grid) - np.array(x0)) ** 2, axis=-1))
        inner = d < a * r
        assert np.all(w2.labels[inner] == 1)
        assert np.all(u2.fields[1].values[inner] == 0.0)
        outside = d >= r
        assert np.array_equal(w2.labels[outside], w.labels[outside])
        assert np.array_equal(u2.fields[0].values[outside], u.fields[0].values[outside])
        # admissibility was re-checked by total() inside; delta is finite
        assert np.isfinite(dj)

    def test_validation(self):
        grid = make_grid(2, (32, 32), 1 / 32)
        spec, u, w = solved_full_domain_pair(grid, 2.0, 0.05)
        with pytest.raises(ValueError):
            harmonic_competitor(u, w, spec, (0.5, 0.5), 0.25, 0.3, 1)
        with pytest.raises(ValueError):
            harmonic_competitor(u, w, spec, (0.5, 0.5), 0.25, 0.5, 0)
        with pytest.raises(ValueError):  # ball leaves the bounding box
            harmonic_competitor(u, w, spec, (0.1, 0.5), 0.25, 0.5, 1)

    def test_masked_hole_rejected(self):
        mask = np.ones((32, 32), dtype=bool)
        mask[14:18, 14:18] = False
        grid = make_grid(2, (32, 32), 1 / 32, mask=mask)
        spec = make_functional_spec(grid, [0.0], [2.0], NONNEGATIVE, PowerLaw(0.0, 0.0))
        labels = np.where(mask, 1, 0).astype(int)
        w = make_partition(grid, 1, labels)
        u = make_phase_field(grid, [solve_phase(spec, w, 1, 1e-10).values])
        with pytest.raises(ValueError):
            harmonic_competitor(u, w, spec, (0.5, 0.5), 0.2, 0.5, 1)


class TestAudit:
    def test_zero_pair_min_delta_zero(self):
        grid = make_grid(2, (16, 16), 1 / 16)
        spec = make_functional_spec(grid, [0.0], [1.0], NONNEGATIVE, PowerLaw(0.1, 0.0))
        u, w = zero_pair(grid, 1)
        report = audit(u, w, spec, [((0.5, 0.5), 0.2), ((0.3, 0.3), 0.15)])
        assert report.min_delta_j == 0.0
        assert report.worst is not None
        assert len(report.entries) == 2 * (2 + 2)
        assert not report.skipped

    def test_perturbed_pair_detected(self):
        # For the solved field (f = 0), doubling u makes the energy and
        # mass terms cancel, so the whole-grid cut-off removes exactly the
        # volume cost: the audit must find delta J <= -lam.
        grid = make_grid(2, (32, 32), 1 / 32)
        lam = 0.1
        spec, u, w = solved_full_domain_pair(grid, 4.0, lam)
        doubled = make_phase_field(grid, [2.0 * u.fields[0].values])
        report = audit(doubled, w, spec, [((0.5, 0.5), 100.0)])
        assert report.min_delta_j <= -lam + 1e-10
        assert report.worst.kind == "cutoff"
        # harmonic probes at r=100 violate the mask margin -> recorded skips
        assert len(report.skipped) == 2
        assert "bounding box" in report.skipped[0].note

    def test_skip_note_prints_plain_numbers(self):
        grid = make_grid(2, (16, 16), 1 / 16)
        spec, u, w = solved_full_domain_pair(grid, 2.0, 0.1)
        report = audit(u, w, spec, [((0.5, 0.5), 100.0)])
        skip_lines = audit_report_csv(report).splitlines()[-2:]
        assert skip_lines == [
            "# skipped,harmonic:1,100.0,0.5;0.5,ball at (0.5, 0.5) radius 100.0 "
            "(+margin h) leaves the bounding box"
        ] * 2

    def test_converged_pair_near_minimal(self):
        grid = make_grid(2, (64, 64), 1 / 64)
        spec = make_functional_spec(
            grid, [0.0, 0.0], [2.0, 2.0], NONNEGATIVE, PowerLaw(0.05, 0.0)
        )
        w0 = initial_partition(grid, 2, seeds=[(0.25, 0.5), (0.75, 0.5)])
        u0 = make_phase_field(grid, [np.zeros(grid.shape)] * 2)
        u, w, rep = minimize(spec, init=(u0, w0), tol_solve=1e-10)
        j = rep.j_history[-1]
        probes = seeded_probes(grid, 8, 0.12, seed=3)
        report = audit(u, w, spec, probes)
        assert len(report.entries) == 8 * (2 + 4)
        assert report.min_delta_j >= -3e-3 * (1.0 + abs(j))

    def test_csv_shape_and_determinism(self):
        grid = make_grid(2, (24, 24), 1 / 24)
        spec, u, w = solved_full_domain_pair(grid, 2.0, 0.05)
        probes = [((0.5, 0.5), 0.2), ((0.5, 0.5), 100.0)]
        text1 = audit_report_csv(audit(u, w, spec, probes))
        text2 = audit_report_csv(audit(u, w, spec, probes))
        assert text1 == text2
        lines = text1.strip().split("\n")
        assert lines[0] == "kind,a,main,r,x0_0,x0_1,delta_j"
        body = [ln for ln in lines[1:] if not ln.startswith("#")]
        skips = [ln for ln in lines[1:] if ln.startswith("#")]
        assert len(body) == 4 + 2  # full probe + whole-grid cutoffs
        assert len(skips) == 2
        for ln in body:
            assert len(ln.split(",")) == 7


class TestSeededProbes:
    def test_deterministic_and_in_bounds(self):
        grid = make_grid(2, (64, 64), 1 / 64)
        p1 = seeded_probes(grid, 20, 0.1, seed=7)
        p2 = seeded_probes(grid, 20, 0.1, seed=7)
        assert p1 == p2
        p3 = seeded_probes(grid, 20, 0.1, seed=8)
        assert p1 != p3
        lo, hi = bounding_box(grid)
        margin = 0.1 + 2 * grid.spacing
        for (x0, r) in p1:
            assert r == 0.1
            assert np.all(np.asarray(x0) >= lo + margin - 1e-12)
            assert np.all(np.asarray(x0) <= hi - margin + 1e-12)

    def test_radius_too_large(self):
        grid = make_grid(2, (16, 16), 1 / 16)
        with pytest.raises(ValueError):
            seeded_probes(grid, 4, 0.6, seed=0)
