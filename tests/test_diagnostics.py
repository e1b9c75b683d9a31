"""Unit tests for the structure diagnostics, pinned to closed-form geometry.

Reference values used below (half-plane profile with slope a through the
center of the unit square, probed at the center):

* localized gradient energy over B(r): a^2 * pi r^2 / 2;
* weighted profile (2-d weight 1): a^2 * pi/2 per radius;
* two-sided product: a1^2 a2^2 pi^2/4;
* scale-adjusted profile with volume price lam: lam * pi/2;
* boundary-mass density: the slope a;
* mean of v^2 over the ball / r^2: a^2/8; one-sided volumes: pi/2 each.
"""

from __future__ import annotations

import numpy as np
import pytest

from phasemin.diagnostics import (
    InterfaceReport,
    Phase,
    RadialProfile,
    acf_product,
    acf_profile,
    blowup_rescale,
    density_report,
    el_interface_check,
    flatness,
    free_boundary_cells,
    interface_measure,
    lipschitz_estimate,
    phase_count_at,
    phase_count_map,
    profile_csv,
    radial_energy,
    report_text,
    weiss_profile,
)
from phasemin.elliptic import solve_phase
from phasemin.functional import (
    NONNEGATIVE,
    PerRegion,
    PowerLaw,
    make_functional_spec,
    make_partition,
    make_phase_field,
    partition_from_supports,
)
from phasemin.grid import cell_centers, make_field, make_grid
from phasemin.oracle import ConeOnePhase, ConeTwoPhase, make_cone

CENTER = (0.5, 0.5)


def unit_grid(n):
    return make_grid(2, (n, n), 1.0 / n)


def one_cone(n, slope=1.0):
    grid = unit_grid(n)
    return grid, make_cone(ConeOnePhase(slope, (1.0, 0.0)), grid)


def two_cone(n, a1, a2):
    grid = unit_grid(n)
    return grid, make_cone(ConeTwoPhase(a1, a2, (1.0, 0.0)), grid)


class TestTypes:
    def test_phase_validation(self):
        assert Phase(1).sign == 1
        with pytest.raises(ValueError):
            Phase(0)
        with pytest.raises(ValueError):
            Phase(1, 2)

    def test_radial_profile_validation(self):
        RadialProfile((0.1, 0.2), (1.0, 2.0), "energy")
        with pytest.raises(ValueError):
            RadialProfile((0.2, 0.1), (1.0, 2.0), "energy")
        with pytest.raises(ValueError):
            RadialProfile((0.1,), (1.0,), "nonsense")
        with pytest.raises(ValueError):
            RadialProfile((0.1,), (1.0, 2.0), "energy")

    def test_interface_report_validation(self):
        InterfaceReport(mu_density=(0.0, 1.0), phase_count=0)
        with pytest.raises(ValueError):
            InterfaceReport(mu_density=(-0.5,))
        with pytest.raises(ValueError):
            InterfaceReport(phase_count=-1)


def phase_index_calls():
    """Each routine that takes a phase index, as a call of the index alone,
    on the two-phase cone (N = 2); a result's repr shows every float bit."""
    grid, u = two_cone(64, 1.0, 1.0)
    w = partition_from_supports(u)
    spec = make_functional_spec(
        grid, [0.0, 0.0], [2.0, 2.0], NONNEGATIVE, PowerLaw(0.05, 0.0)
    )
    radii = [0.1, 0.2]
    return {
        "solve_phase": lambda i: solve_phase(spec, w, i).values.tolist(),
        "density_report": lambda i: density_report(u, w, i, CENTER, 0.25),
        "interface_measure": lambda i: interface_measure(u, i, CENTER, radii, spec=spec),
        "weiss_profile": lambda i: weiss_profile(u, i, 1.0, CENTER, radii),
        "acf_profile": lambda i: acf_profile(u, Phase(i), CENTER, radii),
    }


class TestPhaseIndexRule:
    """A phase index is taken by one rule wherever one is taken: an integral
    value in 1..N selects that phase, and any other value raises a
    ValueError naming it."""

    NAMES = ("solve_phase", "density_report", "interface_measure", "weiss_profile", "acf_profile")

    @pytest.mark.parametrize("name", NAMES)
    def test_integral_values_select_the_phase(self, name):
        call = phase_index_calls()[name]
        want = repr(call(1))
        for v in (1.0, np.int64(1)):
            assert repr(call(v)) == want

    @pytest.mark.parametrize("name", NAMES)
    def test_other_values_are_refused(self, name):
        call = phase_index_calls()[name]
        with pytest.raises(ValueError, match=r"phase index 1\.5 is not an integer"):
            call(1.5)
        with pytest.raises(ValueError, match=r"phase index 3 out of range 1\.\.2"):
            call(3)


class TestRadialEnergy:
    def test_zero_field(self):
        grid = unit_grid(32)
        u = make_phase_field(grid, [np.zeros(grid.shape)])
        prof = radial_energy(u, CENTER, [0.1, 0.2])
        assert prof.values == (0.0, 0.0)
        assert prof.kind == "energy"

    def test_cone_matches_half_disk(self):
        _, u = one_cone(256)
        prof = radial_energy(u, CENTER, [0.1, 0.2])
        for r, val in zip(prof.radii, prof.values):
            exact = np.pi * r * r / 2.0
            assert val == pytest.approx(exact, rel=0.03)

    def test_exact_monotonicity(self):
        grid = unit_grid(64)
        rng = np.random.default_rng(0)
        u = make_phase_field(grid, [rng.normal(size=grid.shape)])
        prof = radial_energy(u, (0.43, 0.57), np.linspace(0.05, 0.45, 9))
        assert np.all(np.diff(prof.values) >= 0.0)

    def test_radii_validation(self):
        grid, u = one_cone(32)
        with pytest.raises(ValueError):
            radial_energy(u, CENTER, [0.01])  # below 2h
        with pytest.raises(ValueError):
            radial_energy(u, CENTER, [0.2, 0.1])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_radii_rejected(self, bad):
        _, u = one_cone(32)
        with pytest.raises(ValueError, match=f"radius {bad} must be finite"):
            radial_energy(u, CENTER, [bad])
        # nan is not increasing
        with pytest.raises(ValueError, match=f"radius {bad} must be finite|increasing"):
            radial_energy(u, CENTER, [0.1, 0.2, bad])


class TestAcf:
    def test_zero_part(self):
        grid = unit_grid(32)
        u = make_phase_field(grid, [np.zeros(grid.shape)])
        prof = acf_profile(u, Phase(1), CENTER, [0.1, 0.2])
        assert prof.values == (0.0, 0.0)

    def test_cone_pins_half_disk_constant(self):
        _, u = one_cone(256)
        prof = acf_profile(u, Phase(1), CENTER, [0.1, 0.2, 0.3])
        for val in prof.values:
            assert val == pytest.approx(np.pi / 2.0, rel=0.03)

    def test_quadratic_scaling_exact(self):
        grid, u = one_cone(128)
        scaled = make_phase_field(grid, [3.0 * u.fields[0].values])
        p1 = acf_profile(u, Phase(1), CENTER, [0.1, 0.2])
        p2 = acf_profile(scaled, Phase(1), CENTER, [0.1, 0.2])
        for a, b in zip(p1.values, p2.values):
            assert b == pytest.approx(9.0 * a, rel=1e-12)

    def test_product_two_plane(self):
        a1, a2 = 1.2, 0.8
        _, u = two_cone(256, a1, a2)
        prof, violation = acf_product(
            u, Phase(1), Phase(2), CENTER, [0.1, 0.15, 0.2, 0.25, 0.3]
        )
        target = (a1 * a2) ** 2 * np.pi**2 / 4.0
        for val in prof.values:
            assert val == pytest.approx(target, rel=0.05)
        assert violation <= 0.05

    def test_product_with_empty_part_is_zero(self):
        grid, u = one_cone(64)
        two = make_phase_field(grid, [u.fields[0].values, np.zeros(grid.shape)])
        prof, violation = acf_product(two, Phase(1), Phase(2), CENTER, [0.1, 0.2])
        assert prof.values == (0.0, 0.0)
        assert violation == 0.0

    def test_same_part_rejected(self):
        _, u = one_cone(32)
        with pytest.raises(ValueError):
            acf_product(u, Phase(1), Phase(1), CENTER, [0.1, 0.2])


class TestWeiss:
    def test_zero_field(self):
        grid = unit_grid(32)
        u = make_phase_field(grid, [np.zeros(grid.shape)])
        prof = weiss_profile(u, 1, 1.0, CENTER, [0.1, 0.2])
        assert prof.values == (0.0, 0.0)

    def test_cone_constant_at_volume_price(self):
        lam = 1.0
        _, u = one_cone(512)
        prof = weiss_profile(u, 1, lam, CENTER, [0.1, 0.15, 0.2, 0.25, 0.3])
        target = lam * np.pi / 2.0
        for val in prof.values:
            assert val == pytest.approx(target, rel=0.05)
        spread = (max(prof.values) - min(prof.values)) / target
        assert spread <= 0.05


class TestDensityReport:
    def test_cone_ratios(self):
        _, u = two_cone(256, 1.0, 1.0)
        w = partition_from_supports(u)
        rep = density_report(u, w, 1, CENTER, 0.25)
        ratios = rep.density_ratios
        assert ratios["positive_volume"] == pytest.approx(np.pi / 2.0, rel=0.03)
        assert ratios["complement_volume"] == pytest.approx(np.pi / 2.0, rel=0.03)
        assert ratios["mean_square"] == pytest.approx(1.0 / 8.0, rel=0.05)
        assert ratios["growth_floor"] > 0.3

    def test_probe_off_boundary_rejected(self):
        _, u = two_cone(128, 1.0, 1.0)
        w = partition_from_supports(u)
        with pytest.raises(ValueError):
            density_report(u, w, 1, (0.8, 0.5), 0.1)

    def test_zero_field_rejected(self):
        grid = unit_grid(64)
        u = make_phase_field(grid, [np.zeros(grid.shape)])
        w = partition_from_supports(u)
        with pytest.raises(ValueError):
            density_report(u, w, 1, CENTER, 0.1)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_mean_square_overflow_rejected(self):
        # values near 1e200 square past the largest float
        _, u = one_cone(64, 1e200)
        w = partition_from_supports(u)
        with pytest.raises(ValueError, match=r"mean square of part 1\+ over the ball is not finite"):
            density_report(u, w, 1, CENTER, 0.25)


class TestInterfaceMeasure:
    def test_cone_density_equals_slope(self):
        slope = 2.0
        grid = unit_grid(512)
        u = make_cone(ConeOnePhase(slope, (1.0, 0.0)), grid)
        rep = interface_measure(u, 1, CENTER, [0.05, 0.1, 0.2])
        assert rep.h_density == pytest.approx(slope, rel=0.05)
        for v in rep.mu_density:
            assert v >= 0.0

    def test_matches_slope_check_within_ten_percent(self):
        slope = 2.0
        grid = unit_grid(256)
        u = make_cone(ConeOnePhase(slope, (1.0, 0.0)), grid)
        w = partition_from_supports(u)
        spec = make_functional_spec(
            grid, [0.0], [0.0], NONNEGATIVE, PowerLaw(1.0, 0.0)
        )
        rep = interface_measure(u, 1, CENTER, [0.05, 0.1])
        el = el_interface_check(u, w, spec, CENTER, 0.2)
        assert abs(rep.h_density - el.slopes[0]) <= 0.1 * el.slopes[0]

    def test_smooth_positive_region_has_no_mass(self):
        grid = unit_grid(128)
        spec = make_functional_spec(grid, [0.0], [2.0], NONNEGATIVE, PowerLaw(0.0, 0.0))
        w = make_partition(grid, 1, np.ones(grid.shape, dtype=int))
        u = make_phase_field(grid, [solve_phase(spec, w, 1, 1e-10).values])
        rep = interface_measure(u, 1, CENTER, [0.1, 0.2], spec=spec)
        assert rep.h_density <= 1e-6
        for v in rep.mu_density:
            assert v <= 1e-6

    def test_requires_radius_reaching_4h(self):
        grid = unit_grid(64)
        u = make_cone(ConeOnePhase(1.0, (1.0, 0.0)), grid)
        with pytest.raises(ValueError):
            interface_measure(u, 1, CENTER, [3.5 / 64])


class TestElInterfaceCheck:
    def test_two_plane_balance(self):
        grid, u = two_cone(256, 1.118, 1.0)
        w = partition_from_supports(u)
        q1 = make_field(grid, 0.5)
        q2 = make_field(grid, 0.25)
        spec = make_functional_spec(
            grid, [0.0, 0.0], [0.0, 0.0], NONNEGATIVE, PerRegion((q1, q2))
        )
        rep = el_interface_check(u, w, spec, CENTER, 0.2)
        assert rep.slopes[0] == pytest.approx(1.118, abs=0.02)
        assert rep.slopes[1] == pytest.approx(1.0, abs=0.02)
        assert rep.el_residuals[0] <= 0.05

    def test_one_phase_against_empty_zone(self):
        grid = unit_grid(256)
        cone = make_cone(ConeOnePhase(1.0, (1.0, 0.0)), grid)
        u = make_phase_field(
            grid,
            [cone.fields[0].values, np.zeros(grid.shape), np.zeros(grid.shape)],
        )
        w = partition_from_supports(u)
        weights = tuple(make_field(grid, q) for q in (1.0, 0.5, 0.2))
        spec = make_functional_spec(
            grid, [0.0] * 3, [0.0] * 3, NONNEGATIVE, PerRegion(weights)
        )
        rep = el_interface_check(u, w, spec, CENTER, 0.2)
        assert len(rep.slopes) == 1
        assert rep.el_residuals[0] <= 0.05

    def test_oblique_interface(self):
        grid = unit_grid(256)
        e = (1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0))
        u = make_cone(ConeTwoPhase(1.0, 1.0, e), grid)
        w = partition_from_supports(u)
        spec = make_functional_spec(
            grid, [0.0, 0.0], [0.0, 0.0], NONNEGATIVE, PowerLaw(0.3, 0.0)
        )
        rep = el_interface_check(u, w, spec, CENTER, 0.2)
        assert rep.slopes[0] == pytest.approx(1.0, abs=0.03)
        assert rep.slopes[1] == pytest.approx(1.0, abs=0.03)
        assert rep.el_residuals[0] <= 0.05

    def test_empty_ball_rejected(self):
        grid = unit_grid(64)
        u = make_phase_field(grid, [np.zeros(grid.shape)])
        w = partition_from_supports(u)
        spec = make_functional_spec(grid, [0.0], [0.0], NONNEGATIVE, PowerLaw(0.1, 0.0))
        with pytest.raises(ValueError):
            el_interface_check(u, w, spec, CENTER, 0.1)

    def test_squared_slope_overflow_rejected(self):
        # slopes near 1e200 square past the largest float
        grid, u = two_cone(64, 1e200, 1e200)
        w = partition_from_supports(u)
        spec = make_functional_spec(
            grid, [0.0, 0.0], [0.0, 0.0], NONNEGATIVE, PowerLaw(0.3, 0.0)
        )
        with pytest.raises(ValueError, match="squared one-sided slope is not finite"):
            el_interface_check(u, w, spec, CENTER, 0.2)


class TestFlatness:
    def test_planar_interface(self):
        grid, u = two_cone(128, 1.0, 1.0)
        radii = [0.1, 0.2, 0.3]
        prof, normals = flatness(u, Phase(1), Phase(2), CENTER, radii)
        for r, beta in zip(prof.radii, prof.values):
            assert 0.0 <= beta <= 2.0 * grid.spacing / r
        for e in normals:
            assert abs(abs(float(e[0])) - 1.0) < 1e-9

    def test_sine_interface(self):
        grid = unit_grid(128)
        c = cell_centers(grid)
        height = c[..., 1] - 0.5 - 0.1 * np.sin(10.0 * (c[..., 0] - 0.5))
        u = make_phase_field(
            grid, [np.maximum(height, 0.0), np.maximum(-height, 0.0)]
        )
        prof, _ = flatness(u, Phase(1), Phase(2), CENTER, [0.5])
        assert prof.values[0] == pytest.approx(0.2, abs=0.05)

    def test_one_sided(self):
        grid, u = one_cone(128)
        prof, _ = flatness(u, Phase(1), None, CENTER, [0.2])
        assert prof.values[0] <= 2.0 * grid.spacing / 0.2


class TestBlowup:
    def test_identity_resample(self):
        grid = unit_grid(64)
        rng = np.random.default_rng(1)
        u = make_phase_field(grid, [rng.random(grid.shape)])
        out = blowup_rescale(u, grid.origin, 1.0)
        assert np.allclose(out.fields[0].values, u.fields[0].values, atol=1e-12)

    def test_cone_fixed_point(self):
        grid = unit_grid(128)
        slope = 1.5
        x = cell_centers(grid)[..., 0]
        u = make_phase_field(grid, [slope * x])
        h = grid.spacing
        for rk in (0.5, 0.25):
            out = blowup_rescale(u, (0.0, 0.0), rk)
            xo = cell_centers(out.grid)[..., 0]
            # exact away from the sampling rim (first input half-cell)
            interior = rk * xo >= 0.5 * h
            assert np.allclose(
                out.fields[0].values[interior], (slope * xo)[interior], atol=1e-12
            )
            assert lipschitz_estimate(out) == pytest.approx(slope, abs=1e-9)

    def test_window_validation(self):
        grid = unit_grid(64)
        u = make_phase_field(grid, [np.zeros(grid.shape)])
        with pytest.raises(ValueError):
            blowup_rescale(u, (0.9, 0.9), 0.5)
        with pytest.raises(ValueError):
            blowup_rescale(u, (0.1, 0.1), 2.0 / 64)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_radius_rejected(self, bad):
        grid = unit_grid(64)
        u = make_phase_field(grid, [np.zeros(grid.shape)])
        with pytest.raises(ValueError, match=f"radius {bad} must be finite"):
            blowup_rescale(u, (0.1, 0.1), bad)


class TestPhaseCount:
    def test_interior_point_counts_zero(self):
        _, u = two_cone(128, 1.0, 1.0)
        assert phase_count_at(u, (0.75, 0.5), 0.1) == 0

    def test_junction_counts_two(self):
        _, u = two_cone(128, 1.0, 1.0)
        assert phase_count_at(u, CENTER, 0.1) == 2

    def test_free_sign_phase_counts_both_parts(self):
        grid = unit_grid(128)
        x = cell_centers(grid)[..., 0] - 0.5
        u = make_phase_field(grid, [x.copy()])
        assert phase_count_at(u, CENTER, 0.1) == 2

    def test_map_matches_pointwise(self):
        grid, u = two_cone(64, 1.0, 1.0)
        r = 6.0 * grid.spacing
        counts = phase_count_map(u, r)
        centers = cell_centers(grid)
        rng = np.random.default_rng(2)
        flat = rng.choice(grid.num_cells, size=25, replace=False)
        for k in flat:
            idx = np.unravel_index(k, grid.shape)
            assert counts[idx] == phase_count_at(u, centers[idx], r)

    def test_radius_validation(self):
        grid, u = one_cone(64)
        with pytest.raises(ValueError):
            phase_count_at(u, CENTER, 2.0 * grid.spacing)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_radius_rejected(self, bad):
        _, u = two_cone(64, 1.0, 1.0)
        with pytest.raises(ValueError, match=f"radius {bad} must be finite"):
            phase_count_at(u, CENTER, bad)
        with pytest.raises(ValueError, match=f"radius {bad} must be finite"):
            phase_count_map(u, bad)


def probe_routines():
    """Every routine that takes a point or radii, as ``call(u, x0, r)``.

    ``u`` is a two-part cone with its interface through the center, so each
    call succeeds at the center with radius 0.2.
    """
    grid = unit_grid(64)
    spec = make_functional_spec(
        grid, [0.0, 0.0], [0.0, 0.0], NONNEGATIVE, PowerLaw(0.3, 0.0)
    )

    def w(u):
        return partition_from_supports(u)

    return {
        "radial_energy": lambda u, x0, r: radial_energy(u, x0, [0.1, r]),
        "acf_profile": lambda u, x0, r: acf_profile(u, Phase(1), x0, [0.1, r]),
        "acf_product": lambda u, x0, r: acf_product(u, Phase(1), Phase(2), x0, [r]),
        "weiss_profile": lambda u, x0, r: weiss_profile(u, 1, 1.0, x0, [r]),
        "density_report": lambda u, x0, r: density_report(u, w(u), 1, x0, r),
        "interface_measure": lambda u, x0, r: interface_measure(u, 1, x0, [r]),
        "el_interface_check": lambda u, x0, r: el_interface_check(u, w(u), spec, x0, r),
        "flatness": lambda u, x0, r: flatness(u, Phase(1), Phase(2), x0, [r]),
        "blowup_rescale": lambda u, x0, r: blowup_rescale(u, x0, r),
        "phase_count_at": lambda u, x0, r: phase_count_at(u, x0, r),
        "phase_count_map": lambda u, x0, r: phase_count_map(u, r),
    }


class TestProbeRule:
    """One point rule and one radius rule, shared by every routine."""

    @pytest.mark.parametrize("name", sorted(probe_routines()))
    def test_radius_above_the_diameter_rejected(self, name):
        _, u = two_cone(64, 1.0, 1.0)
        call = probe_routines()[name]
        if name != "blowup_rescale":  # a zoom of 0.2 from the center leaves the box
            call(u, CENTER, 0.2)
        for r in (1.5, 1e100, 1e300, np.inf):
            with pytest.raises(ValueError, match="at most the bounding-box diameter"):
                call(u, CENTER, r)

    @pytest.mark.parametrize("name", sorted(set(probe_routines()) - {"phase_count_map"}))
    def test_point_outside_the_box_rejected(self, name):
        _, u = two_cone(64, 1.0, 1.0)
        call = probe_routines()[name]
        for x0 in ((5.0, 5.0), (0.5, -0.01), (1.0 + 1e-9, 0.5)):
            with pytest.raises(ValueError, match="outside the bounding box"):
                call(u, x0, 0.2)

    def test_diameter_is_a_radius(self):
        _, u = two_cone(64, 1.0, 1.0)
        prof = radial_energy(u, CENTER, [0.1, np.sqrt(2.0)])
        assert prof.radii[-1] == np.sqrt(2.0)
        assert phase_count_map(u, np.sqrt(2.0)).shape == u.grid.shape

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_single_radius_routines_reject_infinity(self):
        _, u = two_cone(64, 1.0, 1.0)
        w = partition_from_supports(u)
        spec = make_functional_spec(
            u.grid, [0.0, 0.0], [0.0, 0.0], NONNEGATIVE, PowerLaw(0.3, 0.0)
        )
        with pytest.raises(ValueError, match="radius inf must be finite"):
            density_report(u, w, 1, CENTER, np.inf)
        with pytest.raises(ValueError, match="radius inf must be finite"):
            el_interface_check(u, w, spec, CENTER, np.inf)

    def test_least_radius_is_named(self):
        _, u = two_cone(64, 1.0, 1.0)
        h = u.grid.spacing
        with pytest.raises(ValueError, match=f"at least {4.0 * h}"):
            phase_count_at(u, CENTER, 3.0 * h)
        with pytest.raises(ValueError, match=f"above 2h = {2.0 * h}"):
            radial_energy(u, CENTER, [2.0 * h])

    def test_window_inside_a_mask_hole(self):
        # a grid needs a masked cell, a probe window does not
        mask = np.ones((64, 64), dtype=bool)
        mask[16:48, 16:48] = False
        grid = make_grid(2, (64, 64), 1 / 64, mask=mask)
        u = make_phase_field(grid, [np.where(mask, 1.0, 0.0)])
        assert phase_count_at(u, CENTER, 0.1) == 0
        assert radial_energy(u, CENTER, [0.05, 0.1]).values == (0.0, 0.0)
        assert acf_profile(u, Phase(1, 1), CENTER, [0.05, 0.1]).values == (0.0, 0.0)
        report = interface_measure(u, 1, CENTER, [0.05, 0.1])
        assert report.mu_density == (0.0, 0.0)
        with pytest.raises(ValueError, match="no boundary cells inside the fitting ball"):
            flatness(u, Phase(1, 1), None, CENTER, [0.05, 0.1])


class TestLipschitz:
    def test_constant_field(self):
        grid = unit_grid(32)
        u = make_phase_field(grid, [np.full(grid.shape, 5.0)])
        assert lipschitz_estimate(u) == 0.0

    def test_ramp_exact(self):
        grid = unit_grid(64)
        u = make_cone(ConeOnePhase(3.0, (1.0, 0.0)), grid)
        assert lipschitz_estimate(u) == pytest.approx(3.0, abs=1e-12)

    def test_region_restriction(self):
        grid = unit_grid(64)
        u = make_cone(ConeOnePhase(3.0, (1.0, 0.0)), grid)
        region = cell_centers(grid)[..., 0] < 0.4
        assert lipschitz_estimate(u, region=region) == 0.0


class TestExports:
    def test_profile_csv(self):
        prof = RadialProfile((0.1, 0.2), (1.5, 2.5), "acf")
        text = profile_csv(prof)
        lines = text.strip().split("\n")
        assert lines[0] == "r,acf"
        assert lines[1] == "0.1,1.5"
        assert len(lines) == 3

    def test_report_text(self):
        rep = InterfaceReport(
            h_density=2.0, slopes=(1.0,), el_residuals=(0.01,), phase_count=1
        )
        text = report_text(rep)
        assert "h_density 2.0" in text
        assert "phase_count 1" in text

    def test_free_boundary_excludes_walls(self):
        grid, u = one_cone(64)
        fb = free_boundary_cells(u, Phase(1))
        # the support's right edge is the domain wall: not free boundary
        assert not np.any(fb[-1, :])
        # the interface column is
        x = cell_centers(grid)[..., 0]
        assert np.all(fb[(x > 0.5) & (x < 0.5 + grid.spacing)])
