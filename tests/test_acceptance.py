"""Acceptance suite: fourteen quantitative criteria, one verdict line each.

Each test prints ``ACCEPTANCE <nn> <name>: PASS/FAIL (<measurements>)``
before asserting, so the transcript always carries the full scorecard.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from phasemin.competitors import audit, seeded_probes
from phasemin.diagnostics import (
    Phase,
    acf_product,
    acf_profile,
    density_report,
    el_interface_check,
    free_boundary_cells,
    interface_measure,
    phase_count_map,
    weiss_profile,
)
from phasemin.elliptic import solve_landscape, solve_phase
from phasemin.functional import (
    NONNEGATIVE,
    PerRegion,
    PowerLaw,
    make_functional_spec,
    make_partition,
    make_phase_field,
    partition_from_supports,
)
from phasemin.grid import axis_centers, cell_centers, make_field, make_grid
from phasemin.oracle import (
    ConeOnePhase,
    ConeTwoPhase,
    make_cone,
    oracle_two_phase_1d,
)

from conftest import CONFIG_DIR
from torsion_series import torsion_square_reference


def verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_01_landscape_accuracy():
    grid = make_grid(2, (128, 128), 1.0 / 128)
    t0 = time.perf_counter()
    w0 = solve_landscape(grid, 0.0, tol=1e-10)
    elapsed = time.perf_counter() - t0
    peak = float(w0.values.max())
    err = abs(peak - torsion_square_reference())
    ok = err <= 1e-3 and elapsed < 10.0
    verdict(1, "landscape-accuracy", ok, f"max_w0 err {err:.3e}, {elapsed:.2f}s")


def test_02_phase_equation_convergence():
    errs = []
    for n in (32, 64, 128):
        grid = make_grid(1, (n,), 1.0 / n)
        spec = make_functional_spec(grid, [0.0], [2.0], NONNEGATIVE, PowerLaw(0.0, 0.0))
        w = make_partition(grid, 1, np.ones(grid.shape, dtype=int))
        u = solve_phase(spec, w, 1, tol=1e-12)
        x = axis_centers(grid, 0)
        errs.append(float(np.abs(u.values - x * (1.0 - x) / 2.0).max()))
    ratios = [errs[k] / errs[k + 1] for k in range(len(errs) - 1)]
    ok = errs[-1] <= 1e-4 and all(r >= 3.2 for r in ratios)
    verdict(
        2,
        "phase-equation-accuracy",
        ok,
        f"err(1/128) {errs[-1]:.3e}, halving ratios "
        + " ".join(f"{r:.2f}" for r in ratios),
    )


def test_03_descent(run_2d_128, run_2d_256, run_1d_256, run_positivity):
    worst = -np.inf
    worst_cfg = ""
    for name, fix in (
        ("2d_h128", run_2d_128),
        ("2d_h256", run_2d_256),
        ("1d_h256", run_1d_256),
        ("positivity", run_positivity),
    ):
        hist = np.asarray(fix.report.j_history)
        slack = 1e-10 * (1.0 + abs(hist[0]))
        rise = float(np.diff(hist).max()) if len(hist) > 1 else 0.0
        if rise - slack > worst:
            worst = rise - slack
            worst_cfg = name
    ok = worst <= 0.0
    verdict(3, "descent", ok, f"worst rise-minus-slack {worst:.3e} ({worst_cfg})")


def test_04_oracle_match_1d(run_1d_256):
    grid = run_1d_256.spec.grid
    h = grid.spacing
    xs = axis_centers(grid, 0)
    g1 = run_1d_256.spec.g[0].values
    g2 = run_1d_256.spec.g[1].values
    oracle = oracle_two_phase_1d(
        lambda t: np.interp(t, xs, g1), lambda t: np.interp(t, xs, g2), 0.05, 0.05
    )
    labels = run_1d_256.w.labels
    change = [
        k
        for k in np.nonzero(labels[:-1] != labels[1:])[0]
        if labels[k] != 0 and labels[k + 1] != 0
    ]
    loc = 0.5 * (xs[change[0]] + xs[change[0] + 1]) if change else np.inf
    j_gap = abs(run_1d_256.j - oracle.j_split)
    ok = (
        abs(loc - oracle.s_split) <= 2 * h
        and j_gap <= 5e-3
        and run_1d_256.elapsed < 30.0
    )
    verdict(
        4,
        "1d-two-phase-oracle-match",
        ok,
        f"interface {loc:.5f} vs {oracle.s_split:.5f}, |J-J*| {j_gap:.3e}, "
        f"{run_1d_256.elapsed:.2f}s",
    )


def test_05_competitor_audit(run_2d_128):
    probes = seeded_probes(run_2d_128.spec.grid, 20, 0.1, seed=0)
    report = audit(run_2d_128.u, run_2d_128.w, run_2d_128.spec, probes)
    floor = -1e-3 * (1.0 + abs(run_2d_128.j))
    ok = report.min_delta_j >= floor and len(report.entries) > 0
    verdict(
        5,
        "competitor-audit",
        ok,
        f"min dJ {report.min_delta_j:.3e} >= {floor:.3e}, "
        f"{len(report.entries)} entries, {len(report.skipped)} skips",
    )


def test_06_acf_cones():
    grid = make_grid(2, (256, 256), 1.0 / 256)
    center = (0.5, 0.5)
    radii = [0.1, 0.15, 0.2, 0.25, 0.3]
    one = make_cone(ConeOnePhase(1.0, (1.0, 0.0)), grid)
    prof = acf_profile(one, Phase(1), center, radii)
    one_err = max(abs(v - np.pi / 2) / (np.pi / 2) for v in prof.values)
    two = make_cone(ConeTwoPhase(1.0, 1.0, (1.0, 0.0)), grid)
    pprof, violation = acf_product(two, Phase(1), Phase(2), center, radii)
    target = np.pi**2 / 4.0
    two_err = max(abs(v - target) / target for v in pprof.values)
    ok = one_err <= 0.03 and two_err <= 0.05 and violation <= 0.05
    verdict(
        6,
        "acf-cone-constancy",
        ok,
        f"one-phase dev {one_err:.4f} (<=3%), product dev {two_err:.4f} (<=5%), "
        f"violation {violation:.4f}",
    )


def test_07_weiss_cone():
    grid = make_grid(2, (512, 512), 1.0 / 512)
    cone = make_cone(ConeOnePhase(1.0, (1.0, 0.0)), grid)
    prof = weiss_profile(cone, 1, 1.0, (0.5, 0.5), [0.1, 0.15, 0.2, 0.25, 0.3])
    dev = max(abs(v - np.pi / 2) / (np.pi / 2) for v in prof.values)
    ok = dev <= 0.05
    verdict(7, "weiss-cone-constancy", ok, f"max deviation {dev:.4f} (<=5%)")


def _two_plane_residual() -> float:
    grid = make_grid(2, (256, 256), 1.0 / 256)
    u = make_cone(ConeTwoPhase(1.118, 1.0, (1.0, 0.0)), grid)
    w = partition_from_supports(u)
    weights = tuple(make_field(grid, q) for q in (0.5, 0.25))
    spec = make_functional_spec(
        grid, [0.0, 0.0], [0.0, 0.0], NONNEGATIVE, PerRegion(weights)
    )
    rep = el_interface_check(u, w, spec, (0.5, 0.5), 0.2)
    return rep.el_residuals[0]


def _one_phase_residual() -> float:
    grid = make_grid(2, (256, 256), 1.0 / 256)
    cone = make_cone(ConeOnePhase(1.0, (1.0, 0.0)), grid)
    u = make_phase_field(
        grid, [cone.fields[0].values, np.zeros(grid.shape), np.zeros(grid.shape)]
    )
    w = partition_from_supports(u)
    weights = tuple(make_field(grid, q) for q in (1.0, 0.5, 0.2))
    spec = make_functional_spec(
        grid, [0.0] * 3, [0.0] * 3, NONNEGATIVE, PerRegion(weights)
    )
    rep = el_interface_check(u, w, spec, (0.5, 0.5), 0.2)
    return rep.el_residuals[0]


def test_08_slope_laws(run_2d_128, run_2d_256):
    syn_two = _two_plane_residual()
    syn_one = _one_phase_residual()
    res = {}
    for name, fix in (("h128", run_2d_128), ("h256", run_2d_256)):
        rep = el_interface_check(fix.u, fix.w, fix.spec, (0.5, 0.5), 0.1)
        res[name] = max(rep.el_residuals)
    ok = (
        syn_two <= 0.05
        and syn_one <= 0.05
        and res["h128"] <= 0.15
        and res["h256"] <= res["h128"] + 0.02
    )
    verdict(
        8,
        "slope-laws",
        ok,
        f"synthetic two-phase {syn_two:.3e}, one-phase {syn_one:.3e}, "
        f"minimizer h128 {res['h128']:.3e}, h256 {res['h256']:.3e}",
    )


def test_09_interface_density():
    grid = make_grid(2, (512, 512), 1.0 / 512)
    cone = make_cone(ConeOnePhase(2.0, (1.0, 0.0)), grid)
    rep = interface_measure(cone, 1, (0.5, 0.5), [0.05, 0.1, 0.2])
    err = abs(rep.h_density - 2.0) / 2.0
    ok = err <= 0.05
    verdict(9, "interface-density", ok, f"h_density {rep.h_density:.4f} vs 2 ({err:.4f})")


def _density_floors(fix) -> dict[str, float]:
    grid = fix.spec.grid
    fb = free_boundary_cells(fix.u, Phase(1))
    pts = cell_centers(grid)[fb]
    floors: dict[str, float] = {}
    for y in np.linspace(0.3, 0.7, 10):
        probe = pts[np.argmin(np.linalg.norm(pts - [0.5, y], axis=1))]
        for r in (0.05, 0.1, 0.2):
            rep = density_report(fix.u, fix.w, 1, probe, r)
            for key, val in rep.density_ratios.items():
                floors[key] = min(floors.get(key, np.inf), val)
    return floors

def test_10_density_floor_stability(run_2d_128, run_2d_256):
    coarse = _density_floors(run_2d_128)
    fine = _density_floors(run_2d_256)
    positive = all(v > 0.0 for v in coarse.values()) and all(
        v > 0.0 for v in fine.values()
    )
    changes = {k: abs(fine[k] - coarse[k]) / coarse[k] for k in coarse}
    ok = positive and all(c < 0.25 for c in changes.values())
    verdict(
        10,
        "density-floor-stability",
        ok,
        "refinement changes "
        + " ".join(f"{k} {v:.3f}" for k, v in sorted(changes.items())),
    )


def test_11_phase_count(run_2d_128):
    grid = run_2d_128.spec.grid
    h = grid.spacing
    counts = phase_count_map(run_2d_128.u, 6 * h)
    c = cell_centers(grid)
    wall_dist = np.minimum.reduce(
        [c[..., 0], 1 - c[..., 0], c[..., 1], 1 - c[..., 1]]
    )
    near = wall_dist < 2 * h
    interior_max = int(counts[~near].max())
    wall_max = int(counts[near].max())
    ok = interior_max <= 2 and wall_max <= 1
    verdict(
        11,
        "phase-count",
        ok,
        f"max interior {interior_max} (<=2), max within 2h of walls {wall_max} (<=1)",
    )


def test_12_positivity(run_positivity):
    zf = run_positivity.report.zero_set_fraction
    ok = zf <= 0.05
    verdict(12, "positivity-zero-set", ok, f"zero_set_fraction {zf:.4f} (<=0.05)")


def test_13_acf_monotonicity_minimizer(run_2d_128):
    grid = run_2d_128.spec.grid
    h = grid.spacing
    fb = free_boundary_cells(run_2d_128.u, Phase(1))
    pts = cell_centers(grid)[fb]
    inner = np.all((pts > 0.25) & (pts < 0.75), axis=1)
    pts = pts[inner]
    rng = np.random.default_rng(0)
    sel = pts[rng.choice(len(pts), size=5, replace=False)]
    radii = [4 * h, 6 * h, 8 * h]
    worst = 0.0
    for p in sel:
        _, violation = acf_product(
            run_2d_128.u, Phase(1), Phase(2), p, radii
        )
        worst = max(worst, violation)
    ok = worst <= 0.05
    verdict(
        13,
        "acf-near-monotonicity",
        ok,
        f"max violation {worst:.4f} over 5 interface probes (<=0.05)",
    )


def test_14_determinism(tmp_path):
    from phasemin.cli import run as cli_run

    mismatched = []
    for config in ("two_phase_1d_h256.txt", "landscape_2d_h128.txt"):
        out1 = tmp_path / config.replace(".txt", "_a")
        out2 = tmp_path / config.replace(".txt", "_b")
        assert cli_run(CONFIG_DIR / config, out1, workers=1) == 0
        assert cli_run(CONFIG_DIR / config, out2, workers=1) == 0
        for p in sorted(out1.iterdir()):
            if p.read_bytes() != (out2 / p.name).read_bytes():
                mismatched.append(f"{config}:{p.name}")
    ok = not mismatched
    verdict(
        14,
        "artifact-determinism",
        ok,
        "all artifacts byte-identical across reruns"
        if ok
        else "mismatch: " + " ".join(mismatched),
    )
