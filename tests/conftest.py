"""Session fixtures: converged runs shared across the acceptance suite."""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from phasemin.cli import RunPlan, build_plan
from phasemin.functional import (
    NONNEGATIVE,
    FunctionalSpec,
    Partition,
    PhaseField,
    PowerLaw,
    make_functional_spec,
    make_phase_field,
    total,
)
from phasemin.grid import cell_centers, make_field, make_grid
from phasemin.minimize import SolveReport, initial_partition, minimize

REPO = Path(__file__).resolve().parent.parent
CONFIG_DIR = REPO / "configs"


@dataclass(frozen=True)
class ConvergedRun:
    """A minimized pair plus its report, objective, and wall time."""

    spec: FunctionalSpec
    u: PhaseField
    w: Partition
    report: SolveReport
    j: float
    elapsed: float
    plan: RunPlan | None = None


def _minimize_plan(plan: RunPlan) -> ConvergedRun:
    init = plan.initial_pair()
    t0 = time.perf_counter()
    u, w, report = minimize(
        plan.spec,
        init=init,
        max_outer=plan.max_outer,
        tol_j=plan.tol_j,
        tol_solve=plan.tol_solve,
    )
    elapsed = time.perf_counter() - t0
    return ConvergedRun(plan.spec, u, w, report, total(u, w, plan.spec), elapsed, plan)


@pytest.fixture(scope="session")
def run_2d_128() -> ConvergedRun:
    """The repo-fixed 2D two-phase run (mirrored ramps, h=1/128)."""
    return _minimize_plan(build_plan(CONFIG_DIR / "two_phase_2d_h128.txt"))


@pytest.fixture(scope="session")
def run_2d_256() -> ConvergedRun:
    """The same 2D scenario one refinement finer (h=1/256)."""
    n = 256
    grid = make_grid(2, (n, n), 1.0 / n)
    x = cell_centers(grid)[..., 0]
    spec = make_functional_spec(
        grid,
        [0.0, 0.0],
        [make_field(grid, 8.0 * (1.0 - x)), make_field(grid, 8.0 * x)],
        NONNEGATIVE,
        PowerLaw(0.05, 0.0),
    )
    w0 = initial_partition(grid, 2, [(0.25, 0.5), (0.75, 0.5)])
    u0 = make_phase_field(grid, [np.zeros(grid.shape)] * 2)
    t0 = time.perf_counter()
    u, w, report = minimize(spec, init=(u0, w0))
    elapsed = time.perf_counter() - t0
    return ConvergedRun(spec, u, w, report, total(u, w, spec), elapsed)


@pytest.fixture(scope="session")
def run_1d_256() -> ConvergedRun:
    """The repo-fixed 1D two-phase run (mirrored ramps, h=1/256)."""
    return _minimize_plan(build_plan(CONFIG_DIR / "two_phase_1d_h256.txt"))


@pytest.fixture(scope="session")
def run_positivity() -> ConvergedRun:
    """Positive sources with zero volume cost: supports should fill."""
    return _minimize_plan(build_plan(CONFIG_DIR / "positivity_2d_h128.txt"))
