"""Linear solves for the per-phase fields and the landscape function.

Both entry points assemble the same symmetric positive-definite operator
``-lap + coefficient`` restricted to a cell set, with homogeneous Dirichlet
data outside it: zero at the neighbor center for in-mask cells outside the
set (full edge), and zero at the cell face for box faces and unmasked
neighbors (half-spacing wall, weight 2).  The system is solved matrix-free
with preconditioned conjugate gradients.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.typing import NDArray

from .functional import NONNEGATIVE, FunctionalSpec, Partition
from .grid import Grid, ScalarField, make_field, neighbor_sum, wall_slot_count

__all__ = ["SolverError", "solve_phase", "solve_landscape"]


class SolverError(RuntimeError):
    """Raised when conjugate gradients hits its iteration cap or breaks down.

    Breakdown means a nonpositive or non-finite ``r.z`` or ``p.Ap``, after
    which the next step would divide by zero or lose positive definiteness.

    Attributes:
        residual: true relative residual ``||b - Ax|| / ||b||`` at exit.
        iterations: number of iterations performed.
    """

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


def _pcg(
    grid: Grid,
    region: NDArray[np.bool_],
    coeff: NDArray,
    rhs: NDArray,
    tol: float,
    x0: NDArray | None = None,
) -> tuple[NDArray, float, int]:
    """Solve (-lap + coeff) x = rhs on ``region`` by preconditioned CG.

    ``coeff`` and ``rhs`` are full-shape arrays read on the region only.
    Returns ``(x, relative_residual, iterations)``; ``x`` is full-shape and
    zero off the region.  Convergence is decided on the recursively updated
    residual, which in finite precision can fall below the true one once the
    latter reaches its rounding floor; the returned residual is the true
    ``||b - Ax|| / ||b||``, so it can sit slightly above ``tol``.  Raises
    SolverError, carrying that true residual, past the iteration cap
    ``ceil(50 * sqrt(#region cells))`` or on breakdown.
    """
    h2 = grid.spacing**2
    deg = (2 * grid.dim + wall_slot_count(grid)).astype(float)
    diag = np.where(region, deg / h2 + coeff, 1.0)

    def apply_op(v: NDArray) -> NDArray:
        out = (deg * v - neighbor_sum(v)) / h2 + coeff * v
        return np.where(region, out, 0.0)

    b = np.where(region, rhs, 0.0)
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return np.zeros(grid.shape), 0.0, 0

    if x0 is None:
        x = np.zeros(grid.shape)
        r = b.copy()
    else:
        x = np.where(region, x0, 0.0)
        r = b - apply_op(x)
    z = r / diag
    p = z.copy()
    rz = float(np.sum(r * z))
    cap = math.ceil(50.0 * math.sqrt(int(np.count_nonzero(region))))
    res = float(np.linalg.norm(r)) / b_norm
    it = 0
    failure = None
    # Written so that a nan residual enters the loop and meets the guard.
    while not res <= tol:
        if it == cap:
            failure = f"did not reach tol={tol} within {cap} iterations"
            break
        ap = apply_op(p)
        pap = float(np.sum(p * ap))
        if not (rz > 0.0 and pap > 0.0 and math.isfinite(pap)):
            failure = f"broke down after {it} iterations"
            break
        alpha = rz / pap
        x = x + alpha * p
        r = r - alpha * ap
        res = float(np.linalg.norm(r)) / b_norm
        z = r / diag
        rz_new = float(np.sum(r * z))
        p = z + (rz_new / rz) * p
        rz = rz_new
        it += 1
    # Before the first update r is b - Ax computed directly, so res is true.
    if it > 0:
        res = float(np.linalg.norm(b - apply_op(x))) / b_norm
    if failure is not None:
        raise SolverError(
            f"conjugate gradients {failure} (true relative residual {res:.3e})",
            residual=res,
            iterations=it,
        )
    return x, res, it


def solve_phase(
    spec: FunctionalSpec,
    w: Partition,
    i: int,
    tol: float = 1e-8,
    initial: ScalarField | None = None,
) -> ScalarField:
    """Solve the phase equation on the cells labeled ``i``.

    Finds the field minimizing gradient energy plus the bulk term over
    fields supported on region i, i.e. the solution of
    ``(-lap + f_i) u = g_i / 2`` there, with zero Dirichlet data at region
    boundaries (cell centers for in-mask exterior cells, cell faces at box
    walls and unmasked neighbors).

    Args:
        spec: functional description providing f_i, g_i and the sign rule.
        w: partition whose label-i cells form the solve region.
        i: phase index in 1..num_phases.
        tol: relative residual target, > 0.
        initial: optional warm-start field (values off the region ignored).

    Returns:
        The solved field, zero off the region.  With a nonnegative sign
        constraint, negative cells are clamped and removed from the region
        until the active set stabilizes (at most 10 rounds).

    Raises:
        ValueError: bad index or tolerance.
        SolverError: iteration cap reached before the residual target, or
            conjugate gradients broke down.
    """
    if not 1 <= i <= spec.num_phases:
        raise ValueError(f"phase index {i} out of range 1..{spec.num_phases}")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    grid = spec.grid
    region = w.labels == i
    if not np.any(region):
        return make_field(grid, np.zeros(grid.shape))
    f_vals = spec.f[i - 1].values
    rhs = 0.5 * spec.g[i - 1].values
    x0 = initial.values if initial is not None else None
    x, _, _ = _pcg(grid, region, f_vals, rhs, tol, x0)
    if spec.sign_constraints[i - 1] == NONNEGATIVE:
        for _ in range(10):
            negative = region & (x < -1e-12)
            if not np.any(negative):
                break
            region = region & ~negative
            x = np.maximum(x, 0.0)
            if not np.any(region):
                x = np.zeros(grid.shape)
                break
            x, _, _ = _pcg(grid, region, f_vals, rhs, tol, x)
        x = np.where(x > 0.0, x, 0.0)
    return make_field(grid, x)


def solve_landscape(
    grid: Grid, potential: ScalarField | float, tol: float = 1e-8
) -> ScalarField:
    """Solve ``(-lap + V) w = 1`` on the mask with Dirichlet walls.

    Args:
        grid: carrier grid; the solve region is the full mask.
        potential: nonnegative coefficient field V (a scalar broadcasts).
        tol: relative residual target, > 0.

    Returns:
        The landscape field, zero off the mask and nonnegative on it.

    Raises:
        ValueError: negative potential values or bad tolerance.
        SolverError: iteration cap reached before the residual target, or
            conjugate gradients broke down.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if isinstance(potential, ScalarField):
        v = potential.values
    else:
        v = np.full(grid.shape, float(potential))
    if np.any(v[grid.mask] < 0.0):
        raise ValueError("potential must be nonnegative on the mask")
    rhs = np.ones(grid.shape)
    x, _, _ = _pcg(grid, grid.mask, v, rhs, tol)
    return make_field(grid, x)
