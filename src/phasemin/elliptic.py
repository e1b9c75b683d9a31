"""Linear solves for the per-phase fields, the landscape function and the
harmonic extension into a ball.

The field and landscape solves assemble the same symmetric positive-definite
operator ``-lap + coefficient`` restricted to a cell set, with homogeneous
Dirichlet data outside it: zero at the neighbor center for in-mask cells
outside the set (full edge), and zero at the cell face for box faces and
unmasked neighbors (half-spacing wall, weight 2).  The system is solved
matrix-free, on the bounding box of the cell set, by conjugate gradients
preconditioned with one symmetric geometric multigrid V-cycle per iteration
(MGCG).  The harmonic extension has the same operator with zero
coefficient; a small ball is solved densely instead (see
``DIRECT_CELLS``).

Multigrid levels
----------------
A coarse cell merges ``2**dim`` children and belongs to the coarse region
only if every child does; an odd trailing layer of cells along an axis has
no coarse parent, which is the same as padding the box with cells outside
the region.  A coarse cell's wall slots are its children's summed wall slots
over ``2**(dim-1)`` (exact at box faces and corners), its coefficient is the
sum of its children's times ``2**-dim`` (their mean, but with no overflow),
and its spacing is doubled.  Child sums run over strided views by pairs,
last axis first: ``(a00 + a01) + (a10 + a11)``, the order of ``np.sum`` over
the child axes of an ``(n0, 2, n1, 2)`` view unless n1 is 1 (numpy then adds
the four in sequence).  Coarsening stops when a side is at most 2 cells,
when at most ``MIN_COARSE_CELLS`` region cells remain, or when the coarse
region would be empty.  A level stores ``D``, the operator diagonal, and
``1/h**2``, ``OMEGA/D`` and ``OMEGA/(h**2 D)``, each zero off the region, so
a damped Jacobi sweep ``x += OMEGA D^-1 (b - A x)`` is
``x <- (1 - OMEGA) x + OMEGA D^-1 b + OMEGA/(h**2 D) N(x)``, with ``N`` the
neighbor sum and ``OMEGA D^-1 b`` formed once per level and cycle.  The
cycle smooths with ``SWEEPS`` sweeps before the coarse correction and as
many after it, restricts residuals by averaging the children and prolongs
corrections by copying them to the children.  A coarsest level of at most
``MIN_COARSE_CELLS`` region cells is solved exactly: ``_levels`` stores the
inverse of its operator on those cells (assembled densely, as the harmonic
extension's matrix is, and symmetrized; at most 8 by 8), and
the cycle applies it as ``np.sum`` of a product.  A coarsest level left
with more cells by the side or the empty-region stop is smoothed instead,
with ``2 * SWEEPS + COARSEST_EXTRA_SWEEPS`` sweeps.  Restriction is
``2**-dim`` times the transpose of prolongation, Jacobi sweeps from a zero
guess apply a polynomial in ``D^-1 A`` times ``D^-1``, and the coarsest
solve is symmetric positive definite, so the V-cycle is a symmetric
positive-definite preconditioner.  The inner products ``r.z`` and ``p.Ap``
and the residual norms stay ``np.sum`` of a product, never BLAS (``np.dot``,
``np.linalg.norm``), whose summation order can change with the number of
threads: reruns must write identical fields and residuals.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from numpy.typing import NDArray

from .functional import NONNEGATIVE, FunctionalSpec, Partition, check_reaction, phase_index
from .grid import (
    Grid,
    ScalarField,
    edge_slices,
    index_box,
    make_field,
    neighbor_sum,
    wall_slot_count,
)

__all__ = ["SolverError", "check_options", "solve_phase", "solve_landscape", "harmonic_extension"]

OMEGA = 0.8
"""Damping factor of the Jacobi smoother."""

SWEEPS = 2
"""Jacobi sweeps before the coarse correction, and again after it; equal
counts keep the V-cycle symmetric."""

COARSEST_EXTRA_SWEEPS = 16
"""Sweeps on a smoothed coarsest level on top of its ``2 * SWEEPS``."""

MIN_COARSE_CELLS = 8
"""Coarsening stops once a level has at most this many region cells, and
such a coarsest level is solved exactly."""

DIRECT_CELLS = 512
"""Largest region :func:`harmonic_extension` solves with one dense solve.

A dense solve of n cells costs O(n**3) work and n**2 doubles (2 MB at 512
cells); MGCG costs about O(n) per iteration with a setup that dominates
small regions.  With one BLAS thread, dense against MGCG took 0.4 against
8.7 ms at 130 cells, 7.9 against 11.6 ms at 516 and 21 against 13 ms at
806, so the cross-over lies between 516 and 806 cells."""


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


class _Level:
    """One multigrid level on the bounding box.  ``diag`` is D (1 off the
    region); ``inv_h2``, ``damp`` and ``damp_nbr`` are ``1/h**2``, ``OMEGA/D``
    and ``OMEGA/(h**2 D)`` on the region and 0 off it.  ``rhs`` and ``out``
    hold the right-hand side and the V-cycle output (on the finest level CG's
    ``r`` and ``z``), ``damped`` holds ``damp * rhs``; ``work`` and ``nbr``
    are spare.  An exactly solved coarsest level holds its region ``cells``
    (one index array per axis) and the ``inverse`` of its operator on them;
    other levels hold None."""

    __slots__ = (
        "diag", "inv_h2", "damp", "damp_nbr", "rhs", "out", "damped", "work", "nbr",
        "cells", "inverse",
    )

    def __init__(
        self, region: NDArray[np.bool_], walls: NDArray, coeff: NDArray, h2: float
    ):
        self.diag = walls + 2 * region.ndim
        self.diag /= h2
        self.diag += coeff
        np.copyto(self.diag, 1.0, where=~region)
        self.inv_h2 = region / h2
        self.damp = np.divide(OMEGA, self.diag)
        self.damp *= region
        self.damp_nbr = self.damp * self.inv_h2
        self.rhs = np.zeros(region.shape)
        self.out = np.zeros(region.shape)
        self.damped = np.zeros(region.shape)
        self.work = np.zeros(region.shape)
        self.nbr = np.zeros(region.shape)
        self.cells = self.inverse = None


def _children(a: NDArray, shape: tuple[int, ...]) -> list[NDArray]:
    """Strided views of ``a``, one per child offset (in C order) of the coarse
    cells of ``shape``; an odd trailing layer is left out."""
    return [
        a[tuple(slice(o, o + 2 * n, 2) for o, n in zip(offset, shape))]
        for offset in itertools.product((0, 1), repeat=len(shape))
    ]


def _child_reduce(op, a: NDArray, shape: tuple[int, ...], out=None) -> NDArray:
    """``op`` over each coarse cell's children, adjacent pairs first; for
    ``np.add`` as in the module docstring."""
    parts = _children(a, shape)
    while len(parts) > 2:
        parts = [op(p, q) for p, q in zip(parts[::2], parts[1::2])]
    return op(*parts, out=out)


def _levels(
    grid: Grid, region: NDArray[np.bool_], coeff: NDArray
) -> tuple[tuple[slice, ...], list[_Level]]:
    """Crop the solve to the region's bounding box and build its levels.

    Returns the box and the levels, finest first.  The box holds every
    region cell, and fields vanish off the region, so the box operator with
    zero beyond its edges equals the full-grid one.
    """
    box = index_box(region)
    dim = grid.dim
    region = region[box]
    walls = wall_slot_count(grid)[box].astype(float)
    coeff = coeff[box]
    h2 = grid.spacing**2
    levels = [_Level(region, walls, coeff, h2)]
    while min(region.shape) > 2 and np.count_nonzero(region) > MIN_COARSE_CELLS:
        shape = tuple(n // 2 for n in region.shape)
        coarse = _child_reduce(np.logical_and, region, shape)
        if not np.any(coarse):
            break
        region = coarse
        walls = _child_reduce(np.add, walls, shape) / 2 ** (dim - 1)
        coeff = _child_reduce(np.add, coeff * 0.5**dim, shape)
        h2 *= 4.0
        levels.append(_Level(region, walls, coeff, h2))
    if np.count_nonzero(region) <= MIN_COARSE_CELLS:
        coarsest = levels[-1]
        inverse = np.linalg.inv(_dense_operator(region, coarsest.diag, h2))
        coarsest.cells = np.nonzero(region)
        coarsest.inverse = 0.5 * (inverse + inverse.T)
    return box, levels


def _dense_operator(region: NDArray[np.bool_], diag: NDArray, h2: float) -> NDArray:
    """The region operator ``diag - N/h**2`` as a dense matrix on the
    region's cells, in row-major order: ``diag`` on the diagonal and
    ``-1/h**2`` for each pair of face-neighbor cells."""
    index = np.zeros(region.shape, dtype=np.int64)
    index[region] = np.arange(np.count_nonzero(region))
    mat = np.diag(diag[region])
    for left, right, _, _ in edge_slices(region.ndim):
        pair = region[left] & region[right]
        i, j = index[left][pair], index[right][pair]
        mat[i, j] = mat[j, i] = -1.0 / h2
    return mat


def _apply(level: _Level, v: NDArray, out: NDArray) -> None:
    """``out = A v`` on the level's region, zero off it; ``v`` is zero off it."""
    nbr = neighbor_sum(v, level.nbr)
    nbr *= level.inv_h2
    np.multiply(level.diag, v, out=out)
    out -= nbr


def _smooth(level: _Level, sweeps: int) -> None:
    """Damped Jacobi sweeps on ``level.out`` for ``level.rhs``, each
    ``x <- (1 - OMEGA) x + damped + damp_nbr * N(x)``."""
    x, nbr = level.out, level.nbr
    for _ in range(sweeps):
        neighbor_sum(x, nbr)
        nbr *= level.damp_nbr
        x *= 1.0 - OMEGA
        x += level.damped
        x += nbr


def _vcycle(levels: list[_Level], k: int = 0) -> None:
    """``levels[k].out = M levels[k].rhs``: one V-cycle from a zero guess."""
    level = levels[k]
    b, x, t = level.rhs, level.out, level.work
    if level.inverse is not None:
        x.fill(0.0)
        x[level.cells] = np.sum(level.inverse * b[level.cells], axis=1)
        return
    np.multiply(level.damp, b, out=level.damped)
    np.copyto(x, level.damped)  # the first sweep, from x = 0
    if k == len(levels) - 1:
        _smooth(level, 2 * SWEEPS + COARSEST_EXTRA_SWEEPS - 1)
        return
    _smooth(level, SWEEPS - 1)
    coarse = levels[k + 1]
    _apply(level, x, t)
    np.subtract(b, t, out=t)
    # left unmasked off the coarse region: damp is 0 there, and a coarser
    # region cell has only region children
    _child_reduce(np.add, t, coarse.rhs.shape, out=coarse.rhs)
    coarse.rhs *= 0.5**t.ndim
    _vcycle(levels, k + 1)
    for child in _children(x, coarse.out.shape):
        child += coarse.out
    _smooth(level, SWEEPS)


def _norm(v: NDArray, work: NDArray) -> float:
    """The 2-norm of ``v``, as ``np.sum`` of its squares in ``work``."""
    np.multiply(v, v, out=work)
    return math.sqrt(float(np.sum(work)))


def _pcg(
    grid: Grid,
    region: NDArray[np.bool_],
    coeff: NDArray,
    rhs: NDArray,
    tol: float,
    x0: NDArray | None = None,
) -> tuple[NDArray, float, int]:
    """Solve (-lap + coeff) x = rhs on ``region`` by multigrid-preconditioned CG.

    ``coeff`` and ``rhs`` are full-shape arrays read on the region only.
    The iteration runs on the region's bounding box, with one V-cycle (see
    the module docstring) as preconditioner, on the system scaled by the
    power of two that brings ``max |rhs|`` into [1/2, 1), so tiny or huge
    but finite sources neither underflow nor overflow ``r.z``; the scaling
    is exact and undone on exit.  Returns ``(x, relative_residual,
    iterations)``; ``x`` is full-shape and zero off the region, and an
    empty region or a zero source gives ``(zeros, 0.0, 0)``.  Convergence
    is decided on the recursively updated residual, which in finite
    precision can fall below the true one once the latter reaches its
    rounding floor; the returned residual is the true
    ``||b - Ax|| / ||b||``, so it can sit slightly above ``tol``.  Raises
    SolverError, carrying that true residual, past the iteration cap
    ``ceil(50 * sqrt(#region cells))`` or on breakdown.
    """
    if not np.any(region):
        return np.zeros(grid.shape), 0.0, 0
    box, levels = _levels(grid, region, coeff)
    fine = levels[0]
    r, z, t = fine.rhs, fine.out, fine.work
    off = ~region[box]

    def load_rhs(dst: NDArray, scale: int) -> None:
        # b, the source times 2**-scale on the region; rebuilt for the
        # final residual instead of held through the iteration
        np.copyto(dst, rhs[box])
        np.copyto(dst, 0.0, where=off)
        np.ldexp(dst, -scale, out=dst)

    load_rhs(r, 0)
    b_max = float(np.max(np.abs(r)))
    if b_max == 0.0:
        return np.zeros(grid.shape), 0.0, 0
    scale = int(np.frexp(b_max)[1])
    np.ldexp(r, -scale, out=r)
    b_norm = _norm(r, t)

    out = np.zeros(grid.shape)
    x = out[box]
    if x0 is not None:
        np.copyto(x, x0[box], where=~off)
        np.ldexp(x, -scale, out=x)
        _apply(fine, x, t)
        r -= t
    _vcycle(levels)
    p = z.copy()
    ap = np.empty_like(p)
    np.multiply(r, z, out=t)
    rz = float(np.sum(t))
    cap = math.ceil(50.0 * math.sqrt(int(np.count_nonzero(region))))
    res = _norm(r, t) / b_norm
    it = 0
    failure = None
    # Written so that a nan residual enters the loop and meets the guard.
    while not res <= tol:
        if it == cap:
            failure = f"did not reach tol={tol} within {cap} iterations"
            break
        _apply(fine, p, ap)
        np.multiply(p, ap, out=t)
        pap = float(np.sum(t))
        if not (rz > 0.0 and pap > 0.0 and math.isfinite(pap)):
            failure = f"broke down after {it} iterations"
            break
        alpha = rz / pap
        np.multiply(p, alpha, out=t)
        x += t
        ap *= alpha
        r -= ap
        res = _norm(r, t) / b_norm
        _vcycle(levels)
        np.multiply(r, z, out=t)
        rz_new = float(np.sum(t))
        p *= rz_new / rz
        p += z
        rz = rz_new
        it += 1
    # Before the first update r is b - Ax computed directly, so res is true.
    if it > 0:
        load_rhs(p, scale)
        _apply(fine, x, t)
        p -= t
        res = _norm(p, t) / b_norm
    if failure is not None:
        raise SolverError(
            f"conjugate gradients {failure} (true relative residual {res:.3e})",
            residual=res,
            iterations=it,
        )
    np.ldexp(x, scale, out=x)
    return out, res, it


def check_options(max_outer: int = 1, **tolerances: float) -> None:
    """Refuse ``max_outer`` below 1, or a tolerance not above 0, naming it."""
    if not max_outer >= 1:
        raise ValueError(f"max_outer must be >= 1, got {max_outer}")
    for name, tol in tolerances.items():
        if not tol > 0.0:
            raise ValueError(f"{name} must be > 0, got {tol}")


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
        i: phase index, an integral value in 1..num_phases.
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
    i = phase_index(i, spec.num_phases)
    check_options(tol=tol)
    grid = spec.grid
    region = w.labels == i
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
        ValueError: negative or non-finite potential values, or bad tolerance.
        SolverError: iteration cap reached before the residual target, or
            conjugate gradients broke down.
    """
    check_options(tol=tol)
    if not isinstance(potential, ScalarField):
        check_reaction(float(potential), "potential")
        potential = make_field(grid, potential)
    check_reaction(potential.values, "potential")
    rhs = np.ones(grid.shape)
    x, _, _ = _pcg(grid, grid.mask, potential.values, rhs, tol)
    return make_field(grid, x)


def harmonic_extension(
    grid: Grid, box: tuple[slice, ...], inner: NDArray[np.bool_], data: NDArray
) -> NDArray:
    """Discrete harmonic extensions of ``k`` data sets into the cell set ``inner``.

    For each ``data[j]`` solves ``lap x = 0`` on ``inner`` with ``x =
    data[j]`` on every other cell and the usual zero at wall slots, i.e.
    ``(-lap_inner) x = N(data[j])/h**2`` where ``N`` is :func:`neighbor_sum`
    of the data with ``inner`` zeroed.  ``inner`` is an array of the shape
    of the grid window ``box`` and ``data`` a stack of ``k`` such arrays;
    every inner cell must be masked, and its face neighbors must lie in the
    window, so that the window holds the whole system.

    A set of at most :data:`DIRECT_CELLS` cells is solved exactly, by one
    dense solve with ``k`` right-hand sides of the system times ``h**2``:
    ``deg = 2*dim + walls`` on the diagonal and -1 for each pair of
    face-neighbor inner cells.  A larger set runs :func:`_pcg` to a relative
    residual of 1e-10 on the full grid, once per data set.

    Returns:
        An array of shape ``(k, #inner)``: row j is the extension of
        ``data[j]`` at the inner cells, in row-major order of the window.
    """
    nbr = np.stack([neighbor_sum(np.where(inner, 0.0, d))[inner] for d in data])
    n = nbr.shape[1]
    if n > DIRECT_CELLS:
        region = np.zeros(grid.shape, dtype=bool)
        region[box] = inner
        out = np.empty_like(nbr)
        for row, b in zip(out, nbr):
            rhs = np.zeros(grid.shape)
            rhs[box][inner] = b / grid.spacing**2
            x, _, _ = _pcg(grid, region, np.zeros(grid.shape), rhs, 1e-10)
            row[...] = x[box][inner]
        return out
    deg = (2 * grid.dim + wall_slot_count(grid)[box]).astype(float)
    return np.linalg.solve(_dense_operator(inner, deg, 1.0), nbr.T).T
