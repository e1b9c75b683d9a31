"""Alternating minimization of the partition functional.

The outer loop alternates two block minimizations:

* ``update_fields`` — with the partition fixed, each phase field solves its
  linear equation on its own region (a minimization over fields).  The
  first cycle and the last one that ``max_outer`` allows solve to
  ``tol_solve``; the cycles in between solve only to ``LOOSE_TOL``, since
  the label sweep places the free boundary and needs exact fields only
  once it has settled.  A loose cycle whose sweep would stop the loop
  (partition unchanged, sweep discarded, or objective change below
  ``tol_j``) is redone from its loose fields at ``tol_solve`` before the
  loop decides, so the loop only ever stops after an exact solve.
  Conjugate gradients from a warm start lowers the quadratic energy at
  every iteration, so a loose solve keeps the descent of an exact one.
* ``update_partition`` — with the fields fixed, each cell picks the label
  with the smallest marginal cost.  Keeping the current label costs the
  cell's bulk term plus the frozen volume marginal; switching away costs
  the energy released by zeroing the current phase at the cell plus the
  destination's volume marginal (zero for trash).  For a support-boundary
  cell the released energy is, to leading order, slope^2 * cell volume, so
  erosion stops exactly where the interface slope reaches sqrt(marginal):
  the cellwise rule enforces the slope law of the free boundary.

Each relabel decision uses an upper bound on its true objective change
(the neglected cross terms are nonpositive for same-signed fields), so the
sweep never increases J for nonnegative phases; a revert safeguard in
``minimize`` protects the remaining cases.

Within the loop a cycle's solved pair is priced by ``total_by_parts``
(summation by parts, one neighbor sum per phase on its region's box: a
pass over the labelled grid), and its sweep by ``cell_set_deltas`` on the
cells the sweep relabelled; both are unchecked, for admissible pairs and
stars, since each field solve and ``restrict_support`` keep a pair
admissible.  ``total`` runs on the initial pair and on the returned pair
only, so the reported final J is the checked objective of the pair
returned.

The result is a sweep fixed point that depends on the initial partition,
not always a local minimizer.  With every volume marginal >= 0 (any power
law, or per-region weights >= 0) no phase a cell could move to costs less
than trash, which wins ties, so the supports only erode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .elliptic import check_options, solve_phase
from .functional import (
    FunctionalSpec,
    Partition,
    PhaseField,
    cell_marginals,
    cell_set_deltas,
    make_partition,
    make_phase_field,
    region_volumes,
    restrict_support,
    total,
    total_by_parts,
    truncate_to_sign,
)
from .grid import Grid, cell_centers, neighbor_sum, wall_slot_count

__all__ = [
    "SolveReport",
    "initial_partition",
    "update_fields",
    "update_partition",
    "minimize",
]

LOOSE_TOL = 1e-2
"""Field-solve tolerance of the outer cycles that are neither the first nor
the last allowed one, unless ``tol_solve`` is looser."""


@dataclass(frozen=True)
class SolveReport:
    """Descent record of one minimize run.

    Attributes:
        iterations: number of completed outer cycles.
        j_history: objective after the initial pair, then one pair per
            outer cycle: after its field solve and after its sweep.  Loose
            cycles record their loose values; a redone cycle records its
            ``tol_solve`` values only.  The first entry and the last (and
            the one before it when the last sweep was discarded, the same
            pair) are :func:`total`; the solve value is
            :func:`total_by_parts` of the solved pair, the same sum
            unchecked, and the sweep value that plus
            :func:`cell_set_deltas` of the sweep's edit on its relabelled
            cells, equal to ``total`` of the swept pair but for rounding.
        converged: True when the loop stopped before the iteration cap:
            the relative objective change dropped below ``tol_j``, the
            partition reached a fixed point, or the sweep was discarded.
        final_volumes: per-phase region volumes of the returned partition.
        zero_set_fraction: fraction of in-mask cells where every phase
            field is exactly zero.
        outer_j: objective after each completed outer cycle (index 0 is
            the initial pair), one entry per ``outer_volumes`` row.
        outer_volumes: per-phase volumes after each outer cycle.
    """

    iterations: int
    j_history: tuple[float, ...]
    converged: bool
    final_volumes: tuple[float, ...]
    zero_set_fraction: float
    outer_j: tuple[float, ...]
    outer_volumes: tuple[tuple[float, ...], ...]


def zero_set_fraction(u: PhaseField) -> float:
    """Fraction of in-mask cells where all phase fields vanish."""
    grid = u.grid
    nonzero = np.zeros(grid.shape, dtype=bool)
    for field in u.fields:
        nonzero |= field.values != 0.0
    m = int(np.count_nonzero(grid.mask))
    return float(np.count_nonzero(grid.mask & ~nonzero)) / m


def initial_partition(
    grid: Grid, num_phases: int, seeds: list[tuple[float, ...]] | None = None
) -> Partition:
    """Full starting partition: Voronoi cells of seeds, or index stripes.

    Args:
        grid: carrier grid; every in-mask cell receives a phase label.
        num_phases: number of phases N >= 1.
        seeds: optional N points; each cell takes the label of the nearest
            seed (ties to the lowest index).  Without seeds, cells are
            split into N equal index bands along axis 0.

    Raises:
        ValueError: if the seed count does not match ``num_phases`` or a
            seed coordinate is not finite.
    """
    if seeds is not None:
        if len(seeds) != num_phases:
            raise ValueError(
                f"got {len(seeds)} seeds for {num_phases} phases; counts must match"
            )
        pts = np.asarray(seeds, dtype=float)
        if pts.shape != (num_phases, grid.dim):
            raise ValueError(f"seed array shape {pts.shape} does not fit dim {grid.dim}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("seed coordinates must be finite")
        centers = cell_centers(grid)
        d2 = np.sum(
            (centers[..., None, :] - pts[(None,) * grid.dim]) ** 2, axis=-1
        )
        labels = 1 + np.argmin(d2, axis=-1)
    else:
        idx0 = np.arange(grid.shape[0])
        band = np.minimum((idx0 * num_phases) // grid.shape[0], num_phases - 1)
        band = band.reshape((-1,) + (1,) * (grid.dim - 1))
        labels = 1 + band * np.ones(grid.shape, dtype=np.int64)
    return make_partition(grid, num_phases, labels)


def update_fields(
    spec: FunctionalSpec, w: Partition, u: PhaseField, tol: float = 1e-8
) -> PhaseField:
    """Re-solve every phase field on its current region.

    Args:
        spec: functional description.
        w: fixed partition supplying the per-phase regions.
        u: previous fields, used only as solver warm starts.
        tol: relative residual target for each solve.

    Returns:
        Fields minimizing the energy-plus-bulk part of the objective over
        the fixed partition; the objective never increases.
    """
    fields = [
        solve_phase(spec, w, i, tol, initial=u.fields[i - 1])
        for i in range(1, spec.num_phases + 1)
    ]
    return make_phase_field(spec.grid, fields)


def _release_energy(grid: Grid, values: NDArray) -> NDArray:
    """Energy change from zeroing the field at each cell, full-shape.

    Per full edge to a masked neighbor n the edge term goes from
    (v_c - v_n)^2 to v_n^2; per wall slot 2 v_c^2 goes to 0.  Summed, that
    is ``v_c * (2 * sum_n v_n - deg * v_c)`` with ``deg = 2 * dim + walls``.
    The result is meaningful on cells of the phase that owns ``values``.
    """
    deg = 2 * grid.dim + wall_slot_count(grid)
    release = values * (2.0 * neighbor_sum(values) - deg * values)
    return release * grid.spacing ** (grid.dim - 2)


def update_partition(spec: FunctionalSpec, u: PhaseField, w: Partition) -> Partition:
    """One cellwise label sweep with frozen volume marginals.

    For each in-mask cell the candidates are: keep the current label
    (cost: the cell's bulk term plus its volume marginal), or switch to
    any other label including trash (cost: the energy released by zeroing
    the current phase there, plus the destination's volume marginal —
    zero for trash).  The smallest cost wins; ties go to the lowest label.
    Cells whose current field is zero under a positive marginal always
    leave their phase.

    Args:
        spec: functional description.
        u: current fields (read only).
        w: current partition.

    Returns:
        The relabeled partition.  Fields are not modified here; zeroing a
        relabeled cell's old field is the next ``update_fields``'s job
        (callers comparing objectives should first restrict supports).
    """
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
        release[on_i] = _release_energy(grid, vals)[on_i]
        bulk[on_i] = mass[on_i]
        keep_lam[on_i] = lam[i - 1][on_i] * hn

    # a running minimum over the labels in order, as np.argmin over them
    # would pick: ties go to the lowest label, and the first nan cost wins
    keep_cost = bulk + keep_lam
    best = release.copy()  # move to trash
    np.copyto(best, keep_cost, where=labels == 0)
    choice = np.zeros(grid.shape, dtype=np.int64)
    nan_best = np.isnan(best)
    for ell in range(1, n + 1):
        cost = release + lam[ell - 1] * hn
        np.copyto(cost, keep_cost, where=labels == ell)
        take = cost < best
        nan_cost = np.isnan(cost)
        nan_cost &= ~nan_best
        take |= nan_cost
        nan_best |= nan_cost
        np.copyto(best, cost, where=take)
        np.copyto(choice, ell, where=take)
    return make_partition(grid, n, choice)


def _sweep(
    spec: FunctionalSpec, u: PhaseField, w: Partition
) -> tuple[PhaseField, Partition, int, float]:
    """One label sweep of the solved pair ``(u, w)``: the swept pair, the
    number of relabelled cells and the exact objective change, priced by
    :func:`cell_set_deltas` on those cells, unchecked: the field solve and
    :func:`restrict_support` keep both pairs admissible."""
    w_new = update_partition(spec, u, w)
    u_new = restrict_support(u, w_new)
    cells = np.nonzero(w_new.labels != w.labels)
    star = (w_new.labels[cells], [f.values[cells] for f in u_new.fields])
    (delta,) = cell_set_deltas(spec, cells, (u, w), [star])
    return u_new, w_new, cells[0].size, delta


def minimize(
    spec: FunctionalSpec,
    init: tuple[PhaseField, Partition] | None = None,
    max_outer: int = 100,
    tol_j: float = 1e-8,
    tol_solve: float = 1e-8,
) -> tuple[PhaseField, Partition, SolveReport]:
    """Alternate field solves and label sweeps until the objective settles.

    The first cycle and the last allowed one solve the fields to
    ``tol_solve``, the others to ``max(tol_solve, LOOSE_TOL)``.  A loose
    cycle that would stop the loop is redone at ``tol_solve`` from its
    fields, so the returned pair comes from a ``tol_solve`` field solve
    and, unless the cycle cap ended the run, a sweep of those fields that
    stopped the loop.

    Args:
        spec: functional description.
        init: optional starting pair; defaults to zero fields on an
            axis-0 stripe partition (see :func:`initial_partition`).
        max_outer: cap on outer cycles, > 0.
        tol_j: relative objective-change threshold for convergence, > 0.
        tol_solve: residual target of the first, the last and the
            stopping cycle's field solves, > 0.

    Returns:
        ``(u, w, report)`` with the objective history in the report; the
        final objective never exceeds the initial one.

    Raises:
        ValueError: nonpositive options or an init pair off this grid.
        SolverError: propagated from a failed field solve.
    """
    check_options(max_outer, tol_j=tol_j, tol_solve=tol_solve)
    grid = spec.grid
    if init is None:
        w = initial_partition(grid, spec.num_phases)
        u = make_phase_field(grid, [0.0] * spec.num_phases)
    else:
        u, w = init
        if u.grid is not grid or w.grid is not grid:
            raise ValueError("init pair grid does not match the functional's grid")
        u = restrict_support(u, w)

    j = total(u, w, spec)
    slack = 1e-10 * (1.0 + abs(j))
    j_history = [j]
    outer_volumes = [region_volumes(w)]
    for cycle in range(1, max_outer + 1):
        tol = tol_solve if cycle in (1, max_outer) else max(tol_solve, LOOSE_TOL)
        while True:
            u = update_fields(spec, w, u, tol)
            j_fields = total_by_parts(u, w, spec)
            u_new, w_new, moved, delta = _sweep(spec, u, w)
            j_new = j_fields + delta
            discarded = delta > slack
            if discarded:
                # the sweep's estimate was optimistic (possible with mixed-sign
                # fields); discard it, so the loop stops at the solved pair
                u_new, w_new, j_new = u, w, j_fields
            same_partition = discarded or moved == 0
            converged = same_partition or abs(j - j_new) <= tol_j * (1.0 + abs(j_new))
            if not converged or tol == tol_solve:
                break
            # a loose cycle would stop the loop: drop its sweep and redo it from
            # the loose fields at tol_solve, so the loop stops only after an
            # exact solve
            del u_new, w_new
            tol = tol_solve
        u, w = u_new, w_new
        j_history += [j_fields, j_new]
        outer_volumes.append(region_volumes(w))
        if converged:
            break
        j = j_new
    # the returned pair, which is also the solved one after a discarded sweep
    j_history[-1] = total(u, w, spec)
    if discarded:
        j_history[-2] = j_history[-1]

    report = SolveReport(
        iterations=len(outer_volumes) - 1,
        j_history=tuple(j_history),
        converged=converged,
        final_volumes=outer_volumes[-1],
        zero_set_fraction=zero_set_fraction(u),
        outer_j=tuple(j_history[::2]),  # J(init), then J after each sweep
        outer_volumes=tuple(outer_volumes),
    )
    return u, w, report
