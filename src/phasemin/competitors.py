"""Explicit competitor constructions and the local-minimality audit.

Both competitors modify a pair only inside a ball ``B(x0, r)`` and return a
fully admissible pair together with the exact objective change
``ΔJ = J(u*, w*) - J(u, w)``:

* cut-off — selected phases are multiplied by a radial ramp that vanishes
  on ``B(x0, a r)``; fully vacated cells there are trashed where their
  marginal volume cost is positive.
* harmonic — one distinguished phase absorbs ``B(x0, a r)``, its values
  there replaced by the discrete harmonic extension of the surrounding
  data, while the other phases are radially cut off; annulus labels are
  copied along rays from just outside the ball.

Both are built on the ball's window, the index box of the cells with
``|c_a - x0_a| < r + 2h`` along every axis.  Only cells with d < r change,
and their face neighbors lie within r + h along every axis, so the window
holds every changed cell and every edge that touches one, and
:func:`~phasemin.functional.window_delta` prices the competitor exactly
from the window.  It checks both pairs for admissibility on the whole
grid; a violation raises ``ValueError``, which the audit records as a skip.

On a converged pair every competitor should (near-)fail to improve the
objective; the audit aggregates many such attempts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .elliptic import harmonic_extension
from .functional import (
    NONNEGATIVE,
    FunctionalSpec,
    Partition,
    PhaseField,
    cell_marginals,
    make_partition,
    make_phase_field,
    window_delta,
)
from .grid import (
    Grid,
    as_point,
    axis_centers,
    bounding_box,
    format_float,
)

__all__ = [
    "AuditEntry",
    "AuditSkip",
    "AuditReport",
    "cutoff_competitor",
    "harmonic_competitor",
    "audit",
    "audit_report_csv",
    "seeded_probes",
]


@dataclass(frozen=True)
class AuditEntry:
    """One competitor evaluation: where, which construction, and ΔJ."""

    x0: tuple[float, ...]
    r: float
    kind: str  # "cutoff" | "harmonic"
    a: float
    main: int | None  # harmonic only
    delta_j: float


@dataclass(frozen=True)
class AuditSkip:
    """A probe/competitor combination whose preconditions failed."""

    x0: tuple[float, ...]
    r: float
    kind: str
    note: str


@dataclass(frozen=True)
class AuditReport:
    """Aggregate of all competitor evaluations over the probe list.

    Attributes:
        entries: successful evaluations in deterministic order.
        skipped: precondition failures with their reasons.
        min_delta_j: smallest objective change seen (0.0 with no entries).
        worst: the entry attaining ``min_delta_j`` (None with no entries).
    """

    entries: tuple[AuditEntry, ...]
    skipped: tuple[AuditSkip, ...]
    min_delta_j: float
    worst: AuditEntry | None


def _window(grid: Grid, pt: NDArray, r: float):
    """The window of a ball, its cells' offsets and distances from ``pt``.

    The window is the index box of the cells with ``|c_a - pt_a| < r + 2h``
    along every axis (empty when there are none).  Returns ``(box, offsets,
    d)``: the box, the per-axis offsets ``c_a - pt_a`` as an open mesh, and
    the distances, summed per axis as in ``grid.distances`` and so
    bit-identical to its values.
    """
    reach = r + 2.0 * grid.spacing
    box, offsets = [], []
    for axis in range(grid.dim):
        off = axis_centers(grid, axis) - pt[axis]
        hits = np.flatnonzero(np.abs(off) < reach)
        cut = slice(int(hits[0]), int(hits[-1]) + 1) if hits.size else slice(0, 0)
        box.append(cut)
        offsets.append(off[cut])
    offsets = np.ix_(*offsets)
    return tuple(box), offsets, np.sqrt(sum(o**2 for o in offsets))


def _ramp(d: NDArray, r: float, a: float) -> NDArray:
    """0 up to radius ``a r``, rising linearly to 1 at ``r``."""
    return np.clip((d - a * r) / ((1.0 - a) * r), 0.0, 1.0)


def cutoff_competitor(
    u: PhaseField,
    w: Partition,
    spec: FunctionalSpec,
    x0,
    r: float,
    a: float,
    phases,
) -> tuple[PhaseField, Partition, float]:
    """Damp selected phases to zero on ``B(x0, a r)`` with a radial ramp.

    The ramp is 0 up to radius ``a r`` and rises linearly to 1 at ``r``.
    Cells of the inner ball on which every phase now vanishes are trashed
    where their marginal volume cost at the volumes of ``w`` is positive.
    The construction and ``ΔJ`` are computed on the ball's window (see the
    module docstring).

    Args:
        u, w: the pair under audit (unchanged).
        spec: functional description.
        x0: ball center; r: ball radius; a: inner-hole fraction in (0,1).
        phases: iterable of phase indices to damp (may be empty).

    Returns:
        ``(u*, w*, delta_j)`` with ``delta_j = J(u*,w*) - J(u,w)``.

    Raises:
        ValueError: bad ``a``, bad phase index, a ball missing the mask, or
            an inadmissible pair (see :func:`window_delta`).
    """
    if not 0.0 < a < 1.0:
        raise ValueError(f"cutoff fraction a must lie in (0,1), got {a}")
    grid = spec.grid
    pt = as_point(grid, x0)
    box, _, d = _window(grid, pt, r)
    if not np.any(grid.mask[box] & (d < r)):
        raise ValueError(f"ball at {tuple(pt.tolist())} radius {r} misses every masked cell")
    chosen = sorted(set(int(i) for i in phases))
    for i in chosen:
        if not 1 <= i <= spec.num_phases:
            raise ValueError(f"phase index {i} out of range 1..{spec.num_phases}")
    ramp = _ramp(d, r, a)
    fields = []
    for i in range(1, spec.num_phases + 1):
        vals = u.fields[i - 1].values
        if i in chosen:
            vals = vals.copy()
            vals[box] *= ramp
        fields.append(vals)
    vacated = np.logical_and.reduce([vals[box] == 0.0 for vals in fields])
    labels = w.labels.copy()
    window = labels[box]
    costly = np.zeros(window.shape, dtype=bool)
    for i, lam in enumerate(cell_marginals(spec, w), start=1):
        costly |= (window == i) & (lam[box] > 0.0)
    window[(d < a * r) & vacated & costly] = 0
    u_star = make_phase_field(grid, fields)
    w_star = make_partition(grid, spec.num_phases, labels)
    delta = window_delta(spec, box, (u, w), (u_star, w_star))
    return u_star, w_star, delta


def _ray_sources(
    grid: Grid, pt: NDArray, r: float, offsets, cells: NDArray[np.bool_]
) -> tuple[NDArray, ...]:
    """Grid index of the just-outside-the-ball cell hit by each ray.

    ``offsets`` is the window's open mesh of ``c_a - x0_a`` and ``cells``
    the window cells to relabel.  The ray from x0 through each such center
    is followed to radius r + h/2 (nudged outward until the landing cell
    sits at distance >= r), and the nearest cell is taken.  Returns one
    index array per axis, one entry per cell in row-major order.
    """
    delta = np.stack([np.broadcast_to(o, cells.shape)[cells] for o in offsets], axis=-1)
    h = grid.spacing
    lo, hi = bounding_box(grid)
    centers = [axis_centers(grid, axis) for axis in range(grid.dim)]
    direction = delta / np.sqrt(np.sum(delta**2, axis=-1))[:, None]
    src = np.zeros(delta.shape, dtype=np.int64)
    todo = np.ones(len(delta), dtype=bool)
    rho = r + 0.5 * h
    for _ in range(4):
        if not np.any(todo):
            break
        target = pt + rho * direction[todo]
        target = np.clip(target, lo + 0.4 * h, hi - 0.4 * h)
        idx = np.round((target - np.asarray(grid.origin)) / h).astype(np.int64)
        idx = np.clip(idx, 0, np.asarray(grid.shape) - 1)
        src[todo] = idx
        landed = np.sqrt(sum((c[k] - p) ** 2 for c, k, p in zip(centers, idx.T, pt)))
        todo[todo] = landed < r
        rho += 0.5 * h
    return tuple(src.T)


def harmonic_competitor(
    u: PhaseField,
    w: Partition,
    spec: FunctionalSpec,
    x0,
    r: float,
    a: float,
    main: int,
) -> tuple[PhaseField, Partition, float]:
    """Let one phase absorb the inner ball via harmonic replacement.

    Inside ``B(x0, a r)`` every cell is labeled ``main`` and the main field
    takes the discrete harmonic extension of the neighboring data
    (:func:`harmonic_extension`: one dense solve for an inner ball of at
    most ``DIRECT_CELLS`` cells, MGCG above); other phases are radially
    damped as in the cut-off.  Annulus cells keep their label where the
    main field is nonzero, and otherwise copy the label of the cell their
    ray from x0 first meets beyond radius r.  The construction and ``ΔJ``
    are computed on the ball's window (see the module docstring).

    Args:
        u, w: the pair under audit (unchanged).
        spec: functional description.
        x0: ball center; r: ball radius, positive, with B(x0, r+h) inside
            the mask.
        a: inner-ball fraction, in [1/2, 1).
        main: index of the absorbing phase.

    Returns:
        ``(u*, w*, delta_j)`` with ``delta_j = J(u*,w*) - J(u,w)``.

    Raises:
        ValueError: ``a`` or ``r`` out of range, bad ``main``, the ball
            (with a one-cell safety margin) leaving the mask or bounding
            box, or an inadmissible pair (see :func:`window_delta`).
    """
    if not 0.5 <= a < 1.0:
        raise ValueError(f"harmonic fraction a must lie in [1/2, 1), got {a}")
    if not r > 0.0:
        raise ValueError(f"harmonic radius r must be positive, got {r}")
    if not 1 <= main <= spec.num_phases:
        raise ValueError(f"main phase {main} out of range 1..{spec.num_phases}")
    grid = spec.grid
    h = grid.spacing
    pt = as_point(grid, x0)
    lo, hi = bounding_box(grid)
    if np.any(pt - (r + h) < lo) or np.any(pt + (r + h) > hi):
        raise ValueError(
            f"ball at {tuple(pt.tolist())} radius {r} (+margin h) leaves the bounding box"
        )
    box, offsets, d = _window(grid, pt, r)
    if not np.all(grid.mask[box][d < r + h]):
        raise ValueError(f"ball at {tuple(pt.tolist())} radius {r} (+margin h) leaves the mask")

    inner = d < a * r
    main_vals = u.fields[main - 1].values
    relabel = (d >= a * r) & (d < r) & (main_vals[box] == 0.0)
    labels = w.labels.copy()
    window = labels[box]
    window[relabel] = w.labels[_ray_sources(grid, pt, r, offsets, relabel)]
    window[inner] = main

    ramp = _ramp(d, r, a)
    fields = []
    for i in range(1, spec.num_phases + 1):
        if i == main:
            fields.append(main_vals.copy())
            continue
        vals = np.where(labels == i, u.fields[i - 1].values, 0.0)
        vals[box] *= ramp
        fields.append(vals)
    vals = fields[main - 1]
    vals[box][inner] = harmonic_extension(grid, box, inner, main_vals[box])
    if spec.sign_constraints[main - 1] == NONNEGATIVE:
        np.maximum(vals, 0.0, out=vals)

    u_star = make_phase_field(grid, fields)
    w_star = make_partition(grid, spec.num_phases, labels)
    delta = window_delta(spec, box, (u, w), (u_star, w_star))
    return u_star, w_star, delta


def audit(
    u: PhaseField,
    w: Partition,
    spec: FunctionalSpec,
    probes,
) -> AuditReport:
    """Run both competitors over every probe and aggregate the results.

    At each probe ``(x0, r)`` the cut-off competitor is evaluated with all
    phases damped and the harmonic competitor with every phase as ``main``,
    each at inner fractions a = 1/2 and a = 3/4.  Probes violating a
    competitor's preconditions are recorded as skips, not errors.

    Args:
        u, w: the pair under audit.
        spec: functional description.
        probes: iterable of ``(x0, r)`` pairs.

    Returns:
        An :class:`AuditReport`; ``min_delta_j`` is 0.0 when nothing ran.
    """
    entries: list[AuditEntry] = []
    skipped: list[AuditSkip] = []
    all_phases = tuple(range(1, spec.num_phases + 1))
    for x0, r in probes:
        key = tuple(float(v) for v in np.atleast_1d(np.asarray(x0, dtype=float)))
        for a in (0.5, 0.75):
            try:
                _, _, dj = cutoff_competitor(u, w, spec, x0, r, a, all_phases)
                entries.append(AuditEntry(key, float(r), "cutoff", a, None, dj))
            except ValueError as err:
                skipped.append(AuditSkip(key, float(r), "cutoff", str(err)))
        for main in all_phases:
            for a in (0.5, 0.75):
                try:
                    _, _, dj = harmonic_competitor(u, w, spec, x0, r, a, main)
                    entries.append(AuditEntry(key, float(r), "harmonic", a, main, dj))
                except ValueError as err:
                    skipped.append(
                        AuditSkip(key, float(r), f"harmonic:{main}", str(err))
                    )
    # the worst entry is the first with the smallest ΔJ
    worst = min(entries, key=lambda e: e.delta_j) if entries else None
    min_dj = 0.0 if worst is None else worst.delta_j
    return AuditReport(tuple(entries), tuple(skipped), min_dj, worst)


def audit_report_csv(report: AuditReport, dim: int | None = None) -> str:
    """Render an audit report as deterministic CSV text.

    Columns: kind, a, main (empty for cut-off), r, the probe coordinates,
    and the objective change.  Skipped probes follow as comment lines.
    ``dim`` (number of coordinate columns) is inferred from the report
    when omitted.
    """
    if dim is None:
        if report.entries:
            dim = len(report.entries[0].x0)
        elif report.skipped:
            dim = len(report.skipped[0].x0)
        else:
            dim = 1
    coord_cols = ",".join(f"x0_{k}" for k in range(dim))
    lines = [f"kind,a,main,r,{coord_cols},delta_j"]
    for e in report.entries:
        coords = ",".join(format_float(c) for c in e.x0)
        main = "" if e.main is None else str(e.main)
        lines.append(
            f"{e.kind},{format_float(e.a)},{main},{format_float(e.r)},"
            f"{coords},{format_float(e.delta_j)}"
        )
    for s in report.skipped:
        coords = ";".join(format_float(c) for c in s.x0)
        lines.append(f"# skipped,{s.kind},{format_float(s.r)},{coords},{s.note}")
    return "\n".join(lines) + "\n"


def seeded_probes(grid: Grid, count: int, r: float, seed: int) -> list[tuple]:
    """Deterministic probe centers away from the boundary by ``r + 2h``.

    Args:
        grid: carrier grid.
        count: number of probes.
        r: ball radius attached to every probe.
        seed: RNG seed for reproducibility.

    Raises:
        ValueError: if the safety margin exhausts the bounding box.
    """
    lo, hi = bounding_box(grid)
    margin = r + 2 * grid.spacing
    low = lo + margin
    high = hi - margin
    if np.any(low >= high):
        raise ValueError(f"radius {r} leaves no interior room for probes")
    rng = np.random.default_rng(seed)
    pts = rng.uniform(low, high, size=(count, grid.dim))
    return [(tuple(float(v) for v in p), float(r)) for p in pts]
