"""Explicit competitor constructions and the local-minimality audit.

Both competitors modify a pair only inside a ball ``B(x0, r)``.  Each is an
edit on the ball's window, returned with the exact objective change
``ΔJ = J(u*, w*) - J(u, w)`` of the edited pair ``(u*, w*)``:

* cut-off — selected phases are multiplied by a radial ramp that vanishes
  on ``B(x0, a r)``; fully vacated cells there are trashed where their
  marginal volume cost is positive.
* harmonic — one distinguished phase absorbs ``B(x0, a r)``, its values
  there replaced by the discrete harmonic extension of the surrounding
  data, while the other phases are radially cut off; annulus labels are
  copied along rays from just outside the ball.

The window is the index box of the cells with ``|c_a - x0_a| < r + h``
along every axis.  Only cells with d < r change, so it holds every changed
cell and every face neighbor of one, and a competitor is the box with the
edited labels and fields on it: ``(box, (labels, fields))``, arrays of the
box's shape.  :func:`~phasemin.functional.window_delta` prices it exactly
on the box grown by one cell, and checks the edit and the pair there.

On a converged pair every competitor should (near-)fail to improve the
objective; the audit checks the whole pair once and aggregates many such
attempts.
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
    check_admissible,
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

    The window is the index box of the cells with ``|c_a - pt_a| < r + h``
    along every axis (empty when there are none).  Returns ``(box, offsets,
    d)``: the box, the per-axis offsets ``c_a - pt_a`` as an open mesh, and
    the distances, summed per axis as in ``grid.distances`` and so
    bit-identical to its values.
    """
    reach = r + grid.spacing
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
) -> tuple[tuple[slice, ...], tuple[NDArray, list[NDArray]], float]:
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
        ``(box, (labels, fields), delta_j)``: the window, the edited labels
        and per-phase fields on it, and ``delta_j = J(u*,w*) - J(u,w)``.

    Raises:
        ValueError: bad ``a`` or ``r``, bad phase index, a ball missing the
            mask, or a pair inadmissible on the grown window (see
            :func:`window_delta`).
    """
    if not 0.0 < a < 1.0:
        raise ValueError(f"cutoff fraction a must lie in (0,1), got {a}")
    if not (r > 0.0 and np.isfinite(r)):
        raise ValueError(f"cutoff radius r must be positive and finite, got {r}")
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
    fields = [f.values[box] for f in u.fields]
    fields = [v * ramp if i in chosen else v for i, v in enumerate(fields, start=1)]
    vacated = np.logical_and.reduce([vals == 0.0 for vals in fields])
    labels = w.labels[box].copy()
    costly = np.zeros(labels.shape, dtype=bool)
    for i, lam in enumerate(cell_marginals(spec, w), start=1):
        costly |= (labels == i) & (lam[box] > 0.0)
    labels[(d < a * r) & vacated & costly] = 0
    star = (labels, fields)
    return box, star, window_delta(spec, box, (u, w), star)


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
) -> tuple[tuple[slice, ...], tuple[NDArray, list[NDArray]], float]:
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
        ``(box, (labels, fields), delta_j)`` as for :func:`cutoff_competitor`.

    Raises:
        ValueError: ``a`` or ``r`` out of range, bad ``main``, the ball
            (with a one-cell safety margin) leaving the mask or bounding
            box, or a pair inadmissible on the grown window (see
            :func:`window_delta`).
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
    main_vals = u.fields[main - 1].values[box]
    relabel = (d >= a * r) & (d < r) & (main_vals == 0.0)
    labels = w.labels[box].copy()
    labels[relabel] = w.labels[_ray_sources(grid, pt, r, offsets, relabel)]
    labels[inner] = main

    ramp = _ramp(d, r, a)
    fields = [np.where(labels == i, f.values[box], 0.0) * ramp for i, f in enumerate(u.fields, 1)]
    vals = fields[main - 1] = main_vals.copy()
    vals[inner] = harmonic_extension(grid, box, inner, main_vals)
    if spec.sign_constraints[main - 1] == NONNEGATIVE:
        np.maximum(vals, 0.0, out=vals)
    star = (labels, fields)
    return box, star, window_delta(spec, box, (u, w), star)


def audit(
    u: PhaseField,
    w: Partition,
    spec: FunctionalSpec,
    probes,
) -> AuditReport:
    """Run both competitors over every probe and aggregate the results.

    The pair is checked for admissibility once, on the whole grid.  At each
    probe ``(x0, r)`` the cut-off competitor is evaluated with all phases
    damped and the harmonic competitor with every phase as ``main``, each
    at inner fractions a = 1/2 and a = 3/4.  Probes violating a
    competitor's preconditions are recorded as skips, not errors.

    Args:
        u, w: the pair under audit.
        spec: functional description.
        probes: iterable of ``(x0, r)`` pairs.

    Returns:
        An :class:`AuditReport`; ``min_delta_j`` is 0.0 when nothing ran.

    Raises:
        ValueError: if the pair is not admissible (see
            :func:`~phasemin.functional.check_admissible`).
    """
    check_admissible(u, w, spec)
    entries: list[AuditEntry] = []
    skipped: list[AuditSkip] = []
    all_phases = tuple(range(1, spec.num_phases + 1))
    # (construction, kind, main, a, last argument), in report order
    tries = [(cutoff_competitor, "cutoff", None, a, all_phases) for a in (0.5, 0.75)] + [
        (harmonic_competitor, "harmonic", m, a, m) for m in all_phases for a in (0.5, 0.75)
    ]
    for x0, r in probes:
        key = tuple(float(v) for v in np.atleast_1d(np.asarray(x0, dtype=float)))
        for build, kind, main, a, arg in tries:
            try:
                dj = build(u, w, spec, x0, r, a, arg)[2]
                entries.append(AuditEntry(key, float(r), kind, a, main, dj))
            except ValueError as err:
                note = kind if main is None else f"{kind}:{main}"
                skipped.append(AuditSkip(key, float(r), note, str(err)))
    # the worst entry is the first with the smallest ΔJ
    worst = min(entries, key=lambda e: e.delta_j) if entries else None
    min_dj = 0.0 if worst is None else worst.delta_j
    return AuditReport(tuple(entries), tuple(skipped), min_dj, worst)


def audit_report_csv(report: AuditReport) -> str:
    """Render an audit report as deterministic CSV text.

    Columns: kind, a, main (empty for cut-off), r, the probe coordinates,
    and the objective change.  Skipped probes follow as comment lines.
    There is one coordinate column per coordinate of the report's first
    ``x0`` (one for an empty report).
    """
    rows = report.entries + report.skipped
    dim = len(rows[0].x0) if rows else 1
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
        r: ball radius attached to every probe, positive and finite.
        seed: RNG seed for reproducibility.

    Raises:
        ValueError: if ``r`` is not positive and finite, or the safety
            margin exhausts the bounding box.
    """
    if not (r > 0.0 and np.isfinite(r)):
        raise ValueError(f"probe radius r must be positive and finite, got {r}")
    lo, hi = bounding_box(grid)
    margin = r + 2 * grid.spacing
    low = lo + margin
    high = hi - margin
    if np.any(low >= high):
        raise ValueError(f"radius {r} leaves no interior room for probes")
    rng = np.random.default_rng(seed)
    pts = rng.uniform(low, high, size=(count, grid.dim))
    return [(tuple(float(v) for v in p), float(r)) for p in pts]
