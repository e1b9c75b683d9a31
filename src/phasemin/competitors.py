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

The window (``grid.ball_window``) is the index box of the cells with
``|c_a - x0_a| < r + h`` along every axis, and a competitor is the box
with the edited labels and fields on it: ``(box, (labels, fields))``,
arrays of the box's shape.  Of an admissible pair a competitor is
admissible (the cut-off trashes only cells where every field vanishes, the
harmonic star masks each phase by its new labels) and changes only the
ball's cells, d < r, so :func:`~phasemin.functional.cell_set_deltas`
prices it there, unchecked, for admissible pairs and stars.
:func:`cutoff_competitor` and :func:`harmonic_competitor` check the edit
on its box and the pair on the box grown by one cell.

On a converged pair every competitor should (near-)fail to improve the
objective; the audit checks the whole pair once and aggregates many such
attempts.  It prices each probe once: one construction path builds all
of a probe's stars (two cut-offs, and each main at a = 1/2 and a = 3/4)
from the probe's window, its pair values and its ray sources, taken once;
each inner ball is factored once for all mains (one dense solve with a
right-hand side per main); and one :func:`cell_set_deltas` call prices
the stars on the ball's cells.  :func:`cutoff_competitor` and
:func:`harmonic_competitor` are that path's one-star case.
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
    _check_arrays,
    cell_marginals,
    cell_set_deltas,
    check_admissible,
    phase_index,
)
from .grid import (
    Grid,
    as_point,
    axis_centers,
    ball_window,
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
    "check_radius",
    "check_seed",
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
        min_delta_j: smallest ΔJ seen, nan if one is (0.0 with no entries).
        worst: the first entry attaining ``min_delta_j`` (None with no entries).
    """

    entries: tuple[AuditEntry, ...]
    skipped: tuple[AuditSkip, ...]
    min_delta_j: float
    worst: AuditEntry | None


def _ramp(d: NDArray, r: float, a: float) -> NDArray:
    """0 up to radius ``a r``, rising linearly to 1 at ``r``; exactly 1 from
    ``r`` on, where the formula can round to 1 - ulp."""
    return np.where(d >= r, 1.0, np.clip((d - a * r) / ((1.0 - a) * r), 0.0, 1.0))


def _attempt(fn, *args):
    """``fn(*args)``, or the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as err:
        return err


def _check_arguments(spec: FunctionalSpec, r: float, kind: str, a: float, arg):
    """The checks a construction makes before it reads the grid; returns the
    try with its phases as ints (the sorted damped phases, or the main)."""
    n = spec.num_phases
    if kind == "cutoff":
        if not 0.0 < a < 1.0:
            raise ValueError(f"cutoff fraction a must lie in (0,1), got {a}")
        check_radius(r, kind)
        return kind, a, [phase_index(i, n) for i in sorted(set(arg))]
    if not 0.5 <= a < 1.0:
        raise ValueError(f"harmonic fraction a must lie in [1/2, 1), got {a}")
    check_radius(r, kind)
    return kind, a, phase_index(arg, n, "main phase")


def _probe(
    u: PhaseField,
    w: Partition,
    spec: FunctionalSpec,
    x0,
    r: float,
    tries,
    lam: list[NDArray] | None,
) -> tuple[tuple[slice, ...] | None, list, list]:
    """Build and price the competitors ``tries`` of the probe ``(x0, r)``.

    Each try is ``(kind, a, arg)``: ``("cutoff", a, phases)`` or
    ``("harmonic", a, main)``.  The probe's window work is done once: the
    point and its window, the window values of the pair, the ray sources of
    every cell with r/2 <= d < r, one harmonic extension per inner ball for
    all its mains, and one :func:`cell_set_deltas` call for all the stars
    on the ball's cells, unchecked and exact where ``(u, w)`` is admissible
    on the window.  ``lam`` is :func:`cell_marginals` of ``w``, needed by
    cut-offs only.  Returns the window (None if no star was built), the
    stars and their ``ΔJ``, one per try; a try that fails has the
    ValueError its construction raised in both places.
    """
    grid = spec.grid
    tries = [_attempt(_check_arguments, spec, r, *t) for t in tries]
    stars = [t if isinstance(t, ValueError) else None for t in tries]
    todo = [k for k, star in enumerate(stars) if star is None]
    if not todo:
        return None, stars, stars
    pt = _attempt(as_point, grid, x0)
    if isinstance(pt, ValueError):
        stars = [pt if star is None else star for star in stars]
        return None, stars, stars
    box, offsets, d = ball_window(grid, pt, r)
    where = tuple(pt.tolist())
    labels0 = w.labels[box]
    values = [f.values[box] for f in u.fields]
    kinds = {tries[k][0] for k in todo}

    if "cutoff" in kinds:
        missed = not np.any(grid.mask[box] & (d < r))
        costly = np.zeros(d.shape, dtype=bool)
        for i, lam_i in enumerate(lam, start=1):
            costly |= (labels0 == i) & (lam_i[box] > 0.0)

    if "harmonic" in kinds:
        h = grid.spacing
        lo, hi = bounding_box(grid)
        room = None
        if np.any(pt - (r + h) < lo) or np.any(pt + (r + h) > hi):
            room = ValueError(f"ball at {where} radius {r} (+margin h) leaves the bounding box")
        elif not np.all(grid.mask[box][d < r + h]):
            room = ValueError(f"ball at {where} radius {r} (+margin h) leaves the mask")
        else:
            # each cell's source depends on that cell alone, and every star's
            # relabelled cells lie at r/2 <= d < r
            rays = (d >= 0.5 * r) & (d < r)
            ray_labels = labels0.copy()
            ray_labels[rays] = w.labels[_ray_sources(grid, pt, r, offsets, rays)]
            # one extension per inner ball, for all of its mains
            harmonic = [tries[k] for k in todo if tries[k][0] == "harmonic"]
            extension = {}
            for a in dict.fromkeys(b for _, b, _ in harmonic):
                mains = [m for _, b, m in harmonic if b == a]
                data = np.stack([values[m - 1] for m in mains])
                rows = harmonic_extension(grid, box, d < a * r, data)
                extension.update(((a, m), row) for m, row in zip(mains, rows))

    for k in todo:
        kind, a, arg = tries[k]
        if kind == "cutoff":
            if missed:
                stars[k] = ValueError(f"ball at {where} radius {r} misses every masked cell")
                continue
            ramp = _ramp(d, r, a)
            fields = [v * ramp if i in arg else v for i, v in enumerate(values, start=1)]
            vacated = np.logical_and.reduce([vals == 0.0 for vals in fields])
            labels = labels0.copy()
            labels[(d < a * r) & vacated & costly] = 0
            stars[k] = (labels, fields)
        elif room is not None:
            stars[k] = room
        else:
            main = arg
            inner = d < a * r
            main_vals = values[main - 1]
            relabel = (d >= a * r) & (d < r) & (main_vals == 0.0)
            labels = labels0.copy()
            labels[relabel] = ray_labels[relabel]
            labels[inner] = main
            ramp = _ramp(d, r, a)
            fields = [np.where(labels == i, v, 0.0) * ramp for i, v in enumerate(values, 1)]
            vals = fields[main - 1] = main_vals.copy()
            vals[inner] = extension[a, main]
            if spec.sign_constraints[main - 1] == NONNEGATIVE:
                np.maximum(vals, 0.0, out=vals)
            stars[k] = (labels, fields)

    # a competitor of an admissible pair changes only the cells with d < r
    ball = d < r
    cells = tuple(idx + cut.start for idx, cut in zip(np.nonzero(ball), box))
    built = [star for star in stars if not isinstance(star, ValueError)]
    on_ball = [(labels[ball], [v[ball] for v in fields]) for labels, fields in built]
    priced = iter(cell_set_deltas(spec, cells, (u, w), on_ball))
    deltas = [star if isinstance(star, ValueError) else next(priced) for star in stars]
    return box, stars, deltas


def _competitor(u, w, spec, x0, r, kind, a, arg):
    """One construction at one probe: ``(box, (labels, fields), ΔJ)``.

    The phase counts are checked first.  The star is checked on its box,
    then the pair on the box grown by one cell (within the grid); the pair
    is then admissible on the box, so the star changes it only on the
    ball's cells, where :func:`_probe` priced it."""
    if not u.num_phases == w.num_phases == spec.num_phases:
        raise ValueError("phase counts of field, partition, and spec disagree")
    lam = cell_marginals(spec, w) if kind == "cutoff" else None
    box, (star,), (delta,) = _probe(u, w, spec, x0, r, [(kind, a, arg)], lam)
    if isinstance(star, ValueError):
        raise star
    mask = spec.grid.mask
    _check_arrays(spec, mask[box], *star)
    grown = tuple(slice(max(cut.start - 1, 0), cut.stop + 1) for cut in box)
    _check_arrays(spec, mask[grown], w.labels[grown], [f.values[grown] for f in u.fields])
    return box, star, delta


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
            mask, or an edit inadmissible on the window, then a pair
            inadmissible on the window grown by one cell (see
            :func:`~phasemin.functional.check_admissible`).
    """
    return _competitor(u, w, spec, x0, r, "cutoff", a, phases)


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
            box, or an edit inadmissible on the window, then a pair
            inadmissible on the window grown by one cell (see
            :func:`~phasemin.functional.check_admissible`).
    """
    return _competitor(u, w, spec, x0, r, "harmonic", a, main)


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
    at inner fractions a = 1/2 and a = 3/4; the probe's stars are built and
    priced together (see :func:`cutoff_competitor` and
    :func:`harmonic_competitor`).  Probes violating a competitor's
    preconditions are recorded as skips, not errors.

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
    lam = cell_marginals(spec, w)
    entries: list[AuditEntry] = []
    skipped: list[AuditSkip] = []
    all_phases = tuple(range(1, spec.num_phases + 1))
    # (kind, a, last argument), in report order
    tries = [("cutoff", a, all_phases) for a in (0.5, 0.75)] + [
        ("harmonic", a, m) for m in all_phases for a in (0.5, 0.75)
    ]
    for x0, r in probes:
        key = tuple(float(v) for v in np.atleast_1d(np.asarray(x0, dtype=float)))
        for (kind, a, arg), dj in zip(tries, _probe(u, w, spec, x0, r, tries, lam)[2]):
            main = None if kind == "cutoff" else arg
            if isinstance(dj, ValueError):
                note = kind if main is None else f"{kind}:{main}"
                skipped.append(AuditSkip(key, float(r), note, str(dj)))
            else:
                entries.append(AuditEntry(key, float(r), kind, a, main, dj))
    # the worst entry is the first with the smallest ΔJ or, as in np.argmin, nan
    worst = entries[int(np.argmin([e.delta_j for e in entries]))] if entries else None
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
        r: ball radius attached to every probe (see :func:`check_radius`).
        seed: RNG seed for reproducibility, >= 0.

    Raises:
        ValueError: if ``r`` or ``seed`` is refused, or the safety margin
            exhausts the bounding box.
    """
    check_radius(r)
    check_seed(seed)
    lo, hi = bounding_box(grid)
    margin = r + 2 * grid.spacing
    low = lo + margin
    high = hi - margin
    if np.any(low >= high):
        raise ValueError(f"radius {r} leaves no interior room for probes")
    rng = np.random.default_rng(seed)
    pts = rng.uniform(low, high, size=(count, grid.dim))
    return [(tuple(float(v) for v in p), float(r)) for p in pts]


def check_radius(r: float, what: str = "probe") -> None:
    """Refuse a ball radius that is not positive and finite."""
    if not 0.0 < r < np.inf:
        raise ValueError(f"{what} radius r must be positive and finite, got {r}")


def check_seed(seed: int) -> None:
    """Refuse a probe RNG seed below 0."""
    if not seed >= 0:
        raise ValueError(f"probe seed must be >= 0, got {seed}")
