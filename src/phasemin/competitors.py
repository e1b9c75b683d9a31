"""The competitor constructions of the local-minimality audit.

Both competitors modify a pair only inside a ball ``B(x0, r)``.  Each is an
edit on the ball's window, priced by the exact objective change
``ΔJ = J(u*, w*) - J(u, w)`` of the edited pair ``(u*, w*)``:

* cut-off — every phase is multiplied by a radial ramp that vanishes on
  ``B(x0, a r)``; fully vacated cells there are trashed where their
  marginal volume cost is positive.
* harmonic — one distinguished phase (the main) absorbs ``B(x0, a r)``, its
  values there replaced by the discrete harmonic extension of the
  surrounding data, while the other phases are radially cut off; annulus
  labels are copied along rays from just outside the ball.

The window (``grid.ball_window``) is the index box of the cells with
``|c_a - x0_a| < r + h`` along every axis, and a competitor (a star) is the
box's edited labels and fields, arrays of the box's shape.  Of an
admissible pair a star is admissible (the cut-off trashes only cells where
every field vanishes, the harmonic star masks each phase by its new labels)
and changes only the ball's cells, d < r, so
:func:`~phasemin.functional.cell_set_deltas` prices it there, unchecked.

:func:`audit` is the one entry point: it checks the whole pair once, and at
each probe builds the same 2 + 2N stars, the cut-off and each main's
harmonic star at each inner fraction of ``FRACTIONS``, from the probe's
window, pair values and ray sources, taken once.  Each inner ball is
factored once for all mains (one dense solve with a right-hand side per
main), and one :func:`cell_set_deltas` call prices the stars on the ball.
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
    cell_set_deltas,
    check_admissible,
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
    "audit",
    "audit_report_csv",
    "seeded_probes",
    "check_radius",
    "check_seed",
]

FRACTIONS = (0.5, 0.75)
"""The inner fractions ``a`` of every competitor the audit builds."""


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


def _probe(
    u: PhaseField,
    w: Partition,
    spec: FunctionalSpec,
    x0,
    r: float,
    lam: list[NDArray],
) -> tuple[tuple[slice, ...] | None, list, list, list]:
    """Build and price the audit's competitors of the probe ``(x0, r)``.

    The tries are ``(kind, a, main)`` in report order: the cut-off of every
    phase at each of ``FRACTIONS``, then each main's harmonic star at each.
    The probe's window work is done once: the point and its window, the
    window values of the pair, the ray sources of every cell with
    r/2 <= d < r, one harmonic extension per inner fraction for every main,
    and one :func:`cell_set_deltas` call for all the stars on the ball's
    cells, unchecked and exact where ``(u, w)`` is admissible on the window.
    ``lam`` is :func:`cell_marginals` of ``w``.  Returns the window (None if
    the radius or the center is refused), the tries, the stars and their
    ``ΔJ``, one per try; a try refused has the ValueError of its kind in
    both places.
    """
    grid = spec.grid
    n = spec.num_phases
    tries = [("cutoff", a, None) for a in FRACTIONS] + [
        ("harmonic", a, m) for m in range(1, n + 1) for a in FRACTIONS
    ]
    # both kinds refuse the same radii, each naming itself
    refused = {kind: _attempt(check_radius, r, kind) for kind in ("cutoff", "harmonic")}
    if refused["cutoff"] is None:
        pt = _attempt(as_point, grid, x0)
        if isinstance(pt, ValueError):
            refused = dict.fromkeys(refused, pt)
    if refused["cutoff"] is not None:
        stars = [refused[kind] for kind, _, _ in tries]
        return None, tries, stars, stars
    box, offsets, d = ball_window(grid, pt, r)
    where = tuple(pt.tolist())
    labels0 = w.labels[box]
    values = [f.values[box] for f in u.fields]
    ramps = {a: _ramp(d, r, a) for a in FRACTIONS}

    if not np.any(grid.mask[box] & (d < r)):
        missed = ValueError(f"ball at {where} radius {r} misses every masked cell")
        cutoffs = [missed] * len(FRACTIONS)
    else:
        costly = np.zeros(d.shape, dtype=bool)
        for i, lam_i in enumerate(lam, start=1):
            costly |= (labels0 == i) & (lam_i[box] > 0.0)
        cutoffs = []
        for a in FRACTIONS:
            fields = [v * ramps[a] for v in values]
            vacated = np.logical_and.reduce([vals == 0.0 for vals in fields])
            labels = labels0.copy()
            labels[(d < a * r) & vacated & costly] = 0
            cutoffs.append((labels, fields))

    h = grid.spacing
    lo, hi = bounding_box(grid)
    leaves = f"ball at {where} radius {r} (+margin h) leaves the"
    if np.any(pt - (r + h) < lo) or np.any(pt + (r + h) > hi):
        harmonics = [ValueError(f"{leaves} bounding box")] * (n * len(FRACTIONS))
    elif not np.all(grid.mask[box][d < r + h]):
        harmonics = [ValueError(f"{leaves} mask")] * (n * len(FRACTIONS))
    else:
        # each cell's source depends on that cell alone, and every star's
        # relabelled cells lie at r/2 <= d < r
        rays = (d >= 0.5 * r) & (d < r)
        ray_labels = labels0.copy()
        ray_labels[rays] = w.labels[_ray_sources(grid, pt, r, offsets, rays)]
        # one extension per inner ball, for every main
        data = np.stack(values)
        extension = {a: harmonic_extension(grid, box, d < a * r, data) for a in FRACTIONS}
        harmonics = []
        for main in range(1, n + 1):
            main_vals = values[main - 1]
            for a in FRACTIONS:
                inner = d < a * r
                relabel = (d >= a * r) & (d < r) & (main_vals == 0.0)
                labels = labels0.copy()
                labels[relabel] = ray_labels[relabel]
                labels[inner] = main
                ramp = ramps[a]
                fields = [np.where(labels == i, v, 0.0) * ramp for i, v in enumerate(values, 1)]
                vals = fields[main - 1] = main_vals.copy()
                vals[inner] = extension[a][main - 1]
                if spec.sign_constraints[main - 1] == NONNEGATIVE:
                    np.maximum(vals, 0.0, out=vals)
                harmonics.append((labels, fields))

    # a competitor of an admissible pair changes only the cells with d < r
    stars = cutoffs + harmonics
    ball = d < r
    cells = tuple(idx + cut.start for idx, cut in zip(np.nonzero(ball), box))
    built = [star for star in stars if not isinstance(star, ValueError)]
    on_ball = [(labels[ball], [v[ball] for v in fields]) for labels, fields in built]
    priced = iter(cell_set_deltas(spec, cells, (u, w), on_ball))
    deltas = [star if isinstance(star, ValueError) else next(priced) for star in stars]
    return box, tries, stars, deltas


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


def audit(
    u: PhaseField,
    w: Partition,
    spec: FunctionalSpec,
    probes,
) -> AuditReport:
    """Run both competitors over every probe and aggregate the results.

    The pair is checked for admissibility once, on the whole grid.  At each
    probe ``(x0, r)`` the cut-off of every phase and the harmonic star of
    every main are evaluated, each at the inner fractions ``FRACTIONS``; the
    probe's stars are built and priced together (see the module docstring).
    Probes violating a competitor's preconditions are recorded as skips, not
    errors: a radius not positive and finite, a center outside the bounding
    box, for the cut-off a ball missing every masked cell, and for the
    harmonic star a ball that with a margin of h leaves the bounding box or
    the mask.

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
    for x0, r in probes:
        key = tuple(float(v) for v in np.atleast_1d(np.asarray(x0, dtype=float)))
        _, tries, _, deltas = _probe(u, w, spec, x0, r, lam)
        for (kind, a, main), dj in zip(tries, deltas):
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

    The centers are the numbers ``np.random.default_rng(seed).uniform(low,
    high, size=(count, grid.dim))`` gives on NumPy 2.4, bit for bit, drawn
    from phasemin's own replica of that stream (:func:`_unit_draws`), so
    ``numpy.random`` is never loaded and the probes do not change with
    NumPy's version.

    Args:
        grid: carrier grid.
        count: number of probes.
        r: ball radius attached to every probe (see :func:`check_radius`).
        seed: RNG seed for reproducibility (see :func:`check_seed`).

    Raises:
        ValueError: if ``r`` or ``seed`` is refused, or the safety margin
            exhausts the bounding box.
    """
    check_radius(r)
    check_seed(seed)
    lo, hi = bounding_box(grid)
    margin = r + 2 * grid.spacing
    low = (lo + margin).tolist()
    high = (hi - margin).tolist()
    if any(a >= b for a, b in zip(low, high)):
        raise ValueError(f"radius {r} leaves no interior room for probes")
    draws = _unit_draws(seed)
    span = [b - a for a, b in zip(low, high)]
    return [
        (tuple(a + s * next(draws) for a, s in zip(low, span)), float(r))
        for _ in range(count)
    ]


_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(const: int, mult: int):
    """SeedSequence's 32-bit hash: xor with a running constant, advance the
    constant by ``mult``, multiply by it and fold the high half down."""

    def hash_word(value):
        nonlocal const
        value ^= const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    return hash_word


def _unit_draws(seed: int):
    """Yield the doubles in [0, 1) of ``np.random.default_rng(seed).random()``.

    NumPy's ``SeedSequence(seed)`` hashes the seed's 32-bit words (least
    significant first) into a pool of 4 words and expands the pool to the
    128-bit state and increment of PCG64, a 128-bit LCG with XSL-RR output
    (O'Neill, HMC-CS-2014-0905); a double is the top 53 bits of one output
    times 2**-53.  Python ints keep every step exact.
    """
    words = []
    n = int(seed)
    while True:
        words.append(n & _MASK32)
        n >>= 32
        if not n:
            break

    def mix(x, y):
        x = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return x ^ x >> 16

    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state(4, uint64): 8 words of 32 bits, paired low word first
    expand = _hasher(0x8B51F9DD, 0x58F38DED)
    w32 = [expand(pool[i % 4]) for i in range(8)]
    s = [w32[2 * k] | w32[2 * k + 1] << 32 for k in range(4)]
    # seeding steps from state 0, adds the state seed and steps again
    inc = (s[2] << 65 | s[3] << 1 | 1) & _MASK128
    state = ((inc + (s[0] << 64 | s[1])) * _PCG_MULT + inc) & _MASK128
    while True:
        state = (state * _PCG_MULT + inc) & _MASK128
        word = (state >> 64 ^ state) & _MASK64
        rot = state >> 122
        word = (word >> rot | word << (64 - rot)) & _MASK64
        yield (word >> 11) * 2.0**-53


def check_radius(r: float, what: str = "probe") -> None:
    """Refuse a ball radius that is not positive and finite."""
    if not 0.0 < r < np.inf:
        raise ValueError(f"{what} radius r must be positive and finite, got {r}")


def check_seed(seed: int) -> None:
    """Refuse a probe RNG seed that is not an integer >= 0.

    A Python int of any width (a bool included) or a NumPy integer is an
    integer; a float is not, even with an integral value.
    """
    if not isinstance(seed, (int, np.integer)):
        raise ValueError(f"probe seed must be an integer, got {seed!r}")
    if not seed >= 0:
        raise ValueError(f"probe seed must be >= 0, got {seed}")
