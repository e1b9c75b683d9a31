"""Quantitative structure checks for computed and synthetic phase fields.

Every routine here is a read-only measurement on fields: localized energy,
weighted monotone quantities, interface densities, one-sided slope balances,
flatness of level-set boundaries, rescaled zooms, phase counts, and discrete
Lipschitz constants.  None of them mutates inputs, and none hard-codes a
theoretical constant: each returns the measured number for the caller (or a
test) to compare against its own reference.

Conventions shared by all routines:

* a "part" is a signed slice of one phase, ``(sign * u_i)_+``, so a
  free-sign phase contributes up to two parts and a nonnegative phase one;
* the discrete boundary of a part is the set of its support cells that
  touch an in-mask non-support face neighbor (walls do not count);
* singular radial weights are evaluated at cell centers, with cells closer
  than ``h/2`` to the probe point excluded;
* a phase index selects a phase by one rule: an integral value in 1..N
  (1, ``np.int64(1)`` and 1.0 alike; ``functional.phase_index``), and any
  other value raises a ValueError naming it;
* every routine takes a PhaseField, and probes it by one rule: a point
  must lie in the grid's bounding box (``grid.as_point``), and a radius
  must be finite, above 2h and at most the box diameter (``_check_radii``),
  at least 4h where a routine says so; radii lists are nonempty and
  strictly increasing.

A probe routine reads only the window (``grid.ball_window``) of
``B(x0, R + h)``, R its largest radius (``r + 2h`` in density_report,
``2h`` in phase_count_at): the ball, its cells' face neighbors and a cell
to spare for rounding, so results are bit-identical to whole-grid ones.
density_report's distance transform computes only its in-ball support
cells, and phase_count_map transforms only the index box of each part's
boundary cells, grown by its dilation's steps.
Whole-grid by design: weiss_profile's sampled part (grid coordinates), the
error message of density_report (global gap), radial_energy (pinned
summation grouping), and blowup_rescale, phase_count_map's boundary cells,
lipschitz_estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .functional import (
    FunctionalSpec,
    Partition,
    PhaseField,
    make_phase_field,
    phase_index,
    volume_marginal,
)
from .grid import (
    Grid,
    ScalarField,
    as_point,
    axis_centers,
    ball_window,
    bounding_box,
    distances,
    edge_energies,
    edge_slices,
    format_float,
    gradient_energy,
    index_box,
    laplacian_apply,
    make_field,
    make_grid,
    neighbor_sum,
    sample_many,
    sample_mesh,
    squared_distance_transform,
)

__all__ = [
    "Phase",
    "RadialProfile",
    "InterfaceReport",
    "radial_energy",
    "acf_profile",
    "acf_product",
    "weiss_profile",
    "density_report",
    "interface_measure",
    "el_interface_check",
    "flatness",
    "blowup_rescale",
    "phase_count_at",
    "phase_count_map",
    "lipschitz_estimate",
    "free_boundary_cells",
    "profile_csv",
    "report_text",
]

PROFILE_KINDS = ("energy", "acf", "acf_product", "weiss", "flatness", "density")


@dataclass(frozen=True)
class Phase:
    """A signed slice of one phase: the part ``(sign * u_index)_+``.

    ``index`` is any integral value >= 1, stored as an int.  ``sign`` must
    be +1 for phases constrained nonnegative (their negative part is empty).
    """

    index: int
    sign: int = 1

    def __post_init__(self):
        object.__setattr__(self, "index", phase_index(self.index, math.inf))
        if self.sign not in (1, -1):
            raise ValueError(f"phase sign must be +1 or -1, got {self.sign}")


@dataclass(frozen=True)
class RadialProfile:
    """A scalar quantity measured on a growing family of balls."""

    radii: tuple[float, ...]
    values: tuple[float, ...]
    kind: str

    def __post_init__(self):
        if self.kind not in PROFILE_KINDS:
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if len(self.radii) != len(self.values):
            raise ValueError("radii and values must have equal length")
        r = np.asarray(self.radii)
        if len(r) and not np.all(np.diff(r) > 0.0):
            raise ValueError("radii must be strictly increasing")


@dataclass(frozen=True)
class InterfaceReport:
    """Bundle of interface measurements; unused entries stay None.

    Attributes:
        mu_density: per radius, boundary-measure mass over ``r**(n-1)``.
        h_density: interface density estimate at the smallest reliable radius.
        slopes: per side, the one-sided normal-derivative magnitude.
        el_residuals: deviation of the slopes from the volume-cost balance.
        phase_count: number of parts whose boundary passes near the probe.
        density_ratios: named nondegeneracy ratios of one part near a
            boundary point.
    """

    mu_density: tuple[float, ...] | None = None
    h_density: float | None = None
    slopes: tuple[float, ...] | None = None
    el_residuals: tuple[float, ...] | None = None
    phase_count: int | None = None
    density_ratios: dict[str, float] | None = None

    def __post_init__(self):
        if self.mu_density is not None and any(v < 0.0 for v in self.mu_density):
            raise ValueError("mu_density entries must be nonnegative")
        if self.phase_count is not None and self.phase_count < 0:
            raise ValueError("phase_count must be nonnegative")


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _check_radii(grid: Grid, radii, least: float = 0.0) -> NDArray:
    """The probe radii as a float array, one radius or a list of them.

    Raises:
        ValueError: unless the list is nonempty and strictly increasing, and
            each radius is finite, above 2h, at least ``least`` and at most
            the bounding-box diameter.
    """
    r = np.atleast_1d(np.asarray(radii, dtype=float))
    if r.ndim != 1 or len(r) == 0:
        raise ValueError("radii must be a nonempty 1-d sequence")
    if not np.all(np.diff(r) > 0.0):
        raise ValueError("radii must be strictly increasing")
    lo, hi = bounding_box(grid)
    diameter = math.hypot(*(hi - lo).tolist())
    h2 = 2.0 * grid.spacing
    bad = ~(np.isfinite(r) & (r > h2) & (r >= least) & (r <= diameter))
    if np.any(bad):
        floor = f"at least {least}" if least > h2 else f"above 2h = {h2}"
        raise ValueError(
            f"radius {r[bad][0]} must be finite, {floor} and at most "
            f"the bounding-box diameter {diameter}"
        )
    return r


def _part_values(u, phase: Phase) -> tuple[Grid, NDArray]:
    vals = u.fields[phase_index(phase.index, len(u.fields)) - 1].values
    return u.grid, np.maximum(phase.sign * vals, 0.0)


def _window(u, pt: NDArray, r: float) -> tuple[tuple[slice, ...], NDArray, PhaseField]:
    """The probe window of ``B(pt, r)``: box, distances from ``pt``, fields on
    it; take coordinates from ``u.grid``, as the box grid's are not exact."""
    grid = u.grid
    box, _, d = ball_window(grid, pt, r + grid.spacing)
    start = tuple(o + grid.spacing * c.start for o, c in zip(grid.origin, box))
    # not make_grid: a window may hold no masked cell, which a grid may not
    sub = Grid(grid.dim, d.shape, grid.spacing, start, grid.mask[box])
    return box, d, PhaseField(sub, tuple(ScalarField(sub, f.values[box]) for f in u.fields))


def _box_centers(grid: Grid, box: tuple[slice, ...]) -> NDArray:
    """Centers of a box's cells, one row per cell in row-major order."""
    axes = [axis_centers(grid, a)[cut] for a, cut in enumerate(box)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, grid.dim)


def _grad_sq_cells(grid: Grid, vals: NDArray) -> NDArray:
    """Cellwise squared-gradient estimate consistent with the edge energy.

    Each masked endpoint takes half the energy of an edge between masked
    cells and all the energy of a wall edge (box face or unmasked
    neighbor), divided by ``h**2``.  Summing this over cells times
    ``h**n`` reproduces the edge-sum energy.
    """
    m = grid.mask
    out = np.zeros(grid.shape)
    for cells, energy in edge_energies(vals, m):
        if len(cells) == 2:
            energy = np.where(m[cells[0]] & m[cells[1]], 0.5 * energy, energy)
        for c in cells:
            out[c] += energy
    out[~m] = 0.0
    return out / grid.spacing**2


def free_boundary_cells(u, phase: Phase) -> NDArray[np.bool_]:
    """Support cells of a part with an in-mask face neighbor off the support.

    Cells whose support ends at a domain wall are not boundary cells: the
    zero there is imposed, not free.
    """
    grid, vals = _part_values(u, phase)
    support = vals > 0.0
    return support & (neighbor_sum((grid.mask & ~support).astype(np.int64)) > 0)


def _phase_parts(u) -> list[Phase]:
    """All parts with nonempty support, positive parts first per index."""
    parts = []
    for i, f in enumerate(u.fields, start=1):
        if np.any(f.values > 0.0):
            parts.append(Phase(i, 1))
        if np.any(f.values < 0.0):
            parts.append(Phase(i, -1))
    return parts


def _ball_volume(dim: int, r: float) -> float:
    return 2.0 * r if dim == 1 else float(np.pi) * r * r


# ---------------------------------------------------------------------------
# radial profiles
# ---------------------------------------------------------------------------


def radial_energy(u, x0, radii) -> RadialProfile:
    """Edge-sum gradient energy of all fields inside growing balls.

    An edge counts as soon as one endpoint's center lies in the ball, so
    the profile is exactly nondecreasing in r.
    """
    grid = u.grid
    pt = as_point(grid, x0)
    r_arr = _check_radii(grid, radii)
    d = distances(grid, pt)
    values = []
    for r in r_arr:
        region = d < r
        values.append(sum(gradient_energy(f, region=region) for f in u.fields))
    return RadialProfile(tuple(float(r) for r in r_arr), tuple(values), "energy")


def acf_profile(u, phase: Phase, x0, radii) -> RadialProfile:
    """Normalized, radially weighted local energy of one part.

    For each r the value is ``r**-2`` times the sum over in-ball cells
    (excluding those within h/2 of x0) of the cellwise squared gradient
    weighted by ``|c - x0|**(2-n)``, times the cell volume.  Scaling the
    part by ``a`` multiplies the profile by ``a**2`` exactly.
    """
    grid = u.grid
    pt = as_point(grid, x0)
    r_arr = _check_radii(grid, radii)
    _, d, uw = _window(u, pt, float(r_arr[-1]))
    sub, vals = _part_values(uw, phase)
    gsq = _grad_sq_cells(sub, vals)
    keep = d >= 0.5 * grid.spacing
    weight = np.where(keep, np.where(d > 0, d, 1.0) ** (2 - grid.dim), 0.0)
    dens = gsq * weight * grid.cell_volume
    values = [float(np.sum(dens[keep & (d < r)])) / (r * r) for r in r_arr]
    return RadialProfile(tuple(float(r) for r in r_arr), tuple(values), "acf")


def acf_product(u, phi1: Phase, phi2: Phase, x0, radii) -> tuple[RadialProfile, float]:
    """Product of two parts' weighted energies and its monotonicity defect.

    Returns the per-radius product profile and the violation score
    ``max over r1 < r2 of (P(r1) - P(r2))_+ / (1 + P(r1))`` — zero when the
    product is nondecreasing.

    Raises:
        ValueError: if the two parts are identical.
    """
    if phi1 == phi2:
        raise ValueError("the two parts must differ")
    p1 = acf_profile(u, phi1, x0, radii)
    p2 = acf_profile(u, phi2, x0, radii)
    prod = tuple(a * b for a, b in zip(p1.values, p2.values))
    violation = 0.0
    for k1 in range(len(prod)):
        for k2 in range(k1 + 1, len(prod)):
            drop = max(prod[k1] - prod[k2], 0.0) / (1.0 + prod[k1])
            violation = max(violation, drop)
    return RadialProfile(p1.radii, prod, "acf_product"), float(violation)


def weiss_profile(u, i: int, lambda_i: float, x0, radii) -> RadialProfile:
    """Scale-adjusted energy plus volume cost minus the radial-derivative term.

    For each r:
    ``r**-n * sum_B |grad v|^2 h^n + r**-n * lambda_i |{v>0} ∩ B|
    - r**-1 * sum_B |c-x0|**(1-n) (dv/drho)^2 h^n``
    with v the nonnegative part of phase i, the radial derivative taken by
    interpolated central differencing along the ray through each cell, and
    cells within h/2 of x0 excluded throughout.  Constant on exact cones.
    """
    phase = Phase(i)
    grid, part = _part_values(u, phase)  # sampled in the grid's coordinates
    pt = as_point(grid, x0)
    r_arr = _check_radii(grid, radii)
    h = grid.spacing
    box, d, uw = _window(u, pt, float(r_arr[-1]))
    sub, vals = _part_values(uw, phase)
    keep = d >= 0.5 * h
    gsq = _grad_sq_cells(sub, vals)
    support = vals > 0.0

    centers = _box_centers(grid, box)
    d_flat = d.reshape(-1)
    keep_flat = keep.reshape(-1) & sub.mask.reshape(-1)
    sel = np.flatnonzero(keep_flat & (d_flat < float(r_arr[-1])))
    rho_hat = (centers[sel] - pt) / d_flat[sel][:, None]
    lo, hi = bounding_box(grid)
    field = ScalarField(grid, part)
    up = sample_many(field, np.clip(centers[sel] + h * rho_hat, lo, hi))
    dn = sample_many(field, np.clip(centers[sel] - h * rho_hat, lo, hi))
    dr_sq = np.zeros(d.size)
    dr_sq[sel] = ((up - dn) / (2.0 * h)) ** 2
    dr_sq = dr_sq.reshape(d.shape)

    radial_dens = np.where(keep, np.where(d > 0, d, 1.0) ** (1 - grid.dim), 0.0) * dr_sq
    hn = grid.cell_volume
    values = []
    for r in r_arr:
        inside = keep & (d < r)
        e_term = float(np.sum(gsq[inside])) * hn / r**grid.dim
        v_term = lambda_i * float(np.count_nonzero(support & inside)) * hn / r**grid.dim
        r_term = float(np.sum(radial_dens[inside])) * hn / r
        values.append(e_term + v_term - r_term)
    return RadialProfile(tuple(float(r) for r in r_arr), tuple(values), "weiss")


# ---------------------------------------------------------------------------
# interface reports
# ---------------------------------------------------------------------------


def density_report(u, w: Partition, i: int, x0, r: float) -> InterfaceReport:
    """Nondegeneracy ratios of one part on a ball at a boundary point.

    Ratios reported (keys of ``density_ratios``):
      * ``mean_square``: average of v**2 over the ball, divided by r**2;
      * ``positive_volume``: |{v>0} ∩ B| / r**n;
      * ``growth_floor``: min over in-ball support cells (at least 2h from
        the zero set) of v(c) / dist(c, zero set);
      * ``complement_volume``: |{v<=0} ∩ B ∩ mask| / r**n.

    The zero set is searched locally, not globally: it is the set of
    in-mask non-support cells of ``B(x0, r + 2h)``, and distances are
    between cell centers.

    Raises:
        ValueError: if x0 is farther than h from the part's boundary cells.
    """
    del w  # labels do not enter: the ratios are support-based
    phase = Phase(i)
    grid = u.grid
    pt = as_point(grid, x0)
    r = float(_check_radii(grid, r)[0])
    h = grid.spacing
    _, d, uw = _window(u, pt, r + 2.0 * h)
    sub, vals = _part_values(uw, phase)
    support = vals > 0.0
    if not np.any(free_boundary_cells(uw, phase) & (d <= h * (1.0 + 1e-9))):
        boundary = free_boundary_cells(u, phase)
        if not np.any(boundary):
            raise ValueError(f"part {phase.index}+ has no boundary cells on this grid")
        gap = float(np.min(distances(grid, pt)[boundary]))
        raise ValueError(
            f"probe {tuple(pt.tolist())} is {format_float(gap)} from the nearest "
            f"boundary cell of part {phase.index}+; within h = {format_float(h)} required"
        )

    ball = (d < r) & sub.mask
    hn = grid.cell_volume
    mean_sq = float(np.sum(vals[ball] ** 2)) * hn / _ball_volume(grid.dim, r) / r**2
    pos_vol = float(np.count_nonzero(ball & support)) * hn / r**grid.dim
    comp_vol = float(np.count_nonzero(ball & ~support)) * hn / r**grid.dim

    # distance of each in-ball support cell to the nearest zero-set cell,
    # searched on the window's index box
    window = (d < r + 2.0 * h) & sub.mask
    box = index_box(window)
    targets = (ball & support)[box]
    delta = h * np.sqrt(squared_distance_transform((window & ~support)[box], at=targets))
    ok = delta >= 2.0 * h
    floor = float(np.min(vals[box][targets][ok] / delta[ok])) if np.any(ok) else 0.0
    ratios = {
        "mean_square": mean_sq,
        "positive_volume": pos_vol,
        "growth_floor": floor,
        "complement_volume": comp_vol,
    }
    return InterfaceReport(density_ratios=ratios)


def interface_measure(
    u, i: int, x0, radii, spec: FunctionalSpec | None = None
) -> InterfaceReport:
    """Boundary-concentrated mass of one part over growing balls.

    The measure of a ball is the sum of the discrete Laplacian of the part
    minus the bulk source ``f*v - g/2`` over the part's support, times the
    cell volume, floored at zero.  ``mu_density`` lists the mass over
    ``r**(n-1)``; ``h_density`` divides by the unit-ball factor (2 in 2D, 1
    in 1D) at the smallest radius >= 4h.  With ``spec=None`` the bulk
    source is zero (synthetic fields).
    """
    grid = u.grid
    pt = as_point(grid, x0)
    r_arr = _check_radii(grid, radii)
    h = grid.spacing
    box, d, uw = _window(u, pt, float(r_arr[-1]))
    phase = Phase(i)
    sub, vals = _part_values(uw, phase)
    lap = laplacian_apply(make_field(sub, vals)).values
    bulk = np.zeros(sub.shape)
    if spec is not None:
        fv = spec.f[phase.index - 1].values[box]
        gv = spec.g[phase.index - 1].values[box]
        bulk = np.where(vals > 0.0, fv * vals - 0.5 * gv, 0.0)
    dens = (lap - bulk) * grid.cell_volume
    omega = 2.0 if grid.dim == 2 else 1.0
    mu_density = []
    h_density = None
    for r in r_arr:
        mu = max(float(np.sum(dens[d < r])), 0.0)
        mu_density.append(mu / r ** (grid.dim - 1))
        if h_density is None and r >= 4.0 * h:
            h_density = mu / (omega * r ** (grid.dim - 1))
    if h_density is None:
        raise ValueError(f"no radius reaches 4h = {4 * h}; cannot report a density")
    return InterfaceReport(mu_density=tuple(mu_density), h_density=float(h_density))


def _plane_fit(
    centers: NDArray, plane: NDArray, first: NDArray, origin: NDArray | None = None
) -> tuple[NDArray, NDArray]:
    """Unit normal of a plane fitted to some cells, and offsets along it.

    ``centers`` holds one cell center per row; ``plane`` and ``first``
    select rows.  The normal is the total-least-squares fit to the
    ``plane`` cells, turned so that the ``first`` cells lie on its positive
    side on average.  The offsets are every cell's, signed, from ``origin``
    (by default the mean of the ``plane`` cells).
    """
    if not np.any(plane):
        raise ValueError("no boundary cells inside the fitting ball")
    pts = centers[plane]
    normal = np.array([1.0])
    if centers.shape[1] > 1:
        if len(pts) < 2:
            raise ValueError("normal fit needs at least 2 boundary cells")
        centered = pts - pts.mean(axis=0)
        evals, evecs = np.linalg.eigh(centered.T @ centered)
        if evals[-1] <= 0.0:
            raise ValueError("normal fit is rank-deficient (coincident boundary cells)")
        normal = evecs[:, 0]
    s = (centers - (pts.mean(axis=0) if origin is None else origin)) @ normal
    if np.any(first) and float(np.mean(s[first])) < 0.0:
        return -normal, -s
    return normal, s


def _one_sided_slope(s: NDArray, v: NDArray) -> float:
    """Least-squares slope of v against s, requiring spread in s."""
    if len(s) < 2 or float(np.ptp(s)) <= 0.0:
        raise ValueError("too few cells in the one-sided regression window")
    sc = s - s.mean()
    return float(abs(np.dot(sc, v - v.mean()) / np.dot(sc, sc)))


def el_interface_check(
    u, w: Partition, spec: FunctionalSpec, x0, r_fit: float
) -> InterfaceReport:
    """One-sided slopes at an interface and their volume-cost balance.

    Fits the interface normal by total least squares on the boundary cells
    inside ``B(x0, r_fit)``, regresses each present part against its signed
    distance over ``[2h, r_fit/2]``, and reports the residual of the slope
    balance: ``|a1^2 - a2^2 - (lam1 - lam2)|`` between two parts, or
    ``|a1^2 - (lam1 - min(0, other lams))|`` against the unassigned zone.

    Raises:
        ValueError: no part present in the ball, more than two present,
            a degenerate normal fit, an empty regression window, or a
            squared slope that is not finite.
    """
    grid = u.grid
    pt = as_point(grid, x0)
    r_fit = float(_check_radii(grid, r_fit)[0])
    h = grid.spacing
    box, d, uw = _window(u, pt, r_fit)
    ball = (d < r_fit) & uw.grid.mask

    present = []
    for part in _phase_parts(uw):
        _, vals = _part_values(uw, part)
        if np.any(vals[ball] > 0.0):
            present.append((part, vals))
    if not present:
        raise ValueError("no part has support in the fitting ball")
    if len(present) > 2:
        raise ValueError(f"{len(present)} parts meet the ball; at most 2 supported")

    boundary = np.zeros(d.shape, dtype=bool)
    for part, _ in present:
        boundary |= free_boundary_cells(uw, part)
    boundary &= ball
    centers = _box_centers(grid, box)
    first = (ball & (present[0][1] > 0.0)).reshape(-1)  # the normal points into it
    _, s_all = _plane_fit(centers, boundary.reshape(-1), first)

    lam = volume_marginal(w, spec.volume_term, at=pt)
    slopes = []
    for side, (part, vals) in enumerate(present):
        sgn = 1.0 if side == 0 else -1.0
        s_side = sgn * s_all
        sel = (
            (ball & (vals > 0.0)).reshape(-1)
            & (s_side >= 2.0 * h)
            & (s_side <= 0.5 * r_fit)
        )
        slopes.append(_one_sided_slope(s_side[sel], vals.reshape(-1)[sel]))

    try:
        squares = [a**2 for a in slopes]
    except OverflowError:  # a float's ** raises where * would give inf
        squares = [math.inf]
    if not all(math.isfinite(q) for q in squares):
        shown = ", ".join(map(format_float, slopes))
        raise ValueError(f"a squared one-sided slope is not finite (slopes {shown})")
    if len(present) == 2:
        l1 = lam[present[0][0].index - 1]
        l2 = lam[present[1][0].index - 1]
        residual = abs(squares[0] - squares[1] - (l1 - l2))
    else:
        i1 = present[0][0].index
        others = [lam[j] for j in range(spec.num_phases) if j != i1 - 1]
        target = lam[i1 - 1] - min([0.0] + others)
        residual = abs(squares[0] - target)
    return InterfaceReport(slopes=tuple(slopes), el_residuals=(float(residual),))


def flatness(
    u, phi1: Phase, phi2: Phase | None, x0, radii
) -> tuple[RadialProfile, tuple[NDArray, ...]]:
    """How far an interface strays from a plane, per radius.

    For each r a normal e(r) is fitted on the boundary cells in the ball;
    beta(r) is the smallest band half-width (relative to r) such that all
    boundary cells lie within the band, the first part fills the ball above
    it, and the second part (or the zero set, when ``phi2`` is None) fills
    it below.  Returns the beta profile and the fitted normals.

    Raises:
        ValueError: as in el_interface_check, per radius.
    """
    grid = u.grid
    pt = as_point(grid, x0)
    r_arr = _check_radii(grid, radii)
    box, d, uw = _window(u, pt, float(r_arr[-1]))
    sub, vals1 = _part_values(uw, phi1)
    in1 = (vals1 > 0.0).reshape(-1)
    boundary = free_boundary_cells(uw, phi1)
    wrong_below = in1  # one part: the zero set fills the ball below
    if phi2 is not None:
        _, vals2 = _part_values(uw, phi2)
        boundary = boundary | free_boundary_cells(uw, phi2)
        wrong_below = ~(vals2 > 0.0).reshape(-1)
    centers = _box_centers(grid, box)
    betas = []
    normals = []
    for r in r_arr:
        ball = ((d < r) & sub.mask).reshape(-1)
        b_sel = boundary.reshape(-1) & ball
        normal, s = _plane_fit(centers, b_sel, ball & in1, pt)
        beta = float(np.max(np.abs(s[b_sel]))) / r
        above = ball & ~in1 & (s > 0.0)
        if np.any(above):
            beta = max(beta, float(np.max(s[above])) / r)
        below = ball & wrong_below & (s < 0.0)
        if np.any(below):
            beta = max(beta, float(np.max(-s[below])) / r)
        betas.append(min(beta, 1.0))
        normals.append(normal)
    profile = RadialProfile(tuple(float(r) for r in r_arr), tuple(betas), "flatness")
    return profile, tuple(normals)


# ---------------------------------------------------------------------------
# rescaling, phase counts, Lipschitz
# ---------------------------------------------------------------------------


def blowup_rescale(u: PhaseField, x0, rk: float) -> PhaseField:
    """Zoomed view ``x -> u(x0 + rk*x)/rk`` on a window anchored at x0.

    The output lives on a grid of the same shape and spacing with origin 0,
    so output cell k samples the input at ``x0 + rk * k * h``; difference
    quotients are preserved up to interpolation error.

    Raises:
        ValueError: if rk is not a probe radius of at least 4h, or the
            sampling window exits the bounding box.
    """
    grid = u.grid
    pt = as_point(grid, x0)
    h = grid.spacing
    rk = float(_check_radii(grid, rk, 4.0 * h)[0])
    out_grid = make_grid(grid.dim, grid.shape, grid.spacing, origin=(0.0,) * grid.dim)
    lo, hi = bounding_box(grid)
    eps = 1e-9 * h
    coords = []
    for a in range(grid.dim):
        x = pt[a] + rk * axis_centers(out_grid, a)
        if np.any(x < lo[a] - eps) or np.any(x > hi[a] + eps):
            raise ValueError(
                f"rescaled window from {tuple(pt.tolist())} at scale {rk} exits the bounding box"
            )
        coords.append(np.clip(x, lo[a], hi[a]))
    fields = [v / rk for v in sample_mesh(u.fields, np.ix_(*coords))]
    return make_phase_field(out_grid, fields)


def phase_count_at(u, x0, r: float) -> int:
    """Number of parts meeting the ball whose boundary passes near x0.

    A part counts when some of its boundary cells lie within 2h of x0.  Its
    support then meets ``B(x0, r)``: boundary cells are support cells, and
    ``r >= 4h``.

    Raises:
        ValueError: if r is not a probe radius of at least 4h.
    """
    grid = u.grid
    pt = as_point(grid, x0)
    _check_radii(grid, r, 4.0 * grid.spacing)
    reach = 2.0 * grid.spacing * (1.0 + 1e-9)
    _, d, uw = _window(u, pt, reach)
    count = 0
    for part in _phase_parts(uw):
        if np.any(free_boundary_cells(uw, part) & (d <= reach)):
            count += 1
    return count


def _dilate(mask: NDArray[np.bool_], grid: Grid, radius: float) -> NDArray[np.bool_]:
    """Cells within the given center distance of any set cell.

    The transform runs on the set's index box grown by the radius's steps:
    a cell outside it is more than that many cells from every set cell
    along some axis.
    """
    steps = int(np.floor(radius / grid.spacing + 1e-9))
    out = np.zeros(grid.shape, dtype=bool)
    if np.any(mask):
        box = tuple(
            slice(max(c.start - steps, 0), c.stop + steps) for c in index_box(mask)
        )
        sq = squared_distance_transform(mask[box], cap=steps)
        out[box] = sq * grid.spacing**2 <= radius**2 + 1e-12
    return out


def phase_count_map(u, r: float) -> NDArray[np.int64]:
    """Per-cell phase_count_at evaluated at every cell center at once.

    Only each part's boundary cells are dilated, by 2h: as in
    phase_count_at, that implies its support meets the radius-r ball.
    """
    grid = u.grid
    _check_radii(grid, r, 4.0 * grid.spacing)
    counts = np.zeros(grid.shape, dtype=np.int64)
    near = 2.0 * grid.spacing * (1.0 + 1e-9)
    for part in _phase_parts(u):
        counts += _dilate(free_boundary_cells(u, part), grid, near)
    counts[~grid.mask] = 0
    return counts


def lipschitz_estimate(u, region=None) -> float:
    """Largest absolute difference quotient over in-mask face edges.

    Only edges between two masked cells count (imposed wall zeros are not
    difference quotients of the function).  ``region`` optionally restricts
    to edges with both endpoints inside a boolean cell set.
    """
    grid = u.grid
    reg = np.ones(grid.shape, dtype=bool) if region is None else np.asarray(region)
    if reg.shape != grid.shape:
        raise ValueError(f"region shape {reg.shape} does not match grid {grid.shape}")
    m = grid.mask & reg
    best = 0.0
    for f in u.fields:
        v = f.values
        for lt, rt, _, _ in edge_slices(grid.dim):
            sel = m[lt] & m[rt]
            if np.any(sel):
                q = float(np.max(np.abs(v[rt][sel] - v[lt][sel]))) / grid.spacing
                best = max(best, q)
    return best


# ---------------------------------------------------------------------------
# export helpers
# ---------------------------------------------------------------------------


def profile_csv(profile: RadialProfile) -> str:
    """CSV text of a radial profile: header then one ``r,value`` row each."""
    lines = [f"r,{profile.kind}"]
    for r, v in zip(profile.radii, profile.values):
        lines.append(f"{format_float(r)},{format_float(v)}")
    return "\n".join(lines) + "\n"


def report_text(report: InterfaceReport) -> str:
    """Structured text with one named entry per populated report field."""
    lines = []
    if report.h_density is not None:
        lines.append(f"h_density {format_float(report.h_density)}")
    if report.mu_density is not None:
        joined = " ".join(format_float(v) for v in report.mu_density)
        lines.append(f"mu_density {joined}")
    if report.slopes is not None:
        lines.append("slopes " + " ".join(format_float(v) for v in report.slopes))
    if report.el_residuals is not None:
        joined = " ".join(format_float(v) for v in report.el_residuals)
        lines.append(f"el_residuals {joined}")
    if report.phase_count is not None:
        lines.append(f"phase_count {report.phase_count}")
    if report.density_ratios is not None:
        for key in sorted(report.density_ratios):
            lines.append(f"density_{key} {format_float(report.density_ratios[key])}")
    return "\n".join(lines) + "\n"
