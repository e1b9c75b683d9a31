"""Windowed probe diagnostics against their whole-grid bodies.

Each probe diagnostic runs on the index box of its largest ball.  The
references here are the whole-grid bodies they replaced, kept verbatim but
for names, together with ``blowup_rescale``'s per-point sampling; results
must be equal with ``==``, errors equal in type and message.  The
locality tests set every value outside a routine's window to NaN, and the
scaling test checks that the window at a fixed multiple of h does not grow
as h shrinks.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phasemin.diagnostics import (
    InterfaceReport,
    Phase,
    RadialProfile,
    _ball_volume,
    _check_radii,
    _grad_sq_cells,
    _part_values,
    _phase_parts,
    _plane_fit,
    _one_sided_slope,
    acf_profile,
    blowup_rescale,
    density_report,
    el_interface_check,
    flatness,
    free_boundary_cells,
    interface_measure,
    phase_count_at,
    weiss_profile,
)
from phasemin.functional import (
    FREE,
    NONNEGATIVE,
    PerRegion,
    PhaseField,
    PowerLaw,
    make_functional_spec,
    make_phase_field,
    partition_from_supports,
    volume_marginal,
)
from phasemin.grid import (
    ScalarField,
    as_point,
    ball_window,
    bounding_box,
    cell_centers,
    distances,
    format_float,
    index_box,
    laplacian_apply,
    make_field,
    make_grid,
    squared_distance_transform,
)
from phasemin.oracle import ConeTwoPhase, make_cone

# ---------------------------------------------------------------------------
# the whole-grid bodies
# ---------------------------------------------------------------------------


def ref_acf_profile(u, phase, x0, radii):
    grid, vals = _part_values(u, phase)
    pt = as_point(grid, x0)
    r_arr = _check_radii(grid, radii)
    d = distances(grid, pt)
    gsq = _grad_sq_cells(grid, vals)
    keep = d >= 0.5 * grid.spacing
    weight = np.where(keep, np.where(d > 0, d, 1.0) ** (2 - grid.dim), 0.0)
    dens = gsq * weight * grid.cell_volume
    values = [float(np.sum(dens[keep & (d < r)])) / (r * r) for r in r_arr]
    return RadialProfile(tuple(float(r) for r in r_arr), tuple(values), "acf")


def ref_sample_many(f, pts):
    grid = f.grid
    t = (pts - np.asarray(grid.origin)) / grid.spacing
    i0 = np.clip(np.floor(t).astype(np.int64), 0, np.asarray(grid.shape) - 2)
    w = np.clip(t - i0, 0.0, 1.0)
    out = np.zeros(len(pts))
    for corner in range(1 << grid.dim):
        weight = np.ones(len(pts))
        idx = []
        for a in range(grid.dim):
            bit = (corner >> a) & 1
            idx.append(i0[:, a] + bit)
            weight = weight * (w[:, a] if bit else 1.0 - w[:, a])
        out += weight * f.values[tuple(idx)]
    return out


def ref_weiss_profile(u, i, lambda_i, x0, radii):
    grid, vals = _part_values(u, Phase(i, 1))
    pt = as_point(grid, x0)
    r_arr = _check_radii(grid, radii)
    h = grid.spacing
    d = distances(grid, pt)
    keep = d >= 0.5 * h
    gsq = _grad_sq_cells(grid, vals)
    support = vals > 0.0

    centers = cell_centers(grid).reshape(-1, grid.dim)
    d_flat = d.reshape(-1)
    keep_flat = keep.reshape(-1) & grid.mask.reshape(-1)
    sel = np.flatnonzero(keep_flat & (d_flat < float(r_arr[-1])))
    rho_hat = (centers[sel] - pt) / d_flat[sel][:, None]
    lo, hi = bounding_box(grid)
    field = make_field(grid, vals)
    up = ref_sample_many(field, np.clip(centers[sel] + h * rho_hat, lo, hi))
    dn = ref_sample_many(field, np.clip(centers[sel] - h * rho_hat, lo, hi))
    dr_sq = np.zeros(grid.num_cells)
    dr_sq[sel] = ((up - dn) / (2.0 * h)) ** 2
    dr_sq = dr_sq.reshape(grid.shape)

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


def ref_density_report(u, w, i, x0, r):
    grid, vals = _part_values(u, Phase(i, 1))
    pt = as_point(grid, x0)
    r = float(_check_radii(grid, r)[0])
    h = grid.spacing
    boundary = free_boundary_cells(u, Phase(i, 1))
    if not np.any(boundary):
        raise ValueError(f"part {i}+ has no boundary cells on this grid")
    d = distances(grid, pt)
    gap = float(np.min(d[boundary]))
    if gap > h * (1.0 + 1e-9):
        raise ValueError(
            f"probe {tuple(pt.tolist())} is {format_float(gap)} from the nearest "
            f"boundary cell of part {i}+; within h = {format_float(h)} required"
        )

    ball = (d < r) & grid.mask
    hn = grid.cell_volume
    mean_sq = float(np.sum(vals[ball] ** 2)) * hn / _ball_volume(grid.dim, r) / r**2
    support = vals > 0.0
    pos_vol = float(np.count_nonzero(ball & support)) * hn / r**grid.dim
    comp_vol = float(np.count_nonzero(ball & ~support)) * hn / r**grid.dim
    window = (d < r + 2.0 * h) & grid.mask
    box = index_box(window)
    targets = (ball & support)[box]
    delta = h * np.sqrt(squared_distance_transform((window & ~support)[box])[targets])
    ok = delta >= 2.0 * h
    floor = float(np.min(vals[box][targets][ok] / delta[ok])) if np.any(ok) else 0.0
    ratios = {
        "mean_square": mean_sq,
        "positive_volume": pos_vol,
        "growth_floor": floor,
        "complement_volume": comp_vol,
    }
    return InterfaceReport(density_ratios=ratios)


def ref_interface_measure(u, i, x0, radii, spec=None):
    grid, vals = _part_values(u, Phase(i, 1))
    pt = as_point(grid, x0)
    r_arr = _check_radii(grid, radii)
    h = grid.spacing
    lap = laplacian_apply(make_field(grid, vals)).values
    bulk = np.zeros(grid.shape)
    if spec is not None:
        fv = spec.f[i - 1].values
        gv = spec.g[i - 1].values
        bulk = np.where(vals > 0.0, fv * vals - 0.5 * gv, 0.0)
    dens = (lap - bulk) * grid.cell_volume
    d = distances(grid, pt)
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


def ref_el_interface_check(u, w, spec, x0, r_fit):
    grid = u.grid
    pt = as_point(grid, x0)
    r_fit = float(_check_radii(grid, r_fit)[0])
    h = grid.spacing
    d = distances(grid, pt)
    ball = (d < r_fit) & grid.mask

    present = []
    for part in _phase_parts(u):
        _, vals = _part_values(u, part)
        if np.any(vals[ball] > 0.0):
            present.append((part, vals))
    if not present:
        raise ValueError("no part has support in the fitting ball")
    if len(present) > 2:
        raise ValueError(f"{len(present)} parts meet the ball; at most 2 supported")

    boundary = np.zeros(grid.shape, dtype=bool)
    for part, _ in present:
        boundary |= free_boundary_cells(u, part)
    boundary &= ball
    centers = cell_centers(grid).reshape(-1, grid.dim)
    first = (ball & (present[0][1] > 0.0)).reshape(-1)
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

    if len(present) == 2:
        l1 = lam[present[0][0].index - 1]
        l2 = lam[present[1][0].index - 1]
        residual = abs(slopes[0] ** 2 - slopes[1] ** 2 - (l1 - l2))
    else:
        i1 = present[0][0].index
        others = [lam[j] for j in range(spec.num_phases) if j != i1 - 1]
        target = lam[i1 - 1] - min([0.0] + others)
        residual = abs(slopes[0] ** 2 - target)
    return InterfaceReport(slopes=tuple(slopes), el_residuals=(float(residual),))


def ref_flatness(u, phi1, phi2, x0, radii):
    grid, vals1 = _part_values(u, phi1)
    pt = as_point(grid, x0)
    r_arr = _check_radii(grid, radii)
    in1 = (vals1 > 0.0).reshape(-1)
    boundary = free_boundary_cells(u, phi1)
    wrong_below = in1
    if phi2 is not None:
        _, vals2 = _part_values(u, phi2)
        boundary = boundary | free_boundary_cells(u, phi2)
        wrong_below = ~(vals2 > 0.0).reshape(-1)
    centers = cell_centers(grid).reshape(-1, grid.dim)
    d = distances(grid, pt)
    betas = []
    normals = []
    for r in r_arr:
        ball = ((d < r) & grid.mask).reshape(-1)
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


def ref_blowup_rescale(u, x0, rk):
    grid = u.grid
    pt = as_point(grid, x0)
    h = grid.spacing
    rk = float(_check_radii(grid, rk, 4.0 * h)[0])
    out_grid = make_grid(grid.dim, grid.shape, grid.spacing, origin=(0.0,) * grid.dim)
    out_centers = cell_centers(out_grid).reshape(-1, grid.dim)
    pts = pt + rk * out_centers
    lo, hi = bounding_box(grid)
    eps = 1e-9 * h
    if np.any(pts < lo - eps) or np.any(pts > hi + eps):
        raise ValueError(
            f"rescaled window from {tuple(pt.tolist())} at scale {rk} exits the bounding box"
        )
    pts = np.clip(pts, lo, hi)
    fields = [(ref_sample_many(f, pts) / rk).reshape(grid.shape) for f in u.fields]
    return make_phase_field(out_grid, fields)


def ref_phase_count_at(u, x0, r):
    grid = u.grid
    pt = as_point(grid, x0)
    _check_radii(grid, r, 4.0 * grid.spacing)
    near = distances(grid, pt) <= 2.0 * grid.spacing * (1.0 + 1e-9)
    count = 0
    for part in _phase_parts(u):
        if np.any(free_boundary_cells(u, part) & near):
            count += 1
    return count


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------


def canon(x):
    """A comparable form of a result: floats by their bits, arrays by bytes."""
    if isinstance(x, float):
        return ("f", np.float64(x).tobytes())
    if isinstance(x, np.ndarray):
        return ("a", x.dtype.str, x.shape, x.tobytes())
    if isinstance(x, (tuple, list)):
        return tuple(canon(v) for v in x)
    if isinstance(x, dict):
        return tuple(sorted((k, canon(v)) for k, v in x.items()))
    if isinstance(x, PhaseField):
        g = x.grid
        return (g.shape, g.spacing, g.origin, canon(g.mask), canon([f.values for f in x.fields]))
    if isinstance(x, (RadialProfile, InterfaceReport)):
        return (type(x).__name__, canon(dict(vars(x))))
    return x


def outcome(fn, *args):
    try:
        return canon(fn(*args))
    except ValueError as err:
        return ("ValueError", str(err))


H_CHOICES = (1.0 / 32.0, 1.0 / 64.0, 0.013, 0.07)


@st.composite
def probe_cases(draw):
    """A two-phase field on a holed mask, its pair and spec, and a probe.

    Phase 1 is free-sign (its values may take both signs, or only one),
    phase 2 nonnegative; phase 2 is cut where phase 1 is nonzero, so the
    parts of both phases can meet a ball.  The probe sits on a
    cell center, on a cell face, within a few h of a wall, or next to a
    masked hole.
    """
    dim = draw(st.sampled_from((1, 2)))
    shape = tuple(draw(st.integers(12, 60 if dim == 1 else 36)) for _ in range(dim))
    h = draw(st.sampled_from(H_CHOICES))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    x = cell_centers(make_grid(dim, shape, h))
    ext = np.asarray(shape) * h
    waves = []
    for _ in range(2):
        v = np.full(shape, rng.uniform(-0.3, 0.3))
        for _ in range(3):
            k = rng.uniform(1.0, 4.0, size=dim) / ext
            v = v + rng.uniform(0.3, 1.0) * np.sin(
                2.0 * np.pi * (x @ k) + rng.uniform(0.0, 2.0 * np.pi)
            )
        waves.append(v)
    mask = rng.random(shape) > draw(st.sampled_from((0.0, 0.03, 0.1)))
    grid = make_grid(dim, shape, h, mask=mask)
    level = np.abs(waves[0]) if draw(st.booleans()) else waves[0]
    first = np.where(mask & (level > 0.2), waves[0], 0.0)
    second = np.where(mask & (first == 0.0), np.maximum(waves[1], 0.0), 0.0)
    u = make_phase_field(grid, [first, second])
    w = partition_from_supports(u)
    if draw(st.booleans()):
        term = PowerLaw(rng.uniform(0.0, 0.5), rng.uniform(0.0, 0.5))
    else:
        term = PerRegion(tuple(make_field(grid, rng.uniform(-1, 1, size=shape)) for _ in range(2)))
    spec = make_functional_spec(
        grid,
        [make_field(grid, rng.uniform(0, 2, size=shape)) for _ in range(2)],
        [make_field(grid, rng.uniform(-2, 2, size=shape)) for _ in range(2)],
        [FREE, NONNEGATIVE],
        term,
    )

    centers = cell_centers(grid)
    lo, hi = bounding_box(grid)
    kind = draw(st.sampled_from(("center", "face", "wall", "hole")))
    cell = tuple(draw(st.integers(0, n - 1)) for n in shape)
    pt = centers[cell].copy()
    if kind == "face":
        axis = draw(st.integers(0, dim - 1))
        pt[axis] += 0.5 * h if cell[axis] < shape[axis] - 1 else -0.5 * h
    elif kind == "wall":
        axis = draw(st.integers(0, dim - 1))
        offset = draw(st.sampled_from((0.0, 0.25, 0.5, 1.0, 2.5))) * h
        pt[axis] = lo[axis] + offset if draw(st.booleans()) else hi[axis] - offset
    elif kind == "hole" and not mask.all():
        holes = np.argwhere(~mask)
        hole = holes[draw(st.integers(0, len(holes) - 1))]
        axis = draw(st.integers(0, dim - 1))
        nbr = hole.copy()
        nbr[axis] += 1 if hole[axis] < shape[axis] - 1 else -1
        pt = centers[tuple(nbr)].copy()

    # radii: multiples of h and half-h, possibly past every wall
    steps = sorted(
        draw(st.lists(st.sampled_from([k / 2 for k in range(5, 41)]), min_size=1,
                      max_size=4, unique=True))
    )
    diameter = float(np.hypot(*(hi - lo))) if dim == 2 else float(hi[0] - lo[0])
    radii = tuple(min(s * h, diameter) for s in steps)
    radii = tuple(sorted(set(radii)))
    return u, w, spec, tuple(float(v) for v in pt), radii


EXAMPLES = settings(max_examples=120, deadline=None)


class TestMatchesWholeGrid:
    @EXAMPLES
    @given(probe_cases(), st.sampled_from([Phase(1, 1), Phase(1, -1), Phase(2, 1)]))
    def test_acf_profile(self, case, part):
        u, _, _, pt, radii = case
        assert outcome(acf_profile, u, part, pt, radii) == outcome(
            ref_acf_profile, u, part, pt, radii
        )

    @EXAMPLES
    @given(probe_cases(), st.sampled_from([1, 2]), st.floats(-2.0, 2.0))
    def test_weiss_profile(self, case, i, lam):
        u, _, _, pt, radii = case
        assert outcome(weiss_profile, u, i, lam, pt, radii) == outcome(
            ref_weiss_profile, u, i, lam, pt, radii
        )

    @EXAMPLES
    @given(probe_cases(), st.sampled_from([1, 2]), st.data())
    def test_density_report(self, case, i, data):
        u, w, _, pt, radii = case
        if data.draw(st.booleans()):
            # move the probe onto a boundary cell so the ratios are reported
            cells = np.argwhere(free_boundary_cells(u, Phase(i)))
            if len(cells):
                cell = cells[data.draw(st.integers(0, len(cells) - 1))]
                pt = tuple(cell_centers(u.grid)[tuple(cell)].tolist())
        r = radii[-1]
        assert outcome(density_report, u, w, i, pt, r) == outcome(
            ref_density_report, u, w, i, pt, r
        )

    @EXAMPLES
    @given(probe_cases(), st.sampled_from([1, 2]), st.booleans())
    def test_interface_measure(self, case, i, with_spec):
        u, _, spec, pt, radii = case
        spec = spec if with_spec else None
        assert outcome(interface_measure, u, i, pt, radii, spec) == outcome(
            ref_interface_measure, u, i, pt, radii, spec
        )

    @EXAMPLES
    @given(probe_cases(), st.data())
    def test_el_interface_check(self, case, data):
        u, w, spec, pt, radii = case
        if data.draw(st.booleans()):
            # a boundary cell of phase 1's positive part, so that a fit can succeed
            cells = np.argwhere(free_boundary_cells(u, Phase(1)))
            if len(cells):
                cell = cells[data.draw(st.integers(0, len(cells) - 1))]
                pt = tuple(cell_centers(u.grid)[tuple(cell)].tolist())
        for r in radii:
            assert outcome(el_interface_check, u, w, spec, pt, r) == outcome(
                ref_el_interface_check, u, w, spec, pt, r
            )

    @EXAMPLES
    @given(
        probe_cases(),
        st.sampled_from(
            [(Phase(1, 1), Phase(2, 1)), (Phase(1, 1), Phase(1, -1)), (Phase(2, 1), None),
             (Phase(1, -1), None)]
        ),
    )
    def test_flatness(self, case, parts):
        u, _, _, pt, radii = case
        assert outcome(flatness, u, *parts, pt, radii) == outcome(
            ref_flatness, u, *parts, pt, radii
        )

    @EXAMPLES
    @given(probe_cases())
    def test_phase_count_at(self, case):
        u, _, _, pt, radii = case
        r = max(radii[-1], 4.0 * u.grid.spacing)
        assert outcome(phase_count_at, u, pt, r) == outcome(ref_phase_count_at, u, pt, r)

    @EXAMPLES
    @given(probe_cases(), st.data())
    def test_blowup_rescale(self, case, data):
        u, _, _, pt, radii = case
        grid = u.grid
        lo, hi = bounding_box(grid)
        # a corner probe keeps small zooms inside the box
        if data.draw(st.booleans()):
            pt = tuple(float(v) for v in lo + data.draw(st.floats(0.0, 1.0)) * grid.spacing)
        rk = data.draw(st.sampled_from([4.0, 4.5, 6.0])) * grid.spacing
        assert outcome(blowup_rescale, u, pt, rk) == outcome(ref_blowup_rescale, u, pt, rk)


def test_off_boundary_message_reports_the_global_gap(run_2d_128):
    # the converged supports of the shipped 2D config meet near x = 1/2, far
    # outside the window of a ball at x = 0.02: the message still reports the
    # gap to the nearest boundary cell on the whole grid
    run = run_2d_128
    pt, r = (0.02, 0.5), 0.2
    got = outcome(density_report, run.u, run.w, 1, pt, r)
    assert got == outcome(ref_density_report, run.u, run.w, 1, pt, r)
    assert got[0] == "ValueError"
    assert "is 0.457" in got[1]
    assert "from the nearest boundary cell of part 1+" in got[1]


# ---------------------------------------------------------------------------
# locality and scaling
# ---------------------------------------------------------------------------


def nan_outside(values, box):
    out = np.full(values.shape, np.nan)
    out[box] = values[box]
    return out


def local_copy(u, spec, box):
    """The pair's fields and the spec's coefficients, NaN outside ``box``."""
    def fields(seq):
        return tuple(ScalarField(u.grid, nan_outside(f.values, box)) for f in seq)

    term = spec.volume_term
    if isinstance(term, PerRegion):
        term = PerRegion(fields(term.weights))
    nspec = replace(spec, f=fields(spec.f), g=fields(spec.g), volume_term=term)
    return PhaseField(u.grid, fields(u.fields)), nspec


def cone_case():
    grid = make_grid(2, (64, 64), 1.0 / 64.0)
    u = make_cone(ConeTwoPhase(1.118, 1.0, (1.0, 0.0)), grid)
    spec = make_functional_spec(
        grid, [0.0, 0.0], [0.0, 0.0], NONNEGATIVE,
        PerRegion((make_field(grid, 0.5), make_field(grid, 0.25))),
    )
    return u, partition_from_supports(u), spec, (0.5, 0.5)


def random_case():
    rng = np.random.default_rng(7)
    shape, h = (48, 40), 1.0 / 64.0
    x = cell_centers(make_grid(2, shape, h))
    v = 0.1 + np.sin(2.0 * np.pi * (x @ np.array([1.3, 0.7])) + 0.4)
    mask = rng.random(shape) > 0.05
    grid = make_grid(2, shape, h, mask=mask)
    u = make_phase_field(grid, [np.where(mask & (v > 0), v, 0.0), np.where(mask & (v < 0), -v, 0.0)])
    spec = make_functional_spec(
        grid, [1.0, 0.5], [make_field(grid, rng.uniform(-1, 1, size=shape))] * 2,
        NONNEGATIVE, PowerLaw(0.1, 0.2),
    )
    pt = cell_centers(grid)[tuple(np.argwhere(free_boundary_cells(u, Phase(1)))[40])]
    return u, partition_from_supports(u), spec, tuple(pt.tolist())


# per routine: the call, and the reach past its largest radius of the cells
# it reads (one cell of stencil or margin; weiss_profile samples a cell
# further along each ray, density_report searches its zero set 2h out)
RADII = (0.1, 0.15)
H = 1.0 / 64.0
LOCAL = {
    "acf_profile": (lambda u, w, s, p: acf_profile(u, Phase(1), p, RADII), RADII[-1] + H),
    "weiss_profile": (lambda u, w, s, p: weiss_profile(u, 1, 0.5, p, RADII), RADII[-1] + 2 * H),
    "density_report": (lambda u, w, s, p: density_report(u, w, 1, p, 0.1), 0.1 + 3 * H),
    "interface_measure": (
        lambda u, w, s, p: interface_measure(u, 1, p, RADII, spec=s), RADII[-1] + H
    ),
    "el_interface_check": (lambda u, w, s, p: el_interface_check(u, w, s, p, 0.15), 0.15 + H),
    "flatness": (lambda u, w, s, p: flatness(u, Phase(1), Phase(2), p, RADII), RADII[-1] + H),
    "phase_count_at": (lambda u, w, s, p: phase_count_at(u, p, 0.15), 3.0 * H),
}


@pytest.mark.parametrize("name", sorted(LOCAL))
@pytest.mark.parametrize("make", [cone_case, random_case])
def test_reads_only_its_window(name, make):
    call, reach = LOCAL[name]
    u, w, spec, pt = make()
    box, _, _ = ball_window(u.grid, as_point(u.grid, pt), reach)
    assert np.prod([c.stop - c.start for c in box]) < 0.6 * u.grid.num_cells
    want = outcome(call, u, w, spec, pt)
    if make is cone_case:
        assert not (isinstance(want, tuple) and want[0] == "ValueError"), want
    nu, nspec = local_copy(u, spec, box)
    assert outcome(call, nu, w, nspec, pt) == want


@pytest.mark.parametrize("centered", [False, True])
def test_window_at_fixed_multiple_of_h_does_not_grow(centered):
    shapes = set()
    for n in (64, 128, 256, 512):
        grid = make_grid(2, (n, n), 1.0 / n)
        h = grid.spacing
        pt = as_point(grid, (0.5 + 0.5 * h, 0.5 - 0.5 * h) if centered else (0.5, 0.5))
        box, offsets, d = ball_window(grid, pt, 4.0 * h)
        assert d.shape == tuple(c.stop - c.start for c in box)
        assert np.array_equal(d, distances(grid, pt)[box])
        shapes.add(d.shape)
    assert len(shapes) == 1
