"""Unit tests for the competitor constructions and the minimality audit.

The competitors are edits on the window of the ball, priced there, and
``_probe`` builds every star the audit prices at one probe.
``reference_cutoff`` and ``reference_harmonic`` below are the full-grid
constructions they replaced, with ``ΔJ = total(u*, w*) - total(u, w)``;
the window edits, written into copies of the pair by ``cutoff_pair`` and
``harmonic_pair``, are checked against them on random pairs.
"""

from __future__ import annotations

import importlib
import re
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phasemin import functional
from phasemin.competitors import (
    FRACTIONS,
    AuditEntry,
    AuditSkip,
    audit,
    audit_report_csv,
    seeded_probes,
)
from phasemin.elliptic import DIRECT_CELLS, _pcg, solve_phase
from phasemin.functional import (
    FREE,
    NONNEGATIVE,
    PerRegion,
    PowerLaw,
    make_field,
    make_functional_spec,
    make_partition,
    make_phase_field,
    total,
)
from phasemin.grid import (
    as_point,
    ball_window,
    bounding_box,
    cell_centers,
    distances,
    laplacian_apply,
    make_grid,
    wall_slot_count,
)
from phasemin.minimize import initial_partition, minimize

competitors_module = importlib.import_module("phasemin.competitors")


def applied(pair, box, star):
    """The whole pair that the window edit ``(box, star)`` makes of ``pair``."""
    (u, w), (labels, fields) = pair, star
    new_labels = w.labels.copy()
    new_labels[box] = labels
    new_fields = [f.values.copy() for f in u.fields]
    for new, vals in zip(new_fields, fields):
        new[box] = vals
    return make_phase_field(u.grid, new_fields), make_partition(u.grid, w.num_phases, new_labels)


def probe_outcomes(u, w, spec, x0, r):
    """Each try ``(kind, a, main)`` of ``_probe`` at ``(x0, r)``, mapped to
    its star as ``(u*, w*, delta_j)``, or to the message of its refusal."""
    lam = functional.cell_marginals(spec, w)
    box, tries, stars, deltas = competitors_module._probe(u, w, spec, x0, r, lam)
    return {
        t: str(star) if isinstance(star, ValueError) else (*applied((u, w), box, star), dj)
        for t, star, dj in zip(tries, stars, deltas)
    }


def probe_pair(u, w, spec, x0, r, kind, a, main=None):
    """The star ``(kind, a, main)`` of ``_probe`` as ``(u*, w*, delta_j)``;
    raises a ValueError with the message of its refusal."""
    got = probe_outcomes(u, w, spec, x0, r)[kind, a, main]
    if isinstance(got, str):
        raise ValueError(got)
    return got


def cutoff_pair(u, w, spec, x0, r, a):
    """The cut-off of every phase at fraction ``a``, by ``probe_pair``."""
    return probe_pair(u, w, spec, x0, r, "cutoff", a)


def harmonic_pair(u, w, spec, x0, r, a, main):
    """The harmonic star of ``main`` at fraction ``a``, by ``probe_pair``."""
    return probe_pair(u, w, spec, x0, r, "harmonic", a, main)


# ---------------------------------------------------------------------------
# the full-grid reference constructions
# ---------------------------------------------------------------------------


def reference_trash_benefit(spec, labels):
    term = spec.volume_term
    if isinstance(term, PowerLaw):
        gain = term.a > 0.0 or term.b > 0.0
        return (labels > 0) & gain
    out = np.zeros(labels.shape, dtype=bool)
    for i in range(1, spec.num_phases + 1):
        out |= (labels == i) & (term.weights[i - 1].values > 0.0)
    return out


def reference_cutoff(u, w, spec, x0, r, a, phases):
    if not 0.0 < a < 1.0:
        raise ValueError(f"cutoff fraction a must lie in (0,1), got {a}")
    grid = spec.grid
    pt = as_point(grid, x0)
    d = distances(grid, pt)
    if not np.any(grid.mask & (d < r)):
        raise ValueError(f"ball at {tuple(pt.tolist())} radius {r} misses every masked cell")
    chosen = sorted(set(int(i) for i in phases))
    for i in chosen:
        if not 1 <= i <= spec.num_phases:
            raise ValueError(f"phase index {i} out of range 1..{spec.num_phases}")
    ramp = np.clip((d - a * r) / ((1.0 - a) * r), 0.0, 1.0)
    fields = []
    for i in range(1, spec.num_phases + 1):
        vals = u.fields[i - 1].values
        fields.append(ramp * vals if i in chosen else vals)
    vacated = np.ones(grid.shape, dtype=bool)
    for vals in fields:
        vacated &= vals == 0.0
    labels = w.labels.copy()
    trash = (d < a * r) & vacated & reference_trash_benefit(spec, labels)
    labels[trash] = 0
    u_star = make_phase_field(grid, fields)
    w_star = make_partition(grid, spec.num_phases, labels)
    delta = total(u_star, w_star, spec) - total(u, w, spec)
    return u_star, w_star, delta


def reference_ray_sources(grid, pt, r, annulus):
    centers = cell_centers(grid)
    h = grid.spacing
    lo, hi = bounding_box(grid)
    delta = centers - pt
    dist = np.sqrt(np.sum(delta**2, axis=-1))
    safe = np.where(dist > 0, dist, 1.0)
    direction = delta / safe[..., None]
    src = np.zeros(grid.shape, dtype=np.int64)
    d_flat = dist.reshape(-1)
    todo = annulus.copy()
    rho = r + 0.5 * h
    for _ in range(4):
        if not np.any(todo):
            break
        target = pt + rho * direction[todo]
        target = np.clip(target, lo + 0.4 * h, hi - 0.4 * h)
        idx = np.round((target - np.asarray(grid.origin)) / h).astype(np.int64)
        idx = np.clip(idx, 0, np.asarray(grid.shape) - 1)
        flat = np.ravel_multi_index(tuple(idx.T), grid.shape)
        src[todo] = flat
        still = d_flat[flat] < r
        nxt = np.zeros(grid.shape, dtype=bool)
        nxt[todo] = still
        todo = nxt
        rho += 0.5 * h
    return src


def reference_harmonic(u, w, spec, x0, r, a, main, tol=1e-10):
    """The full-grid harmonic competitor; ``tol`` is its extension solve's."""
    if not 0.5 <= a < 1.0:
        raise ValueError(f"harmonic fraction a must lie in [1/2, 1), got {a}")
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
    d = distances(grid, pt)
    near = d < r + h
    if not np.all(grid.mask[near]):
        raise ValueError(f"ball at {tuple(pt.tolist())} radius {r} (+margin h) leaves the mask")
    inner = d < a * r
    annulus = (d >= a * r) & (d < r)
    ramp = np.clip((d - a * r) / ((1.0 - a) * r), 0.0, 1.0)
    old_labels = w.labels
    main_vals = u.fields[main - 1].values
    labels = old_labels.copy()
    src = reference_ray_sources(grid, pt, r, annulus)
    ray_labels = old_labels.reshape(-1)[src.reshape(-1)].reshape(grid.shape)
    relabel = annulus & (main_vals == 0.0)
    labels[relabel] = ray_labels[relabel]
    labels[inner] = main
    fields = []
    for i in range(1, spec.num_phases + 1):
        if i == main:
            fields.append(main_vals.copy())
            continue
        vals = np.where(labels == i, ramp * u.fields[i - 1].values, 0.0)
        fields.append(vals)
    rhs = laplacian_apply(make_field(grid, np.where(inner, 0.0, main_vals)))
    walls = wall_slot_count(grid)
    extension, _, _ = _pcg(walls, grid.spacing, inner, np.zeros(grid.shape), rhs.values, tol)
    vals = fields[main - 1]
    vals[inner] = extension[inner]
    if spec.sign_constraints[main - 1] == NONNEGATIVE:
        np.maximum(vals, 0.0, out=vals)
    u_star = make_phase_field(grid, fields)
    w_star = make_partition(grid, spec.num_phases, labels)
    delta = total(u_star, w_star, spec) - total(u, w, spec)
    return u_star, w_star, delta


def reference_audit(u, w, spec, probes, tol=1e-10):
    """The audit loop over the reference constructions: entries and skips."""
    entries, skipped = [], []
    phases = tuple(range(1, spec.num_phases + 1))
    for x0, r in probes:
        key = tuple(float(v) for v in np.atleast_1d(np.asarray(x0, dtype=float)))
        for a in (0.5, 0.75):
            try:
                _, _, dj = reference_cutoff(u, w, spec, x0, r, a, phases)
                entries.append(AuditEntry(key, float(r), "cutoff", a, None, dj))
            except ValueError as err:
                skipped.append(AuditSkip(key, float(r), "cutoff", str(err)))
        for main in phases:
            for a in (0.5, 0.75):
                try:
                    _, _, dj = reference_harmonic(u, w, spec, x0, r, a, main, tol)
                    entries.append(AuditEntry(key, float(r), "harmonic", a, main, dj))
                except ValueError as err:
                    skipped.append(AuditSkip(key, float(r), f"harmonic:{main}", str(err)))
    return entries, skipped


def outcome(construction, *args):
    """The construction's result, or the message of the ValueError it raised."""
    try:
        return construction(*args)
    except ValueError as err:
        return str(err)


def assert_same_competitor(got, want, j):
    """Labels identical, fields within 1e-12 of the largest field value, and
    ΔJ within 1e-12 (1 + |J|); or the same ValueError message."""
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    (u1, w1, dj1), (u0, w0, dj0) = got, want
    assert np.array_equal(w1.labels, w0.labels)
    scale = max(float(np.max(np.abs(f.values))) for f in u0.fields)
    for a, b in zip(u1.fields, u0.fields):
        assert np.max(np.abs(a.values - b.values)) <= 1e-12 * scale
    assert abs(dj1 - dj0) <= 1e-12 * (1.0 + abs(j))


@st.composite
def audited_pairs(draw):
    """A random admissible pair on a small 1D/2D grid with a ball to audit.

    The mask has holes, which the ball is cleared of half the time so the
    harmonic competitor can run; the center may lie beyond a box face, and
    the ball may cover the whole grid.  Phases (1 to 3) are free or
    nonnegative, zero on part of their region, and priced by a power law or
    by per-region weights of both signs.
    """
    dim = draw(st.sampled_from([1, 2]))
    if dim == 1:
        shape = (draw(st.integers(6, 48)),)
    else:
        shape = (draw(st.integers(6, 24)), draw(st.integers(6, 24)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h = 1.0 / shape[0]
    plain = make_grid(dim, shape, h)
    lo, hi = bounding_box(plain)
    side = hi - lo
    if draw(st.integers(0, 2)) > 0:  # well inside the box
        x0 = rng.uniform(lo + 0.35 * side, hi - 0.35 * side)
        r = float(rng.uniform(0.05, 0.25) * np.min(side))
    else:  # anywhere, up to a box face and beyond
        x0 = rng.uniform(lo - 0.2 * side, hi + 0.2 * side)
        r = float(rng.uniform(0.05, 0.6) * np.max(side))
    if draw(st.integers(0, 9)) == 0:
        r = 100.0
    mask = rng.random(shape) >= draw(st.sampled_from([0.0, 0.05, 0.2]))
    if draw(st.booleans()):
        mask |= distances(plain, x0) < r + h
    if not mask.any():  # a grid needs a masked cell
        mask.flat[0] = True
    grid = make_grid(dim, shape, h, mask=mask)
    n = draw(st.integers(1, 3))
    signs = [draw(st.sampled_from([FREE, NONNEGATIVE])) for _ in range(n)]
    labels = rng.integers(0, n + 1, shape)
    fields = []
    for i, sign in enumerate(signs, start=1):
        vals = rng.normal(size=shape) * (labels == i) * (rng.random(shape) < 0.8)
        fields.append(np.abs(vals) if sign == NONNEGATIVE else vals)
    if draw(st.booleans()):
        volume = PowerLaw(
            draw(st.sampled_from([0.0, 0.3])),
            draw(st.sampled_from([0.0, 0.7])),
            draw(st.floats(0.5, 2.0)),
        )
    else:
        volume = PerRegion(
            tuple(make_field(grid, rng.normal(size=shape)) for _ in range(n))
        )
    f = [make_field(grid, rng.uniform(0.0, 3.0, shape)) for _ in range(n)]
    g = [make_field(grid, rng.normal(size=shape)) for _ in range(n)]
    spec = make_functional_spec(grid, f, g, signs, volume)
    u = make_phase_field(grid, fields)
    w = make_partition(grid, n, labels)
    return spec, u, w, tuple(float(v) for v in x0), r


class TestWindowAgainstReference:
    """The window constructions against the full-grid reference ones: the
    cut-off of every phase and each main's harmonic star, at each of the
    audit's inner fractions."""

    @settings(max_examples=150, deadline=None)
    @given(audited_pairs())
    def test_cutoff(self, case):
        spec, u, w, x0, r = case
        got = probe_outcomes(u, w, spec, x0, r)
        phases = range(1, spec.num_phases + 1)
        for a in FRACTIONS:
            want = outcome(reference_cutoff, u, w, spec, x0, r, a, phases)
            assert_same_competitor(got["cutoff", a, None], want, total(u, w, spec))

    @settings(max_examples=150, deadline=None)
    @given(audited_pairs())
    def test_harmonic(self, case):
        spec, u, w, x0, r = case
        got = probe_outcomes(u, w, spec, x0, r)
        for main in range(1, spec.num_phases + 1):
            for a in FRACTIONS:
                want = outcome(reference_harmonic, u, w, spec, x0, r, a, main, 1e-13)
                assert_same_competitor(got["harmonic", a, main], want, total(u, w, spec))

    @settings(max_examples=40, deadline=None)
    @given(audited_pairs(), st.data())
    def test_audit_order_and_skips(self, case, data):
        spec, u, w, x0, r = case
        lo, hi = bounding_box(spec.grid)
        more = data.draw(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.02, 0.4)),
                                  max_size=2))
        probes = [(x0, r)] + [
            (tuple(lo + t * (hi - lo)), rad) for t, rad in more
        ]
        report = audit(u, w, spec, probes)
        entries, skipped = reference_audit(u, w, spec, probes, 1e-13)
        j = total(u, w, spec)
        assert list(report.skipped) == skipped
        assert len(report.entries) == len(entries)
        for e1, e0 in zip(report.entries, entries):
            assert (e1.x0, e1.r, e1.kind, e1.a, e1.main) == (e0.x0, e0.r, e0.kind, e0.a, e0.main)
            assert abs(e1.delta_j - e0.delta_j) <= 1e-12 * (1.0 + abs(j))

    def test_harmonic_beyond_the_direct_solve(self):
        # an inner ball of about 2,600 cells runs MGCG: the same solve as the
        # reference's, so the pair and ΔJ match it
        grid = make_grid(2, (128, 128), 1 / 128)
        spec = make_functional_spec(
            grid, [0.0, 0.0], [2.0, 2.0], NONNEGATIVE, PowerLaw(0.05, 0.0)
        )
        w = initial_partition(grid, 2, seeds=[(0.25, 0.5), (0.75, 0.5)])
        u = make_phase_field(
            grid, [solve_phase(spec, w, i, 1e-10).values for i in (1, 2)]
        )
        x0, r, a = (0.45, 0.5), 0.3, 0.75
        inner = int(np.count_nonzero(distances(grid, np.array(x0)) < a * r))
        assert inner > DIRECT_CELLS
        got = probe_outcomes(u, w, spec, x0, r)
        for main in (1, 2):
            want = reference_harmonic(u, w, spec, x0, r, a, main)
            assert_same_competitor(got["harmonic", a, main], want, total(u, w, spec))


class TestAdmissibility:
    """The audit refuses an inadmissible pair once, wherever its fault is."""

    def pair(self):
        grid = make_grid(2, (32, 32), 1 / 32)
        spec = make_functional_spec(
            grid, [0.0, 0.0], [2.0, 2.0], NONNEGATIVE, PowerLaw(0.05, 0.0)
        )
        w = initial_partition(grid, 2, seeds=[(0.25, 0.5), (0.75, 0.5)])
        fields = [solve_phase(spec, w, i, 1e-10).values.copy() for i in (1, 2)]
        return spec, fields, w

    def test_audit_raises_once(self):
        spec, fields, w = self.pair()
        fields[1][0, 0] = 0.5  # phase 2 on a phase-1 corner cell, far from the ball
        u = make_phase_field(spec.grid, fields)
        with pytest.raises(ValueError, match="phase 2 has support outside its labeled region"):
            audit(u, w, spec, [((0.7, 0.6), 0.15)])

    def test_competitors_refuse_phase_counts_that_disagree(self):
        # a one-field pair, or a one-phase partition, against a two-phase spec
        spec, fields, w = self.pair()
        two = make_phase_field(spec.grid, fields)
        one = make_phase_field(spec.grid, fields[:1])
        w_one = make_partition(spec.grid, 1, np.minimum(w.labels, 1))
        note = "phase counts of field, partition, and spec disagree"
        for u, part in ((one, w), (two, w_one), (one, w_one)):
            with pytest.raises(ValueError, match=note):
                audit(u, part, spec, [((0.7, 0.6), 0.15)])

    def test_audit_checks_once_and_builds_no_whole_pair(self, monkeypatch):
        spec, fields, w = self.pair()
        u = make_phase_field(spec.grid, fields)
        checks = []
        real_check = functional.check_admissible

        def counted(*args):
            checks.append(args)
            return real_check(*args)

        def refused(*args, **kwargs):
            raise AssertionError("the audit built a whole pair")

        for name, module in list(sys.modules.items()):
            if name == "phasemin" or name.startswith("phasemin."):
                for attr, stub in (
                    ("check_admissible", counted),
                    ("make_phase_field", refused),
                    ("make_partition", refused),
                ):
                    if hasattr(module, attr):
                        monkeypatch.setattr(module, attr, stub)
        report = audit(u, w, spec, seeded_probes(spec.grid, 4, 0.12, seed=0))
        assert len(report.entries) == 4 * (2 + 4)
        assert len(checks) == 1


def random_stars(rng, spec, box, count):
    """Admissible edits on ``box``: random labels in range, 0 off the mask,
    and one field per phase on its labels, of its sign."""
    n = spec.num_phases
    mask = spec.grid.mask[box]
    stars = []
    for _ in range(count):
        labels = np.where(mask, rng.integers(0, n + 1, mask.shape), 0)
        fields = [rng.normal(size=mask.shape) * (labels == i) for i in range(1, n + 1)]
        for i, sign in enumerate(spec.sign_constraints):
            if sign == NONNEGATIVE:
                fields[i] = np.abs(fields[i])
        stars.append((labels, fields))
    return stars


class TestBatchedPricing:
    """``cell_set_deltas`` prices several edits of one cell set together,
    bit for bit as it prices each alone."""

    @settings(max_examples=150, deadline=None)
    @given(audited_pairs(), st.integers(0, 2**32 - 1), st.integers(1, 6))
    def test_matches_one_star_at_a_time(self, case, seed, count):
        spec, u, w, x0, r = case
        rng = np.random.default_rng(seed)
        box = ball_window(spec.grid, np.atleast_1d(np.asarray(x0, dtype=float)), r)[0]
        # the window's cells, in row-major order, and the edits on them
        chosen = np.zeros(spec.grid.shape, dtype=bool)
        chosen[box] = True
        cells = np.nonzero(chosen)
        stars = [
            (labels.reshape(-1), [f.reshape(-1) for f in fields])
            for labels, fields in random_stars(rng, spec, box, count)
        ]

        got = functional.cell_set_deltas(spec, cells, (u, w), stars)
        assert len(got) == len(stars)
        for dj, star in zip(got, stars):
            (want,) = functional.cell_set_deltas(spec, cells, (u, w), [star])
            assert type(dj) is float
            assert np.float64(dj).tobytes() == np.float64(want).tobytes()


class TestStarInvariant:
    """What lets ``cell_set_deltas`` price the audit's stars unchecked: of an
    admissible pair, every star the audit builds is admissible on its
    window and equals the pair at window cells with d >= r: labels bit for
    bit, fields by value, since masking a phase off its labels turns a
    -0.0 of the pair into 0.0."""

    @settings(max_examples=150, deadline=None)
    @given(audited_pairs())
    def test_stars_are_admissible_and_change_only_the_ball(self, case):
        spec, u, w, x0, r = case
        lam = functional.cell_marginals(spec, w)
        box, _, stars, _ = competitors_module._probe(u, w, spec, x0, r, lam)
        built = [star for star in stars if not isinstance(star, ValueError)]
        if not built:
            return
        d = ball_window(spec.grid, as_point(spec.grid, x0), r)[2]
        outside = d >= r
        mask = spec.grid.mask[box]
        for labels, fields in built:
            functional._check_arrays(spec, mask, labels, fields)
            assert labels[outside].tobytes() == w.labels[box][outside].tobytes()
            for new, old in zip(fields, u.fields):
                assert np.array_equal(new[outside], old.values[box][outside])


def test_audit_factors_each_inner_ball_once(run_2d_128, monkeypatch):
    """The 2D config's audit at seed 0: one dense solve per probe and inner
    fraction for both mains, and one ray trace per probe."""
    plan = run_2d_128.plan
    probes = seeded_probes(plan.grid, plan.probe_count, plan.probe_radius, 0)
    solves, rays = [], []
    real_solve, real_rays = np.linalg.solve, competitors_module._ray_sources

    def solve(*args):
        solves.append(args)
        return real_solve(*args)

    def ray_sources(*args):
        rays.append(args)
        return real_rays(*args)

    monkeypatch.setattr(np.linalg, "solve", solve)
    monkeypatch.setattr(competitors_module, "_ray_sources", ray_sources)
    report = audit(run_2d_128.u, run_2d_128.w, plan.spec, probes)
    assert len(probes) == 20
    assert len(report.entries) == 20 * 6 and not report.skipped
    assert len(solves) == 40
    assert all(b.shape[1] == 2 for _, b in solves)
    assert len(rays) == 20


def zero_pair(grid, n):
    u = make_phase_field(grid, [np.zeros(grid.shape)] * n)
    w = make_partition(grid, n, np.zeros(grid.shape, dtype=int))
    return u, w


def solved_full_domain_pair(grid, g_value, lam):
    """One phase filling the grid, field solved to high accuracy."""
    spec = make_functional_spec(
        grid, [0.0], [g_value], NONNEGATIVE, PowerLaw(lam, 0.0)
    )
    w = make_partition(grid, 1, np.ones(grid.shape, dtype=int))
    u = make_phase_field(grid, [solve_phase(spec, w, 1, 1e-10).values])
    return spec, u, w


class TestCutoff:
    def test_zero_pair_zero_delta(self):
        grid = make_grid(2, (16, 16), 1 / 16)
        spec = make_functional_spec(grid, [0.0], [1.0], NONNEGATIVE, PowerLaw(0.1, 0.0))
        u, w = zero_pair(grid, 1)
        u2, w2, dj = cutoff_pair(u, w, spec, (0.5, 0.5), 0.25, 0.5)
        assert dj == 0.0
        assert np.all(u2.fields[0].values == 0.0)

    def test_whole_grid_cutoff_is_empty_competitor(self):
        grid = make_grid(2, (24, 24), 1 / 24)
        spec, u, w = solved_full_domain_pair(grid, 4.0, 0.1)
        j = total(u, w, spec)
        u2, w2, dj = cutoff_pair(u, w, spec, (0.5, 0.5), 100.0, 0.5)
        assert np.all(u2.fields[0].values == 0.0)
        assert np.all(w2.labels == 0)
        assert dj == pytest.approx(-j, rel=1e-12, abs=1e-15)

    def test_field_geometry_of_the_ramp(self):
        grid = make_grid(2, (32, 32), 1 / 32)
        spec, u, w = solved_full_domain_pair(grid, 2.0, 0.0)
        x0, r, a = (0.5, 0.5), 0.25, 0.5
        u2, w2, dj = cutoff_pair(u, w, spec, x0, r, a)
        d = np.sqrt(np.sum((cell_centers(grid) - np.array(x0)) ** 2, axis=-1))
        inner = d < a * r
        outer = d >= r
        vals, old = u2.fields[0].values, u.fields[0].values
        assert np.all(vals[inner] == 0.0)
        assert np.array_equal(vals[outer], old[outer])
        mid = (d >= a * r) & (d < r)
        ramp = (d[mid] - a * r) / (r - a * r)
        assert np.allclose(vals[mid], ramp * old[mid], atol=1e-14)

    def test_ramp_leaves_a_cell_at_distance_r_unchanged(self):
        # r is the distance of cell 17 from x0 = 0.3, and fl(0.75 r) rounds
        # up, so the ramp's formula gives 1 - ulp there
        grid = make_grid(1, (32,), 1 / 32)
        spec, u, w = solved_full_domain_pair(grid, 2.0, 0.0)
        r = float(distances(grid, as_point(grid, (0.3,)))[17])
        assert (r - 0.75 * r) / (0.25 * r) < 1.0
        u2, w2, dj = cutoff_pair(u, w, spec, (0.3,), r, 0.75)
        vals, old = u2.fields[0].values, u.fields[0].values
        assert old[17] > 0.0 and vals[17] == old[17]
        assert np.array_equal(vals[17:], old[17:])
        j = total(u, w, spec)
        assert dj == pytest.approx(total(u2, w2, spec) - j, rel=1e-12, abs=1e-14)

    def test_trash_rule_respects_benefit(self):
        grid = make_grid(2, (16, 16), 1 / 16)
        # Negative per-cell weight: trashing vacated cells would RAISE the
        # volume term, so labels must be kept.
        q = make_field(grid, -np.ones(grid.shape))
        spec = make_functional_spec(grid, [0.0], [2.0], NONNEGATIVE, PerRegion((q,)))
        w = make_partition(grid, 1, np.ones(grid.shape, dtype=int))
        u = make_phase_field(grid, [solve_phase(spec, w, 1, 1e-10).values])
        u2, w2, dj = cutoff_pair(u, w, spec, (0.5, 0.5), 100.0, 0.5)
        assert np.all(u2.fields[0].values == 0.0)
        assert np.array_equal(w2.labels, w.labels)
        # Positive weight: now every vacated cell is trashed.
        q2 = make_field(grid, np.ones(grid.shape) * 0.05)
        spec2 = make_functional_spec(grid, [0.0], [2.0], NONNEGATIVE, PerRegion((q2,)))
        u3, w3, dj3 = cutoff_pair(u, w, spec2, (0.5, 0.5), 100.0, 0.5)
        assert np.all(w3.labels == 0)

    def test_validation(self):
        # a ball that misses every masked cell has no cut-off
        mask = cell_centers(make_grid(2, (16, 16), 1 / 16))[..., 0] < 0.5
        grid = make_grid(2, (16, 16), 1 / 16, mask=mask)
        spec = make_functional_spec(grid, [0.0], [2.0], NONNEGATIVE, PowerLaw(0.05, 0.0))
        w = make_partition(grid, 1, mask.astype(int))
        u = make_phase_field(grid, [solve_phase(spec, w, 1, 1e-10).values])
        for a in FRACTIONS:
            with pytest.raises(ValueError, match="misses every masked cell"):
                cutoff_pair(u, w, spec, (0.8, 0.5), 0.2, a)
        cutoff_pair(u, w, spec, (0.6, 0.5), 0.2, 0.5)

    def test_point_outside_the_box_rejected(self):
        grid = make_grid(2, (32, 32), 1 / 32)
        spec, u, w = solved_full_domain_pair(grid, 2.0, 0.05)
        for x0 in ((5.0, 5.0), (0.5, -0.01)):
            got = probe_outcomes(u, w, spec, x0, 0.25)
            assert len(got) == 4
            for note in got.values():
                assert "outside the bounding box" in note

    def test_radius_must_be_positive_and_finite(self):
        grid = make_grid(2, (16, 16), 1 / 16)
        spec, u, w = solved_full_domain_pair(grid, 2.0, 0.05)
        for r in (0.0, -0.01, np.inf, np.nan):
            with pytest.raises(ValueError, match="cutoff radius r must be positive and finite"):
                cutoff_pair(u, w, spec, (0.5, 0.5), r, 0.5)


class TestHarmonic:
    def test_zero_pair_zero_delta(self):
        grid = make_grid(2, (16, 16), 1 / 16)
        spec = make_functional_spec(grid, [0.0], [1.0], NONNEGATIVE, PowerLaw(0.0, 0.0))
        u, w = zero_pair(grid, 1)
        _, _, dj = harmonic_pair(u, w, spec, (0.5, 0.5), 0.25, 0.5, 1)
        assert dj == 0.0

    def test_harmonic_field_is_fixed_point(self):
        # A linear profile is exactly discrete-harmonic, is positive on the
        # whole grid, and already owns every cell: the competitor must
        # return the identical pair.
        grid = make_grid(2, (32, 32), 1 / 32)
        spec = make_functional_spec(grid, [0.0], [0.0], NONNEGATIVE, PowerLaw(0.1, 0.0))
        x = cell_centers(grid)[..., 0]
        u = make_phase_field(grid, [x.copy()])
        w = make_partition(grid, 1, np.ones(grid.shape, dtype=int))
        u2, w2, dj = harmonic_pair(u, w, spec, (0.5, 0.5), 0.25, 0.5, 1)
        assert np.allclose(u2.fields[0].values, x, atol=1e-9)
        assert np.array_equal(w2.labels, w.labels)
        assert abs(dj) < 1e-9

    def test_absorbing_empty_ball_costs_volume_only(self):
        # Phase 1 lives on {x > 0.75}; a ball far inside the trash zone is
        # absorbed: the field change is identically zero, so the objective
        # change is exactly the volume price of the newly owned cells.
        grid = make_grid(2, (64, 64), 1 / 64)
        lam = 0.1
        spec = make_functional_spec(grid, [0.0], [2.0], NONNEGATIVE, PowerLaw(lam, 0.0))
        x = cell_centers(grid)[..., 0]
        labels = np.where(x > 0.75, 1, 0).astype(int)
        w = make_partition(grid, 1, labels)
        u = make_phase_field(grid, [solve_phase(spec, w, 1, 1e-10).values])
        x0, r, a = (0.3, 0.5), 0.2, 0.5
        u2, w2, dj = harmonic_pair(u, w, spec, x0, r, a, 1)
        assert np.array_equal(u2.fields[0].values, u.fields[0].values)
        d = np.sqrt(np.sum((cell_centers(grid) - np.array(x0)) ** 2, axis=-1))
        n_inner = int(np.count_nonzero(d < a * r))
        assert np.count_nonzero(w2.labels) == np.count_nonzero(labels) + n_inner
        assert dj == pytest.approx(lam * n_inner * grid.spacing**2, rel=1e-12)

    def test_max_norm_never_increases(self):
        grid = make_grid(2, (48, 48), 1 / 48)
        spec, u, w = solved_full_domain_pair(grid, 8.0, 0.05)
        before = float(np.max(np.abs(u.fields[0].values)))
        for a in (0.5, 0.75):
            u2, _, _ = harmonic_pair(u, w, spec, (0.5, 0.5), 0.3, a, 1)
            after = float(np.max(np.abs(u2.fields[0].values)))
            assert after <= before + 1e-12

    def test_two_phase_annulus_relabeling(self):
        # Two vertical half-planes; ball centered on phase 1 territory but
        # overlapping the interface.  Inside B(ar) everything becomes phase
        # 1; phase 2 values are damped and survive only on its own cells.
        grid = make_grid(2, (64, 64), 1 / 64)
        spec = make_functional_spec(
            grid, [0.0, 0.0], [2.0, 2.0], NONNEGATIVE, PowerLaw(0.05, 0.0)
        )
        w = initial_partition(grid, 2, seeds=[(0.25, 0.5), (0.75, 0.5)])
        u = make_phase_field(
            grid,
            [
                solve_phase(spec, w, 1, 1e-10).values,
                solve_phase(spec, w, 2, 1e-10).values,
            ],
        )
        x0, r, a = (0.45, 0.5), 0.2, 0.5
        u2, w2, dj = harmonic_pair(u, w, spec, x0, r, a, 1)
        d = np.sqrt(np.sum((cell_centers(grid) - np.array(x0)) ** 2, axis=-1))
        inner = d < a * r
        assert np.all(w2.labels[inner] == 1)
        assert np.all(u2.fields[1].values[inner] == 0.0)
        outside = d >= r
        assert np.array_equal(w2.labels[outside], w.labels[outside])
        assert np.array_equal(u2.fields[0].values[outside], u.fields[0].values[outside])
        functional.check_admissible(u2, w2, spec)
        assert np.isfinite(dj)

    def test_validation(self):
        # a ball that, with a margin of h, leaves the bounding box has no
        # harmonic star, and still has its cut-offs
        grid = make_grid(2, (32, 32), 1 / 32)
        spec, u, w = solved_full_domain_pair(grid, 2.0, 0.05)
        got = probe_outcomes(u, w, spec, (0.1, 0.5), 0.25)
        for a in FRACTIONS:
            assert "(+margin h) leaves the bounding box" in got["harmonic", a, 1]
            assert not isinstance(got["cutoff", a, None], str)

    def test_nonpositive_radius_rejected(self):
        grid = make_grid(2, (32, 32), 1 / 32)
        spec, u, w = solved_full_domain_pair(grid, 2.0, 0.05)
        for r in (0.0, -0.01):
            with pytest.raises(ValueError, match="harmonic radius r must be positive"):
                harmonic_pair(u, w, spec, (0.5, 0.5), r, 0.5, 1)

    def test_masked_hole_rejected(self):
        mask = np.ones((32, 32), dtype=bool)
        mask[14:18, 14:18] = False
        grid = make_grid(2, (32, 32), 1 / 32, mask=mask)
        spec = make_functional_spec(grid, [0.0], [2.0], NONNEGATIVE, PowerLaw(0.0, 0.0))
        labels = np.where(mask, 1, 0).astype(int)
        w = make_partition(grid, 1, labels)
        u = make_phase_field(grid, [solve_phase(spec, w, 1, 1e-10).values])
        with pytest.raises(ValueError, match=r"\(\+margin h\) leaves the mask"):
            harmonic_pair(u, w, spec, (0.5, 0.5), 0.2, 0.5, 1)


class TestAudit:
    def test_zero_pair_min_delta_zero(self):
        grid = make_grid(2, (16, 16), 1 / 16)
        spec = make_functional_spec(grid, [0.0], [1.0], NONNEGATIVE, PowerLaw(0.1, 0.0))
        u, w = zero_pair(grid, 1)
        report = audit(u, w, spec, [((0.5, 0.5), 0.2), ((0.3, 0.3), 0.15)])
        assert report.min_delta_j == 0.0
        assert report.worst is not None
        assert len(report.entries) == 2 * (2 + 2)
        assert not report.skipped

    def test_perturbed_pair_detected(self):
        # For the solved field (f = 0), doubling u makes the energy and
        # mass terms cancel, so the whole-grid cut-off removes exactly the
        # volume cost: the audit must find delta J <= -lam.
        grid = make_grid(2, (32, 32), 1 / 32)
        lam = 0.1
        spec, u, w = solved_full_domain_pair(grid, 4.0, lam)
        doubled = make_phase_field(grid, [2.0 * u.fields[0].values])
        report = audit(doubled, w, spec, [((0.5, 0.5), 100.0)])
        assert report.min_delta_j <= -lam + 1e-10
        assert report.worst.kind == "cutoff"
        # harmonic probes at r=100 violate the mask margin -> recorded skips
        assert len(report.skipped) == 2
        assert "bounding box" in report.skipped[0].note

    def test_nan_delta_j_is_the_minimum(self):
        # ΔJ overflows to nan at the second probe only, after finite entries:
        # the first nan entry is the worst, as np.argmin picks
        grid = make_grid(2, (16, 16), 1 / 16)
        spec = make_functional_spec(grid, [1.0], [0.0], NONNEGATIVE, PowerLaw(0.1, 0.0))
        w = make_partition(grid, 1, np.ones(grid.shape, dtype=int))
        huge = np.where(cell_centers(grid)[..., 0] > 0.6, 1e200, 1.0)
        u = make_phase_field(grid, [huge])
        with np.errstate(over="ignore", invalid="ignore"):
            report = audit(u, w, spec, [((0.3, 0.5), 0.15), ((0.75, 0.5), 0.15)])
        deltas = [e.delta_j for e in report.entries]
        assert np.all(np.isfinite(deltas[:4])) and np.all(np.isnan(deltas[4:]))
        assert np.isnan(report.min_delta_j)
        assert report.worst is report.entries[4]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_infinite_radius_is_skipped(self):
        grid = make_grid(2, (16, 16), 1 / 16)
        spec, u, w = solved_full_domain_pair(grid, 2.0, 0.05)
        report = audit(u, w, spec, [((0.5, 0.5), np.inf)])
        assert report.entries == ()
        kinds = [s.kind for s in report.skipped]
        assert kinds == ["cutoff", "cutoff", "harmonic:1", "harmonic:1"]

    def test_skip_note_prints_plain_numbers(self):
        grid = make_grid(2, (16, 16), 1 / 16)
        spec, u, w = solved_full_domain_pair(grid, 2.0, 0.1)
        report = audit(u, w, spec, [((0.5, 0.5), 100.0)])
        skip_lines = audit_report_csv(report).splitlines()[-2:]
        assert skip_lines == [
            "# skipped,harmonic:1,100.0,0.5;0.5,ball at (0.5, 0.5) radius 100.0 "
            "(+margin h) leaves the bounding box"
        ] * 2

    def test_converged_pair_near_minimal(self):
        grid = make_grid(2, (64, 64), 1 / 64)
        spec = make_functional_spec(
            grid, [0.0, 0.0], [2.0, 2.0], NONNEGATIVE, PowerLaw(0.05, 0.0)
        )
        w0 = initial_partition(grid, 2, seeds=[(0.25, 0.5), (0.75, 0.5)])
        u0 = make_phase_field(grid, [np.zeros(grid.shape)] * 2)
        u, w, rep = minimize(spec, init=(u0, w0), tol_solve=1e-10)
        j = rep.j_history[-1]
        probes = seeded_probes(grid, 8, 0.12, seed=3)
        report = audit(u, w, spec, probes)
        assert len(report.entries) == 8 * (2 + 4)
        assert report.min_delta_j >= -3e-3 * (1.0 + abs(j))

    def test_csv_shape_and_determinism(self):
        grid = make_grid(2, (24, 24), 1 / 24)
        spec, u, w = solved_full_domain_pair(grid, 2.0, 0.05)
        probes = [((0.5, 0.5), 0.2), ((0.5, 0.5), 100.0)]
        text1 = audit_report_csv(audit(u, w, spec, probes))
        text2 = audit_report_csv(audit(u, w, spec, probes))
        assert text1 == text2
        lines = text1.strip().split("\n")
        assert lines[0] == "kind,a,main,r,x0_0,x0_1,delta_j"
        body = [ln for ln in lines[1:] if not ln.startswith("#")]
        skips = [ln for ln in lines[1:] if ln.startswith("#")]
        assert len(body) == 4 + 2  # full probe + whole-grid cutoffs
        assert len(skips) == 2
        for ln in body:
            assert len(ln.split(",")) == 7


STREAM_SEEDS = [*range(200), 2**32 - 1, 2**32, 2**64 + 3, 2**70]

# the probe centers of configs/two_phase_2d_h128.txt at seed 0
PROBES_2D_H128_SEED0 = [
    "(0.605289297128368, 0.32302353620597535)",
    "(0.1471233965259497, 0.12833061981255675)",
    "(0.7408264963852095, 0.8173058500322485)",
    "(0.5819762526210196, 0.6764254812564487)",
    "(0.5335367121890439, 0.8344619257868469)",
    "(0.7428124197309278, 0.11773022200580135)",
    "(0.774754537626694, 0.14144391101607573)",
    "(0.6765476244430195, 0.25066025833821726)",
    "(0.7791937965564754, 0.5318733130664893)",
    "(0.34602851585061456, 0.4405658012957)",
    "(0.13739574719307465, 0.2111677688090398)",
    "(0.6311675187957283, 0.6131519370227048)",
    "(0.588702304451214, 0.41057711983882295)",
    "(0.882230138137956, 0.8696421666842269)",
    "(0.642635400569534, 0.6156655686308838)",
    "(0.6448684241264102, 0.41460834468393604)",
    "(0.21948043823597863, 0.6702691615242004)",
    "(0.5194911354032143, 0.3541234418359472)",
    "(0.4891109321019379, 0.799418772655794)",
    "(0.833670952891367, 0.3906800574700977)",
]


def box_grid(dim):
    """A stand-in grid of 1 to 3 axes: ``seeded_probes`` reads only its box."""
    return SimpleNamespace(
        dim=dim, origin=(0.1, -2.0, 0.3)[:dim], spacing=0.05, shape=(20, 22, 24)[:dim]
    )


def numpy_probes(grid, count, r, seed):
    """The centers ``np.random.default_rng(seed).uniform`` draws on the probe box."""
    lo, hi = bounding_box(grid)
    margin = r + 2 * grid.spacing
    pts = np.random.default_rng(seed).uniform(lo + margin, hi - margin, size=(count, grid.dim))
    return [tuple(p.tolist()) for p in pts]


class TestSeededProbes:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_numpy_stream(self, dim):
        grid = box_grid(dim)
        for seed in STREAM_SEEDS:
            for count in range(1, 34):
                got = [x0 for x0, _ in seeded_probes(grid, count, 0.1, seed)]
                assert got == numpy_probes(grid, count, 0.1, seed), (seed, count)

    def test_shipped_2d_probes_are_pinned(self, run_2d_128):
        plan = run_2d_128.plan
        probes = seeded_probes(plan.grid, plan.probe_count, plan.probe_radius, 0)
        assert [repr(x0) for x0, _ in probes] == PROBES_2D_H128_SEED0
        assert {r for _, r in probes} == {0.1}

    @pytest.mark.parametrize("seed", [True, np.int64(3), np.uint64(2**63 + 5)])
    def test_integer_seed_types(self, seed):
        grid = box_grid(2)
        got = [x0 for x0, _ in seeded_probes(grid, 5, 0.1, seed)]
        assert got == numpy_probes(grid, 5, 0.1, seed)

    @pytest.mark.parametrize("seed", [1.5, np.float64(2.0), "3", None])
    def test_non_integer_seed_rejected(self, seed):
        grid = make_grid(2, (16, 16), 1 / 16)
        message = f"probe seed must be an integer, got {seed!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            seeded_probes(grid, 4, 0.1, seed)

    def test_deterministic_and_in_bounds(self):
        grid = make_grid(2, (64, 64), 1 / 64)
        p1 = seeded_probes(grid, 20, 0.1, seed=7)
        p2 = seeded_probes(grid, 20, 0.1, seed=7)
        assert p1 == p2
        p3 = seeded_probes(grid, 20, 0.1, seed=8)
        assert p1 != p3
        lo, hi = bounding_box(grid)
        margin = 0.1 + 2 * grid.spacing
        for (x0, r) in p1:
            assert r == 0.1
            assert np.all(np.asarray(x0) >= lo + margin - 1e-12)
            assert np.all(np.asarray(x0) <= hi - margin + 1e-12)

    def test_radius_too_large(self):
        grid = make_grid(2, (16, 16), 1 / 16)
        with pytest.raises(ValueError):
            seeded_probes(grid, 4, 0.6, seed=0)

    @pytest.mark.parametrize("r", [0.0, -0.1, np.nan, np.inf])
    def test_radius_must_be_positive_and_finite(self, r):
        grid = make_grid(2, (16, 16), 1 / 16)
        with pytest.raises(ValueError, match="radius r must be positive and finite"):
            seeded_probes(grid, 4, r, seed=0)
