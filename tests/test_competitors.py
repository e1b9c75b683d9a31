"""Unit tests for the competitor constructions and the minimality audit.

The competitors are edits on the window of the ball, priced there.
``reference_cutoff`` and ``reference_harmonic`` below are the full-grid
constructions they replaced, with ``ΔJ = total(u*, w*) - total(u, w)``;
the window edits, written into copies of the pair by ``cutoff_pair`` and
``harmonic_pair``, are checked against them on random pairs.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phasemin import functional
from phasemin.competitors import (
    AuditEntry,
    AuditSkip,
    audit,
    audit_report_csv,
    cutoff_competitor,
    harmonic_competitor,
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
    bounding_box,
    cell_centers,
    distances,
    laplacian_apply,
    make_grid,
)
from phasemin.minimize import initial_partition, minimize


def applied(pair, box, star):
    """The whole pair that the window edit ``(box, star)`` makes of ``pair``."""
    (u, w), (labels, fields) = pair, star
    new_labels = w.labels.copy()
    new_labels[box] = labels
    new_fields = [f.values.copy() for f in u.fields]
    for new, vals in zip(new_fields, fields):
        new[box] = vals
    return make_phase_field(u.grid, new_fields), make_partition(u.grid, w.num_phases, new_labels)


def cutoff_pair(u, w, spec, *args):
    """``cutoff_competitor`` as ``(u*, w*, delta_j)``."""
    box, star, dj = cutoff_competitor(u, w, spec, *args)
    return (*applied((u, w), box, star), dj)


def harmonic_pair(u, w, spec, *args):
    """``harmonic_competitor`` as ``(u*, w*, delta_j)``."""
    box, star, dj = harmonic_competitor(u, w, spec, *args)
    return (*applied((u, w), box, star), dj)


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
    extension, _, _ = _pcg(grid, inner, np.zeros(grid.shape), rhs.values, tol)
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
    """The window constructions against the full-grid reference ones."""

    @settings(max_examples=150, deadline=None)
    @given(audited_pairs(), st.floats(0.05, 0.95), st.data())
    def test_cutoff(self, case, a, data):
        spec, u, w, x0, r = case
        phases = data.draw(st.sets(st.integers(1, spec.num_phases)))
        got = outcome(cutoff_pair, u, w, spec, x0, r, a, phases)
        want = outcome(reference_cutoff, u, w, spec, x0, r, a, phases)
        assert_same_competitor(got, want, total(u, w, spec))

    @settings(max_examples=150, deadline=None)
    @given(audited_pairs(), st.floats(0.5, 0.95), st.data())
    def test_harmonic(self, case, a, data):
        spec, u, w, x0, r = case
        main = data.draw(st.integers(1, spec.num_phases))
        got = outcome(harmonic_pair, u, w, spec, x0, r, a, main)
        want = outcome(reference_harmonic, u, w, spec, x0, r, a, main, 1e-13)
        assert_same_competitor(got, want, total(u, w, spec))

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
        for main in (1, 2):
            got = harmonic_pair(u, w, spec, x0, r, a, main)
            want = reference_harmonic(u, w, spec, x0, r, a, main)
            assert_same_competitor(got, want, total(u, w, spec))


class TestAdmissibility:
    """The audit refuses an inadmissible pair once, wherever its fault is; a
    competitor checks its edit and the pair on its grown window."""

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

    def test_competitors_raise(self):
        # the ball B((0.7, 0.6), 0.15) has the window of cells 17..27 by
        # 13..24; grown by one cell it starts at column 16, which is phase 2's
        spec, fields, w = self.pair()
        fields[0][16, 19] = 0.5
        u = make_phase_field(spec.grid, fields)
        note = "phase 1 has support outside its labeled region"
        x0, r = (0.7, 0.6), 0.15
        with pytest.raises(ValueError, match=note):
            cutoff_competitor(u, w, spec, x0, r, 0.5, [1, 2])
        for main in (1, 2):
            with pytest.raises(ValueError, match=note):
                harmonic_competitor(u, w, spec, x0, r, 0.5, main)
        # one column further out (phase 1's), a fault is the audit's to find
        fields[0][16, 19] = 0.0
        fields[1][15, 19] = 0.5
        u = make_phase_field(spec.grid, fields)
        cutoff_competitor(u, w, spec, x0, r, 0.5, [1, 2])
        with pytest.raises(ValueError, match="phase 2 has support outside"):
            audit(u, w, spec, [(x0, r)])

    def test_competitor_star_is_checked_first(self):
        # phase 2 strays onto a phase-1 corner cell of the window of
        # B((0.5, 0.5), 0.15), phase 1 onto a phase-2 corner: the harmonic
        # competitor for main 2 drops phase 1's stray value and keeps phase
        # 2's, so its edit names phase 2 where the pair would name phase 1
        spec, fields, w = self.pair()
        fields[1][10, 10] = 0.5
        fields[0][21, 21] = 0.5
        u = make_phase_field(spec.grid, fields)
        with pytest.raises(ValueError, match="phase 2 has support"):
            harmonic_competitor(u, w, spec, (0.5, 0.5), 0.15, 0.5, 2)
        with pytest.raises(ValueError, match="phase 1 has support"):
            harmonic_competitor(u, w, spec, (0.5, 0.5), 0.15, 0.5, 1)

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
        u2, w2, dj = cutoff_pair(u, w, spec, (0.5, 0.5), 0.25, 0.5, [1])
        assert dj == 0.0
        assert np.all(u2.fields[0].values == 0.0)

    def test_empty_phase_selection_is_identity(self):
        grid = make_grid(2, (16, 16), 1 / 16)
        spec, u, w = solved_full_domain_pair(grid, 2.0, 0.05)
        u2, w2, dj = cutoff_pair(u, w, spec, (0.5, 0.5), 0.25, 0.5, [])
        assert dj == 0.0
        assert np.array_equal(u2.fields[0].values, u.fields[0].values)
        assert np.array_equal(w2.labels, w.labels)

    def test_whole_grid_cutoff_is_empty_competitor(self):
        grid = make_grid(2, (24, 24), 1 / 24)
        spec, u, w = solved_full_domain_pair(grid, 4.0, 0.1)
        j = total(u, w, spec)
        u2, w2, dj = cutoff_pair(u, w, spec, (0.5, 0.5), 100.0, 0.5, [1])
        assert np.all(u2.fields[0].values == 0.0)
        assert np.all(w2.labels == 0)
        assert dj == pytest.approx(-j, rel=1e-12, abs=1e-15)

    def test_field_geometry_of_the_ramp(self):
        grid = make_grid(2, (32, 32), 1 / 32)
        spec, u, w = solved_full_domain_pair(grid, 2.0, 0.0)
        x0, r, a = (0.5, 0.5), 0.25, 0.5
        u2, w2, dj = cutoff_pair(u, w, spec, x0, r, a, [1])
        d = np.sqrt(np.sum((cell_centers(grid) - np.array(x0)) ** 2, axis=-1))
        inner = d < a * r
        outer = d >= r
        vals, old = u2.fields[0].values, u.fields[0].values
        assert np.all(vals[inner] == 0.0)
        assert np.array_equal(vals[outer], old[outer])
        mid = (d >= a * r) & (d < r)
        ramp = (d[mid] - a * r) / (r - a * r)
        assert np.allclose(vals[mid], ramp * old[mid], atol=1e-14)

    def test_trash_rule_respects_benefit(self):
        grid = make_grid(2, (16, 16), 1 / 16)
        # Negative per-cell weight: trashing vacated cells would RAISE the
        # volume term, so labels must be kept.
        q = make_field(grid, -np.ones(grid.shape))
        spec = make_functional_spec(grid, [0.0], [2.0], NONNEGATIVE, PerRegion((q,)))
        w = make_partition(grid, 1, np.ones(grid.shape, dtype=int))
        u = make_phase_field(grid, [solve_phase(spec, w, 1, 1e-10).values])
        u2, w2, dj = cutoff_pair(u, w, spec, (0.5, 0.5), 100.0, 0.5, [1])
        assert np.all(u2.fields[0].values == 0.0)
        assert np.array_equal(w2.labels, w.labels)
        # Positive weight: now every vacated cell is trashed.
        q2 = make_field(grid, np.ones(grid.shape) * 0.05)
        spec2 = make_functional_spec(grid, [0.0], [2.0], NONNEGATIVE, PerRegion((q2,)))
        u3, w3, dj3 = cutoff_pair(u, w, spec2, (0.5, 0.5), 100.0, 0.5, [1])
        assert np.all(w3.labels == 0)

    def test_validation(self):
        grid = make_grid(2, (16, 16), 1 / 16)
        spec, u, w = solved_full_domain_pair(grid, 2.0, 0.05)
        with pytest.raises(ValueError):
            cutoff_competitor(u, w, spec, (0.5, 0.5), 0.25, 0.0, [1])
        with pytest.raises(ValueError):
            cutoff_competitor(u, w, spec, (0.5, 0.5), 0.25, 1.0, [1])
        with pytest.raises(ValueError):
            cutoff_competitor(u, w, spec, (9.0, 9.0), 0.25, 0.5, [1])
        with pytest.raises(ValueError):
            cutoff_competitor(u, w, spec, (0.5, 0.5), 0.25, 0.5, [2])

    def test_point_outside_the_box_rejected(self):
        grid = make_grid(2, (32, 32), 1 / 32)
        spec, u, w = solved_full_domain_pair(grid, 2.0, 0.05)
        for x0 in ((5.0, 5.0), (0.5, -0.01)):
            with pytest.raises(ValueError, match="outside the bounding box"):
                cutoff_competitor(u, w, spec, x0, 0.25, 0.5, [1])
            with pytest.raises(ValueError, match="outside the bounding box"):
                harmonic_competitor(u, w, spec, x0, 0.25, 0.5, 1)

    def test_radius_must_be_positive_and_finite(self):
        grid = make_grid(2, (16, 16), 1 / 16)
        spec, u, w = solved_full_domain_pair(grid, 2.0, 0.05)
        for r in (0.0, -0.01, np.inf, np.nan):
            with pytest.raises(ValueError, match="radius r must be positive and finite"):
                cutoff_competitor(u, w, spec, (0.5, 0.5), r, 0.5, [1])


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
        # window_delta checked the edit for admissibility; delta is finite
        assert np.isfinite(dj)

    def test_validation(self):
        grid = make_grid(2, (32, 32), 1 / 32)
        spec, u, w = solved_full_domain_pair(grid, 2.0, 0.05)
        with pytest.raises(ValueError):
            harmonic_competitor(u, w, spec, (0.5, 0.5), 0.25, 0.3, 1)
        with pytest.raises(ValueError):
            harmonic_competitor(u, w, spec, (0.5, 0.5), 0.25, 0.5, 0)
        with pytest.raises(ValueError):  # ball leaves the bounding box
            harmonic_competitor(u, w, spec, (0.1, 0.5), 0.25, 0.5, 1)

    def test_nonpositive_radius_rejected(self):
        grid = make_grid(2, (32, 32), 1 / 32)
        spec, u, w = solved_full_domain_pair(grid, 2.0, 0.05)
        for r in (0.0, -0.01):
            with pytest.raises(ValueError, match="must be positive"):
                harmonic_competitor(u, w, spec, (0.5, 0.5), r, 0.5, 1)

    def test_masked_hole_rejected(self):
        mask = np.ones((32, 32), dtype=bool)
        mask[14:18, 14:18] = False
        grid = make_grid(2, (32, 32), 1 / 32, mask=mask)
        spec = make_functional_spec(grid, [0.0], [2.0], NONNEGATIVE, PowerLaw(0.0, 0.0))
        labels = np.where(mask, 1, 0).astype(int)
        w = make_partition(grid, 1, labels)
        u = make_phase_field(grid, [solve_phase(spec, w, 1, 1e-10).values])
        with pytest.raises(ValueError):
            harmonic_competitor(u, w, spec, (0.5, 0.5), 0.2, 0.5, 1)


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


class TestSeededProbes:
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
