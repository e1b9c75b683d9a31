"""Unit tests for objective terms, marginals, and admissibility checks."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phasemin.functional import (
    FREE,
    NONNEGATIVE,
    PerRegion,
    PowerLaw,
    cell_set_deltas,
    energy,
    make_functional_spec,
    make_partition,
    make_phase_field,
    mass_term,
    partition_from_supports,
    region_volumes,
    total,
    total_by_parts,
    truncate_to_sign,
    volume_marginal,
    volume_value,
)
from phasemin.grid import axis_centers, make_field, make_grid


def grid_1d(n: int):
    return make_grid(1, (n,), 1.0 / n)


def parabola_field(g):
    x = axis_centers(g, 0)
    return make_field(g, x * (1 - x) / 2)


class TestEnergy:
    def test_zero(self):
        g = grid_1d(8)
        u = make_phase_field(g, [np.zeros(g.shape), np.zeros(g.shape)])
        assert energy(u) == 0.0

    def test_spike_plus_zero_phase(self):
        g = make_grid(1, (3,), 1.0)
        u = make_phase_field(g, [np.array([0.0, 1.0, 0.0]), np.zeros(3)])
        assert energy(u) == pytest.approx(2.0)

    def test_parabola(self):
        g = grid_1d(256)
        u = make_phase_field(g, [parabola_field(g)])
        assert energy(u) == pytest.approx(1 / 12, abs=1e-4)


class TestMassTerm:
    def test_zero(self):
        g = grid_1d(16)
        u = make_phase_field(g, [np.zeros(g.shape)])
        spec = make_functional_spec(g, [0.0], [2.0], NONNEGATIVE, PowerLaw(0, 0))
        assert mass_term(u, spec) == 0.0

    def test_linear_term(self):
        g = grid_1d(256)
        u = make_phase_field(g, [parabola_field(g)])
        spec = make_functional_spec(g, [0.0], [2.0], NONNEGATIVE, PowerLaw(0, 0))
        assert mass_term(u, spec) == pytest.approx(-1 / 6, abs=1e-4)

    def test_quadratic_term(self):
        g = grid_1d(64)
        u = make_phase_field(g, [np.ones(g.shape)])
        spec = make_functional_spec(g, [1.0], [0.0], FREE, PowerLaw(0, 0))
        assert mass_term(u, spec) == pytest.approx(1.0, abs=g.spacing)

    def test_f_must_be_nonnegative(self):
        g = grid_1d(8)
        with pytest.raises(ValueError):
            make_functional_spec(g, [-1.0], [0.0], FREE, PowerLaw(0, 0))


class TestVolumeValue:
    def test_all_trash(self):
        g = grid_1d(8)
        w = make_partition(g, 2, np.zeros(g.shape, dtype=int))
        assert volume_value(w, PowerLaw(0.1, 1.0)) == 0.0
        q = tuple(make_field(g, 1.0) for _ in range(2))
        assert volume_value(w, PerRegion(q)) == 0.0

    def test_power_law_direct(self):
        # |W1| = 0.25, |W2| = 0.5 on a unit interval split by cell counts
        g = grid_1d(16)
        labels = np.zeros(16, dtype=int)
        labels[:4] = 1
        labels[4:12] = 2
        w = make_partition(g, 2, labels)
        assert region_volumes(w) == (0.25, 0.5)
        val = volume_value(w, PowerLaw(0.1, 1.0, 1.0))
        assert val == pytest.approx(0.1 * 0.75 + 0.25**2 + 0.5**2)

    def test_per_region_full_cover(self):
        g = make_grid(2, (64, 64), 1 / 64)
        labels = np.ones(g.shape, dtype=int)
        w = make_partition(g, 1, labels)
        vt = PerRegion((make_field(g, 2.0),))
        assert volume_value(w, vt) == pytest.approx(2.0, abs=2 * g.spacing)

    def test_power_law_monotone_per_cell(self):
        g = grid_1d(16)
        labels = np.zeros(16, dtype=int)
        labels[:5] = 1
        w1 = make_partition(g, 1, labels)
        labels2 = labels.copy()
        labels2[5] = 1
        w2 = make_partition(g, 1, labels2)
        vt = PowerLaw(0.3, 0.7, 1.5)
        assert volume_value(w2, vt) >= volume_value(w1, vt)


class TestTotal:
    def test_zero_pair(self):
        g = grid_1d(8)
        u = make_phase_field(g, [np.zeros(8)])
        w = make_partition(g, 1, np.zeros(8, dtype=int))
        spec = make_functional_spec(g, [0.0], [2.0], NONNEGATIVE, PowerLaw(0.1, 0))
        assert total(u, w, spec) == 0.0

    def test_closed_form_sum(self):
        g = grid_1d(256)
        u = make_phase_field(g, [parabola_field(g)])
        w = make_partition(g, 1, np.ones(256, dtype=int))
        spec = make_functional_spec(g, [0.0], [2.0], NONNEGATIVE, PowerLaw(0.1, 0))
        assert total(u, w, spec) == pytest.approx(1 / 12 - 1 / 6 + 0.1, abs=3e-4)

    def test_rejects_support_violation(self):
        g = grid_1d(8)
        u = make_phase_field(g, [np.ones(8)])
        w = make_partition(g, 1, np.zeros(8, dtype=int))
        spec = make_functional_spec(g, [0.0], [2.0], NONNEGATIVE, PowerLaw(0.1, 0))
        with pytest.raises(ValueError):
            total(u, w, spec)

    def test_rejects_sign_violation(self):
        g = grid_1d(8)
        u = make_phase_field(g, [-np.ones(8)])
        w = make_partition(g, 1, np.ones(8, dtype=int))
        spec = make_functional_spec(g, [0.0], [2.0], NONNEGATIVE, PowerLaw(0.1, 0))
        with pytest.raises(ValueError):
            total(u, w, spec)

    def test_trash_relabel_invariance(self):
        g = grid_1d(12)
        vals = np.zeros(12)
        vals[2:5] = 0.5
        u = make_phase_field(g, [vals])
        labels = np.zeros(12, dtype=int)
        labels[2:5] = 1
        w = make_partition(g, 1, labels)
        spec = make_functional_spec(g, [0.0], [1.0], NONNEGATIVE, PowerLaw(0.2, 0))
        j1 = total(u, w, spec)
        labels2 = labels.copy()
        labels2[8] = 1  # empty-support cell joins region 1
        w2 = make_partition(g, 1, labels2)
        j2 = total(u, w2, spec)
        assert j2 == pytest.approx(j1 + 0.2 * g.spacing)


class TestVolumeMarginal:
    def test_zero_power_law(self):
        g = grid_1d(8)
        w = make_partition(g, 3, np.zeros(8, dtype=int))
        assert volume_marginal(w, PowerLaw(0, 0)) == (0.0, 0.0, 0.0)

    def test_power_law_derivative(self):
        g = grid_1d(16)
        labels = np.zeros(16, dtype=int)
        labels[:4] = 1  # |W1| = 0.25
        w = make_partition(g, 1, labels)
        lam = volume_marginal(w, PowerLaw(0.1, 1.0, 1.0))
        assert lam[0] == pytest.approx(0.1 + 2.0 * 0.25)

    def test_power_law_matches_finite_difference(self):
        g = grid_1d(64)
        labels = np.zeros(64, dtype=int)
        labels[:20] = 1
        w_minus = make_partition(g, 1, labels)
        labels2 = labels.copy()
        labels2[20:22] = 1
        w_plus = make_partition(g, 1, labels2)
        vt = PowerLaw(0.05, 0.8, 1.3)
        mid = make_partition(g, 1, np.where(np.arange(64) < 21, 1, 0))
        lam = volume_marginal(mid, vt)[0]
        fd = (volume_value(w_plus, vt) - volume_value(w_minus, vt)) / (2 * g.spacing)
        vol_mid = region_volumes(mid)[0]
        tol = vt.b * (1 + vt.alpha) * vt.alpha * vol_mid ** (vt.alpha - 1) * g.spacing
        assert abs(lam - fd) <= tol + 1e-12

    def test_per_region_requires_point(self):
        g = grid_1d(8)
        w = make_partition(g, 1, np.ones(8, dtype=int))
        vt = PerRegion((make_field(g, -1.0),))
        with pytest.raises(ValueError):
            volume_marginal(w, vt)
        assert volume_marginal(w, vt, at=0.5) == (-1.0,)


class TestHelpers:
    def test_truncate(self):
        v = np.array([-1.0, 2.0])
        assert truncate_to_sign(v, NONNEGATIVE).tolist() == [0.0, 2.0]
        assert truncate_to_sign(v, FREE).tolist() == [-1.0, 2.0]

    def test_partition_from_supports(self):
        g = grid_1d(8)
        a = np.zeros(8)
        a[:3] = 1.0
        b = np.zeros(8)
        b[5:] = -2.0
        u = make_phase_field(g, [a, b])
        w = partition_from_supports(u)
        assert w.labels.tolist() == [1, 1, 1, 0, 0, 2, 2, 2]

    def test_partition_from_supports_rejects_overlap(self):
        g = grid_1d(8)
        a = np.ones(8)
        u = make_phase_field(g, [a, a])
        with pytest.raises(ValueError):
            partition_from_supports(u)

    def test_make_partition_rejects_fractional_or_non_finite_labels(self):
        g = make_grid(1, (4,), 0.25)
        for bad in ([0.0, 1.5, 1.9, 2.0], [0.0, np.nan, 1.0, 2.0], [0.0, np.inf, 1.0, 2.0]):
            with pytest.raises(ValueError, match="labels must be integers"):
                make_partition(g, 2, np.array(bad))
        assert make_partition(g, 2, np.array([0.0, 1.0, 2.0, 2.0])).labels.tolist() == [0, 1, 2, 2]

    def test_energy_lower_bound_property(self):
        # J >= E - |M| with |M| <= C sqrt(E) on random admissible fields
        rng = np.random.default_rng(7)
        g = grid_1d(64)
        spec = make_functional_spec(g, [0.5], [1.0], FREE, PowerLaw(0.1, 0.2))
        for _ in range(20):
            vals = rng.standard_normal(64)
            u = make_phase_field(g, [vals])
            w = make_partition(g, 1, np.ones(64, dtype=int))
            e = energy(u)
            m = mass_term(u, spec)
            l2 = np.sqrt(np.sum(vals**2) * g.cell_volume)
            assert m >= -1.0 * l2  # ||g||_inf = 1, f >= 0


@st.composite
def window_edits(draw):
    """A random admissible pair on a small 1D/2D grid with holes, an index
    box, and an edit of the pair on the box: new labels and new fields on
    some of its cells, face layers included, as window arrays.  Phases (1
    to 3) are free or nonnegative, priced by a power law or by per-region
    weights of both signs."""
    dim = draw(st.sampled_from([1, 2]))
    if dim == 1:
        shape = (draw(st.integers(3, 40)),)
    else:
        shape = (draw(st.integers(3, 16)), draw(st.integers(3, 16)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.random(shape) >= draw(st.sampled_from([0.0, 0.1, 0.3]))
    if not mask.any():  # a grid needs a masked cell
        mask.flat[0] = True
    grid = make_grid(dim, shape, 1.0 / shape[0], mask=mask)
    n = draw(st.integers(1, 3))
    signs = [draw(st.sampled_from([FREE, NONNEGATIVE])) for _ in range(n)]
    if draw(st.booleans()):
        volume = PowerLaw(
            draw(st.sampled_from([0.0, 0.3])),
            draw(st.sampled_from([0.0, 0.7])),
            draw(st.floats(0.5, 2.0)),
        )
    else:
        volume = PerRegion(tuple(make_field(grid, rng.normal(size=shape)) for _ in range(n)))
    f = [make_field(grid, rng.uniform(0.0, 3.0, shape)) for _ in range(n)]
    g = [make_field(grid, rng.normal(size=shape)) for _ in range(n)]
    spec = make_functional_spec(grid, f, g, signs, volume)

    def pair(labels):
        w = make_partition(grid, n, labels)
        fields = []
        for i, sign in enumerate(signs, start=1):
            vals = rng.normal(size=shape) * (w.labels == i) * (rng.random(shape) < 0.8)
            fields.append(np.abs(vals) if sign == NONNEGATIVE else vals)
        return make_phase_field(grid, fields), w

    u, w = pair(rng.integers(0, n + 1, shape))
    box = []
    for size in shape:
        lo = draw(st.integers(0, size - 1))
        box.append(slice(lo, draw(st.integers(lo + 1, size))))
    box = tuple(box)
    edit = rng.random(shape) < 0.7
    u_new, w_new = pair(rng.integers(0, n + 1, shape))
    labels = np.where(edit, w_new.labels, w.labels)[box]
    fields = [np.where(edit, b.values, a.values)[box] for a, b in zip(u.fields, u_new.fields)]
    return spec, box, (u, w), (labels, fields)


def box_delta(spec, box, pair, star):
    """:func:`cell_set_deltas` of one edit given on an index box, as the
    box's cells in row-major order."""
    chosen = np.zeros(spec.grid.shape, dtype=bool)
    chosen[box] = True
    labels, fields = star
    flat = (np.ravel(labels), [np.ravel(f) for f in fields])
    return cell_delta(spec, np.nonzero(chosen), pair, flat)


def cell_delta(spec, cells, pair, star):
    """:func:`cell_set_deltas` of one edit."""
    (delta,) = cell_set_deltas(spec, cells, pair, [star])
    return delta


def applied(pair, box, star):
    """The whole pair that the window edit ``(box, star)`` makes of ``pair``."""
    (u, w), (labels, fields) = pair, star
    new_labels = w.labels.copy()
    new_labels[box] = labels
    new_fields = [f.values.copy() for f in u.fields]
    for new, vals in zip(new_fields, fields):
        new[box] = vals
    return make_phase_field(u.grid, new_fields), make_partition(u.grid, w.num_phases, new_labels)


class TestWindowDelta:
    """The ΔJ of an edit on an index box, priced by :func:`cell_set_deltas`
    on the box's cells, against the difference of two full totals."""

    @settings(max_examples=200, deadline=None)
    @given(window_edits())
    def test_matches_difference_of_totals(self, case):
        spec, box, pair, star = case
        j = total(*pair, spec)
        want = total(*applied(pair, box, star), spec) - j
        assert abs(box_delta(spec, box, pair, star) - want) <= 1e-12 * (1.0 + abs(j))

    def test_checks_the_star_labels_and_shapes(self):
        mask = np.ones(6, dtype=bool)
        mask[4] = False
        g = make_grid(1, (6,), 1 / 6, mask=mask)
        spec = make_functional_spec(g, [0.0, 0.0], [1.0, 1.0], FREE, PowerLaw(0.1, 0.0))
        w = make_partition(g, 2, np.array([1, 1, 0, 2, 0, 2]))
        pair = (make_phase_field(g, [np.zeros(6)] * 2), w)
        box = (slice(2, 5),)
        for star in ((np.zeros(4, dtype=int), [np.zeros(4)] * 2), (np.zeros(3), [np.zeros(3)])):
            with pytest.raises(ValueError, match="star must hold labels and 2 fields"):
                box_delta(spec, box, pair, star)
        # cell 2 joins phase 1 at marginal cost 0.1 per unit volume
        star = (np.array([1, 2, 0]), [np.zeros(3)] * 2)
        assert box_delta(spec, box, pair, star) == pytest.approx(0.1 / 6)

    def test_edit_from_a_box_face_is_priced_exactly(self):
        g = grid_1d(8)
        spec = make_functional_spec(g, [0.0], [1.0], FREE, PowerLaw(0.0, 0.0))
        w = make_partition(g, 1, np.ones(8, dtype=int))
        u = make_phase_field(g, [np.ones(8)])
        raised = np.ones(8)
        raised[3] = 2.0
        # the edited cell 3 lies on the face of a box from cell 3; the window
        # grown by one cell prices the face between cells 2 and 3 as an edge,
        # not as a wall slot: 16 - 1/8, not 55.875
        for box in ((slice(3, 6),), (slice(2, 6),)):
            star = (w.labels[box], [raised[box]])
            assert box_delta(spec, box, (u, w), star) == pytest.approx(15.875)

    @settings(max_examples=100, deadline=None)
    @given(window_edits())
    def test_total_by_parts_matches_total_on_unsolved_pairs(self, case):
        spec, _, pair, _ = case
        u, w = pair
        j = energy(u) + mass_term(u, spec) + volume_value(w, spec.volume_term)
        assert abs(total_by_parts(*pair, spec) - j) <= 1e-13 * (1.0 + abs(j))

    def test_label_edit_on_a_box_face_is_priced_exactly(self):
        g = grid_1d(8)
        spec = make_functional_spec(g, [0.0], [1.0], FREE, PowerLaw(0.5, 0.0))
        w = make_partition(g, 1, np.ones(8, dtype=int))
        vals = np.ones(8)
        vals[5] = 0.0
        u = make_phase_field(g, [vals])
        labels = np.ones(8, dtype=int)
        labels[5] = 0
        want = total(u, make_partition(g, 1, labels), spec) - total(u, w, spec)
        for box in ((slice(2, 6),), (slice(2, 7),)):
            star = (labels[box], [vals[box]])
            assert box_delta(spec, box, (u, w), star) == pytest.approx(want)


class TestCellSetDelta:
    """The cell-set identity against the difference of two full totals."""

    @settings(max_examples=200, deadline=None)
    @given(window_edits(), st.integers(0, 2**32 - 1))
    def test_cell_set_matches_difference_of_totals(self, case, seed):
        """The edit on a random subset of the box's cells, given as a cell set."""
        spec, box, pair, (labels, fields) = case
        rng = np.random.default_rng(seed)
        chosen = np.zeros(spec.grid.shape, dtype=bool)
        chosen[box] = rng.random(labels.shape) < 0.6
        picked = chosen[box]
        # the box's cells in row-major order are the grid's, so the picks line up
        cells = np.nonzero(chosen)
        star = (labels[picked], [f[picked] for f in fields])
        (u, w), grid = pair, spec.grid
        edited_labels = w.labels.copy()
        edited_labels[cells] = star[0]
        edited_fields = [f.values.copy() for f in u.fields]
        for new, vals in zip(edited_fields, star[1]):
            new[cells] = vals
        edited = (
            make_phase_field(grid, edited_fields),
            make_partition(grid, w.num_phases, edited_labels),
        )
        j = total(*pair, spec)
        want = total(*edited, spec) - j
        assert abs(cell_delta(spec, cells, pair, star) - want) <= 1e-13 * (1.0 + abs(j))

    def test_cell_set_order_and_shapes_are_checked(self):
        g = grid_1d(6)
        spec = make_functional_spec(g, [0.0], [1.0], FREE, PowerLaw(0.1, 0.0))
        w = make_partition(g, 1, np.ones(6, dtype=int))
        pair = (make_phase_field(g, [np.zeros(6)]), w)
        star = (np.zeros(2, dtype=int), [np.zeros(2)])
        for cells in ((np.array([3, 1]),), (np.array([2, 2]),)):
            with pytest.raises(ValueError, match="row-major order"):
                cell_delta(spec, cells, pair, star)
        with pytest.raises(ValueError):
            cell_delta(spec, (np.array([4, 6]),), pair, star)
        with pytest.raises(ValueError, match="star must hold labels and 1 fields"):
            cells = (np.array([1, 4]),)
            cell_delta(spec, cells, pair, (np.zeros(3, dtype=int), [np.zeros(3)]))
        # cells 1 and 4 leave phase 1 at marginal cost 0.1 per unit volume
        assert cell_delta(spec, (np.array([1, 4]),), pair, star) == pytest.approx(-0.2 / 6)
        # an empty set changes nothing
        empty = (np.zeros(0, dtype=int), [np.zeros(0)])
        assert cell_delta(spec, (np.zeros(0, dtype=int),), pair, empty) == 0.0
