"""Unit tests for grids, fields, stencils, sampling, serialization."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phasemin.grid import (
    as_point,
    axis_centers,
    bounding_box,
    cell_centers,
    gradient_energy,
    laplacian_apply,
    load_field,
    make_field,
    make_grid,
    neighbor_sum,
    sample_mesh,
    save_field,
    wall_slot_count,
)


def unit_grid_1d(n: int):
    return make_grid(1, (n,), 1.0 / n)


def unit_grid_2d(n: int):
    return make_grid(2, (n, n), 1.0 / n)


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            make_grid(3, (4, 4, 4), 0.1)
        with pytest.raises(ValueError):
            make_grid(2, (4,), 0.1)
        with pytest.raises(ValueError):
            make_grid(1, (2,), 0.1)
        with pytest.raises(ValueError):
            make_grid(1, (8,), -1.0)
        with pytest.raises(ValueError):
            make_grid(2, (4, 4), 0.25, mask=np.ones((3, 3), dtype=bool))

    @pytest.mark.parametrize("dim,spacing", [(2, 1e300), (2, 1e-170)])
    def test_make_grid_rejects_an_unrepresentable_cell_volume(self, dim, spacing):
        # spacing**dim overflows to inf or underflows to 0 in float64
        with pytest.raises(ValueError, match="cell volume"):
            make_grid(dim, (4,) * dim, spacing)

    @pytest.mark.parametrize("dim,spacing", [(2, 1e150), (2, 1e-150), (1, 1e300), (1, 1e-320)])
    def test_make_grid_keeps_a_representable_cell_volume(self, dim, spacing):
        assert make_grid(dim, (4,) * dim, spacing).cell_volume == spacing**dim

    def test_make_grid_rejects_an_empty_mask(self):
        # no cell to solve on: minimize would divide by the masked cell count
        with pytest.raises(ValueError, match="mask has no cell"):
            make_grid(2, (4, 4), 0.25, mask=np.zeros((4, 4), bool))
        mask = np.zeros((4, 4), bool)
        mask[3, 0] = True
        assert np.count_nonzero(make_grid(2, (4, 4), 0.25, mask=mask).mask) == 1

    def test_default_origin_covers_unit_box(self):
        g = unit_grid_1d(8)
        assert axis_centers(g, 0)[0] == pytest.approx(1 / 16)
        lo, hi = bounding_box(g)
        assert lo[0] == pytest.approx(0.0)
        assert hi[0] == pytest.approx(1.0)

    def test_field_zeroed_off_mask_and_finite(self):
        mask = np.ones((4, 4), dtype=bool)
        mask[0, 0] = False
        g = make_grid(2, (4, 4), 0.25, mask=mask)
        f = make_field(g, np.ones((4, 4)))
        assert f.values[0, 0] == 0.0
        with pytest.raises(ValueError):
            make_field(g, np.full((4, 4), np.nan))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_as_point_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite coordinate"):
            as_point(unit_grid_2d(4), (bad, 0.5))
        with pytest.raises(ValueError, match="non-finite coordinate"):
            as_point(unit_grid_1d(4), bad)
        assert as_point(unit_grid_2d(4), (0.25, 0.5)).tolist() == [0.25, 0.5]

    def test_as_point_requires_the_bounding_box(self):
        g = unit_grid_2d(4)
        for x in ((5.0, 5.0), (-0.01, 0.5), (0.5, 1.0 + 1e-9), (1e300, 0.5)):
            with pytest.raises(ValueError, match="outside the bounding box"):
                as_point(g, x)
        # the box's corners, and a slack of 1e-12 * (1 + |x|) past them
        assert as_point(g, (0.0, 1.0)).tolist() == [0.0, 1.0]
        assert as_point(g, (-1e-13, 1.0 + 1e-12)).tolist() == [-1e-13, 1.0 + 1e-12]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_make_grid_rejects_non_finite_origin(self, bad):
        with pytest.raises(ValueError, match="finite coordinates"):
            make_grid(2, (8, 8), 0.125, origin=(bad, 0.0))
        with pytest.raises(ValueError, match="finite coordinates"):
            make_grid(1, (8,), 0.125, origin=bad)
        assert make_grid(2, (8, 8), 0.125, origin=(-1.0, 0.0)).origin == (-1.0, 0.0)

    def test_cell_centers_shape(self):
        g = unit_grid_2d(4)
        c = cell_centers(g)
        assert c.shape == (4, 4, 2)
        assert c[0, 0, 0] == pytest.approx(1 / 8)
        assert c[3, 1, 1] == pytest.approx(3 / 8)


class TestLaplacian:
    def test_constant_interior(self):
        g = unit_grid_2d(8)
        out = laplacian_apply(make_field(g, 1.0)).values
        assert np.allclose(out[1:-1, 1:-1], 0.0)

    def test_unit_spike_stencil(self):
        g = make_grid(1, (5,), 0.25)
        f = make_field(g, np.array([0.0, 0.0, 1.0, 0.0, 0.0]))
        out = laplacian_apply(f).values
        assert out[2] == pytest.approx(-2 / 0.25**2)
        assert out[1] == pytest.approx(1 / 0.25**2)
        assert out[3] == pytest.approx(1 / 0.25**2)

    def test_quadratic_exact_interior(self):
        g = unit_grid_1d(128)
        x = axis_centers(g, 0)
        f = make_field(g, x * (1 - x) / 2)
        out = laplacian_apply(f).values
        assert np.max(np.abs(out[1:-1] + 1.0)) < 1e-10

    def test_linearity(self):
        rng = np.random.default_rng(0)
        g = unit_grid_2d(12)
        a = make_field(g, rng.standard_normal(g.shape))
        b = make_field(g, rng.standard_normal(g.shape))
        lhs = laplacian_apply(make_field(g, 2.5 * a.values - 1.25 * b.values)).values
        rhs = 2.5 * laplacian_apply(a).values - 1.25 * laplacian_apply(b).values
        assert np.allclose(lhs, rhs, atol=1e-9)

    def test_zero_off_mask(self):
        mask = np.ones((6, 6), dtype=bool)
        mask[2, 2] = False
        g = make_grid(2, (6, 6), 1 / 6, mask=mask)
        f = make_field(g, np.ones((6, 6)))
        out = laplacian_apply(f).values
        assert out[2, 2] == 0.0


def slice_neighbor_sum(values, out=None):
    """The slice-loop neighbor sum, axis by axis, upper neighbor first."""
    if out is None:
        out = np.zeros_like(values)
    else:
        out.fill(0)
    for axis in range(values.ndim):
        left = (slice(None),) * axis + (slice(None, -1),)
        right = (slice(None),) * axis + (slice(1, None),)
        out[left] += values[right]
        out[right] += values[left]
    return out


NEIGHBOR_SHAPES = [
    (7,), (1,), (0,), (5, 6), (1, 6), (6, 1), (1, 1), (0, 4), (4, 0),
    (3, 4, 5), (1, 4, 3), (3, 1, 2), (2, 3, 1), (2, 0, 3), (2, 2, 2),
]


def neighbor_values(shape, dtype, seed=6):
    """Values of ``dtype`` with signed zeros among floats and both signs
    among integers; ``bool`` gives a 0/1 mask cast to int8, as the wall
    count uses it."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(shape) * 40.0
    if dtype is bool:
        return (v > 0.0).astype(np.int8)
    if dtype is np.float64:
        v[v < -20.0] = -0.0
        return v
    return v.astype(dtype)


class TestNeighborSum:
    @pytest.mark.parametrize("shape", [(7,), (5, 6)])
    def test_output_buffer_is_bit_identical(self, shape):
        rng = np.random.default_rng(6)
        v = rng.standard_normal(shape)
        v[v < -1.0] = -0.0
        out = np.full(shape, np.nan)
        assert neighbor_sum(v, out) is out
        assert out.tobytes() == neighbor_sum(v).tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.int8, np.int64, bool])
    @pytest.mark.parametrize("shape", NEIGHBOR_SHAPES)
    def test_matches_the_slice_loop_byte_for_byte(self, shape, dtype):
        v = neighbor_values(shape, dtype)
        want = slice_neighbor_sum(v)
        got = neighbor_sum(v)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        out = np.full(shape, 7, dtype=v.dtype)
        assert neighbor_sum(v, out) is out
        assert out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.int8])
    @pytest.mark.parametrize("shape", [(5, 6), (3, 4, 5), (6, 1), (2, 3, 1)])
    def test_non_contiguous_values_and_out(self, shape, dtype):
        v = neighbor_values(shape, dtype, seed=7)
        want = slice_neighbor_sum(v)
        # a transposed copy and a strided window hold the same values
        transposed = np.ascontiguousarray(v.T).T
        padded = np.zeros(tuple(2 * n + 1 for n in shape), dtype=v.dtype)
        window = padded[tuple(slice(1, None, 2) for _ in shape)]
        window[...] = v
        assert not window.flags.c_contiguous
        for values in (transposed, window):
            assert neighbor_sum(values).tobytes() == want.tobytes()
            out = np.full(shape[::-1], 3, dtype=v.dtype).T
            assert neighbor_sum(values, out) is out
            assert np.ascontiguousarray(out).tobytes() == want.tobytes()
        # a strided ``out`` inside a larger buffer is written in place only
        big = np.full(tuple(2 * n + 1 for n in shape), 9, dtype=v.dtype)
        out = big[tuple(slice(1, None, 2) for _ in shape)]
        assert neighbor_sum(v, out) is out
        assert np.ascontiguousarray(out).tobytes() == want.tobytes()
        untouched = np.ones(big.shape, dtype=bool)
        untouched[tuple(slice(1, None, 2) for _ in shape)] = False
        assert np.all(big[untouched] == 9)

    def test_signed_zeros_sum_to_positive_zero(self):
        v = np.full((3, 4), -0.0)
        got = neighbor_sum(v)
        assert got.tobytes() == slice_neighbor_sum(v).tobytes()
        assert not np.any(np.signbit(got))


class TestGradientEnergy:
    def test_zero_field(self):
        g = unit_grid_2d(8)
        assert gradient_energy(make_field(g, 0.0)) == 0.0

    def test_spike_two_edges(self):
        g = make_grid(1, (3,), 1.0)
        f = make_field(g, np.array([0.0, 1.0, 0.0]))
        assert gradient_energy(f) == pytest.approx(2.0)

    def test_parabola_energy_close_to_one_twelfth(self):
        g = unit_grid_1d(256)
        x = axis_centers(g, 0)
        f = make_field(g, x * (1 - x) / 2)
        assert abs(gradient_energy(f) - 1 / 12) < 1e-4

    def test_region_restriction_subadditive(self):
        rng = np.random.default_rng(1)
        g = unit_grid_2d(10)
        f = make_field(g, rng.standard_normal(g.shape))
        reg = np.zeros(g.shape, dtype=bool)
        reg[:5, :] = True
        e_region = gradient_energy(f, region=reg)
        e_total = gradient_energy(f)
        assert 0.0 < e_region < e_total

    def test_constant_on_component_is_zero_only_without_walls(self):
        # an all-true mask has box walls, so a nonzero constant has energy
        g = unit_grid_2d(6)
        assert gradient_energy(make_field(g, 1.0)) > 0.0


class TestSummationByParts:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_pairing_identity(self, seed):
        rng = np.random.default_rng(seed)
        g = unit_grid_2d(9)
        mask = g.mask.copy()
        # carve a random hole to exercise mask walls
        if seed % 3 == 0:
            mask = mask.copy()
            mask[4, 4] = False
            g = make_grid(2, g.shape, g.spacing, mask=mask)
        f_vals = rng.standard_normal(g.shape)
        f = make_field(g, f_vals)
        lap = laplacian_apply(f)
        h = g.spacing
        lhs = float(np.sum(f.values * lap.values)) * g.cell_volume
        assert lhs == pytest.approx(-gradient_energy(f), rel=1e-10, abs=1e-12)


def sample(f, x):
    """``f`` at the point ``x`` of its grid's bounding box, as
    ``functional.volume_marginal`` samples a weight."""
    return float(sample_mesh([f], as_point(f.grid, x)[:, np.newaxis])[0][0])


class TestSample:
    def test_cell_center_exact(self):
        g = unit_grid_2d(16)
        rng = np.random.default_rng(2)
        f = make_field(g, rng.standard_normal(g.shape))
        c = cell_centers(g)
        assert sample(f, c[3, 7]) == f.values[3, 7]

    def test_linear_reproduction_1d(self):
        g = unit_grid_1d(32)
        x = axis_centers(g, 0)
        f = make_field(g, 3 * x)
        mid = (x[10] + x[11]) / 2
        assert sample(f, mid) == pytest.approx(3 * mid, abs=1e-14)

    def test_bilinear_product(self):
        g = unit_grid_2d(64)
        c = cell_centers(g)
        f = make_field(g, c[..., 0] * c[..., 1])
        assert sample(f, (0.37, 0.61)) == pytest.approx(0.37 * 0.61, abs=g.spacing**2)

    def test_out_of_box_errors(self):
        g = unit_grid_1d(8)
        f = make_field(g, 0.0)
        with pytest.raises(ValueError, match="outside the bounding box"):
            sample(f, 1.25)

    def test_half_cell_rim_clamps(self):
        g = unit_grid_1d(8)
        f = make_field(g, np.arange(8.0))
        assert sample(f, 0.0) == pytest.approx(0.0)
        assert sample(f, 1.0) == pytest.approx(7.0)


class TestSerialization:
    def test_field_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        g = unit_grid_2d(12)
        f = make_field(g, rng.standard_normal(g.shape) * np.pi)
        p = tmp_path / "field.txt"
        save_field(f, p)
        f2 = load_field(p)
        assert f2.grid.shape == g.shape
        assert f2.grid.spacing == g.spacing
        assert np.array_equal(f2.values, f.values)

    def test_rewrite_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(4)
        g = unit_grid_1d(20)
        f = make_field(g, rng.standard_normal(g.shape))
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        save_field(f, p1)
        save_field(load_field(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("keep", [0, 1, 2, 3])
    def test_truncated_header_raises_value_error(self, tmp_path, keep):
        p = tmp_path / "f.txt"
        save_field(make_field(make_grid(2, (4, 4), 0.25), 1.0), p)
        p.write_text("\n".join(p.read_text().splitlines()[:keep]) + "\n")
        with pytest.raises(ValueError, match="field file"):
            load_field(p)

    def test_header_key_without_value_raises_value_error(self, tmp_path):
        p = tmp_path / "f.txt"
        save_field(make_field(unit_grid_1d(8), 1.0), p)
        p.write_text(p.read_text().replace("spacing 0.125", "spacing"))
        with pytest.raises(ValueError, match="spacing"):
            load_field(p)

    @pytest.mark.parametrize(
        "line,extended", [("dim 2", "dim 2 7"), ("spacing 0.25", "spacing 0.25 x")]
    )
    def test_extra_header_token_raises_value_error(self, tmp_path, line, extended):
        key = line.split()[0]
        p = tmp_path / "f.txt"
        save_field(make_field(make_grid(2, (4, 4), 0.25), 1.0), p)
        text = p.read_text()
        assert f"\n{line}\n" in "\n" + text
        p.write_text(text.replace(line, extended, 1))
        with pytest.raises(ValueError, match=f"one value after '{key}'"):
            load_field(p)

    def test_load_with_grid_checks_header(self, tmp_path):
        g = unit_grid_1d(8)
        f = make_field(g, np.arange(8.0))
        p = tmp_path / "f.txt"
        save_field(f, p)
        other = make_grid(1, (8,), 0.25)
        with pytest.raises(ValueError):
            load_field(p, grid=other)


class TestWallSlots:
    def test_counts(self):
        mask = np.ones((4, 4), dtype=bool)
        mask[1, 1] = False
        g = make_grid(2, (4, 4), 0.25, mask=mask)
        w = wall_slot_count(g)
        assert w[0, 0] == 2  # two box faces
        assert w[0, 1] == 2  # one box face + hole below
        assert w[2, 1] == 1  # hole above
        assert w[1, 1] == 0  # unmasked cells report 0

    def test_computed_once_and_read_only(self):
        g = make_grid(2, (5, 4), 0.25)
        w = wall_slot_count(g)
        assert wall_slot_count(g) is w
        with pytest.raises(ValueError):
            w[0, 0] = 7
