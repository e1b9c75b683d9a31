"""Uniform Cartesian grids with cell-centered values.

This module holds the spatial plumbing shared by every other module: the
grid description (cell counts, spacing, origin, domain mask), scalar fields
living on grid cells, probe points and their distance fields, the face-edge
stencil (its per-axis edge and face slices, the neighbor sum and the edge
energy, and the wall count, the Laplacian and the gradient energy built on
them), the exact squared distance transform of a cell set, multilinear
sampling, and a plain-text serialization format for fields.  A ball is
selected as ``distances(grid, pt) < r``; a mask is stored as a field of 0/1
values and read back as ``load_field(p).values != 0``.

Conventions
-----------
* The cell with index ``(0, ..., 0)`` has its center at ``origin``; cell
  ``(i_0, ..., i_{d-1})`` is centered at ``origin + i * spacing``.
* Cells whose center lies outside the domain (``mask`` false) carry the
  value 0 in every field.
* Edges leaving the grid box, and edges from a masked cell to an unmasked
  cell, are "wall" edges: the zero is imposed on the shared cell face at
  distance ``h/2``, so a wall edge contributes ``2 * u**2 * h**(n-2)`` to
  the gradient energy and ``-2 * u / h**2`` to the Laplacian.  This
  face-centered convention makes the discrete energy of smooth profiles
  second-order accurate and keeps summation by parts exact.  "Masked
  neighbor" below always means in-box and mask-true.

The stencil is two pieces, ``N = neighbor_sum`` and one edge energy; with
``v`` zero off the mask every stencil formula follows from them:
``walls = 2*dim - N(mask)`` on the mask (0 off it), ``deg = 2*dim + walls``;
the Laplacian is ``(N(v) - deg*v) / h**2``; zeroing a cell changes the
energy by ``h**(n-2) * v * (2*N(v) - deg*v)``; the free boundary of a
support ``S`` is ``S & mask & (N(mask & ~S) > 0)``.  An in-box edge with
``d = v[right] - v[left]`` has energy ``(1 + (m[left] ^ m[right])) * d**2``
and each box-face slot ``2 * v**2``: the gradient energy sums these times
``h**(n-2)``; the cellwise squared gradient gives each masked endpoint half
of an edge between masked cells and all of a wall edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Sequence

import numpy as np
from numpy.typing import NDArray


__all__ = [
    "Grid",
    "ScalarField",
    "make_grid",
    "make_field",
    "cell_centers",
    "axis_centers",
    "bounding_box",
    "as_point",
    "distances",
    "index_box",
    "squared_distance_transform",
    "sample",
    "sample_many",
    "edge_slices",
    "neighbor_sum",
    "laplacian_apply",
    "gradient_energy",
    "wall_slot_count",
    "edge_energies",
    "save_field",
    "load_field",
    "format_float",
    "text_rows",
]


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform cell-centered grid over a rectangular index box.

    Attributes:
        dim: spatial dimension, 1 or 2.
        shape: number of cells along each axis.
        spacing: cell width ``h`` (identical along every axis).
        origin: physical coordinates of the center of cell ``(0, ..., 0)``.
        mask: boolean array of shape ``shape``; True marks cells whose
            center belongs to the computational domain.
    """

    dim: int
    shape: tuple[int, ...]
    spacing: float
    origin: tuple[float, ...]
    mask: NDArray[np.bool_]

    @property
    def num_cells(self) -> int:
        return int(np.prod(self.shape))

    @property
    def cell_volume(self) -> float:
        return float(self.spacing**self.dim)

    @cached_property
    def _wall_slots(self) -> NDArray[np.int8]:
        """Read-only :func:`wall_slot_count`, built once: the mask is immutable."""
        walls = 2 * self.dim - neighbor_sum(self.mask.astype(np.int8))
        walls = np.where(self.mask, walls, 0)
        walls.setflags(write=False)
        return walls


@dataclass(frozen=True, eq=False)
class ScalarField:
    """A 64-bit float value per grid cell; zero on unmasked cells."""

    grid: Grid
    values: NDArray[np.float64]


def make_grid(
    dim: int,
    shape: Sequence[int],
    spacing: float,
    origin: Sequence[float] | float | None = None,
    mask: NDArray | None = None,
) -> Grid:
    """Build and validate a Grid.

    Args:
        dim: 1 or 2.
        shape: cells per axis; every entry must be at least 3.
        spacing: positive cell width.
        origin: finite center of the first cell; defaults to ``spacing/2``
            per axis, which places the grid box on ``(0, L)`` per axis.
        mask: optional boolean domain mask (default: all cells inside).

    Raises:
        ValueError: on any violated invariant.
    """
    if dim not in (1, 2):
        raise ValueError(f"dim must be 1 or 2, got {dim}")
    shape_t = tuple(int(s) for s in shape)
    if len(shape_t) != dim:
        raise ValueError(f"shape {shape_t} does not match dim {dim}")
    if any(s < 3 for s in shape_t):
        raise ValueError(f"every shape entry must be >= 3, got {shape_t}")
    spacing = float(spacing)
    if not np.isfinite(spacing) or spacing <= 0.0:
        raise ValueError(f"spacing must be positive and finite, got {spacing}")
    if origin is None:
        origin_t = (spacing / 2.0,) * dim
    else:
        origin_arr = np.atleast_1d(np.asarray(origin, dtype=float))
        if origin_arr.shape != (dim,) or not np.all(np.isfinite(origin_arr)):
            raise ValueError(f"origin {origin!r} must be {dim} finite coordinates")
        origin_t = tuple(float(v) for v in origin_arr)
    if mask is None:
        mask_arr = np.ones(shape_t, dtype=bool)
    else:
        mask_arr = np.asarray(mask, dtype=bool)
        if mask_arr.shape != shape_t:
            raise ValueError(
                f"mask shape {mask_arr.shape} does not match grid shape {shape_t}"
            )
        mask_arr = mask_arr.copy()
    mask_arr.setflags(write=False)
    return Grid(dim=dim, shape=shape_t, spacing=spacing, origin=origin_t, mask=mask_arr)


def make_field(grid: Grid, values: NDArray | float) -> ScalarField:
    """Build a ScalarField, zeroing unmasked cells and validating finiteness.

    Args:
        grid: the carrier grid.
        values: array of shape ``grid.shape`` or a scalar to broadcast.

    Raises:
        ValueError: if the shape mismatches or any masked value is not finite.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 0:
        arr = np.full(grid.shape, float(arr))
    if arr.shape != grid.shape:
        raise ValueError(f"values shape {arr.shape} does not match grid {grid.shape}")
    arr = arr.copy()
    arr[~grid.mask] = 0.0
    if not np.all(np.isfinite(arr)):
        raise ValueError("field values must be finite")
    arr.setflags(write=False)
    return ScalarField(grid=grid, values=arr)


def axis_centers(grid: Grid, axis: int) -> NDArray[np.float64]:
    """Physical center coordinates of cells along one axis."""
    return grid.origin[axis] + grid.spacing * np.arange(grid.shape[axis])


def cell_centers(grid: Grid) -> NDArray[np.float64]:
    """Array of shape ``(*grid.shape, dim)`` with every cell-center coordinate."""
    axes = [axis_centers(grid, a) for a in range(grid.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack(mesh, axis=-1)


def as_point(grid: Grid, x: float | Sequence[float]) -> NDArray[np.float64]:
    """A point of the grid's bounding box as a float array of shape ``(dim,)``.

    1D takes a scalar.  A coordinate may pass the box by ``1e-12 * (1 + |x|)``.

    Raises:
        ValueError: if the point does not have the grid's dimension, has a
            non-finite coordinate or lies outside the bounding box.
    """
    pt = np.atleast_1d(np.asarray(x, dtype=float))
    if pt.shape != (grid.dim,):
        raise ValueError(f"point {x!r} does not match grid dimension {grid.dim}")
    if not np.all(np.isfinite(pt)):
        raise ValueError(f"point {tuple(pt.tolist())} has a non-finite coordinate")
    lo, hi = bounding_box(grid)
    eps = 1e-12 * (1.0 + np.abs(pt))
    if np.any(pt < lo - eps) or np.any(pt > hi + eps):
        raise ValueError(f"point {tuple(pt.tolist())} outside the bounding box")
    return pt


def distances(grid: Grid, pt: NDArray) -> NDArray[np.float64]:
    """Euclidean distance from every cell center to the point ``pt``.

    The squared offsets are summed per axis, so ``distances(grid, pt) < r``
    selects the cells with center strictly inside the ball ``B(pt, r)``.
    """
    offsets = np.ix_(*(axis_centers(grid, a) - pt[a] for a in range(grid.dim)))
    return np.sqrt(sum(d**2 for d in offsets))


def index_box(cells: NDArray[np.bool_]) -> tuple[slice, ...]:
    """Index box of the set cells, one slice per axis; ``cells`` must be non-empty."""
    box = []
    for axis in range(cells.ndim):
        others = tuple(a for a in range(cells.ndim) if a != axis)
        hits = np.flatnonzero(cells.any(axis=others))
        box.append(slice(int(hits[0]), int(hits[-1]) + 1))
    return tuple(box)


def squared_distance_transform(
    features: NDArray[np.bool_], cap: int | None = None
) -> NDArray[np.float64]:
    """Squared distance, in cells, from every cell to the nearest feature cell.

    Exact and separable (Felzenszwalb & Huttenlocher, *Distance Transforms
    of Sampled Functions*, 2012): a forward and a backward index scan along
    axis 0 give each cell ``g``, its distance to the nearest feature in its
    column; in 2D a min-plus over column shifts, ``min_s g[:, j+s]**2 +
    s**2``, combines the columns.  Values are integers held as floats, and
    ``inf`` where no feature is in reach.  Extra memory is a few arrays the
    size of ``features``.

    Args:
        features: boolean array, 1D or 2D.
        cap: if given, only features at most ``cap`` cells away along every
            axis are searched.  Each squared distance up to ``cap**2`` is
            still exact, and every larger one stays above ``cap**2``.
    """
    n0 = features.shape[0]
    idx = np.arange(n0, dtype=float).reshape((n0,) + (1,) * (features.ndim - 1))
    before = np.maximum.accumulate(np.where(features, idx, -np.inf), axis=0)
    after = np.minimum.accumulate(np.where(features, idx, np.inf)[::-1], axis=0)[::-1]
    g = np.minimum(idx - before, after - idx)
    if cap is not None:
        g[g > cap] = np.inf
    g *= g
    if features.ndim == 1:
        return g
    limit = features.shape[1] - 1 if cap is None else min(cap, features.shape[1] - 1)
    out = g.copy()
    for s in range(1, limit + 1):
        s2 = float(s * s)
        if s2 >= out.max():
            break  # every farther column adds at least s**2
        np.minimum(out[:, s:], g[:, :-s] + s2, out=out[:, s:])
        np.minimum(out[:, :-s], g[:, s:] + s2, out=out[:, :-s])
    return out


def bounding_box(grid: Grid) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Physical bounding box ``(lo, hi)`` of the union of all cells."""
    lo = np.asarray(grid.origin) - grid.spacing / 2.0
    hi = np.asarray(grid.origin) + grid.spacing * (np.asarray(grid.shape) - 1) + grid.spacing / 2.0
    return lo, hi


def sample(f: ScalarField, x: float | Sequence[float]) -> float:
    """Multilinear interpolation of a field at a physical point.

    Between the outermost cell centers and the bounding-box face the stencil
    clamps to the edge cell (constant extrapolation over the half-cell rim).

    Args:
        f: the field.
        x: point inside the grid's physical bounding box.

    Raises:
        ValueError: if ``x`` is not a point of the box (:func:`as_point`).
    """
    pt = as_point(f.grid, x)
    return float(sample_many(f, pt[np.newaxis, :])[0])


def sample_many(f: ScalarField, pts: NDArray) -> NDArray[np.float64]:
    """Multilinear interpolation of a field at each row of ``pts``.

    Same stencil as :func:`sample`, vectorized over an array of shape
    ``(k, dim)``; the points are not range-checked, so callers keep them
    inside the bounding box.
    """
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


@cache
def edge_slices(dim: int) -> tuple[tuple[tuple[slice, ...], ...], ...]:
    """Index tuples of the face-edge stencil, one 4-tuple per axis.

    For each axis holds ``(left, right, first, last)``: ``left`` and
    ``right`` select the two end cells of every in-box edge along the axis,
    ``first`` and ``last`` the cell layers against its two box faces (each
    such cell has a wall slot there).  Built once per dimension.
    """
    out = []
    for axis in range(dim):
        left = [slice(None)] * dim
        right = [slice(None)] * dim
        first = [slice(None)] * dim
        last = [slice(None)] * dim
        left[axis] = slice(None, -1)
        right[axis] = slice(1, None)
        first[axis] = slice(0, 1)
        last[axis] = slice(-1, None)
        out.append((tuple(left), tuple(right), tuple(first), tuple(last)))
    return tuple(out)


def neighbor_sum(values: NDArray, out: NDArray | None = None) -> NDArray:
    """Sum of the face-neighbor values of every cell, zero beyond the box.

    The sum goes to ``out`` when given (same shape and dtype as ``values``,
    not overlapping it) and to a new array otherwise; it is returned."""
    if out is None:
        out = np.zeros_like(values)
    else:
        out.fill(0)
    for left, right, _, _ in edge_slices(values.ndim):
        out[left] += values[right]
        out[right] += values[left]
    return out


def wall_slot_count(grid: Grid) -> NDArray[np.int8]:
    """Per-cell count of wall edges (box faces, unmasked neighbors); 0 off the mask.

    Computed once per grid and returned read-only."""
    return grid._wall_slots


def laplacian_apply(f: ScalarField) -> ScalarField:
    """Apply the discrete Laplacian with Dirichlet-zero data outside the mask.

    At a masked cell the value is
    ``(sum over masked neighbors of (f_nbr - f_c) - 2 * walls(c) * f_c) / h**2``
    where ``walls(c)`` counts box faces and unmasked neighbors.  Unmasked
    cells map to 0.
    """
    grid = f.grid
    v = f.values
    deg = 2 * grid.dim + wall_slot_count(grid)
    return make_field(grid, (neighbor_sum(v) - deg * v) / grid.spacing**2)


def edge_energies(values: NDArray, mask: NDArray[np.bool_]):
    """The face-edge energy without its ``h**(n-2)`` factor, slot by slot.

    ``values`` must vanish off ``mask``.  Per axis yields ``(cells, energy)``
    for the in-box edges, with ``cells = (left, right)`` and energy
    ``(1 + (m[left] ^ m[right])) * d**2``, then for the wall slots of each
    box face, with ``cells = (first,)`` then ``(last,)`` and energy ``2 * v**2``.
    """
    for left, right, first, last in edge_slices(values.ndim):
        d = values[right] - values[left]
        yield (left, right), (1 + (mask[left] ^ mask[right])) * d * d
        yield (first,), 2.0 * values[first] ** 2
        yield (last,), 2.0 * values[last] ** 2


def gradient_energy(f: ScalarField, region: NDArray[np.bool_] | None = None) -> float:
    """Edge-sum gradient energy ``sum (difference)**2 * h**(n-2)``.

    Edges between masked cells contribute ``(f_b - f_a)**2``; wall edges
    (box face or unmasked neighbor) contribute ``2 * f**2`` for the masked
    endpoint, the factor 2 reflecting the half-spacing distance to the wall.

    Args:
        f: the field.
        region: optional boolean cell mask; only edges with a masked
            endpoint in the region are summed.

    Returns:
        Nonnegative energy value.
    """
    grid = f.grid
    counted = grid.mask if region is None else grid.mask & region
    total = 0.0
    for cells, energy in edge_energies(f.values, grid.mask):
        hit = np.logical_or.reduce([counted[c] for c in cells])
        total += float(np.sum(np.where(hit, energy, 0.0)))
    return total * grid.spacing ** (grid.dim - 2)


# ---------------------------------------------------------------------------
# plain-text serialization
# ---------------------------------------------------------------------------


def format_float(v: float) -> str:
    """Shortest decimal string that round-trips to the same 64-bit float."""
    return repr(float(v))


def text_rows(rows: NDArray, fmt) -> str:
    """One line of space-separated ``fmt`` tokens per row of a 2D array.

    ``fmt`` gets Python numbers, so ``repr`` writes a float as
    :func:`format_float` does and ``str`` writes an integer's digits.
    """
    return "".join(" ".join(map(fmt, row)) + "\n" for row in rows.tolist())


def _read_header(lines: list[str]) -> tuple[int, tuple[int, ...], float, tuple[float, ...]]:
    def tokens(i: int, key: str) -> list[str]:
        parts = lines[i].split() if i < len(lines) else []
        if not parts or parts[0] != key:
            raise ValueError(f"expected '{key}' on line {i + 1} of field file")
        return parts[1:]

    def value(i: int, key: str) -> str:
        values = tokens(i, key)
        if len(values) != 1:
            raise ValueError(
                f"expected one value after '{key}' on line {i + 1} of field file,"
                f" got {len(values)}"
            )
        return values[0]

    dim = int(value(0, "dim"))
    shape = tuple(int(t) for t in tokens(1, "shape"))
    spacing = float(value(2, "spacing"))
    origin = tuple(float(t) for t in tokens(3, "origin"))
    return dim, shape, spacing, origin


def save_field(f: ScalarField, path) -> None:
    """Write a field as a plain-text header plus row-major values."""
    grid = f.grid
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"dim {grid.dim}\n")
        fh.write("shape " + " ".join(str(s) for s in grid.shape) + "\n")
        fh.write("spacing " + format_float(grid.spacing) + "\n")
        fh.write("origin " + " ".join(format_float(v) for v in grid.origin) + "\n")
        fh.write(text_rows(f.values.reshape(grid.shape[0], -1), repr))


def load_field(path, grid: Grid | None = None) -> ScalarField:
    """Read a field written by :func:`save_field`.

    Args:
        path: file path.
        grid: optional grid to attach (its mask is applied); the header must
            agree with it.  Without a grid, an all-true-mask grid is built
            from the header.

    Raises:
        ValueError: on malformed files or header/grid mismatch.
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    dim, shape, spacing, origin = _read_header(lines)
    toks = " ".join(lines[4:]).split()
    n = int(np.prod(shape))
    if len(toks) != n:
        raise ValueError(f"field file has {len(toks)} values, expected {n}")
    values = np.asarray([float(t) for t in toks]).reshape(shape)
    if grid is None:
        grid = make_grid(dim, shape, spacing, origin)
    else:
        if (
            grid.dim != dim
            or grid.shape != shape
            or grid.spacing != spacing
            or tuple(grid.origin) != origin
        ):
            raise ValueError(f"field file header does not match the provided grid")
    return make_field(grid, values)

