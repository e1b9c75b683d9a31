"""Uniform Cartesian grids with cell-centered values.

This module holds the spatial plumbing shared by every other module: the
grid description (cell counts, spacing, origin, domain mask), scalar fields
living on grid cells, probe points and their distance fields, the face-edge
stencil (its per-axis edge and face slices, the neighbor sum and the edge
energy, and the wall count, the Laplacian and the gradient energy built on
them), the window of a ball, the exact squared distance transform of a
cell set, multilinear sampling (at scattered points or on a tensor grid),
and a plain-text serialization format for fields.  A ball is selected as
``distances(grid, pt) < r``; a mask is stored as a field of 0/1 values and
read back as ``load_field(p).values != 0``.

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

import math
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
    "ball_window",
    "index_box",
    "squared_distance_transform",
    "sample_mesh",
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
    """A 64-bit float value per grid cell; zero on unmasked cells.  The values
    are read-only and may be a zero-stride broadcast view (a constant from
    :func:`make_field`): never write to them, never assume them contiguous."""

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
        spacing: positive cell width, with a finite nonzero ``spacing**dim``.
        origin: finite center of the first cell; defaults to ``spacing/2``
            per axis, which places the grid box on ``(0, L)`` per axis.
        mask: optional boolean domain mask (default: all cells inside)
            with at least one cell inside.

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
    if not 0.0 < math.prod((spacing,) * dim) < math.inf:
        raise ValueError(f"cell volume {spacing}**{dim} must be positive and finite")
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
        if not mask_arr.any():
            raise ValueError("mask has no cell inside the domain; at least one is needed")
        mask_arr = mask_arr.copy()
    mask_arr.setflags(write=False)
    return Grid(dim=dim, shape=shape_t, spacing=spacing, origin=origin_t, mask=mask_arr)


def make_field(grid: Grid, values: NDArray | float) -> ScalarField:
    """Build a ScalarField, zeroing unmasked cells and validating finiteness.

    Args:
        grid: the carrier grid.
        values: array of shape ``grid.shape`` or a scalar, which on a grid
            masked in everywhere costs one number: a read-only zero-stride
            view (never write to it, never assume it contiguous).

    Raises:
        ValueError: if the shape mismatches or any masked value is not finite.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 0:
        arr = np.broadcast_to(arr, grid.shape) if grid.mask.all() else np.where(grid.mask, arr, 0.0)
    elif arr.shape != grid.shape:
        raise ValueError(f"values shape {arr.shape} does not match grid {grid.shape}")
    else:
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


def ball_window(grid: Grid, pt: NDArray, r: float):
    """The window of a ball, its cells' offsets and distances from ``pt``.

    The index box of the cells with ``|c_a - pt_a| < r + h`` along every
    axis (empty if none): ``B(pt, r)`` and, but for rounding near r, its
    cells' face neighbors.  Returns the box, the offsets ``c_a - pt_a`` as
    an open mesh, and the distances, bit-identical to :func:`distances`.
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


def index_box(cells: NDArray[np.bool_]) -> tuple[slice, ...]:
    """Index box of the set cells, one slice per axis; ``cells`` must be non-empty."""
    box = []
    for axis in range(cells.ndim):
        others = tuple(a for a in range(cells.ndim) if a != axis)
        hits = np.flatnonzero(cells.any(axis=others))
        box.append(slice(int(hits[0]), int(hits[-1]) + 1))
    return tuple(box)


def squared_distance_transform(
    features: NDArray[np.bool_],
    cap: int | None = None,
    at: NDArray[np.bool_] | None = None,
) -> NDArray[np.float64]:
    """Squared distance, in cells, from each cell to the nearest feature cell.

    Exact and separable (Felzenszwalb & Huttenlocher, *Distance Transforms
    of Sampled Functions*, 2012): a forward and a backward index scan along
    axis 0 give each cell ``g``, its squared distance to the nearest feature
    in its column; in 2D a min-plus over column shifts, ``min_s g[:, j+s] +
    s**2``, combines the columns.  Values are integers held as floats, and
    ``inf`` where no feature is in reach.  Extra memory is a few arrays the
    size of ``features``.

    Exit bound: in row i no candidate from shift s lies below ``min_j g[i,
    j] + s**2``, so row i is done once ``s**2`` reaches its spread, its
    largest current value at a read cell minus its smallest ``g`` (0 if
    that is ``inf``: no feature in reach).  The spreads are recomputed
    every few shifts, and a shift writes only the rows not yet done.  So
    the shifts follow the spread of distances within rows, not the largest
    distance: at a flat interface along the rows none runs.

    Args:
        features: boolean array, 1D or 2D.
        cap: if given, only features at most ``cap`` cells away along every
            axis are searched.  Each squared distance up to ``cap**2`` is
            still exact, and every larger one stays above ``cap**2``.
        at: if given, a boolean array of the shape of ``features``, the
            cells the caller reads: the result is then ``out[at]``, 1D in
            row-major order, equal to the full transform there.  Values at
            other cells are not computed.
    """
    out = _column_sq(features, cap)
    if features.ndim == 2:
        out = _min_plus(out, at, cap)
    return out if at is None else out[at]


def _column_sq(features: NDArray[np.bool_], cap: int | None) -> NDArray[np.float64]:
    """Squared distance along axis 0 to the nearest feature of the same
    column, ``inf`` if none is within ``cap`` cells."""
    n0 = features.shape[0]
    idx = np.arange(n0, dtype=float).reshape((n0,) + (1,) * (features.ndim - 1))
    # in place: on large boxes a fresh temporary costs more than its pass
    before = np.where(features, idx, -np.inf)
    np.maximum.accumulate(before, axis=0, out=before)
    after = np.where(features, idx, np.inf)
    np.minimum.accumulate(after[::-1], axis=0, out=after[::-1])
    g = np.minimum(np.subtract(idx, before, out=before), np.subtract(after, idx, out=after), out=before)
    if cap is not None:
        g[g > cap] = np.inf
    g *= g
    return g


_RECHECK = 4  # shifts between recomputations of the row spreads


def _min_plus(
    g: NDArray[np.float64], read: NDArray[np.bool_] | None, cap: int | None
) -> NDArray[np.float64]:
    """The min-plus ``min_s g[:, j+s] + s**2`` over ``|s| <= cap``, exact at
    the read cells (every cell if ``read`` is None).

    The row spreads are recomputed every ``_RECHECK`` shifts, and a shift
    writes only the index box of the read cells in the rows not yet done.
    """
    n0, n1 = g.shape
    limit = n1 - 1 if cap is None else min(cap, n1 - 1)
    floor = g.min(axis=1, initial=np.inf)
    out = g.copy()
    padded = None
    lo, hi = 0, n0
    for s in range(1, limit + 1):
        if (s - 1) % _RECHECK == 0:
            rows = None if read is None else read[lo:hi]
            live = np.flatnonzero(_row_spread(out[lo:hi], rows, floor[lo:hi]) > s * s)
            if live.size == 0:
                break
            lo, hi = lo + int(live[0]), lo + int(live[-1]) + 1
            c0, c1 = 0, n1
            if read is not None:
                cols = np.flatnonzero(read[lo:hi].any(axis=0))
                c0, c1 = int(cols[0]), int(cols[-1]) + 1
            if padded is None:
                # inf columns on both sides: a shift is one min of two slices
                padded = np.full((n0, n1 + 2 * limit), np.inf)
                padded[:, limit : limit + n1] = g
                cand = np.empty_like(g)
            box, c = out[lo:hi, c0:c1], cand[lo:hi, c0:c1]
        left = padded[lo:hi, limit + c0 - s : limit + c1 - s]
        right = padded[lo:hi, limit + c0 + s : limit + c1 + s]
        np.add(np.minimum(left, right, out=c), float(s * s), out=c)
        np.minimum(box, c, out=box)
    return out


def _row_spread(
    out: NDArray[np.float64], read: NDArray[np.bool_] | None, floor: NDArray[np.float64]
) -> NDArray[np.float64]:
    """Per row: the largest ``out`` at a read cell minus ``floor``, the row's
    smallest ``g``; 0 for a row with no feature in reach, and ``-inf`` for a
    row with no read cell."""
    masked = out if read is None else np.where(read, out, -np.inf)
    top = masked.max(axis=1, initial=-np.inf)
    return np.subtract(top, floor, out=np.zeros_like(floor), where=np.isfinite(floor))


def bounding_box(grid: Grid) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Physical bounding box ``(lo, hi)`` of the union of all cells."""
    lo = np.asarray(grid.origin) - grid.spacing / 2.0
    hi = np.asarray(grid.origin) + grid.spacing * (np.asarray(grid.shape) - 1) + grid.spacing / 2.0
    return lo, hi


def sample_mesh(fields: Sequence[ScalarField], coords: Sequence[NDArray]) -> list[NDArray]:
    """Multilinear interpolation of fields on one grid, at points given per axis.

    ``coords`` holds one coordinate array per axis, broadcasting together:
    of one length for scattered points, or an open mesh (``np.ix_``) for a
    tensor grid, whose stencils are built per axis.  One array per field.
    Past the outermost cell centers the stencil clamps to the edge cell;
    points are not range-checked (:func:`as_point` checks one).
    """
    grid = fields[0].grid
    stencils = []
    for axis, x in enumerate(coords):
        t = (x - grid.origin[axis]) / grid.spacing
        i0 = np.clip(np.floor(t).astype(np.int64), 0, grid.shape[axis] - 2)
        stencils.append((i0, np.clip(t - i0, 0.0, 1.0)))
    outs = [np.zeros(np.broadcast_shapes(*(np.shape(x) for x in coords))) for _ in fields]
    for corner in range(1 << grid.dim):
        idx, weight = [], 1.0
        for a, (i0, w) in enumerate(stencils):
            bit = (corner >> a) & 1
            idx.append(i0 + bit)
            weight = weight * (w if bit else 1.0 - w)
        for out, f in zip(outs, fields):
            out += weight * f.values[tuple(idx)]
    return outs


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


@cache
def _shifts(shape: tuple[int, ...]) -> tuple[tuple[tuple, int], ...]:
    """Per axis after the first that has edges: the index of its last and of
    its first cell layer, and its flat stride in a C-ordered array."""
    out = []
    for axis in range(1, len(shape)):
        if shape[axis] > 1 and 0 not in shape:
            layer = (slice(None),) * axis
            out.append((layer + (-1,), layer + (0,), math.prod(shape[axis + 1 :])))
    return tuple(out)


def neighbor_sum(values: NDArray, out: NDArray | None = None) -> NDArray:
    """Sum of the face-neighbor values of every cell, zero beyond the box.

    The sum goes to ``out`` when given (same shape and dtype as ``values``,
    not overlapping it; any memory layout) and to a new C-ordered array
    otherwise; it is returned.  Each cell adds its neighbors axis by axis,
    the upper one first, to a zero: the order of slice adds
    ``out[:-1] += values[1:]; out[1:] += values[:-1]`` along each axis.
    Axis 0 runs those slice adds; each later axis adds the flat buffer
    shifted by its stride, which is contiguous where its slices are not,
    and puts back the boundary layer that the shift wraps into."""
    values = np.ascontiguousarray(values)
    if out is None:
        acc = np.zeros_like(values)
    elif out.flags.c_contiguous:
        acc = out
        acc.fill(0)
    else:
        acc = np.zeros(values.shape, out.dtype)
    if values.ndim:
        acc[:-1] += values[1:]
        acc[1:] += values[:-1]
    flat, vals = acc.reshape(-1), values.reshape(-1)
    for last, first, stride in _shifts(values.shape):
        keep = acc[last].copy()
        flat[:-stride] += vals[stride:]
        acc[last] = keep
        keep = acc[first].copy()
        flat[stride:] += vals[:-stride]
        acc[first] = keep
    if out is not None and out is not acc:
        out[...] = acc
        return out
    return acc


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

    ``values`` has the mask's shape and must vanish off ``mask``.  Per axis
    yields ``(cells, energy)`` for the in-box edges, with ``cells = (left,
    right)`` and energy ``(1 + (m[left] ^ m[right])) * d**2``, then for the
    wall slots of each box face, with ``cells = (first,)`` then ``(last,)``
    and energy ``2 * v**2``.
    """
    for left, right, first, last in edge_slices(mask.ndim):
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

