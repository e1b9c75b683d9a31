"""Objective evaluation for multi-phase fields on partitioned grids.

The objective is a sum of three parts:

* ``energy``: the gradient energies of all phase fields,
* ``mass_term``: the zeroth-order coupling ``sum (u_i**2 f_i - u_i g_i)``,
* ``volume_value``: a cost on the labeled-region volumes, either a
  power law ``sum_i a|W_i| + b|W_i|**(1+alpha)`` or a per-region weight
  integral ``sum_i integral_{W_i} q_i``.

A configuration is a pair of a :class:`PhaseField` (one scalar field per
phase) and a :class:`Partition` (one label per cell, label 0 being the
unassigned "trash" zone with no volume cost).  Admissibility means each
field vanishes off its own labeled region and respects its sign
constraint.  :func:`check_admissible` checks it on a whole pair.

The objective is priced one way, by summation by parts: a field ``v`` that
vanishes off its region has energy plus mass term ``h**n * sum v ((-lap_h
+ f) v - g)``.  :func:`total_by_parts` prices a pair so, unchecked, and
:func:`total` is the same after :func:`check_admissible`.
:func:`cell_set_deltas` prices edits of a pair on a set of cells, each as
``ΔJ`` on the cells and their face neighbors, unchecked, for admissible
pairs and stars: admissibility is checked where a pair enters, not where
it is priced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Union

import numpy as np
from numpy.typing import NDArray

from .grid import (
    Grid,
    ScalarField,
    as_point,
    gradient_energy,
    index_box,
    make_field,
    neighbor_sum,
    sample_mesh,
    wall_slot_count,
)

__all__ = [
    "PowerLaw",
    "PerRegion",
    "VolumeTerm",
    "FunctionalSpec",
    "PhaseField",
    "Partition",
    "NONNEGATIVE",
    "FREE",
    "phase_index",
    "check_reaction",
    "check_source",
    "check_sign",
    "make_functional_spec",
    "make_phase_field",
    "make_partition",
    "partition_from_supports",
    "region_volumes",
    "energy",
    "mass_term",
    "volume_value",
    "check_admissible",
    "total",
    "total_by_parts",
    "cell_set_deltas",
    "volume_marginal",
    "cell_marginals",
    "truncate_to_sign",
    "restrict_support",
]

NONNEGATIVE = "nonnegative"
FREE = "free"


@dataclass(frozen=True)
class PowerLaw:
    """Volume cost ``sum_i a*|W_i| + b*|W_i|**(1+alpha)`` with a, b >= 0."""

    a: float
    b: float
    alpha: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.a) and self.a >= 0.0):
            raise ValueError(f"power-law coefficient a must be >= 0, got {self.a}")
        if not (np.isfinite(self.b) and self.b >= 0.0):
            raise ValueError(f"power-law coefficient b must be >= 0, got {self.b}")
        if not (np.isfinite(self.alpha) and self.alpha > 0.0):
            raise ValueError(f"power-law exponent alpha must be > 0, got {self.alpha}")

    def cost(self, volume: float) -> float:
        """The cost ``a*v + b*v**(1+alpha)`` of one region of volume ``v``."""
        return self.a * volume + self.b * volume ** (1.0 + self.alpha)


@dataclass(frozen=True)
class PerRegion:
    """Volume cost ``sum_i integral_{W_i} q_i``; weights may be negative."""

    weights: tuple[ScalarField, ...]


VolumeTerm = Union[PowerLaw, PerRegion]


@dataclass(frozen=True)
class FunctionalSpec:
    """Problem data: coefficients, sign constraints, and the volume term.

    Attributes:
        grid: the carrier grid.
        num_phases: number of phases N >= 1 (labels run 1..N).
        f: per-phase nonnegative coefficient fields (quadratic term).
        g: per-phase source fields (linear term).
        sign_constraints: per phase, ``"nonnegative"`` or ``"free"``.
        volume_term: PowerLaw or PerRegion.
    """

    grid: Grid
    num_phases: int
    f: tuple[ScalarField, ...]
    g: tuple[ScalarField, ...]
    sign_constraints: tuple[str, ...]
    volume_term: VolumeTerm


@dataclass(frozen=True)
class PhaseField:
    """One scalar field per phase on a shared grid."""

    grid: Grid
    fields: tuple[ScalarField, ...]

    @property
    def num_phases(self) -> int:
        return len(self.fields)


@dataclass(frozen=True)
class Partition:
    """Per-cell labels in {0..N}; 0 marks the costless unassigned zone."""

    grid: Grid
    num_phases: int
    labels: NDArray[np.int64]

    @cached_property
    def _label_counts(self) -> NDArray[np.int64]:
        """Cells per label ``0..N``, counted once: the labels are read-only."""
        counts = np.bincount(self.labels.ravel(), minlength=self.num_phases + 1)
        counts.setflags(write=False)
        return counts


def phase_index(i, n) -> int:
    """The phase in 1..n that an integral ``i`` (1, ``np.int64(1)``, 1.0) selects."""
    if not 1 <= i <= n:
        raise ValueError(f"phase index {i} out of range 1..{n}")
    if not (isinstance(i, (int, np.integer)) or float(i).is_integer()):
        raise ValueError(f"phase index {i} is not an integer")
    return int(i)


def check_reaction(values: NDArray, name: str) -> None:
    """Refuse a reaction coefficient (f_i, or a potential V) not finite and >= 0."""
    if not np.all(np.isfinite(values) & (values >= 0.0)):
        raise ValueError(f"{name} must be finite and nonnegative everywhere")


def check_source(values: NDArray, grid: Grid, name: str) -> None:
    """Refuse a source g_i above the magnitude at which J could overflow.

    Fields solved from g, or built from solved ones, are at most ``U =
    max|g| L**2 / 8`` (L the shortest box side; maximum principle); a cell
    adds at most ``24 dim U**2`` to the edge sum of J or of a ΔJ, so ``64
    dim #cells U**2 max(1, h**(dim-2))`` must be finite."""
    top, side = float(np.max(np.abs(values))), min(grid.shape) * grid.spacing
    room = math.log(np.finfo(float).max / (64 * grid.dim * grid.num_cells))
    room -= max(0.0, (grid.dim - 2) * math.log(grid.spacing))
    limit = math.log(8.0) - 2.0 * math.log(side) + 0.5 * room
    if top > 0.0 and math.log(top) > limit:
        raise ValueError(f"{name} must be at most {math.exp(limit):.3g} in magnitude, got {top:.3g}")


def check_sign(sign: str) -> None:
    """Refuse a sign constraint other than ``NONNEGATIVE`` and ``FREE``."""
    if sign not in (NONNEGATIVE, FREE):
        raise ValueError(f"sign constraint must be {NONNEGATIVE!r} or {FREE!r}, got {sign!r}")


def make_functional_spec(
    grid: Grid,
    f: Sequence[ScalarField | float],
    g: Sequence[ScalarField | float],
    sign_constraints: Sequence[str] | str,
    volume_term: VolumeTerm,
) -> FunctionalSpec:
    """Validate and assemble a FunctionalSpec.

    Args:
        grid: carrier grid.
        f: per-phase nonnegative coefficients (scalars broadcast to fields).
        g: per-phase sources, same length as ``f``.
        sign_constraints: one constraint per phase, or a single string for all.
        volume_term: the volume cost; a PerRegion term must carry one weight
            field per phase.

    Raises:
        ValueError: on any violated invariant.
    """
    if len(f) != len(g) or len(f) == 0:
        raise ValueError("f and g must be nonempty and of equal length")
    num_phases = len(f)

    def as_field(v) -> ScalarField:
        if isinstance(v, ScalarField):
            if v.grid.shape != grid.shape:
                raise ValueError("coefficient field grid does not match spec grid")
            return v
        return make_field(grid, float(v))

    f_t = tuple(as_field(v) for v in f)
    g_t = tuple(as_field(v) for v in g)
    for i, (fi, gi) in enumerate(zip(f_t, g_t), start=1):
        check_reaction(fi.values, f"f_{i}")
        check_source(gi.values, grid, f"g_{i}")
    if isinstance(sign_constraints, str):
        signs = (sign_constraints,) * num_phases
    else:
        signs = tuple(sign_constraints)
    if len(signs) != num_phases:
        raise ValueError("one sign constraint per phase required")
    for s in signs:
        check_sign(s)
    if isinstance(volume_term, PerRegion):
        if len(volume_term.weights) != num_phases:
            raise ValueError("PerRegion needs one weight field per phase")
        for q in volume_term.weights:
            if q.grid.shape != grid.shape:
                raise ValueError("PerRegion weight grid does not match spec grid")
    elif not isinstance(volume_term, PowerLaw):
        raise ValueError(f"unknown volume term {volume_term!r}")
    return FunctionalSpec(
        grid=grid,
        num_phases=num_phases,
        f=f_t,
        g=g_t,
        sign_constraints=signs,
        volume_term=volume_term,
    )


def make_phase_field(grid: Grid, fields: Sequence[ScalarField | NDArray | float]) -> PhaseField:
    """Bundle per-phase values into a PhaseField on one grid."""
    out = []
    for v in fields:
        fld = v if isinstance(v, ScalarField) else make_field(grid, v)
        if fld.grid.shape != grid.shape:
            raise ValueError("phase field grid mismatch")
        out.append(fld)
    if not out:
        raise ValueError("at least one phase required")
    return PhaseField(grid=grid, fields=tuple(out))


def make_partition(grid: Grid, num_phases: int, labels: NDArray) -> Partition:
    """Validate integer labels in {0..N}, forcing label 0 off the mask.

    Labels of a float dtype are accepted when every one is integral.
    """
    arr = np.asarray(labels)
    if arr.shape != grid.shape:
        raise ValueError(f"labels shape {arr.shape} does not match grid {grid.shape}")
    if arr.dtype.kind not in "biu" and not np.all(np.isfinite(arr) & (arr == np.round(arr))):
        raise ValueError("labels must be integers; got a fractional or non-finite label")
    if arr.min() < 0 or arr.max() > num_phases:
        raise ValueError(f"labels must lie in 0..{num_phases}")
    arr = arr.astype(np.int64)
    arr[~grid.mask] = 0
    arr.setflags(write=False)
    return Partition(grid=grid, num_phases=num_phases, labels=arr)


def partition_from_supports(u: PhaseField) -> Partition:
    """Label each cell by the unique phase supported there (0 if none).

    Raises:
        ValueError: if two phases overlap on some cell.
    """
    labels = np.zeros(u.grid.shape, dtype=np.int64)
    for i in range(1, u.num_phases + 1):
        sup = u.fields[i - 1].values != 0.0
        if np.any(labels[sup] != 0):
            raise ValueError("phase supports overlap; no valid partition")
        labels[sup] = i
    return make_partition(u.grid, u.num_phases, labels)


def region_volumes(w: Partition) -> tuple[float, ...]:
    """Per-phase volumes ``count(label == i) * h**n`` for i = 1..N."""
    vol = w.grid.cell_volume
    return tuple(float(c) * vol for c in w._label_counts[1 : w.num_phases + 1])


def energy(u: PhaseField) -> float:
    """Total gradient energy over all phases; nonnegative."""
    return float(sum(gradient_energy(f) for f in u.fields))


def mass_term(u: PhaseField, spec: FunctionalSpec) -> float:
    """Zeroth-order coupling ``sum_i sum_cells (u_i**2 f_i - u_i g_i) * h**n``."""
    vol = u.grid.cell_volume
    out = 0.0
    for fld, fi, gi in zip(u.fields, spec.f, spec.g):
        v = fld.values
        out += float(np.sum(v * v * fi.values - v * gi.values)) * vol
    return out


def volume_value(w: Partition, vt: VolumeTerm) -> float:
    """Volume cost of the labeled regions (trash label 0 costs nothing)."""
    if isinstance(vt, PowerLaw):
        vols = region_volumes(w)
        return float(sum(vt.cost(v) for v in vols))
    if isinstance(vt, PerRegion):
        vol = w.grid.cell_volume
        out = 0.0
        for i, q in enumerate(vt.weights, start=1):
            out += float(np.sum(q.values[w.labels == i])) * vol
        return out
    raise ValueError(f"unknown volume term {vt!r}")


def _check_arrays(spec: FunctionalSpec, mask: NDArray, labels: NDArray, values) -> None:
    """Check labels and per-phase values on cells whose mask values are ``mask``.

    Labels must lie in 0..N and be 0 off the mask; then phases are checked
    in order, each for its support and then its sign.  The first violation
    found is the one raised.
    """
    if np.any((labels < 0) | (labels > spec.num_phases)) or np.any(labels[~mask] != 0):
        raise ValueError(f"labels must lie in 0..{spec.num_phases} and be 0 off the mask")
    for i, vals in enumerate(values, start=1):
        if np.any(vals[labels != i] != 0.0):
            raise ValueError(f"phase {i} has support outside its labeled region")
        if spec.sign_constraints[i - 1] == NONNEGATIVE and np.any(vals < 0.0):
            raise ValueError(f"phase {i} violates its nonnegative constraint")


def check_admissible(u: PhaseField, w: Partition, spec: FunctionalSpec) -> None:
    """Check that ``(u, w)`` is an admissible pair for ``spec``, on the whole grid.

    Raises:
        ValueError: if the phase counts of field, partition and spec
            disagree, a label is out of range or nonzero off the mask, some
            phase is nonzero outside its labeled region, or a
            nonnegative-constrained phase has a negative value (the first
            phase at fault is named).
    """
    if u.num_phases != w.num_phases or u.num_phases != spec.num_phases:
        raise ValueError("phase counts of field, partition, and spec disagree")
    _check_arrays(spec, u.grid.mask, w.labels, [f.values for f in u.fields])


def total(u: PhaseField, w: Partition, spec: FunctionalSpec) -> float:
    """Full objective value ``energy + mass_term + volume_value``, checked.

    :func:`total_by_parts` of the pair once :func:`check_admissible` has
    passed it.

    Raises:
        ValueError: if the pair is not admissible (see :func:`check_admissible`).
    """
    check_admissible(u, w, spec)
    return total_by_parts(u, w, spec)


def total_by_parts(u: PhaseField, w: Partition, spec: FunctionalSpec) -> float:
    """The objective by summation by parts, for an admissible pair it does not check.

    Each phase's energy plus mass term is ``h**n * sum v ((-lap_h + f) v - g)``,
    with the stencil of :mod:`phasemin.grid`: ``h**(n-2) * sum v (deg v - N(v))``
    plus ``h**n * sum (v v f - v g)``, one neighbor sum on the index box of
    the phase's region.  The identity is exact for any field that vanishes
    off its region, solved or not; the result equals ``energy + mass_term +
    volume_value`` but for rounding.
    """
    grid = spec.grid
    walls = wall_slot_count(grid)
    edge = mass = 0.0
    for i, (fld, f, g) in enumerate(zip(u.fields, spec.f, spec.g), start=1):
        region = w.labels == i
        if not np.any(region):
            continue
        box = index_box(region)
        v = fld.values[box]
        deg = 2 * grid.dim + walls[box]
        edge += float(np.sum(v * (deg * v - neighbor_sum(v))))
        mass += float(np.sum(v * v * f.values[box] - v * g.values[box]))
    energy_and_mass = edge * grid.spacing ** (grid.dim - 2) + mass * grid.cell_volume
    return energy_and_mass + volume_value(w, spec.volume_term)


def cell_set_deltas(
    spec: FunctionalSpec,
    cells: tuple[NDArray, ...],
    pair: tuple[PhaseField, Partition],
    stars: Sequence[tuple[NDArray, Sequence[NDArray]]],
) -> list[float]:
    """``J(star) - J(pair)`` for each of several edits of ``pair`` on one set
    of cells, unchecked, for admissible pairs and stars.

    ``cells`` holds one index array per axis, as ``np.nonzero`` returns
    them (row-major, no cell twice).  Each star ``(labels, fields)`` holds
    the edited pair's labels and one field per phase, one entry per cell;
    every other cell keeps the values of ``pair``.  With ``d`` the field
    change and ``s`` the sum of the old and the new field, the energy
    changes by ``h**(n-2) * sum d (deg s - N(s))`` (summation by parts,
    with ``N`` and ``deg`` as in :mod:`phasemin.grid`), which reads ``s`` at
    the cells' face neighbors; the mass term and per-region weights change
    by cell sums, and a power law between the label counts of ``pair`` and
    those counts plus the change on the cells.  This is exact for fields
    that vanish off the mask.  The work is in the number of cells: one
    neighbor lookup serves every phase and star, and each star's result is
    bit for bit the one it gets alone.  Admissibility is the caller's to
    check, as for :func:`total_by_parts`.

    Raises:
        ValueError: if the cells are not in row-major order without
            repeats or leave the grid, or a star does not hold labels and
            one field per phase at the cells.
    """
    grid, n = spec.grid, spec.num_phases
    read = tuple(np.asarray(idx, dtype=np.intp) for idx in cells)
    flat = np.ravel_multi_index(read, grid.shape)
    if np.any(np.diff(flat) <= 0):
        raise ValueError("a cell set must be in row-major order, each cell once")
    for labels, fields in stars:
        if len(fields) != n or any(np.shape(a) != flat.shape for a in (labels, *fields)):
            raise ValueError(f"star must hold labels and {n} fields of shape {flat.shape}")
    shape = (len(stars), flat.size)
    lab0 = pair[1].labels[read]
    lab1 = np.array([labels for labels, _ in stars]).reshape(shape)
    far, slots = _neighbor_slots(grid, read, flat)
    deg = 2 * grid.dim + wall_slot_count(grid)[read]
    edge, mass = np.zeros(shape[0]), np.zeros(shape[0])
    for i, (fld, f, g) in enumerate(zip(pair[0].fields, spec.f, spec.g)):
        v0 = fld.values[read]
        v1 = np.array([fields[i] for _, fields in stars], dtype=float).reshape(shape)
        s = v0 + v1
        # s at the cells, then twice the unchanged value at each neighbor
        # outside the set, then 0 for a neighbor beyond the box
        outer = np.broadcast_to(2.0 * fld.values.reshape(-1)[far], (shape[0], far.size))
        ext = np.concatenate([s, outer, np.zeros((shape[0], 1))], axis=1)
        nbr = ext[:, slots[0]]
        for slot in slots[1:]:
            nbr += ext[:, slot]
        edge += np.sum((v1 - v0) * (deg * s - nbr), axis=1)
        fw, gw = f.values[read], g.values[read]
        mass += np.sum((v1 * v1 * fw - v1 * gw) - (v0 * v0 * fw - v0 * gw), axis=1)
    delta = edge * grid.spacing ** (grid.dim - 2) + mass * grid.cell_volume
    term, vol = spec.volume_term, grid.cell_volume
    if isinstance(term, PowerLaw):
        for i, count in enumerate(pair[1]._label_counts[1:], start=1):
            moved = np.count_nonzero(lab1 == i, axis=1) - np.count_nonzero(lab0 == i)
            before = term.cost(float(count) * vol)
            delta += [term.cost(float(count + m) * vol) - before for m in moved]
    else:
        for i, q in enumerate(term.weights, start=1):
            qw = q.values[read]
            gained = np.where(lab1 == i, qw, 0.0) - np.where(lab0 == i, qw, 0.0)
            delta += np.sum(gained, axis=1) * vol
    return delta.tolist()


def _neighbor_slots(grid: Grid, cells: tuple[NDArray, ...], flat: NDArray):
    """Where each face neighbor of a cell set, with row-major flat indices
    ``flat``, is read from: the flat indices ``far`` of the neighbors outside
    the set, one entry per read, and per axis and direction (upper first) a
    slot per cell, ``j`` for the set's cell j, ``#cells + k`` for ``far[k]``
    and -1 beyond the box."""
    m = count = flat.size
    far, slots = [], []
    for axis, (idx, size) in enumerate(zip(cells, grid.shape)):
        stride = math.prod(grid.shape[axis + 1 :])
        for step in (1, -1):
            nb = flat + step * stride
            at = np.minimum(np.searchsorted(flat, nb), m - 1)
            inside = (idx + step >= 0) & (idx + step < size)
            hit = inside & (flat[at] == nb)
            outside = np.flatnonzero(inside & ~hit)
            slot = np.where(hit, at, -1)
            slot[outside] = count + np.arange(outside.size)
            count += outside.size
            far.append(nb[outside])
            slots.append(slot)
    return np.concatenate(far), slots


def volume_marginal(w: Partition, vt: VolumeTerm, at=None) -> tuple[float, ...]:
    """The per-phase marginal costs of volume ``(lam_1, ..., lam_N)``.

    PowerLaw: ``lam_i = a + b*(1+alpha)*|W_i|**alpha`` at the region
    volumes of ``w`` (:func:`region_volumes`).  PerRegion:
    ``lam_i = q_i(at)``, the weight value at the given point.

    Args:
        w: the partition (supplies current volumes).
        vt: the volume term.
        at: evaluation point, required for PerRegion terms.

    Raises:
        ValueError: PerRegion without ``at``.
    """
    if isinstance(vt, PowerLaw):
        return tuple(
            float(vt.a + vt.b * (1.0 + vt.alpha) * v**vt.alpha) for v in region_volumes(w)
        )
    if isinstance(vt, PerRegion):
        if at is None:
            raise ValueError("PerRegion marginal requires an evaluation point `at`")
        pt = as_point(vt.weights[0].grid, at)
        return tuple(float(v[0]) for v in sample_mesh(vt.weights, pt[:, np.newaxis]))
    raise ValueError(f"unknown volume term {vt!r}")


def cell_marginals(spec: FunctionalSpec, w: Partition) -> list[NDArray]:
    """Per-phase cellwise volume marginals, frozen at the volumes of ``w``."""
    term = spec.volume_term
    if isinstance(term, PerRegion):
        return [q.values for q in term.weights]
    return [np.broadcast_to(lam, spec.grid.shape) for lam in volume_marginal(w, term)]


def truncate_to_sign(values: NDArray, constraint: str) -> NDArray:
    """Apply a sign constraint pointwise (positive part for nonnegative)."""
    if constraint == NONNEGATIVE:
        return np.maximum(values, 0.0)
    return values


def restrict_support(u: PhaseField, w: Partition) -> PhaseField:
    """Zero each phase field outside its region, making the pair admissible."""
    fields = [
        np.where(w.labels == i, u.fields[i - 1].values, 0.0)
        for i in range(1, u.num_phases + 1)
    ]
    return make_phase_field(u.grid, fields)
