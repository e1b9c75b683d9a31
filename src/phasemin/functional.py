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
constraint.  :func:`check_admissible` checks it on a whole pair, and
:func:`total` runs it; :func:`window_delta` prices an edit of a pair on an
index box and checks it, and the pair, only on the box grown by one cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np
from numpy.typing import NDArray

from .grid import Grid, ScalarField, edge_energies, gradient_energy, make_field, sample

__all__ = [
    "PowerLaw",
    "PerRegion",
    "VolumeTerm",
    "FunctionalSpec",
    "PhaseField",
    "Partition",
    "NONNEGATIVE",
    "FREE",
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
    "window_delta",
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
    for i, fi in enumerate(f_t):
        if np.any(fi.values < 0.0):
            raise ValueError(f"f[{i}] must be nonnegative everywhere")
    if isinstance(sign_constraints, str):
        signs = (sign_constraints,) * num_phases
    else:
        signs = tuple(sign_constraints)
    if len(signs) != num_phases:
        raise ValueError("one sign constraint per phase required")
    for s in signs:
        if s not in (NONNEGATIVE, FREE):
            raise ValueError(f"unknown sign constraint {s!r}")
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


def make_phase_field(grid: Grid, fields: Sequence[ScalarField | NDArray]) -> PhaseField:
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
    return tuple(
        float(np.count_nonzero(w.labels == i)) * vol for i in range(1, w.num_phases + 1)
    )


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
    """Check labels and per-phase values on one index box of ``mask``'s shape.

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
    """Full objective value ``energy + mass_term + volume_value``.

    Raises:
        ValueError: if the pair is not admissible (see :func:`check_admissible`).
    """
    check_admissible(u, w, spec)
    return energy(u) + mass_term(u, spec) + volume_value(w, spec.volume_term)


def window_delta(
    spec: FunctionalSpec,
    box: tuple[slice, ...],
    pair: tuple[PhaseField, Partition],
    star: tuple[NDArray, Sequence[NDArray]],
) -> float:
    """``J(star) - J(pair)`` for an edit of ``pair`` on the index box ``box``.

    ``star = (labels, fields)`` holds the edited pair's labels and one
    field per phase on ``box``, as arrays of the box's shape; every cell
    outside ``box`` keeps the values of ``pair``.  The change is priced on
    the window, ``box`` grown by one cell per axis (within the grid), so
    every face edge that touches a box cell is in it: the window sum of the
    per-edge energy changes times ``h**(n-2)``, plus the window sum of the
    per-cell mass changes times ``h**n``, plus the change of the volume
    term.  It is exact: an edge or cell that the sums leave out is
    unchanged, and so is a window-face slot that the sums count as a wall
    although it is none; an unchanged slot has bitwise equal values on both
    pairs and contributes exactly 0.  Per-region weights give a window sum
    too; a power law prices the global volumes, so its change is taken
    between the per-phase label counts of ``pair`` and those counts plus
    the window's change.  No full-grid objective is evaluated, and the
    result is never the difference of two totals of size |J|.

    Raises:
        ValueError: if the arrays do not fit the box and the phase count;
            then if the star's labels, then its fields, then ``pair`` on
            the window are not admissible (see :func:`check_admissible`).
    """
    grid, n = spec.grid, spec.num_phases
    (u, w), (labels, fields) = pair, star
    labels = np.asarray(labels)
    window, inner = [], []
    for cut, size in zip(box, grid.shape):
        start, stop, _ = cut.indices(size)
        stop, lo = max(stop, start), max(start - 1, 0)
        window.append(slice(lo, min(stop + 1, size)))
        inner.append(slice(start - lo, stop - lo))
    window, inner = tuple(window), tuple(inner)
    mask = grid.mask[window]
    shape = mask[inner].shape
    if len(fields) != n or u.num_phases != n or w.num_phases != n or any(
        np.shape(a) != shape for a in (labels, *fields)
    ):
        raise ValueError(f"star must hold labels and {n} fields of the box's shape {shape}")
    _check_arrays(spec, mask[inner], labels, fields)
    lab0 = w.labels[window]
    old = [f.values[window] for f in u.fields]
    _check_arrays(spec, mask, lab0, old)
    lab1 = lab0.copy()
    lab1[inner] = labels
    edge = mass = 0.0
    for v0, new, f, g in zip(old, fields, spec.f, spec.g):
        v1 = v0.copy()
        v1[inner] = new
        for (_, e0), (_, e1) in zip(edge_energies(v0, mask), edge_energies(v1, mask)):
            edge += float(np.sum(e1 - e0))
        fw, gw = f.values[window], g.values[window]
        mass += float(np.sum((v1 * v1 * fw - v1 * gw) - (v0 * v0 * fw - v0 * gw)))
    delta = edge * grid.spacing ** (grid.dim - 2) + mass * grid.cell_volume
    term = spec.volume_term
    if isinstance(term, PowerLaw):
        counts = np.bincount(w.labels.ravel(), minlength=n + 1)[1:]
        for i, count in enumerate(counts, start=1):
            moved = int(np.count_nonzero(lab1 == i)) - int(np.count_nonzero(lab0 == i))
            v0 = float(count) * grid.cell_volume
            v1 = float(count + moved) * grid.cell_volume
            delta += term.cost(v1) - term.cost(v0)
    else:
        for i, q in enumerate(term.weights, start=1):
            qw = q.values[window]
            gained = np.where(lab1 == i, qw, 0.0) - np.where(lab0 == i, qw, 0.0)
            delta += float(np.sum(gained)) * grid.cell_volume
    return delta


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
        return tuple(float(sample(q, at)) for q in vt.weights)
    raise ValueError(f"unknown volume term {vt!r}")


def cell_marginals(spec: FunctionalSpec, w: Partition) -> list[NDArray]:
    """Per-phase cellwise volume marginals, frozen at the volumes of ``w``."""
    term = spec.volume_term
    if isinstance(term, PerRegion):
        return [q.values for q in term.weights]
    return [np.full(spec.grid.shape, lam) for lam in volume_marginal(w, term)]


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
