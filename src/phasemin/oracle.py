"""Independent reference solutions used to check the main code paths.

Three oracles live here, none of which touches the grid solver:

* :func:`oracle_two_phase_1d` — a brute-force scan over two-phase interval
  configurations on (0,1), with each side's ODE solved by exact trapezoid
  antiderivatives of the sampled source terms.
* :func:`torsion_square_reference` — the classical double sine series for
  the unit-square problem with unit source and zero boundary data.
* :func:`make_cone` — exact piecewise-linear half-plane profiles sampled
  onto a grid, used as known-answer inputs for the diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray

from .functional import PhaseField, make_phase_field
from .grid import Grid, bounding_box, cell_centers

__all__ = [
    "OracleResult",
    "oracle_two_phase_1d",
    "torsion_square_reference",
    "torsion_square_value",
    "ConeOnePhase",
    "ConeTwoPhase",
    "make_cone",
]


@dataclass(frozen=True)
class OracleResult:
    """Outcome of the 1D two-phase scan.

    Attributes:
        s_values: candidate interface positions (all sample nodes).
        j_values: objective value of the two-phase split at each candidate;
            the endpoints are the one-phase-fills-all configurations.
        s_split: the equilibrium split — the interior candidate where both
            sides' interface slopes meet the retention condition
            ``a_i^2 >= lambda_i`` and the scan derivative dJ/ds is closest
            to zero (discrete slope matching ``a_1^2 - lambda_1 = a_2^2 -
            lambda_2``).  Falls back to the interior argmin of the table
            when no candidate is retention-stable.
        j_split: objective at ``s_split``.
        j_phase1_full: objective with phase 1 covering all of (0,1).
        j_phase2_full: objective with phase 2 covering all of (0,1).
        best_kind: one of ``"split"``, ``"phase1_full"``, ``"phase2_full"``,
            ``"empty"`` — the family member with the smallest objective.
        s_star: interface of the overall best candidate (None when empty).
        j_star: overall best objective value.
    """

    s_values: NDArray[np.float64]
    j_values: NDArray[np.float64]
    s_split: float
    j_split: float
    j_phase1_full: float
    j_phase2_full: float
    best_kind: str
    s_star: float | None
    j_star: float


def _cumtrap(y: NDArray, dt: float) -> NDArray:
    """Cumulative trapezoid integral with a leading zero."""
    out = np.zeros_like(y)
    out[1:] = np.cumsum((y[1:] + y[:-1]) * (dt / 2.0))
    return out


def _one_sided_scan(g: NDArray, t: NDArray) -> tuple[NDArray, NDArray, NDArray]:
    """Energy, mass, and interface slope of u'' = -g/2 on (0, t_m).

    Returns arrays ``(E, M, A)`` indexed by the right endpoint node m, with
    E[0] = M[0] = A[0] = 0 (empty support).  The solution with
    u(0) = u(t_m) = 0 is u(x) = c x - G2(x)/2 with c = G2(t_m) / (2 t_m),
    where G1, G2 are the first and second trapezoid antiderivatives of the
    samples.  The energy integral of (u')^2 = (c - G1/2)^2 and the mass
    integral of g*u expand into prefix integrals, so the whole scan is
    linear in the node count.  A[m] = |u'(t_m)| = |c - G1(t_m)/2| is the
    slope at the moving endpoint.
    """
    dt = t[1] - t[0]
    g1 = _cumtrap(g, dt)
    g2 = _cumtrap(g1, dt)
    p1 = _cumtrap(g1, dt)  # integral of G1
    p2 = _cumtrap(g1 * g1, dt)  # integral of G1^2
    q1 = _cumtrap(g * t, dt)  # integral of g*x
    q2 = _cumtrap(g * g2, dt)  # integral of g*G2
    e = np.zeros_like(t)
    m = np.zeros_like(t)
    c = np.zeros_like(t)
    a = np.zeros_like(t)
    c[1:] = g2[1:] / (2.0 * t[1:])
    e[1:] = c[1:] ** 2 * t[1:] - c[1:] * p1[1:] + 0.25 * p2[1:]
    m[1:] = -(c[1:] * q1[1:] - 0.5 * q2[1:])
    a[1:] = np.abs(c[1:] - 0.5 * g1[1:])
    return e, m, a


def oracle_two_phase_1d(
    g1: Callable[[NDArray], NDArray] | Sequence[float],
    g2: Callable[[NDArray], NDArray] | Sequence[float],
    lambda1: float,
    lambda2: float,
    s_grid: int = 4096,
) -> OracleResult:
    """Brute-force 1D scan over two-phase interval configurations.

    Phase 1 occupies (0, s) and phase 2 occupies (s, 1) with zero boundary
    values at 0, s, and 1; each side's field solves u'' = -g/2 exactly for
    the piecewise-linear interpolant of the samples.  The scan objective is
    J(s) = E1 + M1 + E2 + M2 + lambda1*s + lambda2*(1-s).  The one-phase
    configurations are the endpoints of the table, and the empty
    configuration (J = 0) is compared separately.

    Args:
        g1, g2: source terms on (0,1), as callables or as sample arrays of
            length ``s_grid + 1`` at the uniform nodes k/s_grid.
        lambda1, lambda2: per-phase volume costs.
        s_grid: number of sample intervals, at least 1000.

    Returns:
        An :class:`OracleResult`; the empty configuration has ``J = 0``, so
        its ``best_kind`` is ``"empty"`` exactly when no candidate is negative.

    Raises:
        ValueError: if ``s_grid < 1000`` or sample lengths mismatch.
    """
    if s_grid < 1000:
        raise ValueError(f"s_grid must be >= 1000, got {s_grid}")
    t = np.linspace(0.0, 1.0, s_grid + 1)

    def samples(g) -> NDArray:
        if callable(g):
            return np.asarray(g(t), dtype=float)
        arr = np.asarray(g, dtype=float)
        if arr.shape != t.shape:
            raise ValueError(
                f"sample array has length {arr.size}, expected {t.size} (s_grid + 1)"
            )
        return arr

    ga = samples(g1)
    gb = samples(g2)
    e1, m1, a1 = _one_sided_scan(ga, t)
    # phase 2 lives on (s, 1): reflect, scan from the right endpoint
    e2r, m2r, a2r = _one_sided_scan(gb[::-1], t)
    e2 = e2r[::-1]
    m2 = m2r[::-1]
    a2 = a2r[::-1]
    j = e1 + m1 + e2 + m2 + lambda1 * t + lambda2 * (1.0 - t)

    # Equilibrium split: among retention-stable interior candidates (both
    # interface slopes at least sqrt(lambda_i), so neither side sheds its
    # boundary cell), take the one where the table derivative is closest to
    # zero; there the slope-matching balance a1^2 - l1 = a2^2 - l2 holds.
    interior = slice(1, s_grid)
    stable = (a1[interior] ** 2 >= lambda1 - 1e-9) & (
        a2[interior] ** 2 >= lambda2 - 1e-9
    )
    if np.any(stable):
        dj = (j[2:] - j[:-2]) / (2.0 * (t[1] - t[0]))
        masked = np.where(stable, np.abs(dj), np.inf)
        i_split = 1 + int(np.argmin(masked))
    else:
        i_split = 1 + int(np.argmin(j[interior]))
    best_idx = int(np.argmin(j))
    j_min = float(j[best_idx])
    if 0.0 <= j_min:
        best_kind = "empty"
        s_star: float | None = None
        j_star = 0.0
    else:
        j_star = j_min
        if best_idx == 0:
            best_kind, s_star = "phase2_full", 0.0
        elif best_idx == s_grid:
            best_kind, s_star = "phase1_full", 1.0
        else:
            best_kind, s_star = "split", float(t[best_idx])
    return OracleResult(
        s_values=t,
        j_values=j,
        s_split=float(t[i_split]),
        j_split=float(j[i_split]),
        j_phase1_full=float(j[-1]),
        j_phase2_full=float(j[0]),
        best_kind=best_kind,
        s_star=s_star,
        j_star=j_star,
    )


def torsion_square_value(x: float, y: float, max_index: int = 401) -> float:
    """Double sine series for the unit-source problem on the unit square.

    Evaluates ``sum over odd m,n of 16/(pi^4 m n (m^2+n^2)) sin(m pi x)
    sin(n pi y)`` truncated at ``max_index``.
    """
    m = np.arange(1, max_index + 1, 2, dtype=float)
    sin_x = np.sin(m * np.pi * x) / m
    sin_y = np.sin(m * np.pi * y) / m
    denom = m[:, None] ** 2 + m[None, :] ** 2
    coeff = (sin_x[:, None] * sin_y[None, :]) / denom
    return float(16.0 / np.pi**4 * np.sum(coeff))


def torsion_square_reference() -> float:
    """Center (= maximum) value of the unit-square reference solution.

    The series truncation is grown until successive evaluations differ by
    less than 1e-9, an empirical tail bound well below the 1e-8 target.
    """
    prev = torsion_square_value(0.5, 0.5, max_index=101)
    for max_index in (201, 401, 801, 1601):
        cur = torsion_square_value(0.5, 0.5, max_index=max_index)
        if abs(cur - prev) < 1e-9:
            return cur
        prev = cur
    return prev


@dataclass(frozen=True)
class ConeOnePhase:
    """Single half-plane profile ``slope * max(0, <x - center, direction>)``."""

    slope: float
    direction: tuple[float, ...]


@dataclass(frozen=True)
class ConeTwoPhase:
    """Complementary half-plane profiles with positive slopes on each side."""

    slope_pos: float
    slope_neg: float
    direction: tuple[float, ...]


def _unit_direction(grid: Grid, e) -> NDArray:
    vec = np.atleast_1d(np.asarray(e, dtype=float))
    if vec.shape != (grid.dim,):
        raise ValueError(f"direction {e!r} does not match grid dimension {grid.dim}")
    norm = float(np.linalg.norm(vec))
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"direction must be a unit vector, |e| = {norm}")
    return vec


def make_cone(kind: ConeOnePhase | ConeTwoPhase, grid: Grid) -> PhaseField:
    """Sample an exact half-plane cone profile through the grid center.

    Args:
        kind: cone description with unit direction and positive slopes.
        grid: carrier grid; the hyperplane passes through the center of the
            grid's bounding box.

    Returns:
        A PhaseField with one phase (one-sided) or two disjointly supported
        phases (two-sided).

    Raises:
        ValueError: for non-unit directions or nonpositive slopes.
    """
    lo, hi = bounding_box(grid)
    center = (lo + hi) / 2.0
    centers = cell_centers(grid)
    if isinstance(kind, ConeOnePhase):
        e = _unit_direction(grid, kind.direction)
        if not kind.slope > 0.0:
            raise ValueError(f"slope must be positive, got {kind.slope}")
        s = np.tensordot(centers - center, e, axes=([-1], [0]))
        return make_phase_field(grid, [kind.slope * np.maximum(0.0, s)])
    if isinstance(kind, ConeTwoPhase):
        e = _unit_direction(grid, kind.direction)
        if not (kind.slope_pos > 0.0 and kind.slope_neg > 0.0):
            raise ValueError("both cone slopes must be positive")
        s = np.tensordot(centers - center, e, axes=([-1], [0]))
        u1 = kind.slope_pos * np.maximum(0.0, s)
        u2 = kind.slope_neg * np.maximum(0.0, -s)
        return make_phase_field(grid, [u1, u2])
    raise ValueError(f"unknown cone kind {kind!r}")
