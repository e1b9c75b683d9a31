"""The unit-square torsion problem ``-lap w = 1``, ``w = 0`` on the boundary,
by its classical double sine series: the tests' closed-form reference for
the landscape solve."""

from __future__ import annotations

import numpy as np


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
