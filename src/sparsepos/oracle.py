"""Brute-force reference minimizer on a uniform grid.

Every instance splits into an (X,Y) part and a (Y,Z) part (objective and
constraints alike), so the grid scan decomposes: for each Y grid point,
minimize the (X,Y) objective part over feasible X points and the (Y,Z) part
over feasible Z points independently, then add.  The result, the argmin and
the feasible-point count are identical to scanning the full product grid,
but the work is |Y| * (|X| + |Z|) evaluations instead of |X| * |Y| * |Z|;
the capacity guard counts the evaluations actually performed.

Grid minima over-estimate the true minimum by at most the grid spacing times
a gradient bound; :func:`lipschitz_margin` returns that documented margin.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, prod
from typing import Sequence

import numpy as np

from .poly import Polynomial
from .problem import ProblemInstance

#: Feasibility slack at grid points: exact-boundary points carry float noise.
FEASIBILITY_SLACK = 1e-9

EVALUATION_GUARD = 10**8


class GridCapacityError(ValueError):
    """The requested grid would exceed the evaluation guard."""


class EmptyFeasibleError(ValueError):
    """No grid point satisfies all constraints."""


@dataclass(frozen=True)
class OracleResult:
    minimum: float
    argmin: tuple[float, ...]
    step: float
    feasible_count: int


def _axis_size(lo: float, hi: float, step: float) -> int:
    """Points of the axis over [lo, hi] at ``step``, counted without
    building it; an axis too long to count exceeds any guard."""
    if not (isfinite(lo) and isfinite(hi)):
        raise ValueError(f"interval [{lo}, {hi}] is not finite")
    if hi < lo:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    spans = (hi - lo) / step
    if not isfinite(spans):
        raise GridCapacityError(f"the axis over [{lo}, {hi}] at step {step} is too long to count")
    return int(round(spans)) + 1


def _grid(axes: list[np.ndarray]) -> np.ndarray:
    """Cartesian product, rows in lexicographic order; one empty row if no axes."""
    if not axes:
        return np.zeros((1, 0))
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _eval_on(poly: Polynomial, columns: np.ndarray) -> np.ndarray:
    """Evaluate on a stack of points given as full-width coordinate rows."""
    total = np.zeros(columns.shape[0])
    for exp, coeff in poly.terms.items():
        term = np.full(columns.shape[0], float(coeff))
        for idx, e in enumerate(exp):
            if e:
                term = term * columns[:, idx] ** e
        total += term
    return total


def check_grid(instance: ProblemInstance, box, step: float, guard: int = EVALUATION_GUARD):
    """The point count of each axis of the grid :func:`grid_min` would scan,
    refusing an unusable grid (``ValueError``) or one whose evaluations
    exceed ``guard`` (:class:`GridCapacityError`); allocates nothing."""
    layout = instance.layout
    if len(box) != layout.nvars:
        raise ValueError(f"box needs {layout.nvars} intervals, got {len(box)}")
    if not (isfinite(step) and step > 0):
        raise ValueError(f"step must be positive and finite, got {step}")
    sizes = [_axis_size(lo, hi, step) for lo, hi in box]
    n, m = layout.n, layout.m
    evaluations = prod(sizes[n : n + m]) * (prod(sizes[:n]) + prod(sizes[n + m :]))
    if evaluations > guard:
        raise GridCapacityError(
            f"{evaluations} grid evaluations exceed the guard of {guard}"
        )
    return sizes


def grid_min(
    instance: ProblemInstance,
    box: Sequence[tuple[float, float]],
    step: float,
    guard: int = EVALUATION_GUARD,
) -> OracleResult:
    """Minimum of the objective over feasible grid points of ``box``.

    The box must cover the feasible set (user-asserted) and gets one
    (lo, hi) pair per variable.  The reported minimum sits within an
    O(step) margin of the true minimum; see :func:`lipschitz_margin`.
    """
    layout = instance.layout
    sizes = check_grid(instance, box, step, guard)
    n, m = layout.n, layout.m
    axes = [np.linspace(lo, hi, size) for (lo, hi), size in zip(box, sizes)]

    f_xy, f_yz = instance.split_objective()
    x_grid = _grid(axes[:n])
    z_grid = _grid(axes[n + m :])

    best = np.inf
    best_point: tuple[float, ...] | None = None
    feasible_count = 0

    x_cols = np.zeros((x_grid.shape[0], layout.nvars))
    x_cols[:, :n] = x_grid
    z_cols = np.zeros((z_grid.shape[0], layout.nvars))
    z_cols[:, n + m :] = z_grid

    for y_row in _grid(axes[n : n + m]):
        x_cols[:, n : n + m] = y_row
        z_cols[:, n : n + m] = y_row

        feas_x = np.ones(x_grid.shape[0], dtype=bool)
        for g in instance.g_constraints:
            feas_x &= _eval_on(g, x_cols) >= -FEASIBILITY_SLACK
        if not feas_x.any():
            continue
        feas_z = np.ones(z_grid.shape[0], dtype=bool)
        for h in instance.h_constraints:
            feas_z &= _eval_on(h, z_cols) >= -FEASIBILITY_SLACK
        if not feas_z.any():
            continue

        vals_x = _eval_on(f_xy, x_cols)[feas_x]
        vals_z = _eval_on(f_yz, z_cols)[feas_z]
        ix = int(np.argmin(vals_x))
        iz = int(np.argmin(vals_z))
        value = float(vals_x[ix] + vals_z[iz])
        feasible_count += int(feas_x.sum()) * int(feas_z.sum())
        if value < best:
            best = value
            x_best = x_grid[np.flatnonzero(feas_x)[ix]]
            z_best = z_grid[np.flatnonzero(feas_z)[iz]]
            best_point = tuple(float(v) for v in (*x_best, *y_row, *z_best))

    if best_point is None:
        raise EmptyFeasibleError("no feasible grid point in the given box")
    return OracleResult(best, best_point, step, feasible_count)


def lipschitz_margin(
    instance: ProblemInstance, box: Sequence[tuple[float, float]], step: float
) -> float:
    """Documented O(step) error margin: step times a crude gradient bound.

    Bounds each partial derivative by sum |c| * deg over the objective's
    terms scaled by the largest box radius, then takes the 1-norm step of a
    grid cell (step per coordinate).
    """
    radius = max((max(abs(lo), abs(hi)) for lo, hi in box), default=1.0)
    radius = max(radius, 1.0)
    grad_bound = 0.0
    for exp, coeff in instance.objective.terms.items():
        deg = sum(exp)
        if deg:
            grad_bound += abs(float(coeff)) * deg * radius ** (deg - 1)
    return step * grad_bound * instance.layout.nvars
