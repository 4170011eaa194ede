"""Run a relaxation hierarchy over a range of orders and collect a report.

One row per order carries the bound, solver status, duality gap, block
statistics and wall time.  The bound is the certificate value lambda (the
solve's ``dual_objective``), the side a certificate proves, not the moment
side.  Rows that fail to assemble (order too low, capacity guards) or to
solve are recorded and the remaining orders still run.  A variant that does
not apply to the instance (product with a g that touches Y) raises
``relax.ModeError`` at the first order, before any row; an unusable oracle
grid (a box alone gets step 0.01, a step alone is refused), or krivine
bounds for a variant without cone rows, is refused before any solve; an
instance is normalized first for a variant with cone rows.
Bounds should be nondecreasing in the order; violations beyond tolerance
are flagged on the row.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from . import relax
from .certify import extract
from .oracle import OracleResult, check_grid, grid_min
from .problem import ProblemInstance
from .solver import OPTIMAL, SolveReport, solve

VARIANTS = relax.VARIANTS

#: Flagging threshold for bound decreases along the hierarchy.
MONOTONICITY_TOL = 1e-7

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3


class ConfigError(ValueError):
    """Unusable run configuration."""


@dataclass
class RunConfig:
    variant: str = "schmudgen-sparse"
    r_min: int | None = None
    r_max: int | None = None
    tol: float = 1e-8
    oracle_box: list[tuple[float, float]] | None = None
    oracle_step: float | None = None
    krivine_bounds: list | None = None


@dataclass
class RowResult:
    r: int
    bound: float | None
    status: str
    gap: float | None
    blocks: int
    max_block: int
    ms: float
    error: str | None = None
    monotonicity_violated: bool = False
    report: SolveReport | None = None
    program: object = None


@dataclass
class HierarchyResult:
    variant: str
    rows: list[RowResult] = field(default_factory=list)
    oracle: OracleResult | None = None
    certificate: object = None
    exit_code: int = EXIT_OK

    @property
    def slacks(self) -> list[tuple[int, float]]:
        if self.oracle is None:
            return []
        return [
            (row.r, self.oracle.minimum - row.bound)
            for row in self.rows
            if row.bound is not None
        ]


def run_hierarchy(instance: ProblemInstance, config: RunConfig) -> HierarchyResult:
    if config.variant not in VARIANTS:
        raise ConfigError(f"unknown variant {config.variant!r}; expected one of {VARIANTS}")
    rows = relax.RECIPES[config.variant].rows
    if config.krivine_bounds is not None and not rows:
        raise ConfigError(f"krivine bounds apply to cone rows; {config.variant} has none")
    if config.oracle_step is not None and config.oracle_box is None:
        raise ConfigError("--oracle-step requires --oracle-box")
    step = 0.01 if config.oracle_step is None else config.oracle_step
    if config.oracle_box is not None:
        check_grid(instance, config.oracle_box, step)
    if rows and instance.krivine_scaling is None:
        instance = relax.normalize_krivine(instance, config.krivine_bounds)

    r0 = relax.min_order(instance, config.variant)
    r_min = config.r_min if config.r_min is not None else r0
    r_max = config.r_max if config.r_max is not None else r_min
    if r_min > r_max:
        raise ConfigError(f"order range [{r_min}, {r_max}] is empty")

    result = HierarchyResult(variant=config.variant)
    had_config_error = False
    had_solver_error = False
    last_bound: float | None = None

    for r in range(r_min, r_max + 1):
        start = time.perf_counter()
        try:
            program = relax.assemble(instance, config.variant, r)
        except (relax.OrderError, relax.CapacityError, relax.NormalizationError) as exc:
            ms = 1000.0 * (time.perf_counter() - start)
            result.rows.append(RowResult(r, None, "order-error", None, 0, 0, ms, error=str(exc)))
            had_config_error = True
            continue

        report = solve(program, tol=config.tol)
        # A row is a 1 x 1 block.
        blocks = program.num_blocks + program.num_rows
        max_block = max(program.max_block_size, min(program.num_rows, 1))
        ms = 1000.0 * (time.perf_counter() - start)

        row = RowResult(
            r=r,
            bound=report.dual_objective if report.status == OPTIMAL else None,
            status=report.status,
            gap=report.residuals.gap,
            blocks=blocks,
            max_block=max_block,
            ms=ms,
            report=report,
            program=program,
        )
        if report.status != OPTIMAL:
            had_solver_error = True
        if row.bound is not None:
            if last_bound is not None and row.bound < last_bound - MONOTONICITY_TOL:
                row.monotonicity_violated = True
            last_bound = row.bound
        result.rows.append(row)

    # Certificate of the highest optimal order.
    for row in reversed(result.rows):
        if row.report is not None and row.report.status == OPTIMAL:
            result.certificate = extract(row.report, row.program)
            break

    if config.oracle_box is not None:
        result.oracle = grid_min(instance, config.oracle_box, step)

    if had_config_error:
        result.exit_code = EXIT_CONFIG
    elif had_solver_error:
        result.exit_code = EXIT_SOLVER
    return result
