from dataclasses import replace
from fractions import Fraction

import pytest

from sparsepos import problems
from sparsepos.cli import render_text
from sparsepos.hierarchy import (
    ConfigError,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_SOLVER,
    RunConfig,
    run_hierarchy,
)
from sparsepos.solver import solve

# Golden bounds from the embedded solver on the two-disk instance; the grid
# reference at step 0.005 lands exactly on (-0.8, -0.6, -0.8).
TWOBALLS_BOUND = -1.52034518
TWOBALLS_GRID_MIN = -1.52
GOLDEN_TOL = 1e-5


class TestRunHierarchy:
    def test_twoballs_goldens(self):
        config = RunConfig(
            variant="schmudgen-sparse",
            r_min=1,
            r_max=3,
            oracle_box=[(-1, 1)] * 3,
            oracle_step=0.005,
        )
        result = run_hierarchy(problems.twoballs(), config)
        assert result.exit_code == EXIT_OK
        assert [row.r for row in result.rows] == [1, 2, 3]
        for row in result.rows:
            assert row.status == "optimal"
            assert abs(row.bound - TWOBALLS_BOUND) <= GOLDEN_TOL
            assert not row.monotonicity_violated
        for lo, hi in zip(result.rows, result.rows[1:]):
            assert lo.bound <= hi.bound + 1e-7
        assert abs(result.oracle.minimum - TWOBALLS_GRID_MIN) <= 1e-12
        for row in result.rows:
            assert row.bound <= result.oracle.minimum + 1e-9
        assert result.certificate is not None
        assert result.certificate.order == 3

    def test_constant_objective_rows(self):
        config = RunConfig(variant="putinar-sparse", r_min=1, r_max=3)
        result = run_hierarchy(problems.constant5(), config)
        assert all(5.0 - 1e-7 <= row.bound <= 5.0 for row in result.rows)

    def test_decreasing_bound_flagged(self, monkeypatch):
        # Each order's bound is lowered by 1 more than the last one's.
        lowered = iter(range(3))

        def decreasing(program, **kwargs):
            report = solve(program, **kwargs)
            return replace(report, dual_objective=report.dual_objective - next(lowered))

        monkeypatch.setattr("sparsepos.hierarchy.solve", decreasing)
        result = run_hierarchy(problems.constant5(), RunConfig(r_min=1, r_max=3))
        assert [row.monotonicity_violated for row in result.rows] == [False, True, True]
        text = render_text(result).splitlines()
        assert ["optimal *" in line for line in text[2:5]] == [False, True, True]
        assert text[-1] == "  (*) bound decreased from the previous order beyond tolerance"

    def test_default_order_is_minimum(self):
        result = run_hierarchy(problems.twoballs(), RunConfig())
        assert [row.r for row in result.rows] == [1]
        assert result.rows[0].status == "optimal"

    def test_order_error_rows_continue(self):
        config = RunConfig(variant="dense", r_min=1, r_max=2)
        result = run_hierarchy(problems.twoballs(), config)
        assert result.exit_code == EXIT_CONFIG
        assert result.rows[0].status == "order-error"
        assert result.rows[1].status == "optimal"

    def test_solver_failure_exit(self):
        config = RunConfig(variant="krivine", r_min=1, krivine_bounds=[1, 1])
        result = run_hierarchy(problems.twoballs(), config)
        assert result.exit_code == EXIT_SOLVER
        assert result.rows[0].status == "unbounded"

    def test_empty_range_rejected(self):
        with pytest.raises(ConfigError):
            run_hierarchy(problems.twoballs(), RunConfig(r_min=3, r_max=1))

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError):
            run_hierarchy(problems.twoballs(), RunConfig(variant="cutting-planes"))

    def test_product_bound_below_generic_sparse(self):
        # The product assembly constrains g products on X alone, a weaker set
        # of blocks than the same products on (X,Y).
        instance = problems.product_twoballs()
        for r in (1, 2):
            product = run_hierarchy(instance, RunConfig(variant="product", r_min=r))
            generic = run_hierarchy(instance, RunConfig(variant="schmudgen-sparse", r_min=r))
            pb = product.rows[0].bound
            gb = generic.rows[0].bound
            assert pb is not None and gb is not None
            assert pb <= gb + 1e-7

    def test_krivine_auto_normalization(self):
        config = RunConfig(variant="krivine", r_min=1, r_max=2)
        result = run_hierarchy(problems.constant5(), config)
        assert result.exit_code == EXIT_OK
        assert all(5.0 - 1e-7 <= row.bound <= 5.0 for row in result.rows)

    def test_bound_below_objective_at_first_moments(self):
        # The first moments of each solve are an exactly feasible point, so f
        # there is an upper bound on the minimum and the row's lower bound
        # may not exceed it.
        instance = problems.twoballs()
        result = run_hierarchy(instance, RunConfig(r_min=1, r_max=3))
        layout = instance.layout
        for row in result.rows:
            assert row.status == "optimal"
            point = [
                Fraction(row.report.moments.get(unit))
                for unit in (tuple(int(i == j) for j in range(layout.nvars))
                             for i in range(layout.nvars))
            ]
            assert all(c.evaluate(point) >= 0
                       for c in (*instance.g_constraints, *instance.h_constraints))
            assert Fraction(row.bound) <= instance.objective.evaluate(point)

    def test_krivine_bounds_refused_for_other_variants(self):
        with pytest.raises(ConfigError, match="krivine"):
            run_hierarchy(problems.twoballs(), RunConfig(krivine_bounds=[1, 1]))

    def test_oracle_box_alone_gets_the_default_step(self):
        config = RunConfig(variant="putinar-sparse", r_min=1, oracle_box=[(-1.0, 1.0)])
        result = run_hierarchy(problems.constant5(), config)
        assert result.oracle is not None
        assert result.oracle.step == 0.01 and result.oracle.feasible_count == 201
        assert result.oracle.minimum == 5.0

    def test_oracle_step_alone_refused_before_any_solve(self, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the refusal")

        monkeypatch.setattr("sparsepos.hierarchy.solve", no_solve)
        config = RunConfig(variant="putinar-sparse", r_min=1, oracle_step=0.01)
        with pytest.raises(ConfigError, match="--oracle-step requires --oracle-box"):
            run_hierarchy(problems.constant5(), config)
