import numpy as np
import pytest

from sparsepos import problems
from sparsepos.oracle import (
    EmptyFeasibleError,
    GridCapacityError,
    grid_min,
    lipschitz_margin,
)
from sparsepos.poly import BlockLayout, Polynomial
from sparsepos.problem import ProblemInstance

UNIVARIATE = BlockLayout(1, 0, 0)
X1 = Polynomial.variable(UNIVARIATE, "x")


class TestGridMin:
    def test_square_minimum_at_zero(self):
        inst = ProblemInstance(UNIVARIATE, X1**2, (1 - X1**2,), ())
        res = grid_min(inst, [(-1, 1)], 0.01)
        assert res.minimum == 0.0
        assert res.argmin == (0.0,)

    def test_boundary_minimum(self):
        inst = problems.interval()
        res = grid_min(inst, [(-1, 1)], 0.001)
        assert res.minimum == -1.0
        assert res.argmin == (-1.0,)

    def test_feasibility_filter(self):
        # Constraint x - 1/2 >= 0 keeps only the right part of the box.
        inst = ProblemInstance(UNIVARIATE, X1, (X1 - Polynomial.constant(UNIVARIATE, 0.5),), ())
        res = grid_min(inst, [(-1, 1)], 0.25)
        assert res.minimum == 0.5
        assert res.feasible_count == 3  # 0.5, 0.75, 1.0

    def test_argmin_feasible_and_consistent(self):
        inst = problems.twoballs()
        res = grid_min(inst, [(-1, 1)] * 3, 0.05)
        assert inst.feasible(res.argmin, slack=1e-9)
        assert abs(float(inst.objective.evaluate(res.argmin)) - res.minimum) <= 1e-12

    def test_halving_never_increases(self):
        inst = problems.twoballs()
        coarse = grid_min(inst, [(-1, 1)] * 3, 0.04)
        fine = grid_min(inst, [(-1, 1)] * 3, 0.02)
        assert fine.minimum <= coarse.minimum + 1e-12
        assert coarse.minimum - fine.minimum <= lipschitz_margin(inst, [(-1, 1)] * 3, 0.04)

    def test_matches_full_product_scan(self):
        # Independent check of the decomposed scan on a coarse grid.
        import itertools

        import numpy as np

        inst = problems.twoballs()
        step = 0.25
        axis = np.linspace(-1, 1, 9)
        best = None
        count = 0
        for pt in itertools.product(axis, repeat=3):
            if not inst.feasible(pt, slack=1e-9):
                continue
            count += 1
            val = float(inst.objective.evaluate(pt))
            if best is None or val < best:
                best = val
        res = grid_min(inst, [(-1, 1)] * 3, step)
        assert abs(res.minimum - best) <= 1e-12
        assert res.feasible_count == count

    def test_capacity_guard(self, monkeypatch):
        inst = problems.twoballs()
        with pytest.raises(GridCapacityError):
            grid_min(inst, [(-1, 1)] * 3, 0.005, guard=1000)
        # The guard refuses from the point counts, before any axis exists:
        # 1e-7 would build three 2e7-point axes, 1e-300 cannot be built at
        # all, and 5e-324 overflows the count itself.
        def linspace(*args, **kwargs):
            raise AssertionError("axis allocated before the guard")

        monkeypatch.setattr(np, "linspace", linspace)
        for step in (1e-7, 1e-300, 5e-324):
            with pytest.raises(GridCapacityError):
                grid_min(inst, [(-1, 1)] * 3, step)
        with pytest.raises(GridCapacityError):
            grid_min(inst, [(-1e308, 1e308)] * 3, 1.0)

    def test_empty_feasible(self):
        inst = ProblemInstance(
            UNIVARIATE, X1, (X1 - Polynomial.constant(UNIVARIATE, 10),), ()
        )
        with pytest.raises(EmptyFeasibleError):
            grid_min(inst, [(-1, 1)], 0.1)

    def test_box_validation(self):
        with pytest.raises(ValueError):
            grid_min(problems.twoballs(), [(-1, 1)], 0.1)
        with pytest.raises(ValueError):
            grid_min(problems.twoballs(), [(-1, 1)] * 3, -0.1)
        # A non-finite endpoint or step is refused as such, not as a grid
        # too large to build.
        inf, nan = float("inf"), float("nan")
        for box, step in [
            ([(-inf, 1), (-1, 1), (-1, 1)], 0.1),
            ([(-1, 1), (-1, inf), (-1, 1)], 0.1),
            ([(-1, 1), (-1, 1), (nan, 1)], 0.1),
            ([(-1, 1)] * 3, inf),
            ([(-1, 1)] * 3, nan),
        ]:
            with pytest.raises(ValueError, match="finite") as err:
                grid_min(problems.twoballs(), box, step)
            assert not isinstance(err.value, GridCapacityError)
