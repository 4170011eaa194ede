"""Built-in problem instances used by the test suite and the demo scripts.

All data is exact rational and frozen in source; ``fivevar`` was drawn once
from a seeded generator and committed as literals so downstream golden
values stay stable.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import BlockLayout, Polynomial
from .problem import ProblemInstance


def _poly(layout: BlockLayout, terms: dict) -> Polynomial:
    return Polynomial.from_terms(layout, terms)


def twoballs() -> ProblemInstance:
    """x + (x-y)^2 + (y-z)^2 + z over two unit disks sharing y."""
    layout = BlockLayout(1, 1, 1)
    x = Polynomial.variable(layout, "x")
    y = Polynomial.variable(layout, "y")
    z = Polynomial.variable(layout, "z")
    f = x + (x - y) ** 2 + (y - z) ** 2 + z
    g = 1 - x**2 - y**2
    h = 1 - y**2 - z**2
    return ProblemInstance(layout, f, (g,), (h,))


def product_twoballs() -> ProblemInstance:
    """Same objective on the cartesian product [-1,1]_x times a (y,z) disk."""
    layout = BlockLayout(1, 1, 1)
    x = Polynomial.variable(layout, "x")
    y = Polynomial.variable(layout, "y")
    z = Polynomial.variable(layout, "z")
    f = x + (x - y) ** 2 + (y - z) ** 2 + z
    g = 1 - x**2
    h = 1 - y**2 - z**2
    return ProblemInstance(layout, f, (g,), (h,))


def interval() -> ProblemInstance:
    """Minimize x on [-1, 1]; the minimum is -1 at the left endpoint."""
    layout = BlockLayout(1, 0, 0)
    x = Polynomial.variable(layout, "x")
    return ProblemInstance(layout, x, (1 - x**2,), ())


def interval_affine() -> ProblemInstance:
    """Minimize x with the single affine constraint (1-x)/2 >= 0.

    With the complement (1+x)/2, the cone hierarchy sees exactly the
    interval [-1, 1]; the constraint is already normalized there.
    """
    layout = BlockLayout(1, 0, 0)
    x = Polynomial.variable(layout, "x")
    g = (1 - x).scale(Fraction(1, 2))
    return ProblemInstance(layout, x, (g,), ())


def constant5() -> ProblemInstance:
    """Constant objective 5 on [-1, 1]; every bound equals 5 exactly."""
    layout = BlockLayout(1, 0, 0)
    x = Polynomial.variable(layout, "x")
    return ProblemInstance(layout, Polynomial.constant(layout, 5), (1 - x**2,), ())


def fivevar() -> ProblemInstance:
    """Frozen random quadratic objective over two unit balls, n=2, m=1, p=2."""
    layout = BlockLayout(2, 1, 2)
    q = Fraction(1, 4)
    f = _poly(
        layout,
        {
            (1, 0, 0, 0, 0): q,
            (0, 1, 0, 0, 0): -2 * q,
            (2, 0, 0, 0, 0): -2 * q,
            (1, 1, 0, 0, 0): -2 * q,
            (1, 0, 1, 0, 0): -2 * q,
            (0, 1, 1, 0, 0): -q,
            (0, 0, 2, 0, 0): q,
            (0, 0, 0, 0, 1): 2 * q,
            (0, 0, 1, 1, 0): 2 * q,
            (0, 0, 1, 0, 1): q,
            (0, 0, 0, 2, 0): -2 * q,
            (0, 0, 0, 1, 1): -2 * q,
            (0, 0, 0, 0, 2): 2 * q,
        },
    )
    g = _poly(
        layout,
        {(0, 0, 0, 0, 0): 1, (2, 0, 0, 0, 0): -1, (0, 2, 0, 0, 0): -1, (0, 0, 2, 0, 0): -1},
    )
    h = _poly(
        layout,
        {(0, 0, 0, 0, 0): 1, (0, 0, 2, 0, 0): -1, (0, 0, 0, 2, 0): -1, (0, 0, 0, 0, 2): -1},
    )
    return ProblemInstance(layout, f, (g,), (h,))


REGISTRY = {
    "twoballs": twoballs,
    "product": product_twoballs,
    "interval": interval,
    "interval-affine": interval_affine,
    "constant5": constant5,
    "fivevar": fivevar,
}

#: Default oracle boxes and steps for the built-in instances.
ORACLE_SETTINGS = {
    "twoballs": ([(-1.0, 1.0)] * 3, 0.005),
    "product": ([(-1.0, 1.0)] * 3, 0.005),
    "interval": ([(-1.0, 1.0)], 0.001),
    "interval-affine": ([(-1.0, 1.0)], 0.001),
    "constant5": ([(-1.0, 1.0)], 0.001),
    "fivevar": ([(-1.0, 1.0)] * 5, 0.02),
}

TWOBALLS_TEXT = """\
# two unit disks sharing the middle variable
vars x : X; y : Y; z : Z;
minimize x + (x - y)^2 + (y - z)^2 + z;
st g1: 1 - x^2 - y^2 >= 0;
st h1: 1 - y^2 - z^2 >= 0;
"""


def get(name: str) -> ProblemInstance:
    try:
        return REGISTRY[name]()
    except KeyError:
        raise KeyError(f"unknown built-in instance {name!r}; have {sorted(REGISTRY)}")
