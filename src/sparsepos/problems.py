"""Built-in problem instances used by the test suite and the demo scripts:
problem files in :data:`TEXTS`, read by the parser of every user file
(:func:`cli.parse_problem`).  ``fivevar`` was drawn once from a seeded
generator and committed as exact rationals so golden values stay stable.
"""

from __future__ import annotations

from .cli import parse_problem
from .problem import ProblemInstance

TEXTS = {
    "twoballs": """\
# two unit disks sharing the middle variable
vars x : X; y : Y; z : Z;
minimize x + (x - y)^2 + (y - z)^2 + z;
st g1: 1 - x^2 - y^2 >= 0;
st h1: 1 - y^2 - z^2 >= 0;
""",
    "product": """\
vars x : X; y : Y; z : Z;
minimize x + (x - y)^2 + (y - z)^2 + z;
st g1: 1 - x^2 >= 0;
st h1: 1 - y^2 - z^2 >= 0;
""",
    "interval": """\
vars x : X;
minimize x;
st g1: 1 - x^2 >= 0;
""",
    "interval-affine": """\
vars x : X;
minimize x;
st g1: (1 - x)/2 >= 0;
""",
    "constant5": """\
vars x : X;
minimize 5;
st g1: 1 - x^2 >= 0;
""",
    "fivevar": """\
vars x1 : X; x2 : X; y : Y; z1 : Z; z2 : Z;
minimize x1/4 - x2/2 - x1^2/2 - x1*x2/2 - x1*y/2 - x2*y/4 + y^2/4
  + z2/2 + y*z1/2 + y*z2/4 - z1^2/2 - z1*z2/2 + z2^2/2;
st g1: 1 - x1^2 - x2^2 - y^2 >= 0;
st h1: 1 - y^2 - z1^2 - z2^2 >= 0;
""",
}

def get(name: str) -> ProblemInstance:
    if name not in TEXTS:
        raise KeyError(f"unknown built-in instance {name!r}; have {sorted(TEXTS)}")
    return parse_problem(TEXTS[name])


def twoballs() -> ProblemInstance:
    """x + (x-y)^2 + (y-z)^2 + z over two unit disks sharing y."""
    return get("twoballs")


def product_twoballs() -> ProblemInstance:
    """Same objective on the cartesian product [-1,1]_x times a (y,z) disk."""
    return get("product")


def interval() -> ProblemInstance:
    """Minimize x on [-1, 1]; the minimum is -1 at the left endpoint."""
    return get("interval")


def interval_affine() -> ProblemInstance:
    """Minimize x with the single affine constraint (1-x)/2 >= 0.

    With the complement (1+x)/2, the cone hierarchy sees exactly the
    interval [-1, 1]; the constraint is already normalized there.
    """
    return get("interval-affine")


def constant5() -> ProblemInstance:
    """Constant objective 5 on [-1, 1]; every bound equals 5 exactly."""
    return get("constant5")


def fivevar() -> ProblemInstance:
    """Frozen random quadratic objective over two unit balls, n=2, m=1, p=2."""
    return get("fivevar")


#: Default oracle boxes and steps for the built-in instances.
ORACLE_SETTINGS = {
    "twoballs": ([(-1.0, 1.0)] * 3, 0.005),
    "product": ([(-1.0, 1.0)] * 3, 0.005),
    "interval": ([(-1.0, 1.0)], 0.001),
    "interval-affine": ([(-1.0, 1.0)], 0.001),
    "constant5": ([(-1.0, 1.0)], 0.001),
    "fivevar": ([(-1.0, 1.0)] * 5, 0.02),
}
