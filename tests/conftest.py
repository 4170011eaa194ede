"""Shared fixtures: the instance suite and a session-wide solve cache.

Acceptance criteria reuse the same solves (soundness, monotonicity,
ordering, round trips, duality gaps), so every (instance, variant, order)
triple is solved exactly once per session and the elapsed time is recorded.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import pytest

from sparsepos import problems, relax
from sparsepos.oracle import grid_min, lipschitz_margin
from sparsepos.solver import solve_lp, solve_sdp

SOLVE_TOL = 1e-8

# (variant -> (r_min, r_max)) per instance; dense needs order >= 2 when the
# full constraint product has degree 4.
SUITE = {
    "twoballs": {
        "schmudgen-sparse": (1, 3),
        "putinar-sparse": (1, 3),
        "dense": (2, 3),
        "krivine": (1, 3),
    },
    "product": {
        "product": (1, 3),
        "schmudgen-sparse": (1, 3),
        "putinar-sparse": (1, 3),
        "dense": (2, 3),
        "krivine": (1, 3),
    },
    "interval": {
        "schmudgen-sparse": (1, 3),
        "putinar-sparse": (1, 3),
        "dense": (1, 3),
        "krivine": (1, 3),
    },
    "constant5": {
        "schmudgen-sparse": (1, 3),
        "putinar-sparse": (1, 3),
        "dense": (1, 3),
        "krivine": (1, 3),
    },
    "fivevar": {
        "schmudgen-sparse": (1, 3),
        "putinar-sparse": (1, 3),
        "dense": (2, 3),
        "krivine": (1, 3),
    },
}


@dataclass
class SolveEntry:
    instance_name: str
    variant: str
    r: int
    program: object
    report: object
    seconds: float


def _prepared(name: str, variant: str):
    instance = problems.get(name)
    if variant == "krivine":
        k = len(instance.g_constraints) + len(instance.h_constraints)
        instance = relax.normalize_krivine(instance, [1] * k)
    return instance


@dataclass
class SuiteResults:
    entries: dict
    oracles: dict
    margins: dict
    seconds: float

    def rows(self):
        return self.entries.values()


@pytest.fixture(scope="session")
def suite() -> SuiteResults:
    start = time.perf_counter()
    entries = {}
    for name, variants in SUITE.items():
        for variant, (r_min, r_max) in variants.items():
            instance = _prepared(name, variant)
            for r in range(r_min, r_max + 1):
                t0 = time.perf_counter()
                program = relax.assemble(instance, variant, r)
                if variant == "krivine":
                    report = solve_lp(program, tol=SOLVE_TOL)
                else:
                    report = solve_sdp(program, tol=SOLVE_TOL)
                entries[(name, variant, r)] = SolveEntry(
                    name, variant, r, program, report, time.perf_counter() - t0
                )
    oracles = {}
    margins = {}
    for name in SUITE:
        box, step = problems.ORACLE_SETTINGS[name]
        instance = problems.get(name)
        oracles[name] = grid_min(instance, box, step)
        margins[name] = lipschitz_margin(instance, box, step)
    return SuiteResults(entries, oracles, margins, time.perf_counter() - start)
