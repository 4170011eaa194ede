"""The benchmark's workloads: which rungs each one runs, in order.

A rung is one (instance, variant, order).  This module imports nothing
from sparsepos, so the parent process of a run can read it without
loading the package it measures.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Rung:
    instance: str
    variant: str
    order: int

    @property
    def id(self) -> str:
        return f"{self.instance}/{self.variant}/r{self.order}"


_SPARSE = (("twoballs", (1, 2, 3, 4)), ("fivevar", (2, 3)), ("ball313", (2, 3)), ("ball424", (2,)))
# The dense variant on the sparse rungs it can finish; the dense solve of
# ball313 at r=3 alone takes about 28 s.
_DENSE = (("fivevar", (2, 3)), ("ball313", (2,)), ("ball424", (2,)))

WORKLOADS: dict[str, list[Rung]] = {
    "sparse-ladder": [
        Rung(name, variant, r)
        for variant in ("schmudgen-sparse", "putinar-sparse")
        for name, orders in _SPARSE
        for r in orders
    ],
    "dense-ladder": [Rung(name, "dense", r) for name, orders in _DENSE for r in orders],
    "krivine-box": [Rung("box212", "krivine", r) for r in (2, 3, 4)],
    # A few seconds of every path, for the benchmark's own tests.
    "smoke": [
        Rung("twoballs", "schmudgen-sparse", 1),
        Rung("twoballs", "schmudgen-sparse", 2),
        Rung("fivevar", "schmudgen-sparse", 2),
        Rung("fivevar", "dense", 2),
        Rung("box212", "krivine", 2),
    ],
}

#: The rungs with the most moments; their wall time is ``largest_rung_s``.
#: With one constraint per side the two sparse variants assemble the same
#: program, so the sparse ladder has two such rungs.
LARGEST = {
    "sparse-ladder": (Rung("ball313", "schmudgen-sparse", 3), Rung("ball313", "putinar-sparse", 3)),
    "dense-ladder": (Rung("ball424", "dense", 2),),
    "krivine-box": (Rung("box212", "krivine", 4),),
    "smoke": (Rung("fivevar", "dense", 2),),
}

#: Rungs both SDP ladders run, and the variant each side's twin uses.
SHARED = [(name, r) for name, orders in _DENSE for r in orders]
TWIN_VARIANT = {"sparse": "schmudgen-sparse", "dense": "dense"}


def shared(workload: str) -> list[tuple[str, int]]:
    """Shared rungs whose sparse/dense ratios a traced run reports."""
    return [("fivevar", 2)] if workload == "smoke" else SHARED


def instances(workload: str) -> list[str]:
    return list(dict.fromkeys(r.instance for r in WORKLOADS[workload]))
