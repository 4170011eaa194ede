"""Problem instances: objective, two constraint families, block membership.

An instance holds the minimization target f together with the g constraints
(supported on the X,Y variables) and the h constraints (supported on Y,Z).
Construction validates the block pattern so that everything downstream can
rely on it.  Whether the g's lie on X alone, the cartesian-product case, is
read off their supports by the relaxation that needs it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .poly import BlockLayout, LayoutError, Polynomial, check_sparsity


class BlockSupportError(ValueError):
    """A constraint polynomial strays outside its allowed variable block."""


@dataclass(frozen=True)
class ProblemInstance:
    """Minimize ``objective`` over the set where all constraints are >= 0.

    ``krivine_scaling`` is set by the normalization step that prepares an
    instance for the cone (LP) hierarchy; it records the divisor applied to
    each constraint, g family first.
    """

    layout: BlockLayout
    objective: Polynomial
    g_constraints: tuple[Polynomial, ...]
    h_constraints: tuple[Polynomial, ...]
    g_names: tuple[str, ...] = ()
    h_names: tuple[str, ...] = ()
    krivine_scaling: tuple[Fraction, ...] | None = None

    def __post_init__(self) -> None:
        if self.objective.layout != self.layout:
            raise LayoutError("all polynomials must share the instance layout")
        for family, block in (("g", "xy"), ("h", "yz")):
            polys = tuple(getattr(self, f"{family}_constraints"))
            names = getattr(self, f"{family}_names") or tuple(
                f"{family}{i + 1}" for i in range(len(polys))
            )
            object.__setattr__(self, f"{family}_constraints", polys)
            object.__setattr__(self, f"{family}_names", names)
            if len(names) != len(polys):
                raise LayoutError(f"one name per {family} constraint required")
            for name, poly in zip(names, polys):
                if poly.layout != self.layout:
                    raise LayoutError("all polynomials must share the instance layout")
                if poly.degree < 1:
                    raise BlockSupportError(f"constraint {name} is constant")
                if not poly.is_supported_on(block):
                    raise BlockSupportError(
                        f"constraint {name} must be supported on the {block} block"
                    )

        # Raises CouplingError when the objective mixes X and Z.
        check_sparsity(self.objective)

    def split_objective(self) -> tuple[Polynomial, Polynomial]:
        return check_sparsity(self.objective)

    def feasible(self, point, slack: float = 0.0) -> bool:
        """True when every constraint holds at ``point`` up to ``slack``."""
        return all(
            float(c.evaluate(point)) >= -slack
            for c in (*self.g_constraints, *self.h_constraints)
        )
