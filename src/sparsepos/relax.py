"""Assembly of the relaxation hierarchy variants.

Each sum-of-squares variant is a sum of cones, one per side, written as one
row of :data:`RECIPES`: the program ``mode`` and the ordered sides.  A
:class:`Side` names its block label family, the constraints it multiplies
(g, h, both or none), the variable block its PSD blocks live on, and its
weights: all subset products of those constraints, the nonempty ones, or the
empty product plus the singletons.  Each weight w gets a localizing matrix on
the side's block at order r - ceil(deg w / 2), so every constraint a side
multiplies must be supported on the side's block; :func:`assemble` checks
this and raises :class:`ModeError` otherwise.

  schmudgen-sparse  P(g) on (X,Y) + P(h) on (Y,Z): all subset products
  putinar-sparse    Q(g) on (X,Y) + Q(h) on (Y,Z): empty set and singletons
  dense             subset products of both families together, over all
                    variables jointly (the unstructured baseline)
  product           an unweighted (X,Y) moment block + nonempty g-products
                    on X alone + P(h) on (Y,Z); applies when every g is in X

:func:`assemble` builds every program from its row, :func:`min_order` reads
the smallest admissible order off the same row, and a certificate term gets
its block and weight from the side of its (mode, family), see
:func:`recipe_side`.  The fifth variant, krivine, is a cone LP with scalar
rows L_u(g^a (1-g)^b) >= 0 over degree-filtered power pairs; it needs
constraints normalized into [0, 1] and uses the schmudgen row's order.

Sparse assemblies never reference a moment index with simultaneously
positive X and Z degree, because every block lives on (X,Y) or (Y,Z);
pure-Y moments are shared between the two sides through the global index.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache
from typing import Iterable, Iterator, Sequence

from .moments import SymbolicMatrix, half_degree, localizing_matrix
from .poly import MAX_DEGREE, BlockLayout, Exponent, LayoutError, Polynomial, grlex_key
from .problem import ProblemInstance


class OrderError(ValueError):
    """Relaxation order below the smallest admissible order."""


class CapacityError(ValueError):
    """Subset enumeration would exceed the desk-scale guard."""


class ModeError(ValueError):
    """A constraint the variant multiplies on a block is not supported there."""


class NormalizationError(ValueError):
    """Cone assembly requires constraints normalized into [0, 1]."""


class BoundError(ValueError):
    """A normalization bound is unusable (nonpositive or wrong count)."""


@dataclass(frozen=True)
class BlockLabel:
    """Identifies one PSD block: constraint family, subset, variable block.
    The block's weight is its matrix's."""

    family: str  # "xy" | "yz" | "sigma_xy" | "dense"
    subset: tuple[int, ...]
    block: str  # "x" | "xy" | "yz" | "xyz"

    def name(self) -> str:
        if self.family == "sigma_xy":
            return "sos@xy"
        prefix = {"xy": "g", "yz": "h", "dense": "c"}[self.family]
        if not self.subset:
            return f"1@{self.block}"
        body = "*".join(f"{prefix}{j + 1}" for j in self.subset)
        return f"{body}@{self.block}"


@dataclass(frozen=True)
class ConicProgram:
    """Moment relaxation in block-PSD form.

    ``variable_index`` lists every referenced moment index as an exponent
    tuple in graded-lex order; position 0 is the zero exponent, pinned to 1
    (a probability measure's mass).  ``objective`` holds the exact
    coefficients of f by packed exponent, as the blocks' terms do.
    """

    layout: BlockLayout
    mode: str
    order: int
    variable_index: tuple[Exponent, ...]
    objective: dict[int, Fraction]
    psd_blocks: tuple[tuple[BlockLabel, SymbolicMatrix], ...]

    @property
    def num_blocks(self) -> int:
        return len(self.psd_blocks)

    @property
    def max_block_size(self) -> int:
        return max((m.size for _, m in self.psd_blocks), default=0)


#: Row label of the cone LP: (family, alpha powers, beta powers).
RowKey = tuple[str, tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True)
class LinearProgram:
    """Cone relaxation: rows demand L_u(g^a (1-g)^b) >= 0; row forms and
    ``objective`` are keyed as in :class:`ConicProgram`."""

    layout: BlockLayout
    order: int
    variable_index: tuple[Exponent, ...]
    objective: dict[int, Fraction]
    rows: tuple[tuple[RowKey, dict[int, Fraction]], ...]
    scaling: tuple[Fraction, ...]

    @property
    def num_rows(self) -> int:
        return len(self.rows)


def enumerate_products(
    constraints: Sequence[Polynomial], layout: BlockLayout
) -> list[tuple[tuple[int, ...], Polynomial, int]]:
    """All subset products of ``constraints`` with their half-degrees.

    The empty subset yields the constant 1 with half-degree 0.  Refuses more
    than 12 constraints (4096 products); the quadratic-module
    (putinar) variant is the escape hatch at that scale.
    """
    if len(constraints) > 12:
        raise CapacityError(
            f"{len(constraints)} constraints would enumerate 2^{len(constraints)} "
            f"subset products; use the putinar variant instead"
        )
    products: dict[tuple[int, ...], Polynomial] = {(): Polynomial.constant(layout, 1)}
    for j, g in enumerate(constraints):
        for subset in list(products):
            products[subset + (j,)] = products[subset] * g
    out = []
    for subset in sorted(products, key=lambda s: (len(s), s)):
        poly = products[subset]
        out.append((subset, poly, half_degree(poly)))
    return out


@dataclass(frozen=True)
class Side:
    """One cone of a relaxation: weighted PSD blocks on one variable block."""

    family: str  # BlockLabel family: "xy" | "yz" | "sigma_xy" | "dense"
    constraints: str  # families multiplied: "g", "h", "gh" or "" (none)
    block: str  # "x" | "xy" | "yz" | "xyz"
    weights: str  # "all" | "nonempty" | "singletons"

    def constraint_list(self, instance: ProblemInstance) -> tuple[Polynomial, ...]:
        """The constraints this side multiplies; subsets index into it."""
        families = {"g": instance.g_constraints, "h": instance.h_constraints}
        return tuple(p for c in self.constraints for p in families[c])

    def products(
        self, instance: ProblemInstance
    ) -> list[tuple[tuple[int, ...], Polynomial, int]]:
        """(subset, weight, half-degree) of every weight, in block order."""
        constraints = self.constraint_list(instance)
        if self.weights == "singletons":
            # Never enumerates the subsets: this is the escape hatch at scale.
            one = Polynomial.constant(instance.layout, 1)
            return [((), one, 0)] + [
                ((j,), g, half_degree(g)) for j, g in enumerate(constraints)
            ]
        products = enumerate_products(constraints, instance.layout)
        return products[1:] if self.weights == "nonempty" else products

    def min_order(self, instance: ProblemInstance) -> int:
        """Largest half-degree among the weights, read off the degrees."""
        degs = [g.degree for g in self.constraint_list(instance)]
        if self.weights == "singletons":
            return max(((d + 1) // 2 for d in degs), default=0)
        return (sum(degs) + 1) // 2

    def weight(self, instance: ProblemInstance, subset: Sequence[int]) -> Polynomial:
        """The product of the constraints in ``subset``."""
        constraints = self.constraint_list(instance)
        weight = Polynomial.constant(instance.layout, 1)
        for j in subset:
            if not 0 <= j < len(constraints):
                raise ValueError(f"subset index {j} outside the {len(constraints)} constraints")
            weight = weight * constraints[j]
        return weight


@dataclass(frozen=True)
class Recipe:
    """A relaxation: program mode and sides in block order."""

    mode: str
    sides: tuple[Side, ...]


RECIPES: dict[str, Recipe] = {
    "schmudgen-sparse": Recipe("schmudgen", (
        Side("xy", "g", "xy", "all"),
        Side("yz", "h", "yz", "all"),
    )),
    "putinar-sparse": Recipe("putinar", (
        Side("xy", "g", "xy", "singletons"),
        Side("yz", "h", "yz", "singletons"),
    )),
    "dense": Recipe("dense", (
        Side("dense", "gh", "xyz", "all"),
    )),
    # The empty g product would duplicate a submatrix of the unweighted
    # (X,Y) block, so the X side starts at the nonempty products.
    "product": Recipe("product", (
        Side("sigma_xy", "", "xy", "all"),
        Side("xy", "g", "x", "nonempty"),
        Side("yz", "h", "yz", "all"),
    )),
}

VARIANTS = (*RECIPES, "krivine")


def recipe_side(mode: str, family: str) -> Side:
    """The side that builds the ``family`` blocks of a ``mode`` program."""
    for recipe in RECIPES.values():
        if recipe.mode == mode:
            for side in recipe.sides:
                if side.family == family:
                    return side
            raise ValueError(f"no {family!r} family in {mode!r} relaxations")
    raise ValueError(f"unknown relaxation mode {mode!r}")


def min_order(instance: ProblemInstance, variant: str = "schmudgen-sparse") -> int:
    """Smallest admissible relaxation order for ``variant``.

    The order must cover half the objective degree and the half-degree of
    every weight of the variant's recipe.  Krivine uses the schmudgen row:
    its rows reach the degree of the full subset products.
    """
    recipe = RECIPES.get("schmudgen-sparse" if variant == "krivine" else variant)
    if recipe is None:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    fdeg = (instance.objective.degree + 1) // 2
    return max([fdeg] + [side.min_order(instance) for side in recipe.sides])


def _moment_index(instance: ProblemInstance, forms: Iterable) -> tuple[Exponent, ...]:
    """Unit, f and ``forms`` packed moments, each unpacked once, grlex-sorted."""
    packed = {0, *instance.objective.nums}.union(*forms)
    return tuple(sorted(map(instance.layout.unpack, packed), key=grlex_key))


def _objective(f: Polynomial) -> dict[int, Fraction]:
    return {p: Fraction(v, f.den) for p, v in f.nums.items()}


def assemble(instance: ProblemInstance, variant: str, r: int) -> ConicProgram | LinearProgram:
    """Order-``r`` relaxation ``variant``: the cone LP for krivine, else one
    localizing block per weight of every side of the variant's recipe."""
    recipe = RECIPES.get(variant)
    if variant == "krivine" and instance.krivine_scaling is None:
        raise NormalizationError(
            "cone assembly requires normalize_krivine to run first "
            "(constraints must be scaled into [0, 1] on the feasible set)"
        )
    for side in recipe.sides if recipe else ():
        # Only the product variant's X side can fail: g is validated on (X,Y).
        if not all(c.is_supported_on(side.block) for c in side.constraint_list(instance)):
            raise ModeError(
                f"{variant} assembly needs every {side.constraints} constraint "
                f"supported on the {side.block} block"
            )
    r0 = min_order(instance, variant)
    if r < r0:
        raise OrderError(f"order {r} below the minimum admissible order {r0} for {variant}")
    if recipe is None:
        return _cone_program(instance, r)
    blocks = [
        (
            BlockLabel(side.family, subset, side.block),
            localizing_matrix(weight, side.block, r - half),
        )
        for side in recipe.sides
        for subset, weight, half in side.products(instance)
    ]
    return ConicProgram(
        layout=instance.layout,
        mode=recipe.mode,
        order=r,
        variable_index=_moment_index(instance, ((t[3] for t in m.terms) for _, m in blocks)),
        objective=_objective(instance.objective),
        psd_blocks=tuple(blocks),
    )


def assemble_sparse_schmudgen(instance: ProblemInstance, r: int) -> ConicProgram:
    """Preordering relaxation P(g) on (X,Y) plus P(h) on (Y,Z)."""
    return assemble(instance, "schmudgen-sparse", r)


def assemble_sparse_putinar(instance: ProblemInstance, r: int) -> ConicProgram:
    """Quadratic-module relaxation Q(g) on (X,Y) plus Q(h) on (Y,Z)."""
    return assemble(instance, "putinar-sparse", r)


def assemble_dense(instance: ProblemInstance, r: int) -> ConicProgram:
    """Unstructured baseline: subset products of both families, jointly."""
    return assemble(instance, "dense", r)


def assemble_product(instance: ProblemInstance, r: int) -> ConicProgram:
    """Cartesian-product relaxation; every g constraint must lie in X."""
    return assemble(instance, "product", r)


def assemble_krivine(instance: ProblemInstance, r: int) -> LinearProgram:
    """Cone (LP) relaxation; needs a normalized instance."""
    return assemble(instance, "krivine", r)


def _power_pairs(degs: Sequence[int], budget: int):
    """All (alpha, beta) power pairs with sum_j (alpha_j + beta_j) deg_j <= budget."""

    def rec(j: int, remaining: int):
        if j == len(degs):
            yield ((), ())
            return
        d = degs[j]
        top = remaining // d
        for a in range(top + 1):
            for b in range(top - a + 1):
                for alpha, beta in rec(j + 1, remaining - (a + b) * d):
                    yield ((a,) + alpha, (b,) + beta)

    return rec(0, budget)


def _interleaved(pair: tuple[tuple[int, ...], tuple[int, ...]]) -> tuple[int, ...]:
    """Powers of a pair in factor order: (a_1, b_1, a_2, b_2, ...)."""
    return tuple(k for ab in zip(*pair) for k in ab)


def cone_products(
    constraints: Sequence[Polynomial],
    layout: BlockLayout,
    pairs: Iterable[tuple[tuple[int, ...], tuple[int, ...]]],
) -> Iterator[tuple[tuple[tuple[int, ...], tuple[int, ...]], Polynomial]]:
    """Yield ``((alpha, beta), prod_j g_j^a_j (1 - g_j)^b_j)`` for each pair.

    The pairs are walked depth-first, in lexicographic order of their
    interleaved powers, so consecutive pairs share their leading factors: a
    stack holds the partial product of every factor of the current prefix,
    and each power of g_j and 1 - g_j is computed once.  Only O(depth)
    partial products are alive at once.  A pair of degree above
    ``MAX_DEGREE`` raises ``LayoutError`` before any product is formed.
    """
    walk = sorted((_interleaved(pair), pair) for pair in pairs)
    degs = [g.degree for g in constraints for _ in "ab"]  # of each factor
    for ks, pair in walk:
        if (degree := sum(k * d for k, d in zip(ks, degs))) > MAX_DEGREE:
            raise LayoutError(f"cone product {pair} has degree {degree} above {MAX_DEGREE}")
    one = Polynomial.constant(layout, 1)

    @cache
    def power(t: int, k: int) -> Polynomial:
        """Factor t of the interleaved order, g_j at t = 2j and 1 - g_j at
        t = 2j + 1, to the k >= 1."""
        if k > 1:
            return power(t, k - 1) * power(t, 1)
        g = constraints[t // 2]
        return one - g if t % 2 else g

    stack = [one]  # stack[t]: product of the first t factors of ``prefix``
    prefix: tuple[int, ...] = ()
    for ks, pair in walk:
        shared = 0
        for old, new in zip(prefix, ks):
            if old != new:
                break
            shared += 1
        del stack[shared + 1 :]
        for t in range(shared, len(ks)):
            stack.append(stack[-1] * power(t, ks[t]) if ks[t] else stack[-1])
        prefix = ks
        yield pair, stack[-1]


def _cone_rows(
    family: str, constraints: Sequence[Polynomial], layout: BlockLayout, r: int
) -> list[tuple[RowKey, dict[int, Fraction]]]:
    degs = [g.degree for g in constraints]
    # Rows repeat few distinct coefficients and monomials: one Fraction per
    # (den, numerator) and one int object per packed exponent.
    fractions: dict[int, dict[int, Fraction]] = {}
    exps: dict[int, int] = {}
    rows = []
    walk = cone_products(constraints, layout, _power_pairs(degs, 2 * r))
    for (alpha, beta), product in walk:
        den = product.den
        over = fractions.setdefault(den, {})
        form = {}
        for p, v in product.nums.items():
            c = over.get(v)
            if c is None:
                c = over[v] = Fraction(v, den)
            form[exps.setdefault(p, p)] = c
        rows.append(((family, alpha, beta), form))
    rows.sort(key=lambda row: (sum(row[0][1]) + sum(row[0][2]), row[0][1], row[0][2]))
    return rows


def _cone_program(instance: ProblemInstance, r: int) -> LinearProgram:
    """Cone (LP) relaxation over products g^a (1-g)^b and h^a (1-h)^b.

    Requires a normalized instance (see :func:`normalize_krivine`): each
    constraint must satisfy 0 <= g <= 1 on the feasible set, otherwise the
    rows are not valid inequalities for moments of measures on it.
    """
    rows = _cone_rows("xy", instance.g_constraints, instance.layout, r)
    rows += _cone_rows("yz", instance.h_constraints, instance.layout, r)
    return LinearProgram(
        layout=instance.layout,
        order=r,
        variable_index=_moment_index(instance, (form for _, form in rows)),
        objective=_objective(instance.objective),
        rows=tuple(rows),
        scaling=instance.krivine_scaling,
    )


def normalize_krivine(
    instance: ProblemInstance, upper_bounds: Sequence | None = None
) -> ProblemInstance:
    """Scale every constraint by an upper bound so that 0 <= g <= 1 holds on
    the feasible set, recording the divisors for certificate un-scaling.

    ``upper_bounds`` lists one bound per constraint, g family first; each
    must dominate the constraint on the feasible set (user-asserted).  When
    omitted, bounds come from a quadratic-module relaxation of each
    constraint's maximum, one order above its minimum admissible order.
    """
    if instance.krivine_scaling is not None:
        raise NormalizationError("instance is already normalized")
    total = len(instance.g_constraints) + len(instance.h_constraints)
    if upper_bounds is None:
        upper_bounds = _auto_upper_bounds(instance)
    if len(upper_bounds) != total:
        raise BoundError(f"expected {total} upper bounds, got {len(upper_bounds)}")
    bounds = []
    for b in upper_bounds:
        try:
            frac = b if isinstance(b, Fraction) else Fraction(b)
        except (OverflowError, ValueError) as exc:  # inf, nan
            raise BoundError(f"normalization bound must be a finite number, got {b}") from exc
        if frac <= 0:
            raise BoundError(f"normalization bound must be positive, got {b}")
        bounds.append(frac)
    ng = len(instance.g_constraints)
    scaled_g = tuple(
        g.scale(Fraction(1, 1) / b) for g, b in zip(instance.g_constraints, bounds[:ng])
    )
    scaled_h = tuple(
        h.scale(Fraction(1, 1) / b) for h, b in zip(instance.h_constraints, bounds[ng:])
    )
    return replace(
        instance,
        g_constraints=scaled_g,
        h_constraints=scaled_h,
        krivine_scaling=tuple(bounds),
    )


def _auto_upper_bounds(instance: ProblemInstance) -> list[Fraction]:
    # Maximizing g equals minimizing -g; a quadratic-module lower bound on
    # the latter therefore dominates sup g.  Imported lazily: the solver
    # consumes programs assembled here.
    from .solver import solve

    bounds: list[Fraction] = []
    names = (*instance.g_names, *instance.h_names)
    for name, poly in zip(names, (*instance.g_constraints, *instance.h_constraints)):
        sub = replace(instance, objective=-poly, krivine_scaling=None)
        r = min_order(sub, "putinar-sparse") + 1
        report = solve(assemble_sparse_putinar(sub, r), tol=1e-8)
        if report.status != "optimal":
            raise BoundError(
                f"automatic normalization failed: the maximum of constraint {name} "
                f"could not be bounded (bound solve ended with status {report.status}); "
                f"explicit upper bounds are needed"
            )
        upper = -report.dual_objective  # lambda, the certified side
        upper += 1e-8 * (1.0 + abs(upper))  # cushion for solver tolerance
        bounds.append(Fraction(upper).limit_denominator(10**9))
    return bounds
