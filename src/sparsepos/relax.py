"""Assembly of the relaxation hierarchy variants.

Each variant is a sum of cones, one per side, written as one row of
:data:`RECIPES`: the program ``mode``, its PSD sides and its row sides.  A
:class:`Side` names its label family, the constraints it multiplies (g, h,
both or none), its variable block, and its weights: all subset products of
those constraints, the nonempty ones, or the empty product plus the
singletons.  :meth:`Side.subsets` lists a side's weight subsets in block
order and :meth:`Side.weight` builds each weight; assembly and certificate
verification both weight through that one call, and both scale a row side's
constraints with :func:`normalize_krivine`.  A PSD side gives each weight w
a localizing matrix on its block at order r - ceil(deg w / 2); a row side
gives scalar rows L_u(g^a (1-g)^b) >= 0 over the top shell of power pairs
(see :func:`_power_pairs`), valid once its constraints are normalized into
[0, 1]; the rows and a certificate's cone sum (:func:`cone_sum`) come from
one recursion over the trie of those powers.  Every constraint a side
multiplies must be supported on the side's block; :func:`assemble` checks
this and raises :class:`ModeError` otherwise.

  schmudgen-sparse  P(g) on (X,Y) + P(h) on (Y,Z): all subset products
  putinar-sparse    Q(g) on (X,Y) + Q(h) on (Y,Z): empty set and singletons
  dense             subset products of both families together, over all
                    variables jointly (the unstructured baseline)
  product           an unweighted (X,Y) moment block + nonempty g-products
                    on X alone + P(h) on (Y,Z); applies when every g is in X
  krivine           rows of g^a (1-g)^b on (X,Y) + h^a (1-h)^b on (Y,Z)

:func:`assemble` builds every program from its row, :func:`min_order` reads
the smallest admissible order off the same row, and a certificate term gets
its block and weight from the PSD side of its family in the row of its
mode, see :meth:`Recipe.side`.  A program with rows and no PSD block,
krivine's cone LP, is a :class:`LinearProgram`.

Sparse assemblies never reference a moment index with simultaneously
positive X and Z degree, because every block and row lives on (X,Y) or
(Y,Z); pure-Y moments are shared between the two sides through the global
index.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain, combinations, groupby
from math import lcm, prod
from typing import Iterable, Mapping, Sequence

from .moments import SymbolicMatrix, half_degree, localizing_matrix
from .poly import MAX_DEGREE, BlockLayout, Exponent, LayoutError, Polynomial, grlex_key, mul_nums
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
    """A normalization bound is unusable (not a positive finite number, or wrong count)."""


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


#: Row label of the cone LP: (family, alpha powers, beta powers).
RowKey = tuple[str, tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True)
class ConicProgram:
    """Moment relaxation: PSD blocks, then nonnegative scalar rows.

    ``variable_index`` lists every referenced moment index as an exponent
    tuple in graded-lex order; position 0 is the zero exponent, pinned to 1
    (a probability measure's mass).  ``objective``, the blocks' terms and
    the row forms hold exact coefficients by packed exponent.  A row's
    constraints are divided by ``scaling``, one divisor each, g family first.
    """

    layout: BlockLayout
    mode: str
    order: int
    variable_index: tuple[Exponent, ...]
    objective: dict[int, Fraction]
    psd_blocks: tuple[tuple[BlockLabel, SymbolicMatrix], ...] = ()
    rows: tuple[tuple[RowKey, dict[int, Fraction]], ...] = ()
    scaling: tuple[Fraction, ...] | None = None

    @property
    def num_blocks(self) -> int:
        return len(self.psd_blocks)

    @property
    def max_block_size(self) -> int:
        return max((m.size for _, m in self.psd_blocks), default=0)

    @property
    def num_rows(self) -> int:
        return len(self.rows)


@dataclass(frozen=True, kw_only=True)
class LinearProgram(ConicProgram):
    """A program with rows and no PSD block, such as krivine's cone LP; the
    name stays for callers that pick it out by type (the benchmark's ladder
    does)."""

    mode: str = "krivine"


@dataclass(frozen=True)
class Side:
    """One cone of a relaxation on one variable block: weighted PSD blocks,
    or, as a row side, the scalar cone rows of its constraints."""

    family: str  # BlockLabel family: "xy" | "yz" | "sigma_xy" | "dense"
    constraints: str  # families multiplied: "g", "h", "gh" or "" (none)
    block: str  # "x" | "xy" | "yz" | "xyz"
    weights: str  # "all" | "nonempty" | "singletons"

    def constraint_list(self, instance: ProblemInstance) -> tuple[Polynomial, ...]:
        """The constraints this side multiplies; subsets index into it."""
        families = {"g": instance.g_constraints, "h": instance.h_constraints}
        return tuple(p for c in self.constraints for p in families[c])

    def subsets(self, instance: ProblemInstance) -> list[tuple[int, ...]]:
        """The subsets of :meth:`constraint_list` that weight the side's
        blocks, in block order: by size, then lexicographically.  Refuses
        more than 12 constraints (4096 products) unless the weights are the
        singletons, the escape hatch at that scale."""
        count = len(self.constraint_list(instance))
        if self.weights == "singletons":
            return [()] + [(j,) for j in range(count)]
        if count > 12:
            raise CapacityError(
                f"{count} constraints would enumerate 2^{count} "
                f"subset products; use the putinar variant instead"
            )
        first = 1 if self.weights == "nonempty" else 0
        return [s for k in range(first, count + 1) for s in combinations(range(count), k)]

    def min_order(self, instance: ProblemInstance) -> int:
        """Largest half-degree among the weights, read off the degrees (for
        a row side, with "all" weights, that of the full product)."""
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
    """A relaxation: program mode, PSD sides in block order, then row sides."""

    mode: str
    sides: tuple[Side, ...]
    rows: tuple[Side, ...] = ()

    def side(self, family: str) -> Side:
        """The PSD side that builds the ``family`` blocks; a recipe with no
        PSD side (krivine) has no SOS terms to build."""
        if not self.sides:
            raise ValueError(f"no sum-of-squares relaxation has mode {self.mode!r}")
        for side in self.sides:
            if side.family == family:
                return side
        raise ValueError(f"no {family!r} family in {self.mode!r} relaxations")


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
    # Rows of the top-shell products, the lower ones adding nothing since
    # g + (1 - g) = 1; they reach the degree of the full subset products.
    "krivine": Recipe("krivine", (), rows=(
        Side("xy", "g", "xy", "all"),
        Side("yz", "h", "yz", "all"),
    )),
}

VARIANTS = tuple(RECIPES)


def min_order(instance: ProblemInstance, variant: str = "schmudgen-sparse") -> int:
    """Smallest admissible relaxation order for ``variant``: it must cover
    half the objective degree and the half-degree of every weight of every
    side, PSD or row, of the variant's recipe."""
    if variant not in RECIPES:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    recipe = RECIPES[variant]
    fdeg = (instance.objective.degree + 1) // 2
    return max([fdeg] + [side.min_order(instance) for side in (*recipe.sides, *recipe.rows)])


def _moment_index(instance: ProblemInstance, forms: Iterable) -> tuple[Exponent, ...]:
    """Unit, f and ``forms`` packed moments, each unpacked once, grlex-sorted."""
    packed = {0, *instance.objective.nums}.union(*forms)
    return tuple(sorted(map(instance.layout.unpack, packed), key=grlex_key))


def _objective(f: Polynomial) -> dict[int, Fraction]:
    return {p: Fraction(v, f.den) for p, v in f.nums.items()}


def assemble(instance: ProblemInstance, variant: str, r: int) -> ConicProgram:
    """Order-``r`` relaxation ``variant`` from its recipe: one localizing
    block per weight of every PSD side (:meth:`Side.subsets`, each built by
    :meth:`Side.weight`), then the top-shell rows of every row side, on one
    moment index.  A program with rows and no block is a
    :class:`LinearProgram`; rows carry the instance's normalization divisors."""
    r0 = min_order(instance, variant)  # refuses an unknown variant
    recipe = RECIPES[variant]
    if recipe.rows and instance.krivine_scaling is None:
        # A row is a valid inequality for moments of measures on K only when
        # 0 <= g <= 1 holds there.
        raise NormalizationError(
            "cone assembly requires normalize_krivine to run first "
            "(constraints must be scaled into [0, 1] on the feasible set)"
        )
    for side in (*recipe.sides, *recipe.rows):
        # Only the product variant's X side can fail: g is validated on (X,Y).
        if not all(c.is_supported_on(side.block) for c in side.constraint_list(instance)):
            raise ModeError(
                f"{variant} assembly needs every {side.constraints} constraint "
                f"supported on the {side.block} block"
            )
    if r < r0:
        raise OrderError(f"order {r} below the minimum admissible order {r0} for {variant}")
    blocks = []
    for side in recipe.sides:
        for subset in side.subsets(instance):
            weight = side.weight(instance, subset)
            matrix = localizing_matrix(weight, side.block, r - half_degree(weight))
            blocks.append((BlockLabel(side.family, subset, side.block), matrix))
    rows = [
        row
        for side in recipe.rows
        for row in _cone_rows(side.family, side.constraint_list(instance), instance.layout, r)
    ]
    forms = chain(((t[3] for t in m.terms) for _, m in blocks), (form for _, form in rows))
    program = LinearProgram if rows and not blocks else ConicProgram
    return program(
        layout=instance.layout,
        mode=recipe.mode,
        order=r,
        variable_index=_moment_index(instance, forms),
        objective=_objective(instance.objective),
        psd_blocks=tuple(blocks),
        rows=tuple(rows),
        scaling=instance.krivine_scaling if rows else None,
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


def assemble_krivine(instance: ProblemInstance, r: int) -> LinearProgram:
    """Cone (LP) relaxation; needs a normalized instance."""
    return assemble(instance, "krivine", r)


def _power_pairs(degs: Sequence[int], budget: int, floor: int | None = None):
    """The top shell of (alpha, beta) power pairs: sum_j (alpha_j + beta_j)
    deg_j <= budget with a leftover below ``floor``, min(degs) by default,
    so no factor fits.

    A product P with room for g_j is P g_j + P (1 - g_j), so every lower
    pair is a nonnegative integer combination of top-shell pairs.  With no
    constraints the shell is the unit pair."""
    if floor is None:
        floor = min(degs, default=budget + 1)
    if not degs:
        if budget < floor:
            yield ((), ())
        return
    d, rest = degs[0], degs[1:]
    top = budget // d
    for a in range(top + 1):
        for b in range(top - a + 1):
            for alpha, beta in _power_pairs(rest, budget - (a + b) * d, floor):
                yield ((a,) + alpha, (b,) + beta)


def _cone_walk(constraints: Sequence[Polynomial], layout: BlockLayout, pairs: Iterable):
    """The trie of both cone recursions: ``(ks, pair)`` sorted by the powers in factor
    order, ks = (a_1, b_1, a_2, b_2, ...), each pair refused by ``LayoutError`` above
    ``MAX_DEGREE``, and powers[t][k], factor t (g_j at t = 2j, else 1 - g_j) to the
    k, for every k up to the largest the walk uses."""
    walk = sorted((tuple(k for ab in zip(*pair) for k in ab), pair) for pair in pairs)
    degs = [g.degree for g in constraints for _ in "ab"]  # of each factor
    for ks, pair in walk:
        if (degree := sum(k * d for k, d in zip(ks, degs))) > MAX_DEGREE:
            raise LayoutError(f"cone product {pair} has degree {degree} above {MAX_DEGREE}")
    one = Polynomial.constant(layout, 1)
    powers = []
    for t, top in enumerate(map(max, zip(*(ks for ks, _ in walk)))):
        g = constraints[t // 2]
        table = [one, one - g if t % 2 else g]
        while len(table) <= top:
            table.append(table[-1] * table[1])
        powers.append(table)
    return walk, powers


def cone_sum(constraints: Sequence[Polynomial], layout: BlockLayout, coeffs: Mapping):
    """Exactly ``sum c * prod_j g_j^a_j (1 - g_j)^b_j`` over ``coeffs``' ``(alpha, beta): c``,
    as one nested sum over the trie of :func:`_cone_walk`: a node at depth t sums
    F_t^k * S(child), so deep factors multiply partial sums in later variables."""
    walk, powers = _cone_walk(constraints, layout, coeffs)
    dens = (prod(powers[t][k].den for t, k in enumerate(ks)) for ks, _ in walk)
    den = lcm(*(coeffs[pair].as_integer_ratio()[1] * d for (_, pair), d in zip(walk, dens)))

    def node(t: int, items: list, scale: int) -> dict[int, int]:
        if t == 2 * len(constraints):  # a leaf; ``scale`` is its factors' denominator
            num, d = coeffs[items[0][1]].as_integer_ratio()
            return {0: num * (den // (d * scale))}
        sums: dict[int, int] = {}
        for k, group in groupby(items, key=lambda item: item[0][t]):
            factor = powers[t][k]
            mul_nums(factor.nums, node(t + 1, list(group), scale * factor.den), sums)
        return sums

    total = node(0, walk, 1) if walk else {}
    del node  # it calls itself, so free it (and ``coeffs``) now, not at a full collection
    return Polynomial(layout, total, den)


def _cone_rows(
    family: str, constraints: Sequence[Polynomial], layout: BlockLayout, r: int
) -> list[tuple[RowKey, dict[int, Fraction]]]:
    """One family's rows: the top-shell products of budget 2r, as forms, over the
    trie that :func:`cone_sum` sums: a node at depth t multiplies its partial
    product by F_t^k once for all its children."""
    pairs = _power_pairs([g.degree for g in constraints], 2 * r)
    walk, powers = _cone_walk(constraints, layout, pairs)
    # Rows repeat few distinct coefficients and monomials: one Fraction per
    # (den, numerator) and one int object per packed exponent.
    fractions: dict[int, dict[int, Fraction]] = {}
    exps: dict[int, int] = {}
    rows = []

    def node(t: int, items: list, product: Polynomial) -> None:
        if t == 2 * len(constraints):  # a leaf: one pair, one row
            over = fractions.setdefault(product.den, {})
            form = {}
            for p, v in product.nums.items():
                c = over.get(v)
                if c is None:
                    c = over[v] = Fraction(v, product.den)
                form[exps.setdefault(p, p)] = c
            rows.append(((family, *items[0][1]), form))
            return
        for k, group in groupby(items, key=lambda item: item[0][t]):
            node(t + 1, list(group), product * powers[t][k] if k else product)

    node(0, walk, Polynomial.constant(layout, 1))
    del node  # it calls itself, so free it now, not at a full collection
    rows.sort(key=lambda row: (sum(row[0][1]) + sum(row[0][2]), row[0][1], row[0][2]))
    return rows


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
        # b < 0 turns g >= 0 into g/b <= 0, so a certificate would rest on a
        # constraint of the wrong sign; b = 0 divides by zero.
        if frac <= 0:
            raise BoundError(f"normalization bound must be positive, got {b}")
        bounds.append(frac)
    divisors = iter(bounds)  # g family first
    scaled = {
        family: tuple(p.scale(1 / next(divisors)) for p in getattr(instance, family))
        for family in ("g_constraints", "h_constraints")
    }
    return replace(instance, **scaled, krivine_scaling=tuple(bounds))


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
