"""Assembly of the relaxation hierarchy variants.

Five assemblies share one recipe: pick a family of weighted moment-matrix
blocks, collect the moment indices they reference, and minimize the linear
pairing of the objective against those moments subject to every block being
positive semidefinite (or, in the cone variant, subject to one scalar
inequality per constraint product).  The variants differ in which weights and
which variable blocks appear:

  schmudgen-sparse  one block per subset product of the g family on (X,Y)
                    and per subset product of the h family on (Y,Z)
  putinar-sparse    only the empty set and singletons on each side
  dense             subset products of both families together, over all
                    variables jointly (the unstructured baseline)
  product           an unweighted (X,Y) moment block plus g-products on X
                    alone and h-products on (Y,Z); needs product mode
  krivine           scalar rows L_u(g^a (1-g)^b) >= 0 over degree-filtered
                    power pairs; needs constraints normalized into [0, 1]

Sparse assemblies never reference a moment index with simultaneously
positive X and Z degree, because every block lives on (X,Y) or (Y,Z);
pure-Y moments are shared between the two sides through the global index.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .moments import SymbolicMatrix, half_degree, localizing_matrix, moment_matrix
from .poly import BlockLayout, Exponent, Polynomial, grlex_key
from .problem import ProblemInstance

#: Hard cap on enumerated subset products (2^12).
PRODUCT_CAP = 4096


class OrderError(ValueError):
    """Relaxation order below the smallest admissible order."""


class CapacityError(ValueError):
    """Subset enumeration would exceed the desk-scale guard."""


class ModeError(ValueError):
    """Assembly variant does not match the instance's mode."""


class NormalizationError(ValueError):
    """Cone assembly requires constraints normalized into [0, 1]."""


class BoundError(ValueError):
    """A normalization bound is unusable (nonpositive or wrong count)."""


@dataclass(frozen=True)
class BlockLabel:
    """Identifies one PSD block: constraint family, subset, variable block."""

    family: str  # "xy" | "yz" | "sigma_xy" | "dense"
    subset: tuple[int, ...]
    block: str  # "x" | "xy" | "yz" | "xyz"
    weight: Polynomial

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

    ``variable_index`` lists every referenced moment index in graded-lex
    order; position 0 is the zero exponent, pinned to 1 (the normalization
    of a probability measure's moments).  ``objective`` holds the exact
    coefficients of f keyed by moment index.
    """

    layout: BlockLayout
    mode: str
    order: int
    variable_index: tuple[Exponent, ...]
    objective: dict[Exponent, Fraction]
    psd_blocks: tuple[tuple[BlockLabel, SymbolicMatrix], ...]

    @property
    def num_blocks(self) -> int:
        return len(self.psd_blocks)

    @property
    def max_block_size(self) -> int:
        return max((m.size for _, m in self.psd_blocks), default=0)

    def validate(self) -> None:
        index = set(self.variable_index)
        if self.variable_index[0] != self.layout.zero_exponent:
            raise AssertionError("variable index must start with the unit moment")
        for _, matrix in self.psd_blocks:
            if not matrix.referenced_exponents() <= index:
                raise AssertionError("block references a moment outside the index")


#: Row label of the cone LP: (family, alpha powers, beta powers).
RowKey = tuple[str, tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True)
class LinearProgram:
    """Cone relaxation: rows demand L_u(g^a (1-g)^b) >= 0."""

    layout: BlockLayout
    order: int
    variable_index: tuple[Exponent, ...]
    objective: dict[Exponent, Fraction]
    rows: tuple[tuple[RowKey, dict[Exponent, Fraction]], ...]
    scaling: tuple[Fraction, ...]
    mode: str = "krivine"

    @property
    def num_rows(self) -> int:
        return len(self.rows)


def enumerate_products(
    constraints: Sequence[Polynomial],
    layout: BlockLayout | None = None,
    limit: int = 12,
) -> list[tuple[tuple[int, ...], Polynomial, int]]:
    """All subset products of ``constraints`` with their half-degrees.

    The empty subset yields the constant 1 with half-degree 0.  Refuses more
    than ``limit`` constraints (2^limit products); the quadratic-module
    (putinar) variant is the escape hatch at that scale.
    """
    if len(constraints) > limit:
        raise CapacityError(
            f"{len(constraints)} constraints would enumerate 2^{len(constraints)} "
            f"subset products; use the putinar variant instead"
        )
    if layout is None:
        if not constraints:
            raise ValueError("layout required to build the empty product")
        layout = constraints[0].layout
    products: dict[tuple[int, ...], Polynomial] = {(): Polynomial.constant(layout, 1)}
    for j, g in enumerate(constraints):
        for subset in list(products):
            products[subset + (j,)] = products[subset] * g
    out = []
    for subset in sorted(products, key=lambda s: (len(s), s)):
        poly = products[subset]
        out.append((subset, poly, half_degree(poly)))
    return out


def _objective_halfdeg(instance: ProblemInstance) -> int:
    return (instance.objective.degree + 1) // 2


def min_order(instance: ProblemInstance, variant: str = "schmudgen-sparse") -> int:
    """Smallest admissible relaxation order for ``variant``.

    The order must cover half the objective degree and the half-degree of
    every weight the variant uses: all subset products for the preordering
    variants, singletons only for the quadratic-module variant.
    """
    fdeg = _objective_halfdeg(instance)
    g_degs = [g.degree for g in instance.g_constraints]
    h_degs = [h.degree for h in instance.h_constraints]

    def prod_half(degs: list[int]) -> int:
        return (sum(degs) + 1) // 2

    def single_half(degs: list[int]) -> int:
        return max(((d + 1) // 2 for d in degs), default=0)

    if variant in ("schmudgen-sparse", "product", "krivine"):
        return max(fdeg, prod_half(g_degs), prod_half(h_degs))
    if variant == "putinar-sparse":
        return max(fdeg, single_half(g_degs), single_half(h_degs))
    if variant == "dense":
        return max(fdeg, prod_half(g_degs + h_degs))
    raise ValueError(f"unknown variant {variant!r}")


def _variable_index(
    layout: BlockLayout,
    matrices: Iterable[SymbolicMatrix],
    objective: Polynomial,
) -> tuple[Exponent, ...]:
    exps: set[Exponent] = {layout.zero_exponent}
    exps.update(objective.terms)
    for matrix in matrices:
        exps.update(matrix.referenced_exponents())
    return tuple(sorted(exps, key=grlex_key))


def _sos_program(
    instance: ProblemInstance,
    r: int,
    blocks: list[tuple[BlockLabel, SymbolicMatrix]],
    mode: str,
) -> ConicProgram:
    index = _variable_index(instance.layout, (m for _, m in blocks), instance.objective)
    return ConicProgram(
        layout=instance.layout,
        mode=mode,
        order=r,
        variable_index=index,
        objective=dict(instance.objective.terms),
        psd_blocks=tuple(blocks),
    )


def _require_order(r: int, r0: int, what: str) -> None:
    if r < r0:
        raise OrderError(f"order {r} below the minimum admissible order {r0} for {what}")


def assemble_sparse_schmudgen(instance: ProblemInstance, r: int) -> ConicProgram:
    """Preordering relaxation with one (X,Y) block per subset product of the
    g family and one (Y,Z) block per subset product of the h family."""
    if instance.product_mode:
        raise ModeError(
            "instance is in product mode; use the product assembly or "
            "switch the mode off for the generic sparse relaxation"
        )
    _require_order(r, min_order(instance, "schmudgen-sparse"), "schmudgen-sparse")
    blocks: list[tuple[BlockLabel, SymbolicMatrix]] = []
    for subset, weight, rg in enumerate_products(instance.g_constraints, instance.layout):
        label = BlockLabel("xy", subset, "xy", weight)
        blocks.append((label, localizing_matrix(weight, "xy", r - rg)))
    for subset, weight, rh in enumerate_products(instance.h_constraints, instance.layout):
        label = BlockLabel("yz", subset, "yz", weight)
        blocks.append((label, localizing_matrix(weight, "yz", r - rh)))
    return _sos_program(instance, r, blocks, "schmudgen")


def assemble_sparse_putinar(instance: ProblemInstance, r: int) -> ConicProgram:
    """Quadratic-module relaxation: only the empty and singleton weights."""
    _require_order(r, min_order(instance, "putinar-sparse"), "putinar-sparse")
    blocks: list[tuple[BlockLabel, SymbolicMatrix]] = []
    one = Polynomial.constant(instance.layout, 1)
    g_block = "x" if instance.product_mode else "xy"
    blocks.append(
        (BlockLabel("xy", (), "xy", one), moment_matrix(instance.layout, "xy", r))
    )
    for j, g in enumerate(instance.g_constraints):
        label = BlockLabel("xy", (j,), g_block, g)
        blocks.append((label, localizing_matrix(g, g_block, r - half_degree(g))))
    blocks.append(
        (BlockLabel("yz", (), "yz", one), moment_matrix(instance.layout, "yz", r))
    )
    for k, h in enumerate(instance.h_constraints):
        label = BlockLabel("yz", (k,), "yz", h)
        blocks.append((label, localizing_matrix(h, "yz", r - half_degree(h))))
    return _sos_program(instance, r, blocks, "putinar")


def assemble_dense(instance: ProblemInstance, r: int) -> ConicProgram:
    """Unstructured baseline: subset products of both families jointly,
    localized over all variables, with every moment up to degree 2r free."""
    _require_order(r, min_order(instance, "dense"), "dense")
    combined = list(instance.g_constraints) + list(instance.h_constraints)
    if 2 ** len(combined) > PRODUCT_CAP:
        raise CapacityError(
            f"dense preordering over {len(combined)} constraints exceeds "
            f"the {PRODUCT_CAP}-product guard"
        )
    blocks: list[tuple[BlockLabel, SymbolicMatrix]] = []
    for subset, weight, rc in enumerate_products(combined, instance.layout):
        label = BlockLabel("dense", subset, "xyz", weight)
        blocks.append((label, localizing_matrix(weight, "xyz", r - rc)))
    return _sos_program(instance, r, blocks, "dense")


def assemble_product(instance: ProblemInstance, r: int) -> ConicProgram:
    """Cartesian-product relaxation: one unweighted (X,Y) moment block, g
    products localized on X alone, h products on (Y,Z).

    The empty g product would duplicate a submatrix of the (X,Y) block, so
    only nonempty subsets get an X-block; its multiplier is absorbed by the
    unweighted block's sum-of-squares term.
    """
    if not instance.product_mode:
        raise ModeError("product assembly requires an instance in product mode")
    _require_order(r, min_order(instance, "product"), "product")
    one = Polynomial.constant(instance.layout, 1)
    blocks: list[tuple[BlockLabel, SymbolicMatrix]] = [
        (BlockLabel("sigma_xy", (), "xy", one), moment_matrix(instance.layout, "xy", r))
    ]
    for subset, weight, rg in enumerate_products(instance.g_constraints, instance.layout):
        if not subset:
            continue
        label = BlockLabel("xy", subset, "x", weight)
        blocks.append((label, localizing_matrix(weight, "x", r - rg)))
    for subset, weight, rh in enumerate_products(instance.h_constraints, instance.layout):
        label = BlockLabel("yz", subset, "yz", weight)
        blocks.append((label, localizing_matrix(weight, "yz", r - rh)))
    return _sos_program(instance, r, blocks, "product")


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
    partial products are alive at once.  A yielded polynomial may be shared
    with other pairs and must not be mutated.
    """
    one = Polynomial.constant(layout, 1)
    powers: dict[tuple[int, int], Polynomial] = {}
    stack = [one]  # stack[t]: product of the first t factors of ``prefix``
    prefix: tuple[int, ...] = ()
    for pair in sorted(pairs, key=_interleaved):
        factors = _interleaved(pair)
        shared = 0
        for old, new in zip(prefix, factors):
            if old != new:
                break
            shared += 1
        del stack[shared + 1 :]
        for t in range(shared, len(factors)):
            k = factors[t]
            if k:
                if (t, k) not in powers:
                    g = constraints[t // 2]
                    powers[t, k] = (one - g if t % 2 else g) ** k
                stack.append(stack[-1] * powers[t, k])
            else:
                stack.append(stack[-1])
        prefix = factors
        yield pair, stack[-1]


def _cone_rows(
    family: str, constraints: Sequence[Polynomial], layout: BlockLayout, r: int
) -> list[tuple[RowKey, dict[Exponent, Fraction]]]:
    degs = [g.degree for g in constraints]
    rows = [
        ((family, alpha, beta), product.terms)
        for (alpha, beta), product in cone_products(constraints, layout, _power_pairs(degs, 2 * r))
    ]
    rows.sort(key=lambda row: (sum(row[0][1]) + sum(row[0][2]), row[0][1], row[0][2]))
    return rows


def assemble_krivine(instance: ProblemInstance, r: int) -> LinearProgram:
    """Cone (LP) relaxation over products g^a (1-g)^b and h^a (1-h)^b.

    Requires a normalized instance (see :func:`normalize_krivine`): each
    constraint must satisfy 0 <= g <= 1 on the feasible set, otherwise the
    rows are not valid inequalities for moments of measures on it.
    """
    if instance.krivine_scaling is None:
        raise NormalizationError(
            "cone assembly requires normalize_krivine to run first "
            "(constraints must be scaled into [0, 1] on the feasible set)"
        )
    _require_order(r, min_order(instance, "krivine"), "krivine")
    rows = _cone_rows("xy", instance.g_constraints, instance.layout, r)
    rows += _cone_rows("yz", instance.h_constraints, instance.layout, r)
    exps: set[Exponent] = {instance.layout.zero_exponent}
    exps.update(instance.objective.terms)
    for _, form in rows:
        exps.update(form)
    index = tuple(sorted(exps, key=grlex_key))
    return LinearProgram(
        layout=instance.layout,
        order=r,
        variable_index=index,
        objective=dict(instance.objective.terms),
        rows=tuple(rows),
        scaling=instance.krivine_scaling,
    )


def normalize_krivine(
    instance: ProblemInstance,
    upper_bounds: Sequence | None = None,
    auto_tol: float = 1e-8,
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
        upper_bounds = _auto_upper_bounds(instance, auto_tol)
    if len(upper_bounds) != total:
        raise BoundError(f"expected {total} upper bounds, got {len(upper_bounds)}")
    bounds = []
    for b in upper_bounds:
        frac = b if isinstance(b, Fraction) else Fraction(b)
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


def _auto_upper_bounds(instance: ProblemInstance, tol: float) -> list[Fraction]:
    # Maximizing g equals minimizing -g; a quadratic-module lower bound on
    # the latter therefore dominates sup g.  Imported lazily: the solver
    # consumes programs assembled here.
    from .solver import solve_sdp

    base = instance.with_product_mode(False)
    bounds: list[Fraction] = []
    for poly in (*instance.g_constraints, *instance.h_constraints):
        sub = replace(base, objective=-poly, krivine_scaling=None)
        r = min_order(sub, "putinar-sparse") + 1
        report = solve_sdp(assemble_sparse_putinar(sub, r), tol=tol)
        if report.status != "optimal":
            raise BoundError(
                f"automatic normalization failed: bound solve ended with "
                f"status {report.status}"
            )
        upper = -report.primal_objective
        upper += 1e-8 * (1.0 + abs(upper))  # cushion for solver tolerance
        bounds.append(Fraction(upper).limit_denominator(10**9))
    return bounds
