"""Positivity certificates: extraction from dual solutions, exact symbolic
re-expansion, and verification.

A certificate asserts f - lambda = sum_terms v^T G v * w plus
sum c_ab * g^a (1-g)^b + sum c_ab * h^a (1-h)^b: SOS terms, each a monomial
basis v over one variable block, a PSD Gram matrix G and a weight w (a
product of constraints), and cone terms with nonnegative scalars.  One
:class:`SOSCertificate` holds both parts, and every function here reads
both, the JSON form too, which the recipe of the certificate's mode reads
back; krivine ones (:class:`ConeCertificate`) have cone terms only.  A sparse
certificate keeps each term's basis and weight on (X,Y) or on (Y,Z), so
no monomial couples X with Z.

Verification expands the right-hand side exactly and measures the
coefficient residual against f - lambda.  Every float is an exact dyadic
rational, so nothing is rounded: an SOS term expands in Gram form,
sum_ij G_ij * m_{a_i + a_j} * w, from the same Gram matrix that the PSD test
reads (as in Peyrl and Parrilo, "Computing sum of squares decompositions
with rational coefficients"), and the cone terms c * g^a (1-g)^b of a
family expand as one nested sum over the trie of their powers
(:func:`relax.cone_sum`), the recursion that builds the LP rows.  The LP
has top-shell rows only, but a cone term may name any power pair.  Each
factor is rebuilt from the instance, never from the program, by the call
that built it for assembly: the cone part's constraints by
:func:`relax.normalize_krivine` on the certificate's divisors, and from
them too each SOS weight by :meth:`relax.Side.weight`.  Both parts feed one :meth:`Polynomial.sum`,
exact ints over a running common denominator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import isfinite

import numpy as np

from .moments import half_degree, min_eigenvalue
from .poly import MAX_DEGREE, BlockLayout, Exponent, LayoutError, Polynomial
from .problem import ProblemInstance
from .relax import RECIPES, ConicProgram, cone_sum, normalize_krivine, recipe_side
from .solver import OPTIMAL, SolveReport, _blas_on_one_thread


class ExtractionError(ValueError):
    """The dual solution is too far from the cone to certify anything."""


@dataclass(frozen=True)
class SOSTerm:
    family: str  # "xy" | "yz" | "sigma_xy" | "dense"
    subset: tuple[int, ...]
    block: str
    weight: Polynomial
    basis: tuple[Exponent, ...]
    gram: np.ndarray

    def __post_init__(self) -> None:
        # The Gram matrix is k x k and the basis fits the weight's layout.
        k, layout = len(self.basis), self.weight.layout
        if np.shape(self.gram) != (k, k):
            raise ValueError(
                f"{self.family} term has a Gram matrix of shape {np.shape(self.gram)} "
                f"for {k} basis monomials"
            )
        for a in self.basis:
            if not layout.is_exponent(a):
                raise ValueError(
                    f"{self.family} term has basis exponent {a!r}; expected a tuple "
                    f"of {layout.nvars} nonnegative ints"
                )


@dataclass(frozen=True)
class SOSCertificate:
    """SOS ``terms`` plus cone coefficients per power pair of each family,
    over the constraints divided by ``scaling`` (one divisor per constraint,
    g family first).  The cone part is there when ``scaling`` is.

    A divisor must be positive, which verification checks; that it also
    dominates its constraint on the feasible set, so that 1 - g/s >= 0
    there, is asserted by whoever chose it (see :func:`relax.normalize_krivine`)
    and is not checked.
    """

    lam: float
    terms: tuple[SOSTerm, ...]
    mode: str  # "schmudgen" | "putinar" | "product" | "dense" | "krivine"
    order: int
    layout: BlockLayout
    xy_coeffs: dict[tuple[tuple[int, ...], tuple[int, ...]], float] = field(default_factory=dict)
    yz_coeffs: dict[tuple[tuple[int, ...], tuple[int, ...]], float] = field(default_factory=dict)
    scaling: tuple[Fraction, ...] | None = None

    def __post_init__(self) -> None:
        if self.scaling is None and (self.xy_coeffs or self.yz_coeffs):
            raise ValueError("cone coefficients need a scaling record")


@dataclass(frozen=True, kw_only=True)
class ConeCertificate(SOSCertificate):
    """A krivine certificate: cone coefficients only."""

    terms: tuple[SOSTerm, ...] = ()
    mode: str = "krivine"


@dataclass(frozen=True)
class VerificationReport:
    residual: float
    coupling_free: bool
    psd_ok: bool
    lam: float
    passed: bool


@_blas_on_one_thread()
def extract(report: SolveReport, program: ConicProgram) -> SOSCertificate:
    """Turn the duals of an optimal solve into a certificate: a
    :class:`ConeCertificate` for a program with rows and no PSD block (a
    :class:`relax.LinearProgram`), else an :class:`SOSCertificate`.

    Each Gram matrix must match its block's basis.  It is symmetrized;
    eigenvalues in [-clip, 0) are projected to zero, anything below -clip
    aborts (the certificate would be unusable), with clip = 1e-7 * (1 +
    max |gram|) per block.  Weight and basis come from the block's matrix.
    A row dual below -1e-9 aborts, smaller negative ones are clipped to
    zero.
    """
    if report.status != OPTIMAL:
        raise ExtractionError(f"cannot extract from a solve with status {report.status}")
    if program.num_blocks + program.num_rows != len(report.dual_blocks):
        raise ExtractionError("report and program block structures disagree")
    terms = []
    for (label, matrix), (dual_label, gram) in zip(program.psd_blocks, report.dual_blocks):
        if label != dual_label:
            raise ExtractionError(
                f"report block {dual_label.name()} does not match program "
                f"block {label.name()}"
            )
        if gram.shape != (matrix.size, matrix.size):
            raise ExtractionError(
                f"dual block {label.name()} has shape {gram.shape} for a basis "
                f"of {matrix.size} monomials"
            )
        gram = 0.5 * (gram + gram.T)
        scale = float(np.max(np.abs(gram))) if gram.size else 0.0
        threshold = 1e-7 * (1.0 + scale)
        eigvals, eigvecs = np.linalg.eigh(gram)
        if eigvals.size and eigvals[0] < -threshold:
            raise ExtractionError(
                f"dual block {label.name()} has eigenvalue {eigvals[0]:.3e} "
                f"below the clip threshold -{threshold:.3e}"
            )
        clipped = np.clip(eigvals, 0.0, None)
        gram = (eigvecs * clipped) @ eigvecs.T
        terms.append(
            SOSTerm(label.family, label.subset, label.block, matrix.weight, matrix.basis, gram)
        )
    coeffs: dict[str, dict] = {"xy": {}, "yz": {}}
    for (family, alpha, beta), value in report.dual_blocks[program.num_blocks :]:
        if value < -1e-9:
            raise ExtractionError(
                f"row dual for {family} powers {alpha}/{beta} is {value:.3e} < 0"
            )
        coeffs[family][(alpha, beta)] = max(0.0, value)
    certificate = ConeCertificate if program.num_rows and not program.num_blocks else SOSCertificate
    return certificate(lam=report.dual_objective, terms=tuple(terms), mode=program.mode,
                       order=program.order, layout=program.layout, xy_coeffs=coeffs["xy"],
                       yz_coeffs=coeffs["yz"], scaling=program.scaling)


# The earlier names, one per program kind.
extract_sos = extract_cone = extract


def _pieces(cert, instance: ProblemInstance):
    """The certificate's right-hand side as :meth:`Polynomial.sum` pieces:
    its SOS terms, then its cone terms."""
    layout = instance.layout
    # The constraints as assembly scaled them, for both parts; refuses a
    # scaling of the wrong length or with an entry that is not positive.
    source = instance if cert.scaling is None else normalize_krivine(instance, cert.scaling)
    for term in cert.terms:
        # Each term checked its Gram shape and basis against its weight's
        # layout when it was built.
        if term.weight.layout != layout:
            raise LayoutError(f"{term.family} term lives on another layout")
        weight = term.weight
        if weight != recipe_side(cert.mode, term.family).weight(source, term.subset):
            raise ValueError(
                f"{term.family} term over subset {term.subset} has a weight that is "
                f"not the product of those constraints"
            )
        # v^T G v * w = (sum_ij G_ij * m_{a_i + a_j}) * w, over all k^2
        # entries of G; no packed sum may carry.
        basis, shift = [layout.pack(a) for a in term.basis], layout.degree_shift
        pieces = []
        for a, row in zip(basis, np.asarray(term.gram, dtype=float).tolist()):
            for b, g in zip(basis, row):
                if g:
                    if (degree := (a >> shift) + (b >> shift)) > MAX_DEGREE:
                        raise LayoutError(f"Gram form of degree {degree} is above {MAX_DEGREE}")
                    num, den = g.as_integer_ratio()
                    pieces.append((1, ((a + b, num),), den))
        product = Polynomial.sum(layout, pieces) * weight
        yield 1, product.nums.items(), product.den
    if cert.scaling is None:
        return  # no cone part
    for constraints, coeffs in ((source.g_constraints, cert.xy_coeffs),
                                (source.h_constraints, cert.yz_coeffs)):
        nonzero = {_cone_key(pair, len(constraints)): c for pair, c in coeffs.items() if c != 0.0}
        total = cone_sum(constraints, layout, nonzero)
        yield 1, total.nums.items(), total.den


def expand(cert, instance: ProblemInstance) -> Polynomial:
    """Exact polynomial expansion of the certificate's right-hand side
    (without lambda): the object that should coefficient-match f - lambda.

    Cone terms and SOS weights are built from the instance's original
    constraints with the recorded normalization divisors re-applied, so the
    caller passes the unnormalized instance.
    """
    return Polynomial.sum(instance.layout, _pieces(cert, instance))


def _coupling_free(cert, layout: BlockLayout) -> bool:
    """Whether each SOS term has basis and weight both on (X,Y) or both on
    (Y,Z); cone terms multiply constraints of one side each."""
    for term in cert.terms:
        support = [*map(layout.pack, term.basis), *term.weight.nums]
        if all(any(p & mask for p in support) for mask in map(layout.outside, ("xy", "yz"))):
            return False
    return True


@_blas_on_one_thread()
def verify(cert, instance: ProblemInstance, tol: float = 1e-5) -> VerificationReport:
    """Check the representation identity, PSD/nonnegativity, and sparsity.

    The residual is the max-norm of the coefficients of
    f - lambda - expand(cert), computed exactly from the same Gram matrices
    or cone coefficients that the PSD or nonnegativity test reads; it passes
    when below tol * (1 + max |coefficient of f|).  The coupling flag gates
    the pass unless the recipe of the certificate's mode has a side on the
    joint block ``xyz`` (dense), whose terms may couple X and Z.

    ``ValueError`` refuses: a mode that no recipe has, as the loader does; a
    lambda, Gram entry or cone coeff that is not finite (naming it, before
    any expansion); an SOS term whose weight is not the product of the
    constraints (scaled, with a cone part) that its mode, family and subset
    name; a ``scaling`` that :func:`relax.normalize_krivine` refuses
    (:class:`relax.BoundError`: wrong length, an entry not a positive finite
    number); and a cone key that is not two sequences of one nonnegative int
    per constraint of its family.  A positive divisor below its constraint's
    maximum on the feasible set is the caller's precondition: verification
    checks the identity, not the bound.
    """
    recipe = _recipe(cert.mode)
    _finite(cert.lam, "lambda")
    for term in cert.terms:  # the largest |entry| is nan or inf when any entry is
        _finite(float(np.max(np.abs(term.gram), initial=0.0)), "gram entry")
    for value in (*cert.xy_coeffs.values(), *cert.yz_coeffs.values()):
        _finite(value, "coeff")
    diff = instance.objective - Polynomial.constant(instance.layout, Fraction(cert.lam))
    residual = float((diff - expand(cert, instance)).max_norm())
    coupling = _coupling_free(cert, instance.layout)

    psd_ok = not any(
        min_eigenvalue(t.gram) < -tol * (1.0 + float(np.max(np.abs(t.gram), initial=0.0)))
        for t in cert.terms
    ) and all(v >= -tol for coeffs in (cert.xy_coeffs, cert.yz_coeffs) for v in coeffs.values())

    bound = tol * (1.0 + float(instance.objective.max_norm()))
    joint = any(side.block == "xyz" for side in recipe.sides)  # may couple X and Z
    passed = residual <= bound and psd_ok and (coupling or joint)
    return VerificationReport(residual=residual, coupling_free=coupling, psd_ok=psd_ok,
                              lam=cert.lam, passed=passed)


# -- serialization ----------------------------------------------------------

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _layout_json(layout: BlockLayout) -> dict:
    return {"n": layout.n, "m": layout.m, "p": layout.p, "names": list(layout.names)}


def certificate_to_json(cert) -> str:
    """The certificate as JSON ``{mode, order, lambda, layout, terms,
    scaling}``: its cone terms, then its SOS terms; ``scaling`` holds the
    divisors as exact ``p/q`` strings (null with no cone part), and other
    numbers are 17-digit decimal strings, which give every float back."""
    cone = [
        {"family": family, "subset": [list(alpha), list(beta)], "coeff": _fmt(value)}
        for family, coeffs in (("xy", cert.xy_coeffs), ("yz", cert.yz_coeffs))
        for (alpha, beta), value in sorted(coeffs.items())
    ]
    sos = [
        {"family": t.family, "subset": list(t.subset), "basis": [list(e) for e in t.basis],
         "gram": [[_fmt(v) for v in row] for row in t.gram]}
        for t in cert.terms
    ]
    scaling = None if cert.scaling is None else [str(_exact(s, "scaling")) for s in cert.scaling]
    return json.dumps({"mode": cert.mode, "order": cert.order, "lambda": _fmt(cert.lam),
                       "layout": _layout_json(cert.layout), "terms": cone + sos,
                       "scaling": scaling})


def _finite(value, field: str):
    if not isfinite(float(value)):
        raise ValueError(f"certificate {field} {value!r} is not finite")
    return value


def _exact(value, field: str) -> Fraction:
    """``value`` (a number or a decimal or ``p/q`` string) as an exact Fraction."""
    try:
        return Fraction(value)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise ValueError(f"certificate {field} {value!r} is not a finite number") from None


def _recipe(mode: str):
    """The recipe of a certificate's ``mode``, refusing a mode no recipe has."""
    recipe = next((r for r in RECIPES.values() if r.mode == mode), None)
    if recipe is None:
        raise ValueError(f"no relaxation has mode {mode!r}")
    return recipe


def _field(data, key: str):
    """``data[key]`` of a certificate document or term, refusing its absence
    (from a JSON value that is not an object too)."""
    try:
        return data[key]
    except (KeyError, TypeError):
        raise ValueError(f"certificate has no {key!r} field") from None


def _cone_key(subset, count: int):
    """The (alpha, beta) powers of a cone term, refusing anything but two
    sequences of ``count`` nonnegative ints (the cone walk would zip a
    longer one down to another key, and recurse without end on a negative or
    fractional power)."""
    if not (
        isinstance(subset, (list, tuple))
        and len(subset) == 2
        and all(
            isinstance(powers, (list, tuple))
            and len(powers) == count
            and all(type(a) is int and a >= 0 for a in powers)
            for powers in subset
        )
    ):
        raise ValueError(
            f"cone term subset {subset!r}; expected two lists of {count} nonnegative ints"
        )
    return tuple(subset[0]), tuple(subset[1])


def certificate_from_json(text: str, instance: ProblemInstance):
    """Rebuild a certificate against ``instance`` through the recipe of its
    ``mode`` (:data:`relax.RECIPES`), ignoring the ``kind`` of older files.
    A term with a ``coeff`` is a cone term of a row side; any other is an
    SOS term of the PSD side of its (mode, family) (:func:`relax.recipe_side`),
    its weight rebuilt by :meth:`relax.Side.weight`, as assembly built it.
    ``scaling`` is read first, and required, exactly when the recipe has
    rows; the weights and cone degrees come from the constraints it scales.
    As from :func:`extract`, the result is a :class:`ConeCertificate` when
    the recipe has rows and no PSD side, else an :class:`SOSCertificate`.

    ``ValueError``, naming the field, refuses: a document or term without a
    field it needs (a document that is not a JSON object has none); a
    ``terms`` that is not a list; an unknown mode, or a family
    with no side of its term's sort; a ``scaling`` that is null or not a
    JSON list; a lambda, Gram entry, coeff or scaling entry that is
    not a finite number; a ``scaling`` that :func:`relax.normalize_krivine`
    refuses (wrong length, an entry not positive), as :func:`verify` does; a
    cone subset that is not two lists of one nonnegative int per constraint
    of its side, or that its family lists twice (SOS terms may repeat: each
    counts in the sum); an SOS subset that is not a list of int indices into
    its side's constraints; a term that :class:`SOSTerm` refuses; a
    ``layout`` other than the instance's (n, m, p, names); an ``order`` that
    is not a nonnegative int, or, with PSD sides, not the largest
    deg(basis) + ceil(deg w / 2) over the SOS terms, which every recipe
    builds to, or below ceil(max sum_j (a_j + b_j) deg g_j / 2) over the
    cone power pairs (not bounded above: a degree-4 constraint gives the
    same rows at orders 2 and 3).
    """
    data = json.loads(text)
    layout = instance.layout
    if (stated := _field(data, "layout")) != _layout_json(layout):
        raise ValueError(f"certificate layout {stated!r} is not the instance's")
    order = _field(data, "order")
    if type(order) is not int or order < 0:
        raise ValueError(f"certificate order {order!r}; expected a nonnegative int")
    lam = float(_finite(_field(data, "lambda"), "lambda"))
    mode = _field(data, "mode")
    recipe = _recipe(mode)
    source, scaling = instance, None
    if recipe.rows:
        # Not any iterable: the characters of a string would read as divisors.
        if not isinstance(divisors := _field(data, "scaling"), list):
            raise ValueError(f"a {mode!r} certificate needs a scaling list, not {divisors!r}")
        source = normalize_krivine(instance, [_exact(s, "scaling") for s in divisors])
        scaling = source.krivine_scaling
    degs = {side.family: [p.degree for p in side.constraint_list(source)] for side in recipe.rows}
    coeffs: dict = {family: {} for family in degs}
    terms, top = [], 0
    if not isinstance(stated := _field(data, "terms"), list):
        raise ValueError(f"certificate terms {stated!r}; expected a list")
    for t in stated:
        family = _field(t, "family")
        if "coeff" in t:
            if family not in degs:
                raise ValueError(f"no {family!r} cone family in {mode!r} relaxations")
            key = _cone_key(_field(t, "subset"), len(degs[family]))
            if key in coeffs[family]:  # the file would state another identity
                raise ValueError(f"cone term {family} {key} is listed twice")
            coeffs[family][key] = float(_finite(t["coeff"], "coeff"))
            top = max(top, sum((a + b) * d for a, b, d in zip(*key, degs[family])))
            continue
        side = recipe_side(mode, family)
        subset = _field(t, "subset")
        if not isinstance(subset, list) or any(type(j) is not int for j in subset):
            raise ValueError(f"term subset {subset!r}; expected a list of constraint indices")
        # SOSTerm refuses whatever is not a list of ints here.
        basis = tuple(tuple(e) if isinstance(e, list) else e for e in _field(t, "basis"))
        gram = np.array([[float(_finite(v, "gram entry")) for v in row] for row in _field(t, "gram")])
        weight = side.weight(source, subset)  # refuses an index out of range
        terms.append(SOSTerm(family, tuple(subset), side.block, weight, basis, gram))
    built = (max(map(sum, t.basis), default=0) + half_degree(t.weight) for t in terms)
    if recipe.sides and order != (r := max(built, default=0)):
        raise ValueError(f"certificate order {order} is not {r}, the order its terms are built to")
    if order < (top + 1) // 2:  # every product's degree is at most 2 * order
        raise ValueError(f"certificate order {order} is below {(top + 1) // 2}: "
                         f"it has a cone product of degree {top}")
    certificate = ConeCertificate if recipe.rows and not recipe.sides else SOSCertificate
    return certificate(lam=lam, terms=tuple(terms), mode=mode, order=order, layout=layout,
                       scaling=scaling, **{f"{family}_coeffs": c for family, c in coeffs.items()})
