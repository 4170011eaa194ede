"""Positivity certificates: extraction from dual solutions, exact symbolic
re-expansion, and verification.

A sum-of-squares certificate asserts f - lambda = sum_terms v^T G v * w,
where each term carries a monomial basis v over one variable block, a PSD
Gram matrix G, and a weight polynomial w (a product of constraints).  A cone
certificate asserts f - lambda = sum c_ab * g^a (1-g)^b + sum c_ab * h^a (1-h)^b
with nonnegative scalars.  Both shapes keep the two variable sides separate,
so sparse-mode certificates never produce a monomial coupling X with Z.

Verification expands the right-hand side exactly and measures the
coefficient residual against f - lambda.  Every float is an exact dyadic
rational, so nothing is rounded: an SOS term expands in Gram form,
sum_ij G_ij * m_{a_i + a_j} * w, from the same Gram matrix that the PSD test
reads (as in Peyrl and Parrilo, "Computing sum of squares decompositions
with rational coefficients"), and a cone term expands as c * g^a (1-g)^b,
with the products from the same walk that assembles the LP rows
(:func:`relax.cone_products`).  The walk starts from the instance's
constraints and the certificate's divisors, never from the program, and
refuses a divisor that is not positive.  Both kinds feed one
:meth:`Polynomial.sum`, exact ints over a running common denominator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import isfinite

import numpy as np

from .moments import half_degree, min_eigenvalue
from .poly import MAX_DEGREE, BlockLayout, Exponent, LayoutError, Polynomial
from .problem import ProblemInstance
from .relax import ConicProgram, LinearProgram, cone_products, recipe_side
from .solver import OPTIMAL, SolveReport


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
    lam: float
    terms: tuple[SOSTerm, ...]
    mode: str  # "schmudgen" | "putinar" | "product" | "dense"
    order: int
    layout: BlockLayout


@dataclass(frozen=True)
class ConeCertificate:
    """Cone coefficients per power pair of each family, over the constraints
    divided by ``scaling`` (one divisor per constraint, g family first).

    A divisor must be positive, which verification checks; that it also
    dominates its constraint on the feasible set, so that 1 - g/s >= 0
    there, is asserted by whoever chose it (see :func:`relax.normalize_krivine`)
    and is not checked.
    """

    lam: float
    xy_coeffs: dict[tuple[tuple[int, ...], tuple[int, ...]], float]
    yz_coeffs: dict[tuple[tuple[int, ...], tuple[int, ...]], float]
    scaling: tuple[Fraction, ...]
    order: int
    layout: BlockLayout
    mode: str = "krivine"


@dataclass(frozen=True)
class VerificationReport:
    residual: float
    coupling_free: bool
    psd_ok: bool
    lam: float
    passed: bool


def extract_sos(report: SolveReport, program: ConicProgram) -> SOSCertificate:
    """Turn the dual Gram blocks of an optimal solve into a certificate.

    Each Gram matrix must match its block's basis.  It is symmetrized;
    eigenvalues in [-clip, 0) are projected to zero, anything below -clip
    aborts (the certificate would be unusable), with clip = 1e-7 * (1 +
    max |gram|) per block.  Weight and basis come from the block's matrix.
    """
    if report.status != OPTIMAL:
        raise ExtractionError(f"cannot extract from a solve with status {report.status}")
    if len(program.psd_blocks) != len(report.dual_blocks):
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
            SOSTerm(
                family=label.family,
                subset=label.subset,
                block=label.block,
                weight=matrix.weight,
                basis=matrix.basis,
                gram=gram,
            )
        )
    return SOSCertificate(
        lam=report.dual_objective,
        terms=tuple(terms),
        mode=program.mode,
        order=program.order,
        layout=program.layout,
    )


def extract_cone(report: SolveReport, program: LinearProgram) -> ConeCertificate:
    """Turn LP row duals into nonnegative cone coefficients; a dual below
    -1e-9 aborts, smaller negative ones are clipped to zero."""
    if report.status != OPTIMAL:
        raise ExtractionError(f"cannot extract from a solve with status {report.status}")
    xy: dict = {}
    yz: dict = {}
    for (family, alpha, beta), value in report.dual_blocks:
        if value < -1e-9:
            raise ExtractionError(
                f"row dual for {family} powers {alpha}/{beta} is {value:.3e} < 0"
            )
        value = max(0.0, value)
        (xy if family == "xy" else yz)[(alpha, beta)] = value
    return ConeCertificate(
        lam=report.dual_objective,
        xy_coeffs=xy,
        yz_coeffs=yz,
        scaling=program.scaling,
        order=program.order,
        layout=program.layout,
    )


def _pieces(cert, instance: ProblemInstance):
    """The certificate's right-hand side as :meth:`Polynomial.sum` pieces."""
    layout = instance.layout
    if isinstance(cert, SOSCertificate):
        for term in cert.terms:
            # Each term checked its Gram shape and basis against its weight's
            # layout when it was built.
            if term.weight.layout != layout:
                raise LayoutError(f"{term.family} term lives on another layout")
            # Like the cone path, start from the instance's constraints.
            weight = term.weight
            if weight != recipe_side(cert.mode, term.family).weight(instance, term.subset):
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
    elif isinstance(cert, ConeCertificate):
        polys, ng = instance.g_constraints + instance.h_constraints, len(instance.g_constraints)
        if len(cert.scaling) != len(polys):
            raise ValueError("scaling record does not match the instance's constraints")
        scaled = [p.scale(1 / s) for p, s in zip(polys, _positive_scaling(cert.scaling))]
        for constraints, coeffs in ((scaled[:ng], cert.xy_coeffs), (scaled[ng:], cert.yz_coeffs)):
            count = len(constraints)
            pairs = [_cone_key(pair, count) for pair, value in coeffs.items() if value != 0.0]
            for pair, product in cone_products(constraints, layout, pairs):
                num, den = coeffs[pair].as_integer_ratio()
                yield num, product.nums.items(), product.den * den
    else:
        raise TypeError(f"cannot expand a {type(cert).__name__}")


def expand(cert, instance: ProblemInstance) -> Polynomial:
    """Exact polynomial expansion of the certificate's right-hand side
    (without lambda): the object that should coefficient-match f - lambda.

    Cone certificates are expanded against the instance's original
    constraints with the recorded normalization divisors re-applied, so the
    caller passes the unnormalized instance.
    """
    return Polynomial.sum(instance.layout, _pieces(cert, instance))


def _positive_scaling(scaling) -> tuple[Fraction, ...]:
    """The normalization divisors as Fractions, refusing any that is not
    positive: s < 0 turns g >= 0 into g/s <= 0, so the identity would rest
    on a constraint of the wrong sign, and s = 0 divides by zero."""
    divisors = tuple(Fraction(s) for s in scaling)
    for s in divisors:
        if s <= 0:
            raise ValueError(f"certificate scaling entry {s} is not positive")
    return divisors


def _coupling_free(cert, expansion: Polynomial, layout: BlockLayout) -> bool:
    x, z = layout.outside("yz"), layout.outside("xy")

    def clean(poly: Polynomial) -> bool:
        return not any(p & x and p & z for p in poly.nums)

    if not clean(expansion):
        return False
    if isinstance(cert, SOSCertificate):
        for term in cert.terms:
            basis = Polynomial.from_terms(layout, dict.fromkeys(term.basis, 1))
            if term.block == "xyz":
                mixed = not basis.is_supported_on("xy") and not basis.is_supported_on("yz")
                if mixed or not clean(term.weight):
                    return False
            elif not all(p.is_supported_on(term.block) for p in (basis, term.weight)):
                return False
    return True


def verify(cert, instance: ProblemInstance, tol: float = 1e-5) -> VerificationReport:
    """Check the representation identity, PSD/nonnegativity, and sparsity.

    The residual is the max-norm of the coefficients of
    f - lambda - expand(cert), computed exactly from the same Gram matrices
    or cone coefficients that the PSD or nonnegativity test reads; it passes
    when below tol * (1 + max |coefficient of f|).  Dense-mode certificates may couple
    X and Z legitimately, so the coupling flag is reported but only gates
    the overall pass for sparse modes.

    An SOS term whose weight is not the product of the instance's
    constraints that its mode, family and subset name raises ``ValueError``.
    A cone certificate whose ``scaling`` has the wrong length or an entry
    that is not positive, or with a coefficient key that is not two
    sequences of one nonnegative int per constraint of its family, raises
    ``ValueError``.  A positive divisor below its constraint's maximum on
    the feasible set stays the caller's precondition: verification checks
    the identity, not the bound.
    """
    expansion = expand(cert, instance)
    diff = instance.objective - Polynomial.constant(instance.layout, Fraction(cert.lam))
    diff = diff - expansion
    residual = float(diff.max_norm())
    coupling = _coupling_free(cert, expansion, instance.layout)

    if isinstance(cert, SOSCertificate):
        psd_ok = True
        for term in cert.terms:
            scale = float(np.max(np.abs(term.gram))) if term.gram.size else 0.0
            if min_eigenvalue(term.gram) < -tol * (1.0 + scale):
                psd_ok = False
                break
    else:
        psd_ok = all(
            v >= -tol for coeffs in (cert.xy_coeffs, cert.yz_coeffs) for v in coeffs.values()
        )

    bound = tol * (1.0 + float(instance.objective.max_norm()))
    passed = residual <= bound and psd_ok and (coupling or cert.mode == "dense")
    return VerificationReport(
        residual=residual,
        coupling_free=coupling,
        psd_ok=psd_ok,
        lam=cert.lam,
        passed=passed,
    )


# -- serialization ----------------------------------------------------------

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _layout_json(layout: BlockLayout) -> dict:
    return {"n": layout.n, "m": layout.m, "p": layout.p, "names": list(layout.names)}


def certificate_to_json(cert) -> str:
    head = {
        "mode": cert.mode,
        "order": cert.order,
        "lambda": _fmt(cert.lam),
        "layout": _layout_json(cert.layout),
    }
    if isinstance(cert, SOSCertificate):
        head["kind"] = "sos"
        head["terms"] = [
            {
                "family": t.family,
                "subset": list(t.subset),
                "basis": [list(e) for e in t.basis],
                "gram": [[_fmt(v) for v in row] for row in t.gram],
            }
            for t in cert.terms
        ]
        head["scaling"] = None
    else:
        head["kind"] = "cone"
        head["terms"] = [
            {
                "family": family,
                "subset": [list(alpha), list(beta)],
                "coeff": _fmt(value),
            }
            for family, coeffs in (("xy", cert.xy_coeffs), ("yz", cert.yz_coeffs))
            for (alpha, beta), value in sorted(coeffs.items())
        ]
        head["scaling"] = [_fmt(s) for s in cert.scaling]
    return json.dumps(head, indent=2)


def _finite(value, field: str):
    if not isfinite(float(value)):
        raise ValueError(f"certificate {field} {value!r} is not finite")
    return value


def _cone_key(subset, count: int):
    """The (alpha, beta) powers of a cone term, refusing anything but two
    sequences of ``count`` nonnegative ints (``cone_products`` would zip a
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
    """Rebuild a certificate against ``instance``.

    Each term's block and the constraints its weight multiplies come from
    the relaxation side of its (mode, family) (see :func:`relax.recipe_side`);
    weights are recomputed from the stored subsets.  ``ValueError``, naming
    the field, is raised for an unknown kind, mode or family; a lambda, Gram
    entry, cone coeff or scaling entry that is not finite; a scaling entry
    that is not positive (as :func:`verify` would); a cone subset
    that is not two lists of one nonnegative int per constraint of its
    family; an SOS subset that is not a list of int indices into its side's
    constraints; a term that :class:`SOSTerm` refuses (a basis exponent
    that is not a list of one nonnegative int per variable, a Gram matrix
    that is not len(basis) x len(basis)); a ``layout`` whose n, m, p or
    names differ from the instance's; an ``order`` that is not a
    nonnegative int; an SOS ``order`` other than the largest
    deg(basis) + ceil(deg w / 2) over the terms, which every recipe builds
    to; and a cone ``order`` below ceil(max sum_j (a_j + b_j) deg g_j / 2)
    over the power pairs (not bounded above: a degree-4 constraint gives
    the same rows at orders 2 and 3).
    """
    data = json.loads(text)
    layout = instance.layout
    if data["layout"] != _layout_json(layout):
        raise ValueError(f"certificate layout {data['layout']!r} is not the instance's")
    order = data["order"]
    if type(order) is not int or order < 0:
        raise ValueError(f"certificate order {order!r}; expected a nonnegative int")
    lam = float(_finite(data["lambda"], "lambda"))
    kind, mode = data["kind"], data["mode"]
    if kind == "cone":
        if mode != "krivine":
            raise ValueError(f"unknown cone certificate mode {mode!r}")
        coeffs: dict = {"xy": {}, "yz": {}}
        g, h = instance.g_constraints, instance.h_constraints
        degs, top = {"xy": [p.degree for p in g], "yz": [p.degree for p in h]}, 0
        for t in data["terms"]:
            if t["family"] not in coeffs:
                raise ValueError(f"unknown cone certificate family {t['family']!r}")
            key = _cone_key(t["subset"], len(degs[t["family"]]))
            coeffs[t["family"]][key] = float(_finite(t["coeff"], "coeff"))
            top = max(top, sum((a + b) * d for a, b, d in zip(*key, degs[t["family"]])))
        if order < (top + 1) // 2:  # every product's degree is at most 2 * order
            raise ValueError(f"certificate order {order} is below {(top + 1) // 2}: "
                             f"it has a cone product of degree {top}")
        scaling = _positive_scaling(_finite(s, "scaling") for s in data["scaling"])
        return ConeCertificate(lam, coeffs["xy"], coeffs["yz"], scaling, order, layout)
    if kind != "sos":
        raise ValueError(f"unknown certificate kind {kind!r}")

    terms = []
    for t in data["terms"]:
        side = recipe_side(mode, t["family"])
        subset = t["subset"]
        if not isinstance(subset, list) or any(type(j) is not int for j in subset):
            raise ValueError(f"term subset {subset!r}; expected a list of constraint indices")
        # SOSTerm refuses whatever is not a list of ints here.
        basis = tuple(tuple(e) if isinstance(e, list) else e for e in t["basis"])
        gram = np.array([[float(_finite(v, "gram entry")) for v in row] for row in t["gram"]])
        weight = side.weight(instance, subset)  # refuses an index out of range
        terms.append(SOSTerm(t["family"], tuple(subset), side.block, weight, basis, gram))
    built = (max(map(sum, t.basis), default=0) + half_degree(t.weight) for t in terms)
    if order != (r := max(built, default=0)):
        raise ValueError(f"certificate order {order} is not {r}, the order its terms are built to")
    return SOSCertificate(lam, tuple(terms), mode, order, layout)
