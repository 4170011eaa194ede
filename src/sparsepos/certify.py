"""Positivity certificates: extraction from dual solutions, exact symbolic
re-expansion, and verification.

A certificate asserts f - lambda = sum_terms v^T G v * w plus
sum c_ab * g^a (1-g)^b + sum c_ab * h^a (1-h)^b: SOS terms, each a monomial
basis v over one variable block, a PSD Gram matrix G and a weight w (a
product of constraints), and cone terms with nonnegative scalars.  One
:class:`SOSCertificate` holds both parts; krivine ones
(:class:`ConeCertificate`) have cone terms only.  One rule, :func:`_checked`,
says what a certificate must be before anything expands it: :func:`verify`
and :func:`expand` check by it, and :func:`certificate_from_json` after
reading, so verify refuses what the loader refuses.  A sparse certificate
keeps each term's basis and weight on (X,Y) or on (Y,Z), so no monomial
couples X with Z.

Verification expands the right-hand side exactly and measures the
coefficient residual against f - lambda.  Every float is an exact dyadic
rational, so nothing is rounded: an SOS term expands in Gram form,
sum_ij G_ij * m_{a_i + a_j} * w, from the same Gram matrix that the PSD test
reads (as in Peyrl and Parrilo, "Computing sum of squares decompositions
with rational coefficients"), and the cone terms of a row side expand as
one nested sum over the trie of their powers (:func:`relax.cone_sum`), the
recursion that builds the LP rows.  Each factor is rebuilt from the
instance, never from the program, by the call that built it for assembly:
the constraints by :func:`relax.normalize_krivine` on the certificate's
divisors, a row side's by :meth:`relax.Side.constraint_list`, and each SOS
weight by :meth:`relax.Side.weight`.  Both parts feed one
:meth:`Polynomial.sum`, exact ints over a running common denominator.
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
from .relax import RECIPES, ConicProgram, cone_sum, normalize_krivine
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


@dataclass(frozen=True)
class SOSCertificate:
    """SOS ``terms`` plus cone coefficients per power pair of each family,
    over the constraints divided by ``scaling`` (one divisor per constraint,
    g family first), which is there exactly when the recipe of ``mode`` has
    row sides.  :func:`_checked` checks that, and that each divisor is
    positive; that it also dominates its constraint on the feasible set, so
    that 1 - g/s >= 0 there, is asserted by whoever chose it (see
    :func:`relax.normalize_krivine`) and is not checked."""

    lam: float
    terms: tuple[SOSTerm, ...]
    mode: str  # "schmudgen" | "putinar" | "product" | "dense" | "krivine"
    order: int
    layout: BlockLayout
    xy_coeffs: dict[tuple[tuple[int, ...], tuple[int, ...]], float] = field(default_factory=dict)
    yz_coeffs: dict[tuple[tuple[int, ...], tuple[int, ...]], float] = field(default_factory=dict)
    scaling: tuple[Fraction, ...] | None = None


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


def _cone_coeffs(cert) -> dict:
    """The certificate's cone coefficients by row-side family."""
    return {"xy": cert.xy_coeffs, "yz": cert.yz_coeffs}


def _checked(cert, instance: ProblemInstance) -> ProblemInstance:
    """The one certificate rule, which :func:`verify`, :func:`expand` and
    :func:`certificate_from_json` check by: the instance with its
    constraints divided by the certificate's ``scaling`` (the instance
    itself without one) once the certificate passes.  ``ValueError``
    refuses, in this order and naming the fact:

    - a mode that no recipe has; cone coefficients of a family that no row
      side of the recipe has;
    - a ``scaling`` present without row sides, missing (or not a sequence:
      a string would read as its characters) with them, or refused by
      :func:`relax.normalize_krivine` (``BoundError``);
    - a layout other than the instance's; an ``order`` that is not a
      nonnegative int; a lambda, Gram entry or cone coeff that is not finite;
    - an SOS term whose Gram matrix is not k x k for its k basis exponents,
      or whose exponents are not one nonnegative int per variable; of a
      family that no PSD side has, or whose weight is not the product of the
      (scaled) constraints its subset names, on the instance's layout;
    - a cone key, zero coefficients included, that is not two tuples of one
      nonnegative int per constraint of its side (the cone walk would zip a
      longer one down to another key, and never end on a negative power);
    - a Gram form or cone product above ``MAX_DEGREE`` (``LayoutError``);
    - with PSD sides, an order other than the largest deg(basis) +
      ceil(deg w / 2), which every recipe builds to; in every case, an
      order below half the largest cone product degree (not bounded above:
      a degree-4 constraint gives the same rows at orders 2 and 3).
    """
    recipe, mode, layout, cones = _recipe(cert.mode), cert.mode, instance.layout, _cone_coeffs(cert)
    for family, coeffs in cones.items():
        if coeffs and family not in {side.family for side in recipe.rows}:
            raise ValueError(f"no {family!r} cone family in {mode!r} relaxations")
    if not (isinstance(cert.scaling, (tuple, list)) if recipe.rows else cert.scaling is None):
        need = "a scaling list" if recipe.rows else "no scaling"
        raise ValueError(f"a {mode!r} certificate needs {need}, not {cert.scaling!r}")
    source = normalize_krivine(instance, cert.scaling) if recipe.rows else instance
    if cert.layout != layout:
        raise ValueError(f"certificate layout {_layout_json(cert.layout)!r} is not the instance's")
    if type(cert.order) is not int or cert.order < 0:
        raise ValueError(f"certificate order {cert.order!r}; expected a nonnegative int")
    _finite(cert.lam, "lambda")
    built = top = 0
    for term in cert.terms:  # the largest |entry| is nan or inf when any entry is
        _finite(float(np.max(np.abs(term.gram), initial=0.0)), "gram entry")
        if np.shape(term.gram) != (len(term.basis),) * 2:
            raise ValueError(f"{term.family} term has a Gram matrix of shape "
                             f"{np.shape(term.gram)} for {len(term.basis)} basis monomials")
        if not all(map(layout.is_exponent, term.basis)):
            raise ValueError(f"{term.family} term has basis {term.basis}; expected tuples "
                             f"of {layout.nvars} nonnegative ints")
        if term.weight != recipe.side(term.family).weight(source, term.subset):
            raise ValueError(f"{term.family} term over subset {term.subset} has a weight "
                             f"that is not the product of those constraints")
        # v^T G v doubles the basis degree; a packed sum above the cap would carry.
        if (degree := 2 * max(map(sum, term.basis), default=0)) > MAX_DEGREE:
            raise LayoutError(f"Gram form of degree {degree} is above {MAX_DEGREE}")
        built = max(built, degree // 2 + half_degree(term.weight))
    for side in recipe.rows:
        degs = [g.degree for g in side.constraint_list(source)]
        for key, value in cones[side.family].items():
            _finite(value, "coeff")
            if not (isinstance(key, tuple) and len(key) == 2 and all(
                    isinstance(powers, tuple) and len(powers) == len(degs)
                    and all(type(a) is int and a >= 0 for a in powers) for powers in key)):
                raise ValueError(f"cone term subset {key!r}; expected two lists of "
                                 f"{len(degs)} nonnegative ints")
            if (degree := sum((a + b) * d for a, b, d in zip(*key, degs))) > MAX_DEGREE:
                raise LayoutError(f"cone product {key} has degree {degree} above {MAX_DEGREE}")
            top = max(top, degree)
    if recipe.sides and cert.order != built:
        raise ValueError(f"certificate order {cert.order} is not {built}, "
                         f"the order its terms are built to")
    if cert.order < (top + 1) // 2:  # every product's degree is at most 2 * order
        raise ValueError(f"certificate order {cert.order} is below {(top + 1) // 2}: "
                         f"it has a cone product of degree {top}")
    return source


def _pieces(cert, source: ProblemInstance):
    """The right-hand side of a certificate that passed :func:`_checked`,
    as :meth:`Polynomial.sum` pieces over ``source``, the instance it
    returned: the SOS terms, then the cone terms of each row side."""
    layout = source.layout
    for term in cert.terms:
        # v^T G v * w = (sum_ij G_ij * m_{a_i + a_j}) * w, over all k^2 entries of G.
        basis = [layout.pack(a) for a in term.basis]
        pieces = []
        for a, row in zip(basis, np.asarray(term.gram, dtype=float).tolist()):
            for b, g in zip(basis, row):
                if g:
                    num, den = g.as_integer_ratio()
                    pieces.append((1, ((a + b, num),), den))
        product = Polynomial.sum(layout, pieces) * term.weight
        yield 1, product.nums.items(), product.den
    cones = _cone_coeffs(cert)
    for side in _recipe(cert.mode).rows:
        nonzero = {key: c for key, c in cones[side.family].items() if c != 0.0}
        total = cone_sum(side.constraint_list(source), layout, nonzero)
        yield 1, total.nums.items(), total.den


def expand(cert, instance: ProblemInstance) -> Polynomial:
    """Exact polynomial expansion of the certificate's right-hand side
    (without lambda): the object that should coefficient-match f - lambda.
    It refuses, before expanding, what :func:`_checked` refuses.  Cone terms
    and SOS weights are built from the instance's original constraints with
    the recorded normalization divisors re-applied, so the caller passes the
    unnormalized instance.
    """
    return Polynomial.sum(instance.layout, _pieces(cert, _checked(cert, instance)))


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
    joint block ``xyz`` (dense), whose terms may couple X and Z.  What
    :func:`_checked` refuses, :func:`expand` refuses here before expanding.
    """
    expansion = expand(cert, instance)  # refuses a lambda that is not finite, before it is read
    residual = float((instance.objective - Fraction(cert.lam) - expansion).max_norm())
    coupling = _coupling_free(cert, instance.layout)

    psd_ok = not any(
        min_eigenvalue(t.gram) < -tol * (1.0 + float(np.max(np.abs(t.gram), initial=0.0)))
        for t in cert.terms
    ) and all(v >= -tol for coeffs in _cone_coeffs(cert).values() for v in coeffs.values())

    bound = tol * (1.0 + float(instance.objective.max_norm()))
    joint = any(side.block == "xyz" for side in _recipe(cert.mode).sides)  # may couple X and Z
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
        for family, coeffs in _cone_coeffs(cert).items()
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


def _finite(value, field: str) -> None:
    if not isfinite(float(value)):
        raise ValueError(f"certificate {field} {value!r} is not finite")


def _exact(value, field: str) -> Fraction:
    """``value`` (a number, not a bool, or a decimal or ``p/q`` string) as an
    exact Fraction."""
    try:
        if type(value) is not bool:
            return Fraction(value)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        pass
    raise ValueError(f"certificate {field} {value!r} is not a finite number")


def _number(value, field: str) -> float:
    """A JSON number or decimal string, not a bool, as a float; inf and nan
    are read, for :func:`_checked` to refuse by name."""
    try:
        if type(value) in (int, float, str):
            return float(value)
    except (ValueError, OverflowError):
        pass
    raise ValueError(f"certificate {field} {value!r} is not a number")


def _list(value, field: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"certificate {field} {value!r}; expected a list")
    return value


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


def certificate_from_json(text: str, instance: ProblemInstance):
    """Rebuild a certificate against ``instance``, ignoring the ``kind`` of
    older files, and check it by :func:`_checked`, the rule :func:`verify`
    checks by.  A term with a ``coeff`` is a cone term; any other is an SOS
    term of its family's PSD side in the recipe of ``mode``, its weight
    rebuilt by :meth:`relax.Side.weight` from the constraints ``scaling``
    divides.  As from :func:`extract`, the result is a
    :class:`ConeCertificate` when the recipe has rows only, else an
    :class:`SOSCertificate`.

    Before the rule, ``ValueError`` refuses by name what the file's form
    cannot hold: a missing field, a ``layout`` other than the instance's,
    another JSON value where a list, a number (not a bool) or an int index
    belongs, a ragged ``gram``, a cone family other than ``xy`` and ``yz``,
    and a cone subset that its family lists twice (SOS terms may repeat).
    """
    data = json.loads(text)
    if (stated := _field(data, "layout")) != _layout_json(instance.layout):
        raise ValueError(f"certificate layout {stated!r} is not the instance's")
    recipe = _recipe(mode := _field(data, "mode"))
    if isinstance(scaling := _field(data, "scaling"), list):  # anything else goes to the rule
        scaling = tuple(_exact(s, "scaling") for s in scaling)
    source = normalize_krivine(instance, scaling) if isinstance(scaling, tuple) else instance
    terms, coeffs = [], {"xy": {}, "yz": {}}
    for t in _list(_field(data, "terms"), "terms"):
        family, subset = _field(t, "family"), _field(t, "subset")
        if "coeff" in t:
            if family not in coeffs:
                raise ValueError(f"no {family!r} cone family in {mode!r} relaxations")
            if not all(isinstance(p, list) and not any(isinstance(a, (list, dict)) for a in p)
                       for p in _list(subset, "cone term subset")):
                raise ValueError(f"cone term subset {subset!r}; expected lists of powers")
            if (key := tuple(map(tuple, subset))) in coeffs[family]:
                raise ValueError(f"cone term {family} {key} is listed twice")
            coeffs[family][key] = _number(t["coeff"], "coeff")
            continue
        side = recipe.side(family)
        if not isinstance(subset, list) or any(type(j) is not int for j in subset):
            raise ValueError(f"term subset {subset!r}; expected a list of constraint indices")
        # The rule refuses whatever is not a list of ints here.
        basis = _list(_field(t, "basis"), "basis")
        basis = tuple(tuple(e) if isinstance(e, list) else e for e in basis)
        gram = [[_number(v, "gram entry") for v in _list(row, "gram row")]
                for row in _list(_field(t, "gram"), "gram")]
        if len(set(map(len, gram))) > 1:
            raise ValueError(f"certificate gram has rows of lengths {[len(row) for row in gram]}")
        weight = side.weight(source, subset)  # refuses an index out of range
        terms.append(SOSTerm(family, tuple(subset), side.block, weight, basis, np.array(gram)))
    certificate = ConeCertificate if recipe.rows and not recipe.sides else SOSCertificate
    cert = certificate(lam=_number(_field(data, "lambda"), "lambda"), terms=tuple(terms),
                       mode=mode, order=_field(data, "order"), layout=instance.layout,
                       scaling=scaling, xy_coeffs=coeffs["xy"], yz_coeffs=coeffs["yz"])
    _checked(cert, instance)
    return cert
