"""Positivity certificates: extraction from dual solutions, exact symbolic
re-expansion, and verification.

A sum-of-squares certificate asserts f - lambda = sum_terms v^T G v * w,
where each term carries a monomial basis v over one variable block, a PSD
Gram matrix G, and a weight polynomial w (a product of constraints).  A cone
certificate asserts f - lambda = sum c_ab * g^a (1-g)^b + sum c_ab * h^a (1-h)^b
with nonnegative scalars.  Both shapes keep the two variable sides separate,
so sparse-mode certificates never produce a monomial coupling X with Z.

Verification re-expands the certificate in exact rational arithmetic after
snapping floating factor entries to rationals (continued fractions,
denominators up to 10^6), and measures the true coefficient residual against
f - lambda.  The residual therefore accounts for both solver noise and the
snapping itself.

Cone coefficients are not snapped: each float is exact as a rational.  Their
products g^a (1-g)^b come from the same depth-first walk that assembles the
LP rows (:func:`relax.cone_products`), and the weighted sum is accumulated
exactly as integers over one common denominator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .moments import min_eigenvalue
from .poly import BlockLayout, Exponent, Polynomial, common_denominator, integer_numerators
from .problem import ProblemInstance
from .relax import ConicProgram, LinearProgram, cone_products, recipe_side
from .solver import OPTIMAL, SolveReport

SNAP_DENOMINATOR = 10**6


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
    lam: float
    terms: tuple[SOSTerm, ...]
    mode: str  # "schmudgen" | "putinar" | "product" | "dense"
    order: int
    layout: BlockLayout


@dataclass(frozen=True)
class ConeCertificate:
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


def _snap(value: float) -> Fraction:
    return Fraction(value).limit_denominator(SNAP_DENOMINATOR)


def _expand_sos_term(term: SOSTerm, layout: BlockLayout) -> Polynomial:
    eigvals, eigvecs = np.linalg.eigh(0.5 * (term.gram + term.gram.T))
    total = Polynomial.zero(layout)
    for lam_i, column in zip(eigvals, eigvecs.T):
        if lam_i == 0.0:
            continue
        sign = 1 if lam_i > 0 else -1
        factor = np.sqrt(abs(lam_i)) * column
        poly = Polynomial.from_terms(
            layout,
            {exp: _snap(float(entry)) for exp, entry in zip(term.basis, factor)},
        )
        total = total + (poly * poly).scale(sign)
    return total * term.weight


def _scaled_constraints(instance: ProblemInstance, scaling) -> tuple[list, list]:
    polys = list(instance.g_constraints) + list(instance.h_constraints)
    if len(scaling) != len(polys):
        raise ValueError("scaling record does not match the instance's constraints")
    scaled = [p.scale(Fraction(1, 1) / Fraction(s)) for p, s in zip(polys, scaling)]
    ng = len(instance.g_constraints)
    return scaled[:ng], scaled[ng:]


def expand(cert, instance: ProblemInstance) -> Polynomial:
    """Exact polynomial expansion of the certificate's right-hand side
    (without lambda): the object that should coefficient-match f - lambda.

    Cone certificates are expanded against the instance's original
    constraints with the recorded normalization divisors re-applied, so the
    caller passes the unnormalized instance.
    """
    layout = instance.layout
    if isinstance(cert, SOSCertificate):
        total = Polynomial.zero(layout)
        for term in cert.terms:
            if len(term.basis) and len(term.basis[0]) != layout.nvars:
                raise ValueError("certificate basis does not match the instance layout")
            total = total + _expand_sos_term(term, layout)
        return total
    if isinstance(cert, ConeCertificate):
        g_scaled, h_scaled = _scaled_constraints(instance, cert.scaling)
        # sum c * P accumulates as integers over the running common
        # denominator ``den`` of every term so far.
        sums: dict[Exponent, int] = {}
        den = 1
        for constraints, coeffs in ((g_scaled, cert.xy_coeffs), (h_scaled, cert.yz_coeffs)):
            pairs = [pair for pair, value in coeffs.items() if value != 0.0]
            for pair, product in cone_products(constraints, layout, pairs):
                c = Fraction(coeffs[pair])
                dp = common_denominator(product.terms)
                d = dp * c.denominator
                grown = lcm(den, d)
                if grown != den:
                    sums = {e: v * (grown // den) for e, v in sums.items()}
                    den = grown
                scale = c.numerator * (den // d)
                for e, v in integer_numerators(product.terms, dp).items():
                    sums[e] = sums.get(e, 0) + scale * v
        return Polynomial(layout, {e: Fraction(v, den) for e, v in sums.items() if v})
    raise TypeError(f"cannot expand a {type(cert).__name__}")


def _coupling_free(cert, expansion: Polynomial, layout: BlockLayout) -> bool:
    def clean(poly: Polynomial) -> bool:
        return not any(
            layout.touches_x(e) and layout.touches_z(e) for e in poly.terms
        )

    if not clean(expansion):
        return False
    if isinstance(cert, SOSCertificate):
        for term in cert.terms:
            block = term.block
            if block == "xyz":
                mixed = any(layout.touches_x(e) for e in term.basis) and any(
                    layout.touches_z(e) for e in term.basis
                )
                if mixed or not clean(term.weight):
                    return False
            else:
                if not all(layout.in_block(e, block) for e in term.basis):
                    return False
                if not term.weight.is_supported_on(block):
                    return False
    return True


def verify(cert, instance: ProblemInstance, tol: float = 1e-5) -> VerificationReport:
    """Check the representation identity, PSD/nonnegativity, and sparsity.

    The residual is the max-norm of the coefficients of
    f - lambda - expand(cert), computed exactly; it passes when below
    tol * (1 + max |coefficient of f|).  Dense-mode certificates may couple
    X and Z legitimately, so the coupling flag is reported but only gates
    the overall pass for sparse modes.
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
    dense = getattr(cert, "mode", "") == "dense"
    passed = residual <= bound and psd_ok and (coupling or dense)
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


def certificate_to_json(cert) -> str:
    layout = cert.layout
    head = {
        "mode": cert.mode,
        "order": cert.order,
        "lambda": _fmt(cert.lam),
        "layout": {"n": layout.n, "m": layout.m, "p": layout.p, "names": list(layout.names)},
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


def certificate_from_json(text: str, instance: ProblemInstance):
    """Rebuild a certificate against ``instance``.

    Each term's block and the constraints its weight multiplies come from
    the relaxation side of its (mode, family) (see :func:`relax.recipe_side`);
    weights are recomputed from the stored subsets.  An unknown kind, mode
    or family, or a Gram matrix that is not len(basis) x len(basis), raises
    ``ValueError``.
    """
    data = json.loads(text)
    layout = instance.layout
    lam = float(data["lambda"])
    kind, mode = data["kind"], data["mode"]
    if kind == "cone":
        if mode != "krivine":
            raise ValueError(f"unknown cone certificate mode {mode!r}")
        coeffs: dict = {"xy": {}, "yz": {}}
        for t in data["terms"]:
            if t["family"] not in coeffs:
                raise ValueError(f"unknown cone certificate family {t['family']!r}")
            key = (tuple(t["subset"][0]), tuple(t["subset"][1]))
            coeffs[t["family"]][key] = float(t["coeff"])
        scaling = tuple(Fraction(s) for s in data["scaling"])
        order = int(data["order"])
        return ConeCertificate(lam, coeffs["xy"], coeffs["yz"], scaling, order, layout)
    if kind != "sos":
        raise ValueError(f"unknown certificate kind {kind!r}")

    terms = []
    for t in data["terms"]:
        side = recipe_side(mode, t["family"])
        subset = tuple(t["subset"])
        basis = tuple(tuple(e) for e in t["basis"])
        gram = np.array([[float(v) for v in row] for row in t["gram"]])
        if gram.shape != (len(basis), len(basis)):
            raise ValueError(
                f"{t['family']} term has a Gram matrix of shape {gram.shape} "
                f"for {len(basis)} basis monomials"
            )
        weight = side.weight(instance, subset)
        terms.append(SOSTerm(t["family"], subset, side.block, weight, basis, gram))
    return SOSCertificate(lam, tuple(terms), mode, int(data["order"]), layout)
