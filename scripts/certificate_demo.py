#!/usr/bin/env python3
"""Extract, verify and serialize a positivity certificate for one instance.

Solves the chosen relaxation, re-expands the dual Gram blocks in exact
rational arithmetic, and reports the coefficient residual of the identity
f - lambda = sum of certified nonnegative terms.  A variant with cone rows
(krivine) first normalizes the constraints into [0, 1] with automatic upper
bounds; the certificate is verified against the unnormalized instance.  Exits 2
when the variant cannot be assembled at the order (or no bound is found), 3
when the solve is not optimal or the certificate does not verify; ``--out`` is
written only for a certificate that verifies.  The written file is read back
with ``certificate_from_json``; unless that copy verifies and has the same
lambda and the same normalization divisors, the file is removed and the exit
code is 3.

Usage: python scripts/certificate_demo.py [instance] [--variant V] [--order R] [--out F]
"""

import argparse
import os
import sys

# Run from a bare checkout: import the package from ROOT/src, not an installed copy.
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)
import sparsepos

if not os.path.abspath(sparsepos.__file__).startswith(SRC + os.sep):
    raise SystemExit(f"sparsepos imported from {sparsepos.__file__}, not from {SRC}")

from sparsepos import problems
from sparsepos.certify import certificate_from_json, certificate_to_json, expand, extract, verify
from sparsepos.relax import (
    RECIPES,
    BoundError,
    CapacityError,
    ModeError,
    NormalizationError,
    OrderError,
    assemble,
    min_order,
    normalize_krivine,
)
from sparsepos.solver import solve


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("instance", nargs="?", default="twoballs",
                        choices=sorted(problems.REGISTRY))
    parser.add_argument("--variant", default="schmudgen-sparse", choices=list(RECIPES))
    parser.add_argument("--order", type=int, default=None)
    parser.add_argument("--out", default=None, help="write the certificate JSON here")
    args = parser.parse_args(argv)

    instance = problems.get(args.instance)
    r = args.order if args.order is not None else min_order(instance, args.variant)

    try:
        normed = normalize_krivine(instance) if RECIPES[args.variant].rows else instance
        program = assemble(normed, args.variant, r)
    except (OrderError, CapacityError, ModeError, NormalizationError, BoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = solve(program)
    print(f"solve: status={report.status} bound={report.primal_objective:.9g} "
          f"lambda={report.dual_objective:.9g} iterations={report.iterations}")
    if report.status != "optimal":
        return 3

    cert = extract(report, program)
    cone_terms = len(cert.xy_coeffs) + len(cert.yz_coeffs)
    print(f"certificate: mode={cert.mode} order={cert.order} "
          f"terms={len(cert.terms) + cone_terms}")
    for term in cert.terms:
        weight = str(term.weight) if term.weight.degree else "1"
        print(f"  [{term.family}] weight {weight} on {len(term.basis)} monomials")

    result = verify(cert, instance)
    print(f"verify: residual={result.residual:.3e} psd={result.psd_ok} "
          f"coupling_free={result.coupling_free} passed={result.passed}")

    identity = expand(cert, instance)
    print(f"identity check: f - lambda has {len(instance.objective.terms)} terms, "
          f"expansion reproduces them within the residual above "
          f"({len(identity.terms)} expanded terms)")
    if not result.passed:
        print("error: the certificate does not verify; nothing written", file=sys.stderr)
        return 3

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(certificate_to_json(cert) + "\n")
        with open(args.out, encoding="utf-8") as handle:
            back = certificate_from_json(handle.read(), instance)
        if not (verify(back, instance).passed and (back.lam, back.scaling) == (cert.lam, cert.scaling)):
            os.remove(args.out)
            print(f"error: {args.out} does not read back as the certificate written; "
                  f"removed", file=sys.stderr)
            return 3
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
