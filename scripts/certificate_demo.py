#!/usr/bin/env python3
"""Extract, verify and serialize a positivity certificate for one instance.

Solves the chosen relaxation, re-expands the dual Gram blocks in exact
rational arithmetic, and reports the coefficient residual of the identity
f - lambda = sum of certified nonnegative terms.  Exits 3 when the solve is
not optimal or the certificate does not verify; ``--out`` is written only for
a certificate that verifies.

Usage: python scripts/certificate_demo.py [instance] [--variant V] [--order R] [--out F]
"""

import argparse
import sys

from sparsepos import problems
from sparsepos.certify import certificate_to_json, expand, extract_sos, verify
from sparsepos.relax import RECIPES, CapacityError, ModeError, OrderError, assemble, min_order
from sparsepos.solver import solve_sdp


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
        program = assemble(instance, args.variant, r)
    except (OrderError, CapacityError, ModeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = solve_sdp(program)
    print(f"solve: status={report.status} bound={report.primal_objective:.9g} "
          f"lambda={report.dual_objective:.9g} iterations={report.iterations}")
    if report.status != "optimal":
        return 3

    cert = extract_sos(report, program)
    print(f"certificate: mode={cert.mode} order={cert.order} terms={len(cert.terms)}")
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
            handle.write(certificate_to_json(cert))
            handle.write("\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
