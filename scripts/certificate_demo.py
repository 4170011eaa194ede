#!/usr/bin/env python3
"""Write a positivity certificate for one built-in instance and print it.

Runs the command line on the instance's problem text, at one order (the
variant's minimum unless ``--order`` is given):

    sparsepos PROBLEM --variant V --order R --certificate OUT

``OUT`` is ``--out``, or a temporary file.  The command prints its bound
table and is the one writer of the file: it writes only a certificate that
verifies and whose JSON reads back, through ``certificate_from_json``, as a
certificate that verifies with the same lambda and normalization divisors.
A variant with cone rows (krivine) normalizes the constraints into [0, 1]
with automatic upper bounds first.  Unless the command exits 0, its exit
code is returned: 2 when the variant cannot be assembled at the order, does
not apply to the instance or finds no bound, 3 when the solve is not optimal
or the certificate does not verify or does not read back.  Otherwise the
file is loaded against the instance and its terms, its coefficient residual
and its expansion of f - lambda are printed.

Usage: python scripts/certificate_demo.py [instance] [--variant V] [--order R] [--out F]
"""

import argparse
import os
import sys
import tempfile

# Run from a bare checkout: import the package from ROOT/src, not an installed copy.
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)
import sparsepos

if not os.path.abspath(sparsepos.__file__).startswith(SRC + os.sep):
    raise SystemExit(f"sparsepos imported from {sparsepos.__file__}, not from {SRC}")

from sparsepos import cli, problems
from sparsepos.certify import certificate_from_json, expand, verify
from sparsepos.relax import VARIANTS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("instance", nargs="?", default="twoballs", choices=sorted(problems.TEXTS))
    parser.add_argument("--variant", default="schmudgen-sparse", choices=VARIANTS)
    parser.add_argument("--order", type=int, default=None)
    parser.add_argument("--out", default=None, help="write the certificate JSON here")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        problem, out = os.path.join(tmp, "problem.sp"), args.out or os.path.join(tmp, "cert.json")
        with open(problem, "w", encoding="utf-8") as handle:
            handle.write(problems.TEXTS[args.instance])
        order = [] if args.order is None else ["--order", str(args.order)]
        code = cli.main([problem, "--variant", args.variant, *order, "--certificate", out])
        if code:
            return code
        instance = problems.get(args.instance)
        with open(out, encoding="utf-8") as handle:
            cert = certificate_from_json(handle.read(), instance)

    cone_terms = len(cert.xy_coeffs) + len(cert.yz_coeffs)
    print(f"certificate: mode={cert.mode} order={cert.order} lambda={cert.lam:.9g} "
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
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
