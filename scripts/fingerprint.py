#!/usr/bin/env python3
"""Print a bit-level fingerprint of the benchmark rungs for one checkout.

Every rung of the chosen perfbench workloads, and then every distinct twin
rung (the shared rungs under the variant a workload does not run itself),
goes through the public pipeline against the sources under ROOT: parse the
generated problem text, assemble, solve, extract the certificate, verify it
and write its JSON.  One JSON line per record gives the status, the
iteration count, ``float.hex`` of both objectives, whether the certificate
verifies, ``float.hex`` of its residual, the SHA-256 of its JSON and the
SHA-256 of its exact expansion (null where the solve is not optimal).  The
expansion is hashed through the public ``terms`` view of
``certify.expand``, in sorted exponent order, so the script also runs on
older trees and the hash checks the whole polynomial, not only the
max-norm behind the residual.

Two checkouts print the same lines exactly when every one of those results
is bit-identical, so running this on two trees and comparing the output
checks that a refactor changed no number.  Only ``gen`` and ``workloads``
are imported from ROOT's ``perfbench/``.

A change that reorders floating-point sums moves the objectives in their
last digits, so ``--compare OLD NEW`` checks two saved outputs with a
tolerance instead: the same records, equal status, iteration count and
verification result, and both objectives within RTOL*(1+|old|) with
RTOL = 1e-8.  It prints the largest relative difference of each objective
and every mismatch, and exits 1 on any mismatch.

Usage: python scripts/fingerprint.py ROOT [--seeds 1 2 3] [--workloads W ...]
       python scripts/fingerprint.py --compare OLD NEW
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

WORKLOADS = ["sparse-ladder", "dense-ladder", "krivine-box"]
SOLVE_TOL = 1e-8  # the command line's default
EXACT = ("status", "iterations", "passed")
CLOSE = ("primal", "dual")
RTOL = 1e-8  # the acceptance gate for CLOSE fields


def _load(root: str):
    """Import the package from ROOT/src and the benchmark's generators from
    ROOT/perfbench, refusing an installed copy of the package."""
    src = os.path.join(root, "src")
    sys.path[:0] = [src, os.path.join(root, "perfbench")]
    import sparsepos

    if not os.path.abspath(sparsepos.__file__).startswith(src + os.sep):
        raise SystemExit(f"sparsepos imported from {sparsepos.__file__}, not from {src}")


def _twins(names: list[str]) -> list:
    """The distinct twin rungs of the workloads, as a traced benchmark run
    picks them: shared rungs under the variant the workload does not run."""
    import workloads

    twins = [
        twin
        for name in names
        for instance, r in workloads.shared(name)
        for side in ("sparse", "dense")
        for twin in [workloads.Rung(instance, workloads.TWIN_VARIANT[side], r)]
        if twin not in workloads.WORKLOADS[name]
    ]
    return list(dict.fromkeys(twins))


def record(rung, text: str) -> dict:
    from sparsepos import relax
    from sparsepos.certify import certificate_to_json, expand, extract_cone, extract_sos, verify
    from sparsepos.cli import parse_problem
    from sparsepos.solver import OPTIMAL, solve

    instance = parse_problem(text)
    if rung.variant == "krivine":
        bounds = [1] * (len(instance.g_constraints) + len(instance.h_constraints))
        program = relax.assemble(relax.normalize_krivine(instance, bounds), "krivine", rung.order)
    else:
        program = relax.assemble(instance, rung.variant, rung.order)
    report = solve(program, tol=SOLVE_TOL)
    out = {
        "status": report.status,
        "iterations": report.iterations,
        "primal": float.hex(report.primal_objective),
        "dual": float.hex(report.dual_objective),
        "passed": None,
        "residual": None,
        "json_sha256": None,
        "expansion_sha256": None,
    }
    if report.status == OPTIMAL:
        extract = extract_cone if isinstance(program, relax.LinearProgram) else extract_sos
        cert = extract(report, program)
        check = verify(cert, instance)
        text = certificate_to_json(cert)
        terms = sorted(expand(cert, instance).terms.items())
        expansion = "".join(f"{list(e)} {c}\n" for e, c in terms)
        out.update(
            passed=check.passed,
            residual=float.hex(check.residual),
            json_sha256=hashlib.sha256(text.encode()).hexdigest(),
            expansion_sha256=hashlib.sha256(expansion.encode()).hexdigest(),
        )
    return out


def _records(path: str) -> dict:
    with open(path) as f:
        lines = [json.loads(line) for line in f if line.strip()]
    return {(r["seed"], r["set"], r["rung"]): r for r in lines}


def _relative(old: str, new: str) -> float:
    a, b = float.fromhex(old), float.fromhex(new)
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    diff = abs(a - b) / (1.0 + abs(a))
    return math.inf if math.isnan(diff) else diff  # one side inf or nan


def compare(old_path: str, new_path: str) -> int:
    """Print how the records of NEW differ from those of OLD; 1 on any
    mismatch, else 0."""
    old, new = _records(old_path), _records(new_path)
    mismatches = [f"only in {old_path}: {key}" for key in old.keys() - new.keys()]
    mismatches += [f"only in {new_path}: {key}" for key in new.keys() - old.keys()]
    largest = dict.fromkeys(CLOSE, 0.0)
    for key in sorted(old.keys() & new.keys(), key=str):
        a, b = old[key], new[key]
        mismatches += [f"{key}: {f} {a[f]} -> {b[f]}" for f in EXACT if a[f] != b[f]]
        for f in CLOSE:
            diff = _relative(a[f], b[f])
            largest[f] = max(largest[f], diff)
            if not diff <= RTOL:
                mismatches.append(f"{key}: {f} differs by {diff:.3g} relative")
    print(f"{len(old.keys() & new.keys())} records compared, rtol {RTOL:g}")
    for f, diff in largest.items():
        print(f"{f}: largest relative difference {diff:.3g}")
    for line in mismatches:
        print("MISMATCH", line)
    return 1 if mismatches else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", nargs="?", help="checkout whose src/ and perfbench/ are used")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--workloads", nargs="+", default=WORKLOADS)
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two saved outputs instead of printing one")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.root is None:
        parser.error("ROOT is required unless --compare is given")
    _load(os.path.abspath(args.root))
    import gen
    import workloads

    for seed in args.seeds:
        runs = [(name, rung) for name in args.workloads for rung in workloads.WORKLOADS[name]]
        runs += [("twin", rung) for rung in _twins(args.workloads)]
        for kind, rung in runs:
            line = {"seed": seed, "set": kind, "rung": rung.id}
            line.update(record(rung, gen.instance_text(rung.instance, seed)))
            print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
