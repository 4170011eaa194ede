#!/usr/bin/env python3
"""Bound tables for every built-in instance across the applicable variants.

A variant whose minimum order exceeds ``--max-order`` is skipped with a
line saying so.

Usage: python scripts/run_suite.py [--max-order R] [--tol T]
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
from sparsepos.cli import render_text
from sparsepos.hierarchy import RunConfig, run_hierarchy
from sparsepos.relax import min_order

VARIANTS_BY_INSTANCE = {
    "twoballs": ["schmudgen-sparse", "putinar-sparse", "dense", "krivine"],
    "product": ["product", "schmudgen-sparse", "dense"],
    "interval": ["schmudgen-sparse", "dense", "krivine"],
    "interval-affine": ["schmudgen-sparse", "krivine"],
    "constant5": ["schmudgen-sparse", "krivine"],
    "fivevar": ["schmudgen-sparse", "putinar-sparse", "dense"],
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-order", type=int, default=3)
    parser.add_argument("--tol", type=float, default=1e-8)
    args = parser.parse_args(argv)

    for name, variants in VARIANTS_BY_INSTANCE.items():
        instance = problems.get(name)
        box, step = problems.ORACLE_SETTINGS[name]
        print(f"\n=== {name} ===")
        for variant in variants:
            r0 = min_order(instance, variant)
            if r0 > args.max_order:
                print(f"variant: {variant} skipped, minimum order {r0} exceeds --max-order")
                continue
            k = len(instance.g_constraints) + len(instance.h_constraints)
            bounds = [1] * k if variant == "krivine" else None
            config = RunConfig(
                variant=variant,
                r_min=r0,
                r_max=args.max_order,
                tol=args.tol,
                oracle_box=box,
                oracle_step=step,
                krivine_bounds=bounds,
            )
            result = run_hierarchy(instance, config)
            print(render_text(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
