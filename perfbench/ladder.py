"""Workload ladders and the per-rung pipeline with its correctness gate.

A rung is one (instance, variant, order).  Each rung calls the public
function of every layer in the order a user meets them:

    cli.parse_problem -> relax.assemble_* -> solver.solve_sdp / solve_lp
    -> certify.extract_sos / extract_cone -> certify.verify
    -> certify.certificate_to_json + certificate_from_json

and then passes a gate.  A rung fails unless the status is optimal, the
certificate verifies, the certificate rebuilt from its JSON verifies too,
the bound is at most f at sampled feasible points (plus tolerance), the
bound does not decrease from the previous order, and the built-ins match
their known minima.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from sparsepos import relax
from sparsepos.certify import (
    ConeCertificate,
    certificate_from_json,
    certificate_to_json,
    extract_cone,
    extract_sos,
    verify,
)
from sparsepos.cli import parse_problem
from sparsepos.solver import OPTIMAL, solve_lp, solve_sdp

import gen
from workloads import TWIN_VARIANT, WORKLOADS, Rung, shared

SOLVE_TOL = 1e-8  # the command line's default
VERIFY_TOL = 1e-5  # certify.verify's default
SOUNDNESS_TOL = 1e-5  # relative slack of bound over sampled f
MONOTONICITY_TOL = 1e-7
KNOWN_MIN_TOL = 1e-6  # top-order bound of a built-in against its minimum
SAMPLES = 512


# -- reference values -------------------------------------------------------

def _float_poly(poly):
    exps = np.array(list(poly.terms), dtype=float)
    coeffs = np.array([float(c) for c in poly.terms.values()])
    return exps, coeffs


def _evaluate(poly, points: np.ndarray) -> np.ndarray:
    exps, coeffs = _float_poly(poly)
    return (np.prod(points[:, None, :] ** exps[None, :, :], axis=2) * coeffs).sum(axis=1)


def _ball(rng: np.random.Generator, count: int, dim: int, radius: np.ndarray) -> np.ndarray:
    direction = rng.standard_normal((count, dim))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    return direction * (radius * rng.random(count) ** (1.0 / dim))[:, None]


def sample_feasible(instance, name: str, seed: int, count: int = SAMPLES) -> np.ndarray:
    """Points satisfying every constraint of ``instance``: uniform in the box
    for box instances; for two-ball instances (x, y) uniform in the unit
    ball and z uniform in the ball of radius sqrt(1 - |y|^2)."""
    layout = instance.layout
    n, m, p = layout.n, layout.m, layout.p
    rng = np.random.default_rng([seed, sum(map(ord, name))])
    if gen.FAMILIES.get(name, ("ball",))[0] == "box":
        points = rng.uniform(-1.0, 1.0, (count, n + m + p))
    else:
        xy = _ball(rng, count, n + m, np.ones(count))
        rest = np.sqrt(np.clip(1.0 - np.sum(xy[:, n:] ** 2, axis=1), 0.0, None))
        points = np.hstack([xy, _ball(rng, count, p, 0.999 * rest)])
    ok = np.ones(count, dtype=bool)
    for c in (*instance.g_constraints, *instance.h_constraints):
        ok &= _evaluate(c, points) >= 0.0
    return points[ok]


def sampled_minimum(instance, name: str, seed: int) -> float:
    return float(np.min(_evaluate(instance.objective, sample_feasible(instance, name, seed))))


# -- one rung ---------------------------------------------------------------

@dataclass
class RungResult:
    rung: Rung
    wall_s: float
    cpu_s: float
    status: str
    bound: float | None
    failures: list[str] = field(default_factory=list)
    counts: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"id": self.rung.id, "wall_s": self.wall_s, "cpu_s": self.cpu_s,
                "status": self.status, "bound": self.bound, "failures": self.failures,
                "counts": self.counts}


def _assemble(rung: Rung, instance):
    if rung.variant == "krivine":
        bounds = [1] * (len(instance.g_constraints) + len(instance.h_constraints))
        return relax.assemble_krivine(relax.normalize_krivine(instance, bounds), rung.order)
    if rung.variant == "schmudgen-sparse":
        return relax.assemble_sparse_schmudgen(instance, rung.order)
    if rung.variant == "putinar-sparse":
        return relax.assemble_sparse_putinar(instance, rung.order)
    return relax.assemble_dense(instance, rung.order)


def _solve(program):
    solve = solve_lp if isinstance(program, relax.LinearProgram) else solve_sdp
    return solve(program, tol=SOLVE_TOL)


def _run_pipeline(rung: Rung, text: str, tracer):
    rid = rung.id
    with tracer.span("cli", rid):
        instance = parse_problem(text)
    with tracer.span("relax", rid):
        program = _assemble(rung, instance)
    with tracer.span("solver", rid):
        report = _solve(program)
    out = {"instance": instance, "program": program, "report": report}
    if report.status != OPTIMAL:
        return out
    with tracer.span("certify.extract", rid):
        extract = extract_cone if isinstance(program, relax.LinearProgram) else extract_sos
        cert = extract(report, program)
    out["cert"] = cert
    out["check"], out["json"], out["check_json"] = check_certificate(cert, instance, tracer, rid)
    return out


def check_certificate(cert, instance, tracer, rid: str):
    """Verify ``cert``, round-trip it through JSON and check the rebuilt one."""
    with tracer.span("certify.verify", rid):
        check = verify(cert, instance, tol=VERIFY_TOL)
    with tracer.span("certify.json", rid):
        text = certificate_to_json(cert)
        back = certificate_from_json(text, instance)
    if same_certificate(cert, back):
        # verify is a pure function of the certificate, so a bit-identical
        # rebuild verifies exactly as the original did.
        return check, text, check
    with tracer.span("certify.verify", rid):
        return check, text, verify(back, instance, tol=VERIFY_TOL)


def same_certificate(a, b) -> bool:
    """True when two certificates carry bit-identical data."""
    if type(a) is not type(b) or (a.lam, a.order, a.mode, a.layout) != (
        b.lam, b.order, b.mode, b.layout
    ):
        return False
    if isinstance(a, ConeCertificate):
        return (a.xy_coeffs, a.yz_coeffs, a.scaling) == (b.xy_coeffs, b.yz_coeffs, b.scaling)
    return len(a.terms) == len(b.terms) and all(
        (s.family, s.subset, s.block, s.weight, s.basis)
        == (t.family, t.subset, t.block, t.weight, t.basis)
        and np.array_equal(s.gram, t.gram)
        for s, t in zip(a.terms, b.terms)
    )


def _counts(out) -> dict:
    program, report = out["program"], out["report"]
    M = len(program.variable_index) - 1
    counts = {"moments": M, "iterations": report.iterations}
    if isinstance(program, relax.LinearProgram):
        counts.update(
            max_block=1,
            psd_entries=0,
            lp_rows=program.num_rows,
            form_terms=sum(len(form) for _, form in program.rows),
            cone_bytes=8 * M * program.num_rows,
        )
    else:
        counts.update(
            max_block=program.max_block_size,
            psd_entries=sum(
                len(mat.entries[i][j])
                for _, mat in program.psd_blocks
                for i in range(mat.size)
                for j in range(i, mat.size)
            ),
            lp_rows=0,
            form_terms=0,
            cone_bytes=8 * M * sum(mat.size**2 for _, mat in program.psd_blocks),
        )
    if "json" in out:
        counts.update(
            json_bytes=len(out["json"].encode()),
            terms=len(out["cert"].terms) if hasattr(out["cert"], "terms")
            else len(out["cert"].xy_coeffs) + len(out["cert"].yz_coeffs),
            residual=max(out["check"].residual, out["check_json"].residual),
            verified=out["check"].passed and out["check_json"].passed,
        )
    return counts


def gate(rung: Rung, out, reference_min: float, previous_bound: float | None) -> list[str]:
    """Names of the correctness gates the rung failed."""
    report = out["report"]
    if report.status != OPTIMAL:
        return [f"status {report.status}"]
    failures = []
    if not out["check"].passed:
        failures.append(f"verify residual {out['check'].residual:.3e}")
    if not out["check_json"].passed:
        failures.append(f"verify after JSON round trip residual {out['check_json'].residual:.3e}")
    bound = report.primal_objective
    if bound > reference_min + SOUNDNESS_TOL * (1.0 + abs(reference_min)):
        failures.append(f"bound {bound!r} above sampled f {reference_min!r}")
    if previous_bound is not None and bound < previous_bound - MONOTONICITY_TOL:
        failures.append(f"bound {bound!r} below the previous order's {previous_bound!r}")
    known = gen.KNOWN_MINIMA.get(rung.instance)
    if known is not None:
        top = max(r.order for r in WORKLOADS["sparse-ladder"] + WORKLOADS["dense-ladder"]
                  if r.instance == rung.instance and r.variant == rung.variant)
        if bound > known + KNOWN_MIN_TOL:
            failures.append(f"bound {bound!r} above the known minimum {known}")
        if rung.order == top and abs(bound - known) > KNOWN_MIN_TOL:
            failures.append(f"top-order bound {bound!r} misses the known minimum {known}")
    return failures


def run_ladder(rungs: list[Rung], texts: dict[str, str], references: dict[str, float],
               tracer, with_counts: bool = False) -> list[RungResult]:
    """Run ``rungs`` in order, timing each and gating its outcome.

    An exception inside a rung fails that rung and the ladder goes on.
    """
    results = []
    last_bound: dict[tuple[str, str], float] = {}
    for rung in rungs:
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            with tracer.span("rung", rung.id):
                out = _run_pipeline(rung, texts[rung.instance], tracer)
        except Exception as exc:  # a failed rung is a result, not a crash
            wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
            failure = "".join(traceback.format_exception_only(exc)).strip()
            results.append(RungResult(rung, wall, cpu, "exception", None, [failure]))
            continue
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        key = (rung.instance, rung.variant)
        failures = gate(rung, out, references[rung.instance], last_bound.get(key))
        report = out["report"]
        bound = report.primal_objective if report.status == OPTIMAL else None
        if bound is not None:
            last_bound[key] = bound
        results.append(RungResult(
            rung, wall, cpu, report.status, bound, failures,
            _counts(out) if with_counts else {},
        ))
    return results


def time_solves(rungs: list[Rung], texts: dict[str, str]) -> float:
    """Seconds spent in the solver over ``rungs``; parsing and assembly untimed."""
    total = 0.0
    for rung in rungs:
        program = _assemble(rung, parse_problem(texts[rung.instance]))
        start = time.perf_counter()
        _solve(program)
        total += time.perf_counter() - start
    return total


def twin_rungs(workload: str) -> list[Rung]:
    """Shared rungs of the variant the workload does not run itself."""
    own = set(WORKLOADS[workload])
    return [
        twin
        for name, r in shared(workload)
        for twin in (Rung(name, TWIN_VARIANT["sparse"], r), Rung(name, TWIN_VARIANT["dense"], r))
        if twin not in own
    ]


def run_twins(rungs: list[Rung], texts: dict[str, str], tracer) -> list[dict]:
    """Parse, assemble and solve the twin rungs under spans; no certificate."""
    out = []
    for rung in rungs:
        with tracer.span("twin", rung.id):
            with tracer.span("cli", rung.id):
                instance = parse_problem(texts[rung.instance])
            with tracer.span("relax", rung.id):
                program = _assemble(rung, instance)
            with tracer.span("solver", rung.id):
                report = _solve(program)
        out.append({
            "id": rung.id, "status": report.status,
            "bound": report.primal_objective if report.status == OPTIMAL else None,
            "counts": {"moments": len(program.variable_index) - 1,
                       "max_block": program.max_block_size},
        })
    return out
