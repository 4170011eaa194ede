#!/usr/bin/env python3
"""Benchmark of sparsepos: certified-bound ladders on the sparse, dense and
cone (krivine) paths.

    python3 perfbench/run.py --workload sparse-ladder --seed 1 --seconds 45 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Each workload is a closed loop in one process at a time: a fresh worker
process runs every rung of the ladder once (a pass), and passes repeat
while the next one still fits in ``--seconds``.  End-to-end metrics are
medians over passes.  ``--trace 1`` instead makes one untraced pass, one
traced pass and one solver-only pass with BLAS pinned to one thread, and
reports the per-layer metrics; the spans go to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from spans import self_times  # noqa: E402
from workloads import LARGEST, TWIN_VARIANT, WORKLOADS, shared  # noqa: E402

SETUP_PROBES = 2  # set-up-only processes before each pass
RUN_LIMIT_S = 170.0  # a run ends, result or not, within this many seconds
ONE_THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
LAYERS = {
    "cli": "cli.parse_s",
    "relax": "relax.assemble_s",
    "solver": "solver.solve_s",
    "certify.extract": "certify.extract_s",
    "certify.verify": "certify.verify_s",
    "certify.json": "certify.json_s",
}


class WorkerError(RuntimeError):
    pass


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(mode: str, workload: str, seed: int, limit: float, pin_blas: bool = False) -> dict:
    """Run one worker process to completion and return its JSON result.

    The worker is killed once the monotonic clock passes ``limit``.
    """
    env = dict(os.environ, **ONE_THREAD_ENV) if pin_blas else None
    start = _monotonic()
    proc = subprocess.run(
        [sys.executable, WORKER, mode, workload, str(seed), repr(start)],
        capture_output=True, text=True, timeout=max(0.0, limit - start), env=env, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = _monotonic() - start
    return result


def _failed(rungs: list[dict]) -> int:
    return sum(1 for r in rungs if r["failures"])


def _largest_walls(workload: str, rungs: list[dict]) -> list[float]:
    targets = {rung.id for rung in LARGEST[workload]}
    return [r["wall_s"] for r in rungs if r["id"] in targets]


def gated_run(workload: str, seed: int, seconds: float, limit: float
              ) -> tuple[dict, int, int, dict]:
    """End-to-end metrics: passes in fresh processes while they fit."""
    deadline = _monotonic() + seconds
    passes, setups, longest = [], [], 0.0
    while True:
        start = _monotonic()
        # Set-up-only processes between passes sample set-up time across
        # the whole run, not in one burst.
        setups += [spawn("setup", workload, seed, limit)["setup_s"] for _ in range(SETUP_PROBES)]
        result = spawn("pass", workload, seed, limit)
        passes.append(result)
        setups.append(result["setup_s"])
        longest = max(longest, _monotonic() - start)
        if _monotonic() + longest > deadline:
            break
    rungs = [r for p in passes for r in p["rungs"]]
    attempted, failed = len(rungs), _failed(rungs)
    median = statistics.median
    metrics = {
        "wall_s": (median(sum(r["wall_s"] for r in p["rungs"]) for p in passes), "s"),
        "largest_rung_s": (median(_largest_walls(workload, rungs)), "s"),
        "cpu_s": (median(sum(r["cpu_s"] for r in p["rungs"]) for p in passes), "s"),
        "peak_rss_mb": (median(p["peak_rss_mb"] for p in passes), "MB"),
        "setup_s": (median(setups), "s"),
        "verified_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    info = {
        "pass_wall_s": [sum(r["wall_s"] for r in p["rungs"]) for p in passes],
        "setup_samples": len(setups),
        "failed_ratio": failed / attempted,
        "blas": passes[0]["blas"],
        "failures": {r["id"]: r["failures"] for r in rungs if r["failures"]},
    }
    return metrics, attempted, failed, info


def _twin_metrics(workload: str, rows: dict[str, dict], layer_s: dict) -> dict:
    metrics = {}
    for name, r in shared(workload):
        tag = f"{name}-r{r}"
        sparse = f"{name}/{TWIN_VARIANT['sparse']}/r{r}"
        dense = f"{name}/{TWIN_VARIANT['dense']}/r{r}"
        base = {}
        for side, rid in (("sparse", sparse), ("dense", dense)):
            base[side] = {
                "solve_s": layer_s.get((rid, "solver"), 0.0),
                "moments": rows[rid]["counts"]["moments"],
                "max_block": rows[rid]["counts"]["max_block"],
            }
        for key, unit in (("solve_s", "s"), ("moments", "count"), ("max_block", "count")):
            ratio_name = key.replace("_s", "") + "_ratio"
            metrics[f"sparse_dense.{ratio_name}.{tag}"] = (
                base["sparse"][key] / base["dense"][key], "ratio")
            for side in ("sparse", "dense"):
                metrics[f"sparse_dense.{side}_{key}.{tag}"] = (base[side][key], unit)
        metrics[f"sparse_dense.bound_diff.{tag}"] = (
            (rows[dense]["bound"] or 0.0) - (rows[sparse]["bound"] or 0.0), "1")
    return metrics


def traced_run(workload: str, seed: int, limit: float) -> tuple[dict, int, int, dict]:
    """Per-layer metrics from one traced pass, plus an untraced pass for
    the tracing overhead and a one-thread solver pass."""
    plain = spawn("pass", workload, seed, limit)
    traced = spawn("traced", workload, seed, limit)
    one = spawn("solve", workload, seed, limit, pin_blas=True)
    if any(lib.get("threads") != 1 for lib in one["blas"]):
        raise WorkerError(f"BLAS not pinned to one thread: {one['blas']}")

    layer_s = self_times(traced["spans"])
    own = traced["rungs"]
    ids = {r["id"] for r in own}

    def layer_sum(name: str) -> float:
        return sum(v for (rid, span), v in layer_s.items() if span == name and rid in ids)

    def count_sum(key: str) -> int:
        return sum(r["counts"].get(key, 0) for r in own)

    solve_s = layer_sum("solver")
    metrics = {metric: (layer_sum(span), "s") for span, metric in LAYERS.items()}
    metrics.update({
        "relax.moments": (count_sum("moments"), "count"),
        "relax.max_block": (count_sum("max_block"), "count"),
        "relax.psd_entries": (count_sum("psd_entries"), "count"),
        "relax.form_terms": (count_sum("form_terms"), "count"),
        "relax.lp_rows": (count_sum("lp_rows"), "count"),
        "relax.cone_bytes_computed": (count_sum("cone_bytes"), "B"),
        "solver.ms_per_iteration": (1000.0 * solve_s / max(1, count_sum("iterations")), "ms"),
        "solver.iterations": (count_sum("iterations"), "count"),
        "solver.not_optimal": (sum(1 for r in own if r["status"] != "optimal"), "count"),
        "solver.solve_s_1thread": (one["solve_s"], "s"),
        "certify.json_bytes": (count_sum("json_bytes"), "B"),
        "certify.terms": (count_sum("terms"), "count"),
        "certify.residual_max": (max(r["counts"].get("residual", 0.0) for r in own), "1"),
        "certify.verify_failed": (sum(1 for r in own if not r["counts"].get("verified")), "count"),
        "trace.overhead_s": (
            sum(r["wall_s"] for r in own) - sum(r["wall_s"] for r in plain["rungs"]), "s"),
        "trace.spans": (len(traced["spans"]), "count"),
        "machine.nproc": (os.cpu_count() or 0, "count"),
        "machine.blas_threads": (max(lib.get("threads", 0) for lib in traced["blas"]), "count"),
    })
    rows = {r["id"]: r for r in own + traced["twins"]}
    metrics.update(_twin_metrics(workload, rows, layer_s))

    rungs = plain["rungs"] + own
    attempted = len(rungs) + len(traced["twins"])
    failed = _failed(rungs) + sum(1 for t in traced["twins"] if t["status"] != "optimal")
    info = {
        "blas": traced["blas"],
        "peak_rss_mb": traced["peak_rss_mb"],
        "failures": {r["id"]: r["failures"] for r in rungs if r["failures"]},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({
            "workload": workload, "seed": seed, "machine": {"nproc": os.cpu_count(), **info},
            "metrics": {k: v for k, (v, _) in metrics.items()},
            "rungs": own, "twins": traced["twins"], "spans": traced["spans"],
        }, handle, indent=1)
    info["trace_file"] = os.path.relpath(path, ROOT)
    return metrics, attempted, failed, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "sparsepos", "__init__.py")):
        print(f"error: no sparsepos sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    limit = _monotonic() + RUN_LIMIT_S
    try:
        if args.trace:
            metrics, attempted, failed, info = traced_run(args.workload, args.seed, limit)
        else:
            metrics, attempted, failed, info = gated_run(
                args.workload, args.seed, args.seconds, limit)
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>16.6g} {unit}")
    for key, value in info.items():
        print(f"# {key}: {json.dumps(value)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
