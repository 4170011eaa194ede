"""One fresh benchmark process: set up, run one mode, print one JSON line.

    python3 perfbench/worker.py MODE WORKLOAD SEED SPAWN_CLOCK

MODE is one of

  setup   import sparsepos and generate the workload's problem texts
  pass    run every rung of the workload once, untraced
  traced  run every rung with spans and counts, then the twin rungs that the
          sparse/dense ratios need
  solve   time only the solver calls of every rung (the caller pins BLAS
          threads through the environment)

SPAWN_CLOCK is the parent's CLOCK_MONOTONIC reading just before it started
this process, so ``setup_s`` covers interpreter start, the import and
instance generation.
"""

from __future__ import annotations

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


#: Symbol prefix and suffix of OpenBLAS builds: scipy's wheels rename them,
#: and 64-bit-integer builds add a suffix.
_OPENBLAS_SYMBOLS = [
    ("scipy_openblas_", "64_"), ("scipy_openblas_", ""), ("openblas_", "64_"), ("openblas_", ""),
]


def blas_info() -> list[dict]:
    """Loaded OpenBLAS libraries with their configuration and thread count."""
    import ctypes

    paths = []
    with open("/proc/self/maps", encoding="utf-8") as maps:
        for line in maps:
            path = line.split()[-1]
            if "openblas" in path.lower() and path not in paths:
                paths.append(path)
    out = []
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"library": os.path.basename(path)}
        for prefix, suffix in _OPENBLAS_SYMBOLS:
            threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                info.update(threads=threads(), config=config().decode())
                break
        out.append(info)
    return out


def main(argv: list[str]) -> int:
    import json

    mode, workload, seed, spawned = argv[0], argv[1], int(argv[2]), float(argv[3])
    sys.path[:0] = [SRC, HERE]
    import sparsepos

    if not os.path.abspath(sparsepos.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"sparsepos imported from {sparsepos.__file__}, not from {SRC}")
    import gen
    import workloads

    texts = {name: gen.instance_text(name, seed) for name in workloads.instances(workload)}
    result = {"setup_s": _monotonic() - spawned}
    if mode == "setup":
        print(json.dumps(result))
        return 0

    import resource

    import ladder
    from sparsepos.cli import parse_problem
    from spans import NullTracer, Tracer

    rungs = workloads.WORKLOADS[workload]
    if mode == "solve":
        result["solve_s"] = ladder.time_solves(rungs, texts)
    else:
        references = {
            name: ladder.sampled_minimum(parse_problem(text), name, seed)
            for name, text in texts.items()
        }
        tracer = Tracer() if mode == "traced" else NullTracer()
        results = ladder.run_ladder(rungs, texts, references, tracer, with_counts=mode == "traced")
        result["rungs"] = [r.to_json() for r in results]
        if mode == "traced":
            twins = ladder.twin_rungs(workload)
            texts.update({r.instance: gen.instance_text(r.instance, seed) for r in twins})
            result["twins"] = ladder.run_twins(twins, texts, tracer)
            result["spans"] = tracer.records
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    result["blas"] = blas_info()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
