"""Tests of the benchmark itself: generator, correctness gate, smoke run.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import pytest  # noqa: E402

import gen  # noqa: E402
import ladder  # noqa: E402
from spans import NullTracer, Tracer, self_times  # noqa: E402
from sparsepos import problems  # noqa: E402
from sparsepos.certify import SOSCertificate  # noqa: E402
from sparsepos.cli import parse_problem  # noqa: E402
from workloads import WORKLOADS, Rung  # noqa: E402


def _declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", ["twoballs", "fivevar", *gen.FAMILIES])
def test_generator_is_deterministic(name):
    assert gen.instance_text(name, 7) == gen.instance_text(name, 7)
    parse_problem(gen.instance_text(name, 7))


def test_seed_changes_coefficients_not_structure():
    for name in gen.FAMILIES:
        a, b = gen.instance_text(name, 1), gen.instance_text(name, 2)
        assert a != b
        pa, pb = parse_problem(a), parse_problem(b)
        assert set(pa.objective.terms) == set(pb.objective.terms)


def test_builtin_texts_match_the_package():
    for name in ("twoballs", "fivevar"):
        parsed, builtin = parse_problem(gen.instance_text(name, 0)), problems.get(name)
        assert parsed.objective.terms == builtin.objective.terms
        for family in ("g_constraints", "h_constraints"):
            ours, theirs = getattr(parsed, family), getattr(builtin, family)
            assert [c.terms for c in ours] == [c.terms for c in theirs]


def test_box_constraints_are_normalized_on_the_box():
    instance = parse_problem(gen.instance_text("box212", 3))
    corners = ladder.sample_feasible(instance, "box212", 3)
    for c in (*instance.g_constraints, *instance.h_constraints):
        values = ladder._evaluate(c, corners)
        assert values.min() >= 0.0 and values.max() <= 1.0


def _solved(rung: Rung, seed: int = 5):
    text = gen.instance_text(rung.instance, seed)
    out = ladder._run_pipeline(rung, text, NullTracer())
    reference = ladder.sampled_minimum(out["instance"], rung.instance, seed)
    return out, reference


def _recheck(out, cert):
    out = dict(out, cert=cert)
    out["check"], out["json"], out["check_json"] = ladder.check_certificate(
        cert, out["instance"], NullTracer(), "doctored"
    )
    return out


def test_gate_passes_a_genuine_rung():
    rung = Rung("twoballs", "schmudgen-sparse", 2)
    out, reference = _solved(rung)
    assert ladder.gate(rung, out, reference, None) == []


def test_gate_rejects_raised_lambda():
    rung = Rung("twoballs", "schmudgen-sparse", 2)
    out, reference = _solved(rung)
    doctored = replace(out["cert"], lam=out["cert"].lam + 1e-3)
    failures = ladder.gate(rung, _recheck(out, doctored), reference, None)
    assert any("verify" in f for f in failures)


def test_gate_rejects_perturbed_gram_entry():
    rung = Rung("ball313", "putinar-sparse", 2)
    out, reference = _solved(rung)
    cert: SOSCertificate = out["cert"]
    gram = cert.terms[1].gram.copy()
    gram[1, 2] += 1e-2
    gram[2, 1] += 1e-2
    terms = (cert.terms[0], replace(cert.terms[1], gram=gram), *cert.terms[2:])
    failures = ladder.gate(rung, _recheck(out, replace(cert, terms=terms)), reference, None)
    assert any("verify" in f for f in failures)


def test_gate_rejects_raised_cone_coefficient():
    rung = Rung("box212", "krivine", 2)
    out, reference = _solved(rung)
    cert = out["cert"]
    key = next(iter(cert.xy_coeffs))
    doctored = replace(cert, xy_coeffs={**cert.xy_coeffs, key: cert.xy_coeffs[key] + 1e-2})
    failures = ladder.gate(rung, _recheck(out, doctored), reference, None)
    assert any("verify" in f for f in failures)


def test_gate_rejects_unsound_and_decreasing_bounds():
    rung = Rung("fivevar", "schmudgen-sparse", 2)
    out, reference = _solved(rung)
    bound = out["report"].primal_objective
    assert any("sampled f" in f for f in ladder.gate(rung, out, bound - 1e-3, None))
    assert any("previous order" in f for f in ladder.gate(rung, out, reference, bound + 1e-3))
    doctored = dict(out, report=replace(out["report"], primal_objective=bound - 1e-3))
    assert any("known minimum" in f for f in ladder.gate(
        Rung("fivevar", "schmudgen-sparse", 3), doctored, reference, None))


def test_self_times_subtract_children():
    tracer = Tracer()
    with tracer.span("rung", "a"):
        with tracer.span("solver", "a"):
            pass
    records = tracer.records
    times = self_times(records)
    total = records[0]["end"] - records[0]["start"]
    assert times[("a", "rung")] + times[("a", "solver")] == pytest.approx(total)


def test_declared_workloads_exist():
    declared = _declared()
    assert [w["name"] for w in declared["workloads"]] == [w for w in WORKLOADS if w != "smoke"]


def _run(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "smoke", "--seed", "3",
         "--seconds", "1", *args],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


def test_smoke_run_reports_every_end_to_end_metric():
    metrics = _run("--trace", "0")
    declared = {m["name"]: m["unit"] for m in _declared()["end_to_end"]}
    assert {k: v["unit"] for k, v in metrics.items()} == declared
    assert all(v["value"] > 0 for v in metrics.values())


def test_smoke_traced_run_reports_the_per_layer_metrics():
    metrics = _run("--trace", "1")
    declared = {m["name"]: m["unit"] for m in _declared()["per_layer"]}
    # The smoke ladder shares only fivevar at r=2 between its sparse and
    # dense rungs, so it reports the ratios of that rung alone.
    expected = {
        k: u for k, u in declared.items()
        if not k.startswith("sparse_dense.") or k.endswith(".fivevar-r2")
    }
    assert {k: v["unit"] for k, v in metrics.items()} == expected


def test_run_fails_without_the_package(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bench / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "smoke", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
