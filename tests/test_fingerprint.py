"""scripts/fingerprint.py on the benchmark's smoke workload."""

import json
import os
import runpy
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _smoke_rungs() -> list[str]:
    workloads = runpy.run_path(os.path.join(ROOT, "perfbench", "workloads.py"))
    return [rung.id for rung in workloads["WORKLOADS"]["smoke"]]


def test_smoke_prints_one_record_per_rung():
    script = os.path.join(ROOT, "scripts", "fingerprint.py")
    out = subprocess.run(
        [sys.executable, script, ROOT, "--seeds", "1", "--workloads", "smoke"],
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    records = [json.loads(line) for line in out.splitlines()]
    # The smoke workload runs both sides of its one shared rung: no twins.
    assert [r["rung"] for r in records] == _smoke_rungs()
    for r in records:
        assert (r["seed"], r["set"], r["status"], r["passed"]) == (1, "smoke", "optimal", True)
        assert type(r["iterations"]) is int and r["iterations"] > 0
        for field in ("primal", "dual", "residual"):
            assert float.hex(float.fromhex(r[field])) == r[field]
        for field in ("json_sha256", "expansion_sha256"):
            assert len(r[field]) == 64 and int(r[field], 16) >= 0


def _write(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return str(path)


def _record(rung, dual):
    return {
        "seed": 1, "set": "sparse-ladder", "rung": rung, "status": "optimal",
        "iterations": 14, "primal": float.hex(dual + 3e-10), "dual": float.hex(dual),
        "passed": True, "residual": float.hex(1e-13), "json_sha256": "0" * 64,
    }


def test_compare_gates_on_tolerance_and_exact_fields(tmp_path, capsys):
    main = runpy.run_path(os.path.join(ROOT, "scripts", "fingerprint.py"))["main"]
    old = [_record("a", -0.75), _record("b", 2.5)]
    moved = [_record("a", -0.75), dict(_record("b", 2.5), dual=float.hex(2.5 + 1e-6))]
    recounted = [_record("a", -0.75), dict(_record("b", 2.5), iterations=15)]
    old_path = _write(tmp_path / "old.jsonl", old)

    assert main(["--compare", old_path, _write(tmp_path / "same.jsonl", old)]) == 0
    assert "MISMATCH" not in capsys.readouterr().out

    assert main(["--compare", old_path, _write(tmp_path / "moved.jsonl", moved)]) == 1
    out = capsys.readouterr().out
    assert "primal: largest relative difference 0" in out
    assert "dual: largest relative difference 2.86e-07" in out
    assert "MISMATCH (1, 'sparse-ladder', 'b'): dual" in out

    assert main(["--compare", old_path, _write(tmp_path / "recount.jsonl", recounted)]) == 1
    assert "MISMATCH (1, 'sparse-ladder', 'b'): iterations 14 -> 15" in capsys.readouterr().out
