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
        assert len(r["json_sha256"]) == 64 and int(r["json_sha256"], 16) >= 0
