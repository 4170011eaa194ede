import importlib.util
import json
import re
from pathlib import Path

import pytest

from sparsepos import problems
from sparsepos.certify import VerificationReport, certificate_from_json, verify
from sparsepos.cli import ProblemFileError, main, parse_problem
from sparsepos.poly import Polynomial


class TestParseProblem:
    def test_twoballs_round_trip(self):
        inst = parse_problem(problems.TWOBALLS_TEXT)
        ref = problems.twoballs()
        assert inst.layout.names == ("x", "y", "z")
        assert inst.objective == ref.objective
        assert inst.g_constraints == ref.g_constraints
        assert inst.h_constraints == ref.h_constraints
        assert inst.g_names == ("g1",) and inst.h_names == ("h1",)

    def test_rational_and_decimal_literals(self):
        inst = parse_problem(
            "vars x : X; minimize 3/4*x + 0.25; st g: 1 - x^2 >= 0;"
        )
        x = Polynomial.variable(inst.layout, "x")
        assert inst.objective == x.scale("3/4") + Polynomial.constant(inst.layout, "1/4")

    def test_coupling_violation(self):
        text = "vars x : X; z : Z; minimize x + z; st g: 1 - x*z >= 0;"
        with pytest.raises(ProblemFileError, match="mixes X and Z"):
            parse_problem(text)

    def test_empty_objective(self):
        with pytest.raises(ProblemFileError, match="empty objective"):
            parse_problem("vars x : X; minimize ; st g: 1 - x^2 >= 0;")

    def test_missing_minimize(self):
        with pytest.raises(ProblemFileError, match="missing minimize"):
            parse_problem("vars x : X; st g: 1 - x^2 >= 0;")

    def test_unknown_variable_with_position(self):
        with pytest.raises(ProblemFileError, match=r"line 1, col \d+.*'w'"):
            parse_problem("vars x : X; minimize w;")

    def test_duplicate_variable(self):
        with pytest.raises(ProblemFileError, match="duplicate"):
            parse_problem("vars x : X; x : Y; minimize x;")

    def test_bad_character(self):
        with pytest.raises(ProblemFileError, match="unexpected character"):
            parse_problem("vars x : X; minimize x @ 2;")

    def test_unicode_minus_accepted(self):
        inst = parse_problem("vars x : X; minimize −x; st g: 1 − x^2 >= 0;")
        x = Polynomial.variable(inst.layout, "x")
        assert inst.objective == -x

    def test_constraint_block_split(self):
        text = (
            "vars x : X; y : Y; z : Z; minimize x + z;"
            "st a: 1 - y^2 - z^2 >= 0; st b: 1 - x^2 >= 0;"
        )
        inst = parse_problem(text)
        assert inst.g_names == ("b",) and inst.h_names == ("a",)


@pytest.fixture
def problem_file(tmp_path):
    path = tmp_path / "twoballs.sp"
    path.write_text(problems.TWOBALLS_TEXT)
    return str(path)


def _strip_ms(text: str) -> str:
    # Wall-clock column varies run to run; everything else is deterministic.
    out = []
    for line in text.splitlines():
        out.append(re.sub(r"\s+\d+\.\d$", "", line.rstrip()))
    return "\n".join(out)


FAILING = VerificationReport(residual=0.5, coupling_free=True, psd_ok=False, lam=0.0,
                             passed=False)


class TestMain:
    def test_text_run(self, problem_file, capsys):
        code = main([problem_file, "--order", "1", "--max-order", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "optimal" in out
        assert "-1.52034518" in out

    def test_csv_format(self, problem_file, capsys):
        code = main([problem_file, "--format", "csv", "--order", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == "r,bound,status,gap,blocks,max_block,ms"

    def test_byte_stability_modulo_wall_time(self, problem_file, capsys):
        main([problem_file, "--order", "1", "--max-order", "2"])
        first = capsys.readouterr().out
        main([problem_file, "--order", "1", "--max-order", "2"])
        second = capsys.readouterr().out
        assert _strip_ms(first) == _strip_ms(second)

    def test_order_below_minimum_exits_2(self, problem_file, capsys):
        code = main([problem_file, "--order", "0"])
        out = capsys.readouterr().out
        assert code == 2
        assert "order-error" in out

    def test_solver_failure_exits_3(self, problem_file):
        # Even-degree ball constraints leave odd moments free: the cone LP
        # is unbounded, a solver-level failure.
        code = main([problem_file, "--variant", "krivine",
                     "--krivine-bounds", "1,1", "--order", "1"])
        assert code == 3

    def test_parse_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.sp"
        path.write_text("vars x : X; minimize ;")
        assert main([str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        assert main([str(tmp_path / "nope.sp")]) == 2

    def test_oracle_row(self, problem_file, capsys):
        code = main([problem_file, "--order", "1",
                     "--oracle-box=-1:1,-1:1,-1:1", "--oracle-step", "0.05"])
        out = capsys.readouterr().out
        assert code == 0
        assert "oracle minimum" in out
        assert "slack at r=1" in out

    def test_certificate_file(self, problem_file, tmp_path, capsys):
        cert_path = tmp_path / "cert.json"
        code = main([problem_file, "--order", "2", "--certificate", str(cert_path)])
        assert code == 0
        data = json.loads(cert_path.read_text())
        assert data["kind"] == "sos" and data["mode"] == "schmudgen"
        cert = certificate_from_json(cert_path.read_text(), problems.twoballs())
        assert verify(cert, problems.twoballs()).passed

    def test_unverified_certificate_not_written(self, problem_file, tmp_path, capsys,
                                                monkeypatch):
        monkeypatch.setattr("sparsepos.cli.verify", lambda cert, instance: FAILING)
        cert_path = tmp_path / "cert.json"
        code = main([problem_file, "--order", "1", "--certificate", str(cert_path)])
        assert code == 3
        assert not cert_path.exists()
        err = capsys.readouterr().err
        assert "residual 5.000e-01" in err
        assert "psd_ok=False" in err and "coupling_free=True" in err

    def test_product_variant(self, tmp_path, capsys):
        path = tmp_path / "prod.sp"
        path.write_text(
            "vars x : X; y : Y; z : Z;\n"
            "minimize x + (x - y)^2 + (y - z)^2 + z;\n"
            "st g1: 1 - x^2 >= 0;\n"
            "st h1: 1 - y^2 - z^2 >= 0;\n"
        )
        code = main([str(path), "--variant", "product", "--order", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "optimal" in out

    def test_product_variant_rejects_mixed_g(self, problem_file, capsys):
        # twoballs has g touching y, which the product variant's X side refuses.
        code = main([problem_file, "--variant", "product", "--order", "1"])
        assert code == 2
        assert "error" in capsys.readouterr().err


def _load_script(name):
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCertificateDemo:
    def test_product_instance_under_schmudgen(self, tmp_path, capsys):
        # Its g lies on X alone, which the (X,Y) side of the generic sparse
        # relaxation supports as it is.
        demo = _load_script("certificate_demo")
        out_path = tmp_path / "cert.json"
        code = demo.main(["product", "--variant", "schmudgen-sparse", "--out", str(out_path)])
        assert code == 0
        assert "passed=True" in capsys.readouterr().out
        cert = certificate_from_json(out_path.read_text(), problems.get("product"))
        assert verify(cert, problems.get("product")).passed

    def test_order_below_minimum_exits_2(self, capsys):
        demo = _load_script("certificate_demo")
        assert demo.main(["twoballs", "--variant", "dense", "--order", "1"]) == 2
        assert "error" in capsys.readouterr().err

    def test_product_variant_on_mixed_g_exits_2(self, capsys):
        demo = _load_script("certificate_demo")
        assert demo.main(["twoballs", "--variant", "product"]) == 2
        assert "x block" in capsys.readouterr().err

    def test_unverified_certificate_not_written(self, tmp_path, capsys, monkeypatch):
        demo = _load_script("certificate_demo")
        monkeypatch.setattr(demo, "verify", lambda cert, instance: FAILING)
        out_path = tmp_path / "cert.json"
        assert demo.main(["interval", "--out", str(out_path)]) == 3
        assert not out_path.exists()
        assert "does not verify" in capsys.readouterr().err


class TestRunSuite:
    def test_max_order_below_dense_minimum(self, capsys):
        # Dense twoballs needs order 2, so order 1 skips it instead of failing.
        suite = _load_script("run_suite")
        assert suite.main(["--max-order", "1"]) == 0
        out = capsys.readouterr().out
        assert "variant: dense skipped, minimum order 2 exceeds --max-order" in out
        assert "variant: schmudgen-sparse\n" in out
