import importlib.util
import json
import re
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from sparsepos import problems
from sparsepos.certify import VerificationReport, certificate_from_json, verify
from sparsepos.cli import ProblemFileError, main, parse_problem
from sparsepos.hierarchy import run_hierarchy
from sparsepos.poly import Polynomial
from sparsepos.relax import VARIANTS, assemble


class TestParseProblem:
    def test_twoballs_round_trip(self):
        inst = parse_problem(problems.TEXTS["twoballs"])
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

    @pytest.mark.parametrize("text,message,line,col", [
        ("# nothing but a comment\n", "empty problem file", 1, 1),
        ("vars;", "empty vars declaration", 1, 1),
        ("vars x : X;\nminimize x;\nfoo bar;", "unexpected statement starting with 'foo'", 3, 1),
        ("vars x X;", "variable declaration must look like 'x : X'", 1, 6),
        ("vars x : W;", "block must be X, Y or Z, got 'W'", 1, 10),
        ("minimize 1;", "no variable declarations", 1, 1),
        ("vars x : X;\nminimize x;\nminimize -x;", "multiple minimize statements", 3, 1),
        ("vars x : X; minimize x; st 1 - x >= 0;",
         "constraint must look like 'st name: poly >= 0'", 1, 25),
        ("vars x : X; minimize x; st g: 1 - x;", "constraint needs '>= 0'", 1, 25),
        ("vars x : X;\nminimize x;\nst g: 1 - x >= 1;", "right-hand side must be 0", 3, 16),
        ("vars x : X; minimize x +;", "unexpected end of expression", 1, 24),
        ("vars x : X; minimize x x;", "unexpected token 'x'", 1, 24),
        ("vars x : X; minimize 1/x;", "division is only allowed by a nonzero constant", 1, 23),
        ("vars x : X; minimize x^1.5;", "exponent must be a nonnegative integer", 1, 24),
        ("vars x : X; minimize (x x);", "expected ')'", 1, 25),
        ("vars x : X; minimize 2^999999999999;", "exponent is above 255", 1, 24),
        ("vars x : X; minimize 1" + "0" * 4300 + "*x;", "number of 4301 digits is above 4300",
         1, 22),
        ("vars x : X;\nminimize x;\nst g: 1 - x >= " + "0" * 4301 + ";",
         "number of 4301 digits is above 4300", 3, 16),
    ], ids=["empty-file", "empty-vars", "unexpected-statement", "bad-declaration",
            "bad-block", "no-declarations", "two-minimize", "bad-st", "missing-ge",
            "nonzero-rhs", "end-of-expression", "trailing-token", "division",
            "fractional-exponent", "missing-paren", "exponent-above-degree-cap",
            "literal-above-digit-limit", "rhs-above-digit-limit"])
    def test_refusal_names_its_position(self, text, message, line, col):
        with pytest.raises(ProblemFileError) as info:
            parse_problem(text)
        assert str(info.value) == f"line {line}, col {col}: {message}"
        assert (info.value.line, info.value.col) == (line, col)

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
    path.write_text(problems.TEXTS["twoballs"])
    return str(path)


def _strip_ms(text: str) -> str:
    # Wall-clock column varies run to run; everything else is deterministic.
    out = []
    for line in text.splitlines():
        out.append(re.sub(r"\s+\d+\.\d$", "", line.rstrip()))
    return "\n".join(out)


def _no_solve(*args, **kwargs):
    raise AssertionError("no solve may run")


FAILING = VerificationReport(residual=0.5, coupling_free=True, psd_ok=False, lam=0.0,
                             passed=False)


def _rounded_divisors(text, instance):
    # Read back as the 17-digit divisors of the earlier format were.
    cert = certificate_from_json(text, instance)
    return replace(cert, scaling=tuple(Fraction(float(s)) for s in cert.scaling))


class TestMain:
    def test_text_run(self, problem_file, capsys):
        code = main([problem_file, "--order", "1", "--max-order", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "optimal" in out
        assert "-1.52034519" in out

    @pytest.mark.parametrize("name", sorted(problems.TEXTS))
    def test_every_builtin_runs_as_a_file(self, name, tmp_path, capsys, monkeypatch):
        path, cert_path = tmp_path / f"{name}.sp", tmp_path / f"{name}.json"
        path.write_text(problems.TEXTS[name])
        results = []

        def recorded(instance, config):
            results.append(run_hierarchy(instance, config))
            return results[-1]

        monkeypatch.setattr("sparsepos.cli.run_hierarchy", recorded)
        # Under schmudgen-sparse the affine interval ends unbounded (exit 3).
        krivine = ["--variant", "krivine", "--krivine-bounds", "1"]
        code = main([str(path), "--certificate", str(cert_path),
                     *(krivine if name == "interval-affine" else [])])
        out = capsys.readouterr().out
        assert code == 0
        assert re.search(r"^ +\d+ +\S+ +optimal ", out, re.M), out
        # The file the CLI wrote reads back to a certificate that verifies.
        (result,), instance = results, problems.get(name)
        loaded = certificate_from_json(cert_path.read_text(), instance)
        assert verify(loaded, instance).passed
        assert (loaded.lam, loaded.scaling) == (result.certificate.lam, result.certificate.scaling)

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

    def test_krivine_bounds_for_other_variant_exits_2(self, problem_file, capsys):
        assert main([problem_file, "--order", "1", "--krivine-bounds", "1,1"]) == 2
        assert "krivine" in capsys.readouterr().err

    def test_degree_above_cap_exits_2(self, tmp_path, capsys):
        path = tmp_path / "high.sp"
        path.write_text("vars x : X; minimize x^300; st g: 1 - x^2 >= 0;")
        assert main([str(path)]) == 2
        assert "error: " in capsys.readouterr().err

    def test_parse_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.sp"
        path.write_text("vars x : X; minimize ;")
        assert main([str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        assert main([str(tmp_path / "nope.sp")]) == 2

    def test_file_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.sp"
        path.write_bytes(b"vars x : X; minimize x\xff; st g: 1 - x^2 >= 0;")
        assert main([str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: 'utf-8' codec can't decode")

    def test_oracle_row(self, problem_file, capsys):
        code = main([problem_file, "--order", "1",
                     "--oracle-box=-1:1,-1:1,-1:1", "--oracle-step", "0.05"])
        out = capsys.readouterr().out
        assert code == 0
        assert "oracle minimum" in out
        assert "slack at r=1" in out

    @pytest.mark.parametrize("box,step", [
        ("-inf:1,-1:1,-1:1", "0.05"),
        ("nan:1,-1:1,-1:1", "0.05"),
        ("-1:1,-1:1,-1:1", "1e-300"),
    ], ids=["infinite-endpoint", "nan-endpoint", "tiny-step"])
    def test_unusable_oracle_grid_exits_2(self, problem_file, capsys, monkeypatch, box, step):
        # Refused before any solve.
        monkeypatch.setattr("sparsepos.hierarchy.solve", _no_solve)
        code = main([problem_file, "--order", "1", f"--oracle-box={box}", "--oracle-step", step])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("options,message", [
        (["--oracle-box=-1,-1:1,-1:1"], "bad interval '-1'; expected lo:hi"),
        (["--oracle-step", "0.05"], "--oracle-step requires --oracle-box"),
    ], ids=["bad-interval", "step-without-box"])
    def test_unusable_oracle_options_exit_2(self, problem_file, capsys, monkeypatch, options,
                                            message):
        monkeypatch.setattr("sparsepos.hierarchy.solve", _no_solve)
        assert main([problem_file, "--order", "1", *options]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_program_with_no_free_moment(self, tmp_path, capsys):
        # At r = 0 the one block is 1 x 1 on the pinned unit moment: the IPM
        # has no free moment to move and returns at once.
        path, cert_path = tmp_path / "five.sp", tmp_path / "cert.json"
        path.write_text("vars x : X; minimize 5;")
        inst = parse_problem(path.read_text())
        assert len(assemble(inst, "schmudgen-sparse", 0).variable_index) == 1
        assert main([str(path), "--order", "0", "--certificate", str(cert_path)]) == 0
        assert re.search(r"^ +0 +5 +optimal ", capsys.readouterr().out, re.M)
        cert = certificate_from_json(cert_path.read_text(), inst)
        assert cert.lam == 5.0 and verify(cert, inst).passed

    def test_certificate_file(self, problem_file, tmp_path, capsys):
        cert_path = tmp_path / "cert.json"
        code = main([problem_file, "--order", "2", "--certificate", str(cert_path)])
        assert code == 0
        data = json.loads(cert_path.read_text())
        assert "kind" not in data and data["mode"] == "schmudgen"
        cert = certificate_from_json(cert_path.read_text(), problems.twoballs())
        assert verify(cert, problems.twoballs()).passed

    def test_unwritable_certificate_path_exits_2(self, problem_file, tmp_path, capsys):
        cert_path = tmp_path / "missing" / "cert.json"
        code = main([problem_file, "--order", "1", "--certificate", str(cert_path)])
        assert code == 2
        assert "error" in capsys.readouterr().err
        assert not cert_path.exists()

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

    def test_certificate_that_does_not_read_back_not_written(self, tmp_path, capsys,
                                                             monkeypatch):
        monkeypatch.setattr("sparsepos.cli.certificate_from_json", _rounded_divisors)
        path, cert_path = tmp_path / "constant5.sp", tmp_path / "cert.json"
        path.write_text(problems.TEXTS["constant5"])
        assert main([str(path), "--variant", "krivine", "--certificate", str(cert_path)]) == 3
        assert not cert_path.exists()
        err = capsys.readouterr().err
        assert err.count("error: ") == 1 and "does not read back" in err

    def test_loader_refusal_counts_as_not_reading_back(self, problem_file, tmp_path, capsys,
                                                       monkeypatch):
        def refuse(text, instance):
            raise ValueError("certificate lambda True is not a number")

        monkeypatch.setattr("sparsepos.cli.certificate_from_json", refuse)
        cert_path = tmp_path / "cert.json"
        assert main([problem_file, "--order", "1", "--certificate", str(cert_path)]) == 3
        assert not cert_path.exists()
        assert capsys.readouterr().err == (
            "error: certificate not written, its JSON does not read back: "
            "certificate lambda True is not a number\n")

    @pytest.mark.parametrize("body,options,part", [
        ("minimize 1{zeros}*x; st g: 1 - x^2 >= 0;", [], "the objective"),
        ("minimize x; st g: 1{zeros} - x^2 >= 0;", [], "block g1@xy"),
        ("minimize x; st g: 1{zeros} - x^2 >= 0;",
         ["--variant", "krivine", "--krivine-bounds", "1"], "row family xy"),
    ], ids=["objective", "block", "row"])
    def test_coefficient_beyond_float_range_exits_2(self, tmp_path, capsys, body, options,
                                                    part):
        # A 401-digit literal: float() of it raised OverflowError in solve.
        path = tmp_path / "huge.sp"
        path.write_text("vars x : X; " + body.format(zeros="0" * 400))
        assert main([str(path), *options]) == 2
        assert capsys.readouterr().err == f"error: {part} has a coefficient beyond float range\n"

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
        # Reported on the table's error row, as the command reports it.
        demo = _load_script("certificate_demo")
        assert demo.main(["twoballs", "--variant", "dense", "--order", "1"]) == 2
        assert "error: order 1 below the minimum" in capsys.readouterr().out

    def test_product_variant_on_mixed_g_exits_2(self, capsys):
        demo = _load_script("certificate_demo")
        assert demo.main(["twoballs", "--variant", "product"]) == 2
        assert "x block" in capsys.readouterr().err

    def test_krivine_normalizes_and_writes_a_cone_certificate(self, tmp_path, capsys):
        demo = _load_script("certificate_demo")
        out_path = tmp_path / "cert.json"
        assert demo.main(["constant5", "--variant", "krivine", "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert re.search(r"^ +1 +\S+ +optimal ", out, re.M), out
        assert "mode=krivine" in out and "terms=3" in out
        cert = certificate_from_json(out_path.read_text(), problems.get("constant5"))
        assert len(cert.xy_coeffs) + len(cert.yz_coeffs) == 3
        assert verify(cert, problems.get("constant5")).passed

    def test_file_that_reads_back_otherwise_removed(self, tmp_path, capsys, monkeypatch):
        # The command's writer refuses it, so no file is written at all.
        demo = _load_script("certificate_demo")
        monkeypatch.setattr("sparsepos.cli.certificate_from_json", _rounded_divisors)
        out_path = tmp_path / "cert.json"
        assert demo.main(["constant5", "--variant", "krivine", "--out", str(out_path)]) == 3
        assert not out_path.exists()
        assert "does not read back" in capsys.readouterr().err

    def test_krivine_without_automatic_bounds_exits_2(self, capsys):
        demo = _load_script("certificate_demo")
        assert demo.main(["interval-affine", "--variant", "krivine"]) == 2
        assert "explicit upper bounds are needed" in capsys.readouterr().err

    def test_unverified_certificate_not_written(self, tmp_path, capsys, monkeypatch):
        demo = _load_script("certificate_demo")
        monkeypatch.setattr("sparsepos.cli.verify", lambda cert, instance: FAILING)
        out_path = tmp_path / "cert.json"
        assert demo.main(["interval", "--out", str(out_path)]) == 3
        assert not out_path.exists()
        assert "does not verify" in capsys.readouterr().err

    @pytest.mark.parametrize("name,options,code", [
        *(("constant5", ["--variant", v], 0) for v in VARIANTS),
        ("twoballs", ["--variant", "dense", "--order", "1"], 2),
        ("twoballs", ["--variant", "product"], 2),
        ("interval-affine", ["--variant", "krivine"], 2),
    ], ids=[*(f"constant5-{v}" for v in VARIANTS), "twoballs-dense-order-1",
            "twoballs-product", "interval-affine-krivine"])
    def test_exit_code_is_the_commands(self, tmp_path, name, options, code):
        demo = _load_script("certificate_demo")
        problem = tmp_path / f"{name}.sp"
        problem.write_text(problems.TEXTS[name])
        by_cli, by_demo = tmp_path / "cli.json", tmp_path / "demo.json"
        assert main([str(problem), *options, "--certificate", str(by_cli)]) == code
        assert demo.main([name, *options, "--out", str(by_demo)]) == code
        instance = problems.get(name)
        for path in (by_cli, by_demo):
            assert path.exists() == (code == 0)
            if code == 0:
                assert verify(certificate_from_json(path.read_text(), instance), instance).passed


class TestRunSuite:
    def test_max_order_below_dense_minimum(self, capsys):
        # Dense twoballs needs order 2, so order 1 skips it instead of failing.
        suite = _load_script("run_suite")
        assert suite.main(["--max-order", "1"]) == 0
        out = capsys.readouterr().out
        assert "variant: dense skipped, minimum order 2 exceeds --max-order" in out
        assert "variant: schmudgen-sparse\n" in out
