import itertools
import json
import random
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsepos import problems
from sparsepos.certify import (
    ConeCertificate,
    ExtractionError,
    SOSCertificate,
    SOSTerm,
    certificate_from_json,
    certificate_to_json,
    expand,
    extract_cone,
    extract_sos,
    verify,
)
from sparsepos.poly import BlockLayout, LayoutError, Polynomial
from sparsepos.problem import ProblemInstance
from sparsepos.relax import (
    assemble_krivine,
    assemble_sparse_schmudgen,
    cone_products,
    normalize_krivine,
)
from sparsepos.solver import solve_lp, solve_sdp

UNIVARIATE = BlockLayout(1, 0, 0)
X1 = Polynomial.variable(UNIVARIATE, "x")


def _solved(instance, r):
    prog = assemble_sparse_schmudgen(instance, r)
    report = solve_sdp(prog)
    assert report.status == "optimal"
    return prog, report


class TestExtractSos:
    def test_square_objective(self):
        inst = ProblemInstance(UNIVARIATE, X1**2, (1 - X1**2,), ())
        prog, report = _solved(inst, 1)
        cert = extract_sos(report, prog)
        assert abs(cert.lam) <= 1e-6
        expansion = expand(cert, inst)
        diff = expansion - X1**2
        assert float(diff.max_norm()) <= 1e-5

    def test_interval_identity(self):
        # f = x, lambda = -1: terms re-expand to 1 + x whatever split the
        # solver chose, e.g. (1+x)^2/2 + (1-x^2)/2.
        inst = problems.interval()
        prog, report = _solved(inst, 1)
        cert = extract_sos(report, prog)
        assert abs(cert.lam + 1) <= 1e-6
        vr = verify(cert, inst)
        assert vr.passed and vr.coupling_free and vr.psd_ok

    def test_constant_objective(self):
        inst = problems.constant5()
        prog, report = _solved(inst, 1)
        cert = extract_sos(report, prog)
        assert abs(cert.lam - 5) <= 1e-7
        for term in cert.terms:
            assert float(np.abs(term.gram).max()) <= 1e-6

    def test_refuses_nonoptimal(self):
        inst = problems.interval()
        prog = assemble_sparse_schmudgen(inst, 1)
        report = solve_sdp(prog, max_iter=2)
        with pytest.raises(ExtractionError):
            extract_sos(report, prog)

    def test_eigenvalue_clip_threshold(self):
        inst = problems.interval()
        prog, report = _solved(inst, 1)
        tampered = [(lab, gram - 1e-3 * np.eye(gram.shape[0])) for lab, gram in report.dual_blocks]
        report.dual_blocks[:] = tampered
        with pytest.raises(ExtractionError):
            extract_sos(report, prog)

    def test_gram_must_match_basis(self):
        # The r=2 and r=3 programs have the same block labels, but r=2
        # Grams are 6x6 and the r=3 bases have 10 monomials.
        inst = problems.twoballs()
        _, report = _solved(inst, 2)
        with pytest.raises(ExtractionError, match="basis"):
            extract_sos(report, assemble_sparse_schmudgen(inst, 3))

    def test_block_structure_must_match(self):
        prog, report = _solved(problems.interval(), 1)
        (first, g0), (second, g1), *rest = report.dual_blocks
        swapped = replace(report, dual_blocks=[(second, g0), (first, g1), *rest])
        with pytest.raises(ExtractionError, match="does not match"):
            extract_sos(swapped, prog)
        short = replace(report, dual_blocks=report.dual_blocks[:1])
        with pytest.raises(ExtractionError, match="disagree"):
            extract_sos(short, prog)


class TestExpand:
    def test_identity_gram_sums_squares(self):
        term = SOSTerm(
            family="xy",
            subset=(),
            block="x",
            weight=Polynomial.constant(UNIVARIATE, 1),
            basis=((0,), (1,)),
            gram=np.eye(2),
        )
        cert = SOSCertificate(0.0, (term,), "schmudgen", 1, UNIVARIATE)
        inst = ProblemInstance(UNIVARIATE, X1, (1 - X1**2,), ())
        assert expand(cert, inst) == 1 + X1**2

    def test_rank_one_gram(self):
        term = SOSTerm(
            family="xy",
            subset=(),
            block="x",
            weight=Polynomial.constant(UNIVARIATE, 1),
            basis=((0,), (1,)),
            gram=np.array([[1.0, 1.0], [1.0, 1.0]]),
        )
        cert = SOSCertificate(0.0, (term,), "schmudgen", 1, UNIVARIATE)
        inst = ProblemInstance(UNIVARIATE, X1, (1 - X1**2,), ())
        assert expand(cert, inst) == (1 + X1) ** 2

    def test_cone_single_factor(self):
        inst = ProblemInstance(UNIVARIATE, X1, (1 - X1**2,), ())
        cert = ConeCertificate(
            lam=0.0,
            xy_coeffs={((1,), (0,)): 1.0},
            yz_coeffs={},
            scaling=(Fraction(1),),
            order=1,
            layout=UNIVARIATE,
        )
        assert expand(cert, inst) == 1 - X1**2

    def test_tiny_gram_entry_is_exact(self):
        # The Gram entry itself is expanded, not a rounded square root of it.
        term = SOSTerm("xy", (), "x", Polynomial.constant(UNIVARIATE, 1), ((0,),),
                       np.array([[1e-7]]))
        cert = SOSCertificate(0.0, (term,), "schmudgen", 1, UNIVARIATE)
        inst = ProblemInstance(UNIVARIATE, X1, (1 - X1**2,), ())
        assert expand(cert, inst) == Polynomial.constant(UNIVARIATE, Fraction(1e-7))

    @pytest.mark.parametrize(
        "basis,gram",
        [
            (((0, 0, 0), (1, 0, 0), (1, 0, 0, 0)), np.eye(3)),  # long, not first
            (((0, 0, 0), (1, 0)), np.eye(2)),  # short
            (((0, 0, 0), (0, -1, 0)), np.eye(2)),  # negative
            (((0, 0, 0), (1, 0, 0)), np.eye(3)),  # Gram larger than the basis
        ],
    )
    def test_malformed_term_rejected(self, basis, gram):
        # The term refuses to be built, so no such term reaches expand.
        layout = BlockLayout(1, 1, 1)
        with pytest.raises(ValueError, match="basis"):
            term = SOSTerm("xy", (), "xy", Polynomial.constant(layout, 1), basis, gram)
            expand(SOSCertificate(0.0, (term,), "schmudgen", 1, layout), problems.twoballs())

    def test_gram_form_above_degree_cap_rejected(self):
        # x^128 packs, but G_11 * x^128 * x^128 has degree 256: the packed
        # sum would carry, so the expansion refuses it.
        term = SOSTerm("xy", (), "x", Polynomial.constant(UNIVARIATE, 1), ((0,), (128,)),
                       np.diag([0.0, 1.0]))
        cert = SOSCertificate(0.0, (term,), "schmudgen", 128, UNIVARIATE)
        inst = ProblemInstance(UNIVARIATE, X1, (1 - X1**2,), ())
        with pytest.raises(LayoutError, match="256"):
            expand(cert, inst)

    def test_term_on_another_layout_rejected(self):
        term = SOSTerm("xy", (), "x", Polynomial.constant(UNIVARIATE, 1), ((0,),), np.eye(1))
        cert = SOSCertificate(0.0, (term,), "schmudgen", 1, UNIVARIATE)
        with pytest.raises(ValueError, match="layout"):
            expand(cert, problems.twoballs())

    @staticmethod
    def _assert_matches_float_reference(cert, instance, seed):
        # sum_terms w(pt) * v(pt)^T G v(pt) in floats, relative to the same
        # sum in absolute values.
        expansion = expand(cert, instance)
        rng = np.random.default_rng(seed)
        for _ in range(50):
            pt = rng.uniform(-1, 1, instance.layout.nvars)
            total = scale = 0.0
            for term in cert.terms:
                v = np.array([np.prod(pt ** np.array(a)) for a in term.basis])
                w = float(term.weight.evaluate(pt))
                total += w * (v @ term.gram @ v)
                scale += abs(w) * (np.abs(v) @ np.abs(term.gram) @ np.abs(v))
            assert abs(float(expansion.evaluate(pt)) - total) <= 1e-9 * scale

    @pytest.mark.parametrize(
        "name,variant", [("twoballs", "schmudgen-sparse"), ("fivevar", "dense")]
    )
    def test_solved_certificate_matches_float_reference(self, suite, name, variant):
        entry = suite.entries[(name, variant, 2)]
        cert = extract_sos(entry.report, entry.program)
        self._assert_matches_float_reference(cert, problems.get(name), 29)

    def test_nonsymmetric_gram_matches_float_reference(self):
        inst = problems.twoballs()
        layout = inst.layout
        x, y = Polynomial.variable(layout, "x"), Polynomial.variable(layout, "y")
        basis = ((0, 0, 0), (1, 0, 0), (0, 1, 0))
        gram = np.random.default_rng(3).standard_normal((3, 3))
        assert not np.allclose(gram, gram.T)
        term = SOSTerm("xy", (0,), "xy", 1 - x**2 - y**2, basis, gram)
        cert = SOSCertificate(0.0, (term,), "schmudgen", 1, layout)
        self._assert_matches_float_reference(cert, inst, 31)


class TestVerify:
    def test_valid_hand_certificate(self):
        # x^2 = (x)^2 exactly: residual 0.
        term = SOSTerm(
            family="xy",
            subset=(),
            block="x",
            weight=Polynomial.constant(UNIVARIATE, 1),
            basis=((0,), (1,)),
            gram=np.diag([0.0, 1.0]),
        )
        cert = SOSCertificate(0.0, (term,), "schmudgen", 1, UNIVARIATE)
        inst = ProblemInstance(UNIVARIATE, X1**2, (1 - X1**2,), ())
        vr = verify(cert, inst)
        assert vr.residual == 0.0 and vr.passed

    def test_tampered_gram_detected(self):
        inst = problems.twoballs()
        prog, report = _solved(inst, 2)
        cert = extract_sos(report, prog)
        gram = cert.terms[0].gram.copy()
        gram[0, 0] += 0.1
        bad = SOSCertificate(
            cert.lam,
            (cert.terms[0].__class__(
                cert.terms[0].family,
                cert.terms[0].subset,
                cert.terms[0].block,
                cert.terms[0].weight,
                cert.terms[0].basis,
                gram,
            ),) + cert.terms[1:],
            cert.mode,
            cert.order,
            cert.layout,
        )
        vr = verify(bad, inst)
        assert vr.residual >= 0.05
        assert not vr.passed

    def test_coupled_basis_flagged(self):
        layout = BlockLayout(1, 1, 1)
        term = SOSTerm(
            family="dense",
            subset=(),
            block="xyz",
            weight=Polynomial.constant(layout, 1),
            basis=((0, 0, 0), (1, 0, 1)),
            gram=np.eye(2),
        )
        cert = SOSCertificate(0.0, (term,), "dense", 1, layout)
        inst = problems.twoballs()
        vr = verify(cert, inst)
        assert not vr.coupling_free
        assert not vr.passed

    @pytest.mark.parametrize("mode", ["schmudgen", "dense"])
    def test_forged_weight_refused(self, mode):
        # 1^2 * (f - 100) is f - lambda at lambda = 100 with residual 0, but
        # the weight is no product of constraints, and f dips below 100.
        inst = problems.twoballs()
        lam = 100
        f_xy, f_yz = inst.split_objective()
        one = (inst.layout.zero_exponent,)
        shift = Polynomial.constant(inst.layout, lam)
        if mode == "dense":
            parts = [("dense", "xyz", inst.objective - shift)]
        else:
            parts = [("xy", "xy", f_xy - shift), ("yz", "yz", f_yz)]
        terms = tuple(SOSTerm(fam, (), block, w, one, np.eye(1)) for fam, block, w in parts)
        # Order 0 is the order a degree-0 basis under weight 1 is built to.
        cert = SOSCertificate(float(lam), terms, mode, 0, inst.layout)
        family = parts[0][0]
        with pytest.raises(ValueError, match=rf"{family} term over subset \(\)"):
            verify(cert, inst)
        # The JSON round trip recomputes the weights, so the rebuilt
        # certificate carries the true ones and fails on its residual.
        vr = verify(certificate_from_json(certificate_to_json(cert), inst), inst)
        assert not vr.passed and vr.residual >= 1

    def test_pointwise_soundness(self):
        # A certificate never exceeds f on the feasible set: each term is a
        # square times a product of constraints, all nonnegative there.
        inst = problems.twoballs()
        prog, report = _solved(inst, 2)
        cert = extract_sos(report, prog)
        expansion = expand(cert, inst)
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 100:
            pt = rng.uniform(-1, 1, 3)
            if not inst.feasible(pt):
                continue
            checked += 1
            fv = float(inst.objective.evaluate(pt))
            ev = float(expansion.evaluate(pt)) + cert.lam
            assert ev <= fv + 1e-6 * (1 + abs(fv))


def _sign_flipped_cone(divisor):
    inst = replace(problems.interval(), objective=X1**2)
    cert = ConeCertificate(
        lam=1.0,
        xy_coeffs={((1,), (0,)): 1.0},
        yz_coeffs={},
        scaling=(Fraction(divisor),),
        order=1,
        layout=UNIVARIATE,
    )
    return inst, cert


class TestCone:
    def test_extract_and_verify(self):
        inst = problems.interval_affine()
        normed = normalize_krivine(inst, [1])
        prog = assemble_krivine(normed, 2)
        report = solve_lp(prog)
        cert = extract_cone(report, prog)
        assert abs(cert.lam + 1) <= 1e-6
        vr = verify(cert, inst)
        assert vr.passed and vr.psd_ok

    def test_scaled_expansion_uses_record(self):
        layout = UNIVARIATE
        x = Polynomial.variable(layout, "x")
        inst = ProblemInstance(layout, x, (4 - x**2,), ())
        cert = ConeCertificate(
            lam=0.0,
            xy_coeffs={((1,), (0,)): 1.0},
            yz_coeffs={},
            scaling=(Fraction(4),),
            order=1,
            layout=layout,
        )
        assert expand(cert, inst) == (4 - x**2).scale(Fraction(1, 4))

    @pytest.mark.parametrize("divisor", [-1, 0])
    def test_nonpositive_scaling_refused(self, divisor):
        # g = 1 - x^2 divided by -1 is x^2 - 1, and 1 * (x^2 - 1) = f - 1 for
        # f = x^2: it would "prove" min x^2 >= 1 on [-1, 1], where it is 0.
        inst, cert = _sign_flipped_cone(divisor)
        with pytest.raises(ValueError, match="scaling"):
            verify(cert, inst)
        with pytest.raises(ValueError, match="scaling"):
            certificate_from_json(certificate_to_json(cert), inst)

    @pytest.mark.parametrize(
        "pair",
        [((-1,), (0,)), ((1.5,), (0,)), ((1, 5), (0, 0)), ((1,), (0, 0))],
        ids=["negative", "fraction", "long", "wrong-length"],
    )
    def test_malformed_power_pair_refused(self, pair):
        # interval_affine has one g constraint, so a key is two 1-tuples; a
        # hand-built certificate skips the JSON reader's check.
        inst = problems.interval_affine()
        prog = assemble_krivine(normalize_krivine(inst, [1]), 2)
        cert = extract_cone(solve_lp(prog), prog)
        cert.xy_coeffs[pair] = 0.5
        with pytest.raises(ValueError, match=re.escape(repr(pair))):
            verify(cert, inst)

    def test_power_above_degree_cap_refused(self):
        # (1 - x^2)^5000 has degree 10000: refused before any product.
        inst, cert = _sign_flipped_cone(1)
        cert = replace(cert, xy_coeffs={((5000,), (0,)): 1.0})
        with pytest.raises(LayoutError, match="degree 10000"):
            verify(cert, inst)


@pytest.fixture(scope="module")
def twoballs_r1_json():
    prog, report = _solved(problems.twoballs(), 1)
    return certificate_to_json(extract_sos(report, prog))


class TestSerialization:
    def test_sos_round_trip(self):
        inst = problems.twoballs()
        prog, report = _solved(inst, 2)
        cert = extract_sos(report, prog)
        text = certificate_to_json(cert)
        back = certificate_from_json(text, inst)
        assert isinstance(back, SOSCertificate)
        assert back.mode == cert.mode and back.order == cert.order
        vr = verify(back, inst)
        assert vr.passed
        assert abs(vr.lam - cert.lam) <= 1e-15

    def test_cone_round_trip(self):
        inst = problems.interval_affine()
        normed = normalize_krivine(inst, [1])
        prog = assemble_krivine(normed, 2)
        cert = extract_cone(solve_lp(prog), prog)
        back = certificate_from_json(certificate_to_json(cert), inst)
        assert isinstance(back, ConeCertificate)
        assert verify(back, inst).passed

    def test_suite_round_trips_bit_identical(self, suite):
        # Every SOS term comes back with the same family, subset, block,
        # weight, basis and Gram matrix it was written with.
        count = 0
        for entry in suite.rows():
            if entry.variant == "krivine" or entry.report.status != "optimal":
                continue
            cert = extract_sos(entry.report, entry.program)
            inst = problems.get(entry.instance_name)
            back = certificate_from_json(certificate_to_json(cert), inst)
            assert (back.lam, back.mode, back.order) == (cert.lam, cert.mode, cert.order)
            assert len(back.terms) == len(cert.terms)
            for s, t in zip(cert.terms, back.terms):
                assert (s.family, s.subset, s.block, s.weight, s.basis) == (
                    t.family, t.subset, t.block, t.weight, t.basis
                )
                assert np.array_equal(s.gram, t.gram)
            count += 1
        assert count == 45  # every SOS solve of the suite

    @pytest.mark.parametrize(
        "field,value", [("family", "zz"), ("mode", "sideways"), ("kind", "zonal")]
    )
    def test_unknown_sos_names_rejected(self, field, value):
        prog, report = _solved(problems.interval(), 1)
        data = json.loads(certificate_to_json(extract_sos(report, prog)))
        if field == "family":
            data["terms"][0]["family"] = value
        else:
            data["mode"] = value
        with pytest.raises(ValueError, match=value):
            certificate_from_json(json.dumps(data), problems.interval())

    def test_gram_must_match_basis(self):
        prog, report = _solved(problems.interval(), 1)
        data = json.loads(certificate_to_json(extract_sos(report, prog)))
        data["terms"][0]["basis"].pop()
        with pytest.raises(ValueError, match="basis monomials"):
            certificate_from_json(json.dumps(data), problems.interval())

    @pytest.mark.parametrize(
        "field,value",
        [
            ("gram", "nan"),
            ("gram", "inf"),
            ("lambda", "nan"),
            ("basis", [1, 0]),
            ("basis", [1, 0, 0, 0]),
            ("basis", [0, -1, 0]),
            ("basis", [1.5, 0, 0]),
        ],
        ids=["nan-gram", "inf-gram", "nan-lambda", "short", "long", "negative", "fraction"],
    )
    def test_malformed_values_rejected(self, twoballs_r1_json, field, value):
        # Edits hit the last row of the first term, not its first entry.
        data = json.loads(twoballs_r1_json)
        term = data["terms"][0]
        if field == "lambda":
            data["lambda"] = value
        elif field == "gram":
            term["gram"][-1][1] = value
        else:
            term["basis"][-1] = value
        with pytest.raises(ValueError, match=field):
            certificate_from_json(json.dumps(data), problems.twoballs())

    @pytest.mark.parametrize("field", ["coeff", "scaling"])
    def test_non_finite_cone_values_rejected(self, field):
        inst = problems.interval_affine()
        prog = assemble_krivine(normalize_krivine(inst, [1]), 1)
        data = json.loads(certificate_to_json(extract_cone(solve_lp(prog), prog)))
        if field == "coeff":
            data["terms"][-1]["coeff"] = "nan"
        else:
            data["scaling"][0] = "inf"
        with pytest.raises(ValueError, match=field):
            certificate_from_json(json.dumps(data), inst)

    @pytest.mark.parametrize(
        "subset",
        [[[1, 0], [0]], [[-1], [0]], [[1.5], [0]]],
        ids=["wrong-length", "negative", "fraction"],
    )
    def test_malformed_cone_subset_rejected(self, subset):
        # interval_affine has one g constraint, so an xy key is two 1-lists.
        inst = problems.interval_affine()
        prog = assemble_krivine(normalize_krivine(inst, [1]), 1)
        data = json.loads(certificate_to_json(extract_cone(solve_lp(prog), prog)))
        term = data["terms"][0]
        assert term["family"] == "xy"
        term["subset"] = subset
        with pytest.raises(ValueError, match="subset"):
            certificate_from_json(json.dumps(data), inst)

    @pytest.mark.parametrize(
        "subset,match",
        [
            pytest.param([-1], "subset index", id="-1"),
            pytest.param([1], "subset index", id="1"),
            pytest.param([0.5], "term subset", id="fraction"),
            pytest.param([True], "term subset", id="bool"),
            pytest.param(["0"], "term subset", id="string"),
            pytest.param(5, "term subset", id="not-a-list"),
        ],
    )
    def test_subset_index_out_of_range_rejected(self, subset, match):
        # interval has one g constraint; -1 must not wrap around to it, and
        # only a list of ints indexes it.
        prog, report = _solved(problems.interval(), 1)
        data = json.loads(certificate_to_json(extract_sos(report, prog)))
        data["terms"][1]["subset"] = subset
        with pytest.raises(ValueError, match=match):
            certificate_from_json(json.dumps(data), problems.interval())

    @pytest.mark.parametrize("field,value", [("family", "zz"), ("mode", "schmudgen")])
    def test_unknown_cone_names_rejected(self, field, value):
        inst = problems.interval_affine()
        prog = assemble_krivine(normalize_krivine(inst, [1]), 1)
        data = json.loads(certificate_to_json(extract_cone(solve_lp(prog), prog)))
        if field == "family":
            data["terms"][0]["family"] = value
        else:
            data["mode"] = value
        with pytest.raises(ValueError, match=value):
            certificate_from_json(json.dumps(data), inst)

    @pytest.mark.parametrize(
        "layout",
        [{"n": 2, "m": 0, "p": 1, "names": ["a", "b", "c"]},
         {"n": 1, "m": 1, "p": 1, "names": ["a", "b", "c"]}],
        ids=["blocks", "names"],
    )
    def test_other_layout_rejected(self, twoballs_r1_json, layout):
        data = json.loads(twoballs_r1_json)
        data["layout"] = layout
        with pytest.raises(ValueError, match="layout"):
            certificate_from_json(json.dumps(data), problems.twoballs())

    @pytest.mark.parametrize("order", [-1, 2.5, "2", True], ids=["negative", "float", "string", "bool"])
    def test_order_not_a_nonnegative_int_rejected(self, twoballs_r1_json, order):
        data = json.loads(twoballs_r1_json)
        data["order"] = order
        with pytest.raises(ValueError, match="order"):
            certificate_from_json(json.dumps(data), problems.twoballs())

    def test_sos_order_other_than_built_rejected(self, twoballs_r1_json):
        # Every term of an r=1 certificate is built to order 1.
        data = json.loads(twoballs_r1_json)
        assert certificate_from_json(json.dumps(data), problems.twoballs()).order == 1
        data["order"] = 99
        with pytest.raises(ValueError, match="order 99 is not 1"):
            certificate_from_json(json.dumps(data), problems.twoballs())

    def test_cone_order_below_its_products_rejected(self):
        # interval's g is quadratic: the r=2 rows reach degree 4, order 2.
        inst = replace(problems.interval(), objective=X1**2)
        prog = assemble_krivine(normalize_krivine(inst, [1]), 2)
        data = json.loads(certificate_to_json(extract_cone(solve_lp(prog), prog)))
        data["order"] = 0
        with pytest.raises(ValueError, match="order 0 is below 2"):
            certificate_from_json(json.dumps(data), inst)
        # Not bounded above: the same rows at a higher stated order load.
        data["order"] = 3
        assert certificate_from_json(json.dumps(data), inst).order == 3

    def test_seventeen_digit_numbers(self):
        inst = problems.interval()
        prog, report = _solved(inst, 1)
        text = certificate_to_json(extract_sos(report, prog))
        assert '"lambda": "-' in text
        lam = float(text.split('"lambda": "')[1].split('"')[0])
        assert abs(lam - report.dual_objective) == 0.0


class TestTwoFamilyCone:
    def test_both_sides_carry_coefficients(self):
        layout = BlockLayout(1, 1, 1)
        x, y, z = (Polynomial.variable(layout, n) for n in "xyz")
        half = Fraction(1, 2)
        inst = ProblemInstance(
            layout,
            x + y + z,
            ((1 - x).scale(half), (1 - y).scale(half)),
            ((1 - z).scale(half),),
        )
        prog = assemble_krivine(normalize_krivine(inst, [1, 1, 1]), 1)
        report = solve_lp(prog)
        assert report.status == "optimal"
        assert abs(report.primal_objective + 3) <= 1e-6
        cert = extract_cone(report, prog)
        assert any(v > 1e-6 for v in cert.yz_coeffs.values())
        result = verify(cert, inst)
        assert result.passed and result.coupling_free


def _box_instance():
    """[-1,1]^3 through g = (1+v)/2 alone: the cone rows g^a (1-g)^b also
    bring in 1 - g = (1-v)/2.  y is bounded on both sides."""
    layout = BlockLayout(1, 1, 1)
    x, y, z = (Polynomial.variable(layout, n) for n in "xyz")
    half = Fraction(1, 2)
    return ProblemInstance(
        layout,
        x * y + y * z + x - z,
        ((1 + x).scale(half), (1 + y).scale(half)),
        ((1 + z).scale(half), (1 - y).scale(half)),
    )


def _reference_product(constraints, alpha, beta, layout):
    one = Polynomial.constant(layout, 1)
    product = one
    for c, a, b in zip(constraints, alpha, beta):
        product = product * c**a * (one - c) ** b
    return product


def _reference_rows(family, constraints, layout, r):
    degs = [c.degree for c in constraints]
    rows = []
    for powers in itertools.product(range(2 * r + 1), repeat=2 * len(constraints)):
        alpha, beta = powers[0::2], powers[1::2]
        if sum((a + b) * d for a, b, d in zip(alpha, beta, degs)) <= 2 * r:
            product = _reference_product(constraints, alpha, beta, layout)
            form = {layout.pack(e): c for e, c in product.terms.items()}
            rows.append(((family, alpha, beta), form))
    rows.sort(key=lambda row: (sum(row[0][1]) + sum(row[0][2]), row[0][1], row[0][2]))
    return rows


def _reference_expansion(cert, instance):
    """sum Fraction(c) * prod g^a (1-g)^b, one term at a time."""
    layout = instance.layout
    polys = list(instance.g_constraints) + list(instance.h_constraints)
    scaled = [p.scale(1 / Fraction(s)) for p, s in zip(polys, cert.scaling)]
    ng = len(instance.g_constraints)
    total = Polynomial.zero(layout)
    for constraints, coeffs in ((scaled[:ng], cert.xy_coeffs), (scaled[ng:], cert.yz_coeffs)):
        for (alpha, beta), value in coeffs.items():
            product = _reference_product(constraints, alpha, beta, layout)
            total = total + product.scale(Fraction(value))
    return total


WALK_LAYOUT = BlockLayout(1, 1, 1)
_WALK_COEFFS = st.sampled_from(
    [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(1, 3), Fraction(-5, 3)]
)


@st.composite
def _cone_walks(draw):
    """Up to two random constraints (denominators 2 and 3, degree up to 6)
    and a constant one, with power pairs of total degree up to 72, far above
    the 2r of any assembled row."""
    exps = st.tuples(*[st.integers(0, 2)] * 3)
    terms = st.dictionaries(exps, _WALK_COEFFS, min_size=1, max_size=3)
    drawn = draw(st.lists(terms, min_size=1, max_size=2))
    constraints = [Polynomial.from_terms(WALK_LAYOUT, t) for t in drawn]
    constant = Polynomial.constant(WALK_LAYOUT, draw(_WALK_COEFFS))
    constraints.insert(draw(st.integers(0, len(constraints))), constant)
    powers = st.tuples(*[st.integers(0, 3)] * len(constraints))
    pairs = draw(st.lists(st.tuples(powers, powers), min_size=1, max_size=6, unique=True))
    return constraints, pairs


class TestConeProducts:
    R = 3

    @pytest.fixture(scope="class")
    def solved(self):
        inst = _box_instance()
        normed = normalize_krivine(inst, [1, 1, 1, 1])
        prog = assemble_krivine(normed, self.R)
        report = solve_lp(prog)
        assert report.status == "optimal"
        return inst, normed, prog, extract_cone(report, prog)

    @settings(max_examples=60, deadline=None)
    @given(_cone_walks())
    def test_walk_matches_reference_products(self, walk):
        constraints, pairs = walk
        seen = []
        for pair, product in cone_products(constraints, WALK_LAYOUT, pairs):
            assert product.den > 0 and all(product.nums.values())
            assert product.terms == _reference_product(constraints, *pair, WALK_LAYOUT).terms
            seen.append(pair)
        assert sorted(seen) == sorted(pairs)

    def test_rows_match_reference_enumeration(self, solved):
        _, normed, prog, _ = solved
        layout = normed.layout
        expected = _reference_rows("xy", normed.g_constraints, layout, self.R)
        expected += _reference_rows("yz", normed.h_constraints, layout, self.R)
        assert [key for key, _ in prog.rows] == [key for key, _ in expected]
        assert list(prog.rows) == expected

    def test_expansion_matches_reference(self, solved):
        inst, _, _, cert = solved
        expansion = expand(cert, inst)
        assert expansion.terms == _reference_expansion(cert, inst).terms
        assert verify(cert, inst).passed

    def test_edited_json_matches_reference(self, solved):
        inst, _, _, cert = solved
        data = json.loads(certificate_to_json(cert))
        random.Random(5).shuffle(data["terms"])
        nonzero = next(t for t in data["terms"] if float(t["coeff"]) > 1e-3)
        nonzero["coeff"] = "0"
        # Degree 7 > 2r: the row enumeration never produces this key, and
        # the file must state an order of at least 4 to hold it.
        data["terms"].append({"family": "yz", "subset": [[4, 0], [0, 3]], "coeff": "0.125"})
        data["order"] = 4
        edited = certificate_from_json(json.dumps(data), inst)
        assert ((4, 0), (0, 3)) in edited.yz_coeffs
        assert 0.0 in edited.xy_coeffs.values() or 0.0 in edited.yz_coeffs.values()
        assert list(edited.xy_coeffs) != sorted(edited.xy_coeffs)
        expansion = expand(edited, inst)
        assert expansion.terms == _reference_expansion(edited, inst).terms
        assert expansion != expand(cert, inst)
