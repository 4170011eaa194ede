import itertools
import json
import random
from fractions import Fraction

import numpy as np
import pytest

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
from sparsepos.poly import BlockLayout, Polynomial
from sparsepos.problem import ProblemInstance
from sparsepos.relax import (
    assemble_krivine,
    assemble_sparse_schmudgen,
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
        cert = SOSCertificate(0.0, (term,), "schmudgen", 1, layout)
        inst = problems.twoballs()
        vr = verify(cert, inst)
        assert not vr.coupling_free
        assert not vr.passed

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
            rows.append(((family, alpha, beta), product.terms))
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
        # Degree 7 > 2r: the row enumeration never produces this key.
        data["terms"].append({"family": "yz", "subset": [[4, 0], [0, 3]], "coeff": "0.125"})
        edited = certificate_from_json(json.dumps(data), inst)
        assert ((4, 0), (0, 3)) in edited.yz_coeffs
        assert 0.0 in edited.xy_coeffs.values() or 0.0 in edited.yz_coeffs.values()
        assert list(edited.xy_coeffs) != sorted(edited.xy_coeffs)
        expansion = expand(edited, inst)
        assert expansion.terms == _reference_expansion(edited, inst).terms
        assert expansion != expand(cert, inst)
