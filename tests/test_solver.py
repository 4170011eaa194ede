import ctypes
import functools
import json
import os
import runpy
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import cho_factor
from scipy.sparse import csr_matrix

from sparsepos import certify, cli, problems, solver
from sparsepos.certify import (
    ConeCertificate,
    SOSCertificate,
    certificate_from_json,
    certificate_to_json,
    extract,
    extract_cone,
    extract_sos,
    verify,
)
from sparsepos.moments import SymbolicMatrix
from sparsepos.poly import BlockLayout, Polynomial, grlex_key
from sparsepos.problem import ProblemInstance
from sparsepos.relax import (
    VARIANTS,
    BlockLabel,
    ConicProgram,
    LinearProgram,
    assemble,
    assemble_dense,
    assemble_krivine,
    assemble_sparse_putinar,
    assemble_sparse_schmudgen,
    normalize_krivine,
)
from sparsepos.solver import (
    INFEASIBLE,
    NUMERICAL_FAILURE,
    OPTIMAL,
    UNBOUNDED,
    _cones,
    _PsdCone,
    _RowCone,
    solve,
    solve_lp,
    solve_sdp,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
UNIVARIATE = BlockLayout(1, 0, 0)
X1 = Polynomial.variable(UNIVARIATE, "x")
INTERVAL_G = 1 - X1**2


def _univariate(f, r):
    inst = ProblemInstance(UNIVARIATE, f, (INTERVAL_G,), ())
    return inst, assemble_sparse_schmudgen(inst, r)


# Closed-form minima on [-1, 1]; the relaxation is exact at the given order.
CLOSED_FORMS = [
    (X1**2, 1, 0.0),
    (X1, 1, -1.0),
    (X1**4 - X1**2, 2, -0.25),
    ((X1 - Polynomial.constant(UNIVARIATE, Fraction(1, 3))) ** 2, 1, 0.0),
    (X1**3, 2, -1.0),
    (2 + X1, 1, 1.0),
]


class TestSdpClosedForms:
    @pytest.mark.parametrize("f,r,expected", CLOSED_FORMS)
    def test_closed_form_minimum(self, f, r, expected):
        _, prog = _univariate(f, r)
        report = solve_sdp(prog)
        assert report.status == OPTIMAL
        assert abs(report.primal_objective - expected) <= 1e-6
        assert abs(report.dual_objective - expected) <= 1e-6

    def test_constant_objective_is_exact(self):
        _, prog = _univariate(Polynomial.constant(UNIVARIATE, 1), 1)
        report = solve_sdp(prog)
        assert report.status == OPTIMAL
        assert report.primal_objective == 1.0

    def test_square_has_zero_dual(self):
        _, prog = _univariate(X1**2, 1)
        report = solve_sdp(prog)
        assert abs(report.dual_objective) <= 1e-6


class TestSolveReports:
    def test_unit_moment_pinned(self):
        _, prog = _univariate(X1, 1)
        report = solve_sdp(prog)
        assert report.moments.unit == 1.0

    def test_moments_nearly_feasible(self):
        _, prog = _univariate(X1, 1)
        report = solve_sdp(prog)
        for _, matrix in prog.psd_blocks:
            mat = matrix.instantiate(report.moments)
            assert float(np.linalg.eigvalsh(mat)[0]) >= -1e-7

    def test_weak_duality(self):
        for f, r, _ in CLOSED_FORMS:
            _, prog = _univariate(f, r)
            report = solve_sdp(prog)
            assert report.dual_objective <= report.primal_objective + 1e-7

    def test_weak_duality_when_truncated(self):
        _, prog = _univariate(X1**4 - X1**2, 2)
        report = solve_sdp(prog, max_iter=3)
        assert report.status == "max-iterations"
        assert report.dual_objective <= report.primal_objective + 1e-7

    def test_complementarity_at_optimum(self):
        prog = assemble_sparse_schmudgen(problems.twoballs(), 2)
        report = solve_sdp(prog)
        for (label, matrix), (_, gram) in zip(prog.psd_blocks, report.dual_blocks):
            primal_block = matrix.instantiate(report.moments)
            scale = 1.0 + float(np.abs(primal_block).max()) + float(np.abs(gram).max())
            assert abs(float(np.tensordot(primal_block, gram))) <= 1e-5 * scale

    def test_determinism(self):
        prog = assemble_sparse_schmudgen(problems.twoballs(), 2)
        a = solve_sdp(prog, tol=1e-8)
        b = solve_sdp(prog, tol=1e-8)
        assert abs(a.primal_objective - b.primal_objective) <= 1e-7
        assert a.iterations == b.iterations

    def test_dual_blocks_are_psd(self):
        prog = assemble_sparse_schmudgen(problems.twoballs(), 2)
        report = solve_sdp(prog)
        for _, gram in report.dual_blocks:
            assert float(np.linalg.eigvalsh(gram)[0]) >= -1e-9

    def test_tolerance_validation(self):
        _, prog = _univariate(X1, 1)
        with pytest.raises(ValueError):
            solve_sdp(prog, tol=1.0)
        with pytest.raises(ValueError):
            solve_sdp(prog, tol=1e-15)


class TestLp:
    def test_affine_identity_bound(self):
        # f = 1 + x equals 2 * (1 - g) with g = (1-x)/2: the bound is 0.
        layout = UNIVARIATE
        x = Polynomial.variable(layout, "x")
        g = (1 - x).scale(Fraction(1, 2))
        inst = ProblemInstance(layout, 1 + x, (g,), ())
        prog = assemble_krivine(normalize_krivine(inst, [1]), 1)
        report = solve_lp(prog)
        assert report.status == OPTIMAL
        assert abs(report.primal_objective) <= 1e-7

    def test_constant_objective(self):
        layout = UNIVARIATE
        x = Polynomial.variable(layout, "x")
        inst = ProblemInstance(layout, Polynomial.constant(layout, 5), ((1 - x).scale(Fraction(1, 2)),), ())
        prog = assemble_krivine(normalize_krivine(inst, [1]), 1)
        report = solve_lp(prog)
        assert report.status == OPTIMAL
        assert abs(report.primal_objective - 5) <= 1e-8

    def test_doctored_infeasible_rows(self):
        # A constant row demanding -1 >= 0 contradicts the pinned unit moment.
        zero = UNIVARIATE.zero_exponent
        prog = LinearProgram(
            layout=UNIVARIATE,
            order=1,
            variable_index=(zero, (1,)),
            objective={UNIVARIATE.pack((1,)): Fraction(1)},
            rows=(
                (("xy", (0,), (0,)), {0: Fraction(-1)}),
                (("xy", (1,), (0,)), {UNIVARIATE.pack((1,)): Fraction(1)}),
            ),
            scaling=(Fraction(1),),
        )
        report = solve_lp(prog)
        assert report.status == INFEASIBLE

    def test_unconstrained_moment_is_unbounded(self):
        # Even-degree constraints never touch odd moments, so minimizing x
        # escapes to minus infinity.
        inst = normalize_krivine(problems.interval(), [1])
        report = solve_lp(assemble_krivine(inst, 2))
        assert report.status == UNBOUNDED

    def test_row_duals_nonnegative(self):
        layout = UNIVARIATE
        x = Polynomial.variable(layout, "x")
        inst = ProblemInstance(layout, x, ((1 - x).scale(Fraction(1, 2)),), ())
        prog = assemble_krivine(normalize_krivine(inst, [1]), 2)
        report = solve_lp(prog)
        assert report.status == OPTIMAL
        assert all(v >= -1e-9 for _, v in report.dual_blocks)
        assert abs(report.primal_objective + 1) <= 1e-6


def _two_family_box():
    """[-1,1]^3 through (1+v)/2 on both sides, y shared: two LP cones."""
    layout = BlockLayout(1, 1, 1)
    x, y, z = (Polynomial.variable(layout, n) for n in "xyz")
    half = Fraction(1, 2)
    return ProblemInstance(
        layout,
        x * y + y * z + x - z,
        ((1 + x).scale(half), (1 + y).scale(half)),
        ((1 + z).scale(half), (1 - y).scale(half)),
    )


class TestLpFamilyCones:
    """One LP cone per constraint family, each over the moments it touches."""

    def test_duals_follow_program_rows(self):
        inst = _two_family_box()
        prog = assemble_krivine(normalize_krivine(inst, [1] * 4), 2)
        # Interleave the families, so that cone order is not row order.
        xy = [row for row in prog.rows if row[0][0] == "xy"]
        yz = [row for row in prog.rows if row[0][0] == "yz"]
        assert len(xy) == len(yz) > 1
        rows = [row for pair in zip(yz, xy) for row in pair]
        for program in (prog, replace(prog, rows=tuple(rows))):
            report = solve_lp(program)
            assert report.status == OPTIMAL
            assert [key for key, _ in report.dual_blocks] == [key for key, _ in program.rows]
            # The identity only holds with each multiplier on its own row.
            assert verify(extract_cone(report, program), inst).passed

    def test_schur_parts_match_dense_reference(self):
        prog = assemble_krivine(normalize_krivine(_two_family_box(), [1] * 4), 2)
        labelled, stacked, pos = _cones(prog)
        cones = [cone for cone, _ in labelled]
        families = [rows for _, rows in labelled]
        M = len(pos)
        assert sorted(pos.values()) == list(range(M))
        assert [type(c) for c in cones] == [_RowCone, _RowCone]
        assert [len(rows) for rows in families] == [c.size for c in cones]
        A = np.zeros((M, len(prog.rows)))
        for j, (_, form) in enumerate(prog.rows):
            for p, coeff in form.items():
                if p != 0:  # the unit moment
                    A[pos[p], j] = -float(coeff)
        # The stacked operator holds the families' columns one after another.
        np.testing.assert_array_equal(stacked.toarray(), A[:, np.concatenate(families)])
        w = np.random.default_rng(3).uniform(0.5, 2.0, len(prog.rows))
        schur = np.zeros((M, M))
        for cone, rows in zip(cones, families):
            np.testing.assert_array_equal(cone.A_b, A[cone.moments][:, rows])
            # Scaling x = w, s = 1 puts the weights w on the rows.
            cone.scale(w[rows], np.ones(cone.size))
            assert cone.moments.size < M
            cone.schur(schur)
        assert _rel_err(schur, (A * w) @ A.T) <= 1e-12

    def test_unit_row_family_touches_no_moment(self, capfd):
        # interval has no h constraint: its yz family is the unit row alone.
        inst = replace(problems.interval(), objective=X1**2)
        prog = assemble_krivine(normalize_krivine(inst, [1]), 2)
        assert [form for key, form in prog.rows if key[0] == "yz"] == [{0: Fraction(1)}]
        labelled, stacked, _ = _cones(prog)
        assert labelled[1][0].moments.size == 0
        assert stacked[:, -1].nnz == 0
        report = solve_lp(prog)
        assert report.status == OPTIMAL
        assert abs(report.primal_objective) <= 1e-6
        assert verify(extract_cone(report, prog), inst).passed
        # The family has no Schur part, so no BLAS call sees an empty matrix.
        assert "illegal value" not in "".join(capfd.readouterr())


class TestModuleVersusPreordering:
    """[-1,1] described by the two affine constraints 1-x and 1+x separates
    the hierarchies: the subset product (1-x)(1+x) makes the preordering
    exact at the first order, while the quadratic module leaves the top
    moment unconstrained there (unbounded) and only catches up one order
    later."""

    def _instance(self):
        return ProblemInstance(UNIVARIATE, 1 - X1**2, (1 - X1, 1 + X1), ())

    def test_preordering_exact_at_first_order(self):
        report = solve_sdp(assemble_sparse_schmudgen(self._instance(), 1))
        assert report.status == OPTIMAL
        assert abs(report.primal_objective) <= 1e-6

    def test_module_unbounded_then_exact(self):
        from sparsepos.relax import assemble_sparse_putinar

        report1 = solve_sdp(assemble_sparse_putinar(self._instance(), 1))
        assert report1.status == UNBOUNDED
        report2 = solve_sdp(assemble_sparse_putinar(self._instance(), 2))
        assert report2.status == OPTIMAL
        assert abs(report2.primal_objective) <= 1e-6


def _dense_constraints(program, pos):
    """The (M, k, k) tensors A_i = -F_i and constants C = F_0 of every PSD
    block, expanded entry by entry from the symbolic matrices, with moment
    i at ``pos`` of its packed exponent."""
    zero = program.layout.zero_exponent
    M = len(pos)
    out = []
    for _, sym in program.psd_blocks:
        k = sym.size
        A = np.zeros((M, k, k))
        C = np.zeros((k, k))
        for i in range(k):
            for j in range(k):
                for coeff, e in sym.entries[min(i, j)][max(i, j)]:
                    if e == zero:
                        C[i, j] += float(coeff)
                    else:
                        A[pos[program.layout.pack(e)], i, j] -= float(coeff)
        out.append((A, C))
    return out


def _rel_err(got, want) -> float:
    return float(np.max(np.abs(got - want))) / (1.0 + float(np.max(np.abs(want))))


def _workspace(*cones):
    """The chunk buffers Y (zeroed) and W Y that a solve over these cones
    allocates once and hands to every ``schur`` call."""
    n = max(c.workspace for c in cones)
    return np.zeros(n), np.empty(n)


class TestSparseConstraintData:
    """The sparse cone data against the dense (M, k, k) formulas."""

    # (order, block index): a 6x6 moment matrix, a 3x3 localizing matrix
    # whose entries read three moments each, and a 1x1 localizing block.
    BLOCKS = [(2, 0), (2, 1), (1, 1)]

    @pytest.mark.parametrize("r,index", BLOCKS)
    def test_block_matches_dense_reference(self, r, index):
        program = assemble_sparse_schmudgen(problems.twoballs(), r)
        labelled, stacked, pos = _cones(program)
        cone, label = labelled[index]
        M = len(pos)
        assert label == program.psd_blocks[index][0]
        A, C = _dense_constraints(program, pos)[index]
        k = cone.size
        sym = program.psd_blocks[index][1]
        assert isinstance(cone, _PsdCone) and k == sym.size
        if r == 2 and index == 1:
            assert max(len(e) for row in sym.entries for e in row) == 3
        np.testing.assert_array_equal(cone.C, C)

        rng = np.random.default_rng(7 * r + index)
        X = rng.standard_normal((k, k))
        X = X + X.T
        y = rng.standard_normal(M)
        G = rng.standard_normal((k, k))
        S = G @ G.T + 0.1 * np.eye(k)

        # The block's columns of the stacked operator, after the earlier blocks'.
        start = sum(c.C.size for c, _ in labelled[:index])
        own = stacked[:, start : start + k * k]
        assert _rel_err(own @ X.ravel(), np.tensordot(A, X)) <= 1e-12
        assert _rel_err((own.T @ y).reshape(k, k), np.tensordot(y, A, axes=1)) <= 1e-12

        # Nesterov-Todd scaling at X = I gives W = S^(-1/2).
        cone.scale(np.eye(k), S)
        W = cone.W
        assert _rel_err(W @ S @ W, np.eye(k)) <= 1e-10
        schur = np.zeros((M, M))
        work = _workspace(cone)
        cone.schur(schur, *work)
        WAW = W @ A @ W
        want = A.reshape(M, -1) @ WAW.reshape(M, -1).T
        assert _rel_err(schur, want) <= 1e-12
        # The buffer is rewritten in place: a second scaling point gives
        # the second point's Schur complement, not a mixture.
        cone.scale(np.eye(k), S + np.eye(k))
        W2 = cone.W
        assert not np.allclose(W2, W)
        schur.fill(0.0)
        cone.schur(schur, *work)
        want2 = A.reshape(M, -1) @ (W2 @ A @ W2).reshape(M, -1).T
        assert _rel_err(schur, want2) <= 1e-12

    def test_untouched_moment_is_unbounded(self):
        # Minimizing x while the only block, on basis {1, x^2}, reads 1, x^2
        # and x^4: x is a free ray.
        zero = UNIVARIATE.zero_exponent
        one = Fraction(1)
        block = SymbolicMatrix(((0,), (2,)), Polynomial.constant(UNIVARIATE, 1))
        label = BlockLabel("xy", (), "x")
        prog = ConicProgram(
            UNIVARIATE, "test", 1, (zero, (1,), (2,), (4,)), {UNIVARIATE.pack((1,)): one},
            ((label, block),),
        )
        report = solve_sdp(prog)
        assert report.status == UNBOUNDED
        assert report.iterations == 0

    def test_one_block_program(self):
        # The moment matrix on basis {1, x} alone: minimizing x^2 gives 0.
        zero = UNIVARIATE.zero_exponent
        block = SymbolicMatrix(((0,), (1,)), Polynomial.constant(UNIVARIATE, 1))
        prog = ConicProgram(
            UNIVARIATE, "test", 1, (zero, (1,), (2,)), {UNIVARIATE.pack((2,)): Fraction(1)},
            ((BlockLabel("xy", (), "x"), block),),
        )
        report = solve_sdp(prog)
        assert report.status == OPTIMAL and report.iterations > 0
        assert abs(report.primal_objective) <= 1e-7

    def test_constant_negative_block_is_infeasible(self):
        # A second block that reads no moment and equals -1 contradicts PSD.
        zero = UNIVARIATE.zero_exponent
        one = Fraction(1)
        label = BlockLabel("xy", (), "x")
        moment = SymbolicMatrix(((0,), (1,)), Polynomial.constant(UNIVARIATE, 1))
        constant = SymbolicMatrix(((0,),), Polynomial.constant(UNIVARIATE, -1))
        prog = ConicProgram(
            UNIVARIATE, "test", 1, (zero, (1,), (2,)), {UNIVARIATE.pack((1,)): one},
            ((label, moment), (label, constant)),
        )
        report = solve_sdp(prog)
        assert report.status == INFEASIBLE
        assert report.iterations == 0


def _is_view(cone) -> bool:
    """Whether a PSD cone adds its Schur part into a view of the matrix
    rather than through a gather."""
    return all(isinstance(at[0], slice) for at, *_ in cone.chunks)


class TestMomentPlacement:
    """The moments are placed by side, X-side | Y-only | Z-side | X-Z
    mixed, so each block of P(g)+P(h) reads one range and adds into a view
    of the Schur matrix; any other block gathers."""

    def test_sides_cover_one_range_each(self):
        text = runpy.run_path(os.path.join(ROOT, "perfbench", "gen.py"))["instance_text"]
        program = assemble_sparse_schmudgen(cli.parse_problem(text("ball313", 1)), 3)
        labelled, stacked, pos = _cones(program)
        M = len(pos)
        assert stacked.shape[0] == M and len(labelled) == 4
        sides = {"xy": set(), "yz": set()}
        for cone, label in labelled:
            m = cone.moments
            np.testing.assert_array_equal(m, np.arange(m[0], m[-1] + 1))
            assert _is_view(cone)
            sides[label.block].update(m.tolist())
        x, z = program.layout.outside("yz"), program.layout.outside("xy")
        y_only = {i for p, i in pos.items() if not p & x and not p & z}
        assert y_only and sides["xy"] & sides["yz"] == y_only
        assert sides["xy"] | sides["yz"] == set(range(M))
        # X-side first, Z-side last.
        assert min(sides["xy"]) == 0 and max(sides["yz"]) == M - 1

    def test_dense_localizing_block_gathers(self):
        program = assemble_dense(problems.twoballs(), 2)
        labelled, _, pos = _cones(program)
        M = len(pos)
        cone, label = labelled[1]
        assert label.subset == (0,) and isinstance(cone, _PsdCone)
        m = cone.moments
        assert m[-1] - m[0] >= m.size  # gaps between its moments
        assert not _is_view(cone)
        assert _is_view(labelled[0][0])  # the moment matrix reads every moment
        A, C = _dense_constraints(program, pos)[1]
        np.testing.assert_array_equal(cone.C, C)
        rng = np.random.default_rng(9)
        G = rng.standard_normal((cone.size, cone.size))
        cone.scale(np.eye(cone.size), G @ G.T + 0.1 * np.eye(cone.size))
        W = cone.W
        base = rng.standard_normal((M, M))
        H = base.copy()
        cone.schur(H, *_workspace(cone))
        want = A.reshape(M, -1) @ (W @ A @ W).reshape(M, -1).T
        assert _rel_err(H - base, want) <= 1e-12

    @pytest.mark.parametrize(
        "program,moments",
        [
            (assemble_sparse_schmudgen(problems.twoballs(), 2), True),
            (assemble_dense(problems.fivevar(), 2), True),
            # The cone LP is degenerate: its moments are fixed only to the
            # tolerance, on a face of optima, so only its bound is compared.
            (assemble_krivine(normalize_krivine(_two_family_box(), [1] * 4), 2), False),
        ],
        ids=["twoballs-sparse-r2", "fivevar-dense-r2", "box-krivine-r2"],
    )
    def test_variable_order_does_not_matter(self, program, moments):
        index = list(program.variable_index[1:])
        np.random.default_rng(5).shuffle(index)
        shuffled = replace(program, variable_index=(program.variable_index[0], *index))
        a, b = solve(program), solve(shuffled)
        assert a.status == b.status == OPTIMAL
        assert a.iterations == b.iterations
        assert abs(a.dual_objective - b.dual_objective) <= 1e-9 * (1.0 + abs(a.dual_objective))
        if moments:
            scale = 1.0 + max(abs(v) for v in a.moments.values.values())
            for e, v in a.moments.values.items():
                assert abs(b.moments.values[e] - v) <= 1e-9 * scale


class TestChunkedSchur:
    """A PSD block's Schur part is built a few moments at a time, straight
    into the caller's matrix; the chunks must add up to formula F1."""

    K, M = 64, 100  # one moment's (k, k) slab is 32 KiB

    def _cone(self, touched, rng):
        # Random sparse symmetric A_j on the touched moments, zero elsewhere.
        A = np.zeros((self.M, self.K, self.K))
        for j in touched:
            B = np.zeros((self.K, self.K))
            p, q = rng.integers(0, self.K, (2, 40))
            B[p, q] = rng.standard_normal(40)
            A[j] = B + B.T
        return _PsdCone(csr_matrix(A.reshape(self.M, -1)), np.zeros((self.K, self.K))), A

    @pytest.mark.parametrize("subset", [False, True], ids=["full-width", "subset"])
    def test_chunks_match_dense_reference(self, subset):
        rng = np.random.default_rng(11 + subset)
        touched = np.sort(rng.choice(self.M, 70, replace=False)) if subset else np.arange(self.M)
        cone, A = self._cone(touched, rng)
        np.testing.assert_array_equal(cone.moments, touched)
        assert len(cone.chunks) >= 3
        base = rng.standard_normal((self.M, self.M))
        work = _workspace(cone)
        for shift in (0.1, 1.0):  # two successive scaling points
            G = rng.standard_normal((self.K, self.K))
            cone.scale(np.eye(self.K), G @ G.T + shift * np.eye(self.K))
            W = cone.W
            H = base.copy()
            cone.schur(H, *work)  # adds into H
            want = A.reshape(self.M, -1) @ (W @ A @ W).reshape(self.M, -1).T
            assert _rel_err(H - base, want) <= 1e-12

    def test_workspace_is_a_few_chunks(self):
        k, M = 48, 1200
        full = k * k * M * 8  # what one (k, k, M_b) buffer would take
        assert full >= 16 * solver._CHUNK_BYTES
        rng = np.random.default_rng(2)
        j = np.repeat(np.arange(M), 4)
        p, q = rng.integers(0, k, (2, j.size))
        v = rng.standard_normal(j.size)
        A = csr_matrix((np.r_[v, v], (np.r_[j, j], np.r_[p * k + q, q * k + p])), shape=(M, k * k))
        cone = _PsdCone(A, np.zeros((k, k)))
        G = rng.standard_normal((k, k))
        cone.scale(np.eye(k), G @ G.T + np.eye(k))
        assert all(a.nbytes < full // 4 for a in vars(cone).values() if isinstance(a, np.ndarray))
        H = np.zeros((M, M))
        tracemalloc.start()
        try:
            cone.schur(H, *_workspace(cone))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < full // 4
        assert np.any(H)

    def test_subset_chunks_count_the_gathered_rows(self):
        # A 4x4 block over 800 of 1200 moments, with gaps: its (k, k, w)
        # buffers are small even at w = M_b, but each chunk gathers a (w, M_b)
        # block of H and the sparse product makes another.
        k, M = 4, 1200
        rng = np.random.default_rng(4)
        j = np.repeat(np.sort(rng.choice(M, 800, replace=False)), 3)
        p, q = rng.integers(0, k, (2, j.size))
        v = rng.standard_normal(j.size)
        A = csr_matrix((np.r_[v, v], (np.r_[j, j], np.r_[p * k + q, q * k + p])), shape=(M, k * k))
        cone = _PsdCone(A, np.zeros((k, k)))
        G = rng.standard_normal((k, k))
        cone.scale(np.eye(k), G @ G.T + np.eye(k))
        H = np.zeros((M, M))
        tracemalloc.start()
        try:
            cone.schur(H, *_workspace(cone))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * solver._CHUNK_BYTES
        Ad = A.toarray().reshape(M, k, k)
        want = A.toarray() @ (cone.W @ Ad @ cone.W).reshape(M, -1).T
        assert _rel_err(H, want) <= 1e-12

    def test_shared_workspace_matches_fresh_buffers(self):
        # Blocks of k = 21 and 6, over different moments, one after another
        # in one shared pair of buffers, as in a solve.
        labelled, stacked, _ = _cones(assemble_dense(problems.fivevar(), 3))
        cones = [cone for cone, _ in labelled]
        assert len({c.workspace for c in cones}) >= 2
        M = stacked.shape[0]
        rng = np.random.default_rng(6)
        for c in cones:
            G = rng.standard_normal((c.size, c.size))
            c.scale(np.eye(c.size), G @ G.T + np.eye(c.size))
        Y, WY = _workspace(*cones)
        shared, fresh = np.zeros((M, M)), np.zeros((M, M))
        for c in cones:
            c.schur(shared, Y, WY)
            assert not np.any(Y)  # each chunk clears what it wrote
            c.schur(fresh, *_workspace(c))
        np.testing.assert_array_equal(shared, fresh)


class TestSchurFactorInPlace:
    """The Schur matrix is built from the cones, then Cholesky overwrites its
    upper triangle and diagonal; a failed attempt builds it again."""

    @pytest.mark.parametrize("step", [None, 7], ids=["one-row-block", "row-blocks-of-7"])
    def test_retry_keeps_the_matrix(self, step, monkeypatch):
        # A block over 40 moments whose A_30 is zero: H has a zero row and
        # column, so the unshifted attempt fails at row 30, after writing part
        # of a factor over the upper triangle.
        n, k = 40, 10
        if step:  # the build then walks several chunks of 7 moments
            monkeypatch.setattr(solver, "_CHUNK_BYTES", 8 * k * k * step)
        rng = np.random.default_rng(8)
        B = rng.standard_normal((n, k, k))
        B[30] = 0.0
        cone = _PsdCone(csr_matrix((B + B.transpose(0, 2, 1)).reshape(n, -1)), np.zeros((k, k)))
        assert len(cone.chunks) == (6 if step else 1)
        G = rng.standard_normal((k, k))
        cone.scale(np.eye(k), G @ G.T + np.eye(k))
        Y, WY = _workspace(cone)
        H_ref = np.zeros((n, n))
        cone.schur(H_ref, Y, WY)
        with pytest.raises(np.linalg.LinAlgError):
            cho_factor(H_ref, lower=True, check_finite=False)
        builds = []
        schur = cone.schur
        monkeypatch.setattr(cone, "schur", lambda *args: builds.append(schur(*args)))
        H = np.full((n, n), np.nan)  # what the last iteration left
        factor, in_lower = solver._factor([cone], H, Y, WY)
        assert len(builds) == 2  # one build per attempt
        assert in_lower and np.shares_memory(factor, H)  # factored in place
        # The factor is the jittered H's, with no trace of the failed attempt.
        U = np.triu(H)
        jitter = U[30, 30] ** 2
        assert 0.0 < jitter <= 1e-8
        assert _rel_err(U.T @ U, H_ref + jitter * np.eye(n)) <= 1e-13

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_part_fails(self, bad):
        # OpenBLAS's Cholesky reads the NaN or inf without failing; the
        # factor's diagonal is what shows it.
        class Part:
            moments = np.arange(10)

            def schur(self, H, *_):
                H += np.eye(10)
                H[2, 7] = bad

        with pytest.raises(np.linalg.LinAlgError):
            solver._factor([Part()], np.empty((10, 10)), None, None)

    def test_solve_working_set(self):
        # One M x M matrix and one chunk workspace: fivevar dense r=3 has
        # M = 461 and blocks 21 and 6.  A second M x M copy to factor and a
        # pair of chunk buffers per block take the traced peak to 13 MiB.
        program = assemble_dense(problems.fivevar(), 3)
        tracemalloc.start()
        try:
            report = solve_sdp(program)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.status == OPTIMAL
        assert peak < 9 * 2**20


class TestJitteredSolves:
    """Each Newton direction is one solve with the factor, unrefined; with
    the jitter of a failed first Cholesky attempt on every factorization,
    the solves still converge and verify in as many iterations."""

    @pytest.mark.parametrize(
        "instance,assemble",
        [(problems.twoballs(), assemble_sparse_schmudgen), (problems.fivevar(), assemble_dense)],
        ids=["twoballs-sparse-r2", "fivevar-dense-r2"],
    )
    def test_converges_without_refinement(self, instance, assemble, monkeypatch):
        program = assemble(instance, 2)
        plain = solve(program)
        factor = solver.cho_factor
        calls = []

        def first_attempt_fails(*args, **kwargs):
            # _factor calls once per attempt: odd calls are first attempts.
            calls.append(None)
            if len(calls) % 2:
                raise np.linalg.LinAlgError("forced first-attempt failure")
            return factor(*args, **kwargs)

        monkeypatch.setattr(solver, "cho_factor", first_attempt_fails)
        jittered = solve(program)
        assert len(calls) == 2 * jittered.iterations
        assert plain.status == jittered.status == OPTIMAL
        assert jittered.iterations == plain.iterations
        scale = 1.0 + abs(plain.dual_objective)
        assert abs(jittered.dual_objective - plain.dual_objective) <= 1e-8 * scale
        assert verify(extract_sos(jittered, program), instance).passed


class TestNesterovToddScaling:
    """R^-1 comes from the SVD that gives R: R^-1 X R^-T = R^T S R =
    diag(lam) and R^-1 R = I, also on badly conditioned pairs."""

    @staticmethod
    def _spd(rng, k, cond):
        Q, _ = np.linalg.qr(rng.standard_normal((k, k)))
        return (Q * np.logspace(0, -np.log10(cond), k)) @ Q.T

    @pytest.mark.parametrize("k", [1, 3, 8, 20])
    @pytest.mark.parametrize("cond", [1e2, 1e5, 1e8])
    def test_scaling_identities(self, k, cond):
        rng = np.random.default_rng(int(k * np.log10(cond)))
        cone = _PsdCone(csr_matrix(np.eye(k).reshape(1, k * k)), np.zeros((k, k)))
        for _ in range(5):
            X, S = self._spd(rng, k, cond), self._spd(rng, k, cond)
            cone.scale(X, S)
            lam = np.diag(cone.lam)
            assert _rel_err(cone.Rinv @ X @ cone.Rinv.T, lam) <= 1e-10
            assert _rel_err(cone.R.T @ S @ cone.R, lam) <= 1e-10
            assert _rel_err(cone.Rinv @ cone.R, np.eye(k)) <= 1e-10
            assert _rel_err(cone.W, cone.R @ cone.R.T) == 0.0


class TestConeKindsAgree:
    """A one-row LP cone and a 1x1 PSD block are the same cone, so the two
    classes must agree on it: Nesterov-Todd on 1x1 gives W^2 = x/s, and its
    corrector reduces to sigma*mu/s - x - dx*ds/s."""

    X, S, SIGMA_MU = 2.5, 0.8, 0.3

    def _pair(self):
        # The row reads moments 0 and 2 of three.
        A = csr_matrix(np.array([[0.7], [0.0], [-1.3]]))
        row, psd = _RowCone(A, np.array([0.4])), _PsdCone(A, np.array([[0.4]]))
        row.scale(np.array([self.X]), np.array([self.S]))
        psd.scale(np.array([[self.X]]), np.array([[self.S]]))
        return row, psd

    def test_scaling_schur_and_congruence(self):
        row, psd = self._pair()
        assert abs(psd.W[0, 0] ** 2 - self.X / self.S) <= 1e-12
        np.testing.assert_array_equal(row.moments, psd.moments)
        H_psd, H_row = np.zeros((3, 3)), np.zeros((3, 3))
        psd.schur(H_psd, *_workspace(psd))
        row.schur(H_row)
        np.testing.assert_allclose(H_psd, H_row, rtol=1e-12, atol=1e-12)
        v = np.array([-1.1])
        np.testing.assert_allclose(psd.congruence(v[:, None]).ravel(), row.congruence(v), rtol=1e-12)
        # Both keep the same rows of the constraint data.
        np.testing.assert_array_equal(psd.A_b.toarray(), row.A_b)

    @pytest.mark.parametrize("dx,ds", [(-1.7, -0.9), (-0.4, -2.2)])
    def test_corrector_and_steps(self, dx, ds):
        row, psd = self._pair()
        want = self.SIGMA_MU / self.S - self.X - dx * ds / self.S
        got_row = row.corrector(self.SIGMA_MU, np.array([dx]), np.array([ds]))
        got_psd = psd.corrector(self.SIGMA_MU, np.array([[dx]]), np.array([[ds]]))
        np.testing.assert_allclose(got_row, [want], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(got_psd.ravel(), [want], rtol=1e-12, atol=1e-12)
        steps_row = row.max_steps(np.array([dx]), np.array([ds]))
        steps_psd = psd.max_steps(np.array([[dx]]), np.array([[ds]]))
        np.testing.assert_allclose(steps_psd, steps_row, rtol=1e-12)
        np.testing.assert_allclose(steps_row, [self.X / -dx, self.S / -ds], rtol=1e-12)

    def test_directions_into_the_cone_are_unbounded(self):
        row, psd = self._pair()
        assert row.max_steps(np.array([0.5]), np.array([1.5])) == (np.inf, np.inf)
        assert psd.max_steps(np.array([[0.5]]), np.array([[1.5]])) == (np.inf, np.inf)


class TestOneProgram:
    """A program's PSD blocks and rows go through one solve and one extract,
    whichever variant built it."""

    @pytest.mark.parametrize("r", [1, 2])
    def test_blocks_and_rows_in_one_program(self, r):
        inst = problems.twoballs()
        sparse = assemble_sparse_schmudgen(inst, r)
        lp = assemble_krivine(normalize_krivine(inst, [1, 1]), r)
        union = {*sparse.variable_index, *lp.variable_index}
        mixed = replace(
            sparse,
            variable_index=tuple(sorted(union, key=grlex_key)),
            rows=lp.rows,
            scaling=lp.scaling,
        )
        report = solve(mixed)
        assert report.status == OPTIMAL
        # The 4 Gram matrices first, then the row multipliers in row order.
        labels = [label for label, _ in sparse.psd_blocks]
        assert len(labels) == 4
        assert [label for label, _ in report.dual_blocks] == labels + [k for k, _ in lp.rows]
        assert all(np.shape(gram) == (m.size, m.size)
                   for (_, gram), (_, m) in zip(report.dual_blocks, sparse.psd_blocks))
        assert all(isinstance(v, float) for _, v in report.dual_blocks[4:])

        cert = extract(report, mixed)
        assert type(cert) is SOSCertificate
        assert cert.terms and cert.xy_coeffs and cert.yz_coeffs
        alone = solve(sparse).dual_objective
        assert abs(cert.lam - alone) <= 1e-8 * abs(alone)
        # Both parts are written, but a schmudgen recipe has no row side for
        # the cone terms: verify and the loader refuse them by one rule.
        data = json.loads(certificate_to_json(cert))
        assert {"coeff", "gram"} <= {key for term in data["terms"] for key in term}
        with pytest.raises(ValueError, match="no 'xy' cone family in 'schmudgen'"):
            verify(cert, inst)
        with pytest.raises(ValueError, match="no 'xy' cone family in 'schmudgen'"):
            certificate_from_json(json.dumps(data), inst)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_krivine_alone_has_the_lp_types(self, variant):
        # Krivine's top-shell rows leave x free on the interval (every row is
        # even in x), so it solves the affine one.
        krivine = variant == "krivine"
        inst = problems.interval_affine() if krivine else problems.interval()
        program = assemble(normalize_krivine(inst, [1]) if krivine else inst, variant, 2)
        assert isinstance(program, LinearProgram) == krivine
        assert (program.num_blocks == 0) == krivine and (program.num_rows > 0) == krivine
        cert = extract(solve(program), program)
        assert isinstance(cert, ConeCertificate) == krivine
        back = certificate_from_json(certificate_to_json(cert), inst)
        assert type(back) is type(cert)
        assert verify(back, inst).passed


def _cholesky_step(P, D):
    """Largest a with P + a D PSD, from the Cholesky factor of P."""
    L = np.linalg.cholesky(P)
    B = np.linalg.solve(L, np.linalg.solve(L, D).T)
    lam_min = np.linalg.eigvalsh(0.5 * (B + B.T))[0]
    return np.inf if lam_min >= 0 else -1.0 / lam_min


class TestPsdStepLength:
    """The step test reads the scaling point: its steps must be the largest
    ones that keep X + a dX and S + a dS PSD."""

    @staticmethod
    def _spd(rng, k):
        G = rng.standard_normal((k, k))
        return G @ G.T + 0.1 * np.eye(k)

    @pytest.mark.parametrize("k", [1, 3, 8])
    @pytest.mark.parametrize("direction", ["negative", "indefinite"])
    def test_steps_match_cholesky_definition(self, k, direction):
        rng = np.random.default_rng(k)
        cone = _PsdCone(csr_matrix(np.eye(k).reshape(1, k * k)), np.zeros((k, k)))
        X, S = self._spd(rng, k), self._spd(rng, k)
        cone.scale(X, S)
        for _ in range(5):
            if direction == "negative":
                dX, dS = -self._spd(rng, k), -self._spd(rng, k)
            else:
                dX, dS = (G + G.T for G in rng.standard_normal((2, k, k)))
            want = _cholesky_step(X, dX), _cholesky_step(S, dS)
            np.testing.assert_allclose(cone.max_steps(dX, dS), want, rtol=1e-9)

    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_psd_directions_are_unbounded(self, k):
        rng = np.random.default_rng(k)
        cone = _PsdCone(csr_matrix(np.eye(k).reshape(1, k * k)), np.zeros((k, k)))
        cone.scale(self._spd(rng, k), self._spd(rng, k))
        assert cone.max_steps(self._spd(rng, k), np.zeros((k, k))) == (np.inf, np.inf)


# Two ball constraints that do not meet (y in [2, 4] against y in [-1, 1]).
DISJOINT = """vars x : X; y : Y; z : Z;
minimize x*y + y*z + x + z;
st g: 1 - x^2 - (y-3)^2 >= 0;
st h: 1 - y^2 - z^2 >= 0;
"""
# A feasible set with no interior point: x = y = 0 and z in [-1, 1], min -1.
NO_INTERIOR = """vars x : X; y : Y; z : Z;
minimize x + z;
st g: -x^2 - y^2 >= 0;
st h: 1 - y^2 - z^2 >= 0;
"""
ASSEMBLERS = {
    "schmudgen-sparse": assemble_sparse_schmudgen,
    "putinar-sparse": assemble_sparse_putinar,
    "dense": assemble_dense,
}
CORPUS_RUNGS = [
    (variant, r)
    for variant, orders in (("schmudgen-sparse", (1, 2, 3)), ("putinar-sparse", (1, 2, 3)), ("dense", (2, 3)))
    for r in orders
]


@functools.lru_cache(maxsize=None)
def _corpus_report(text, variant, r):
    program = ASSEMBLERS[variant](cli.parse_problem(text), r)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return solve_sdp(program)


class TestAdversarialCorpus:
    """Inputs that drive the iterates to overflow or to a stall: every solve
    ends with a status, never an exception, and an optimal status is a
    sound bound whose objectives agree to the tolerance."""

    @pytest.mark.parametrize("variant,r", CORPUS_RUNGS)
    def test_disjoint_constraints_never_optimal(self, variant, r):
        report = _corpus_report(DISJOINT, variant, r)
        assert report.status != OPTIMAL

    @pytest.mark.parametrize("variant,r", CORPUS_RUNGS)
    def test_no_interior_bound_is_sound(self, variant, r):
        report = _corpus_report(NO_INTERIOR, variant, r)
        if report.status == OPTIMAL:
            assert report.primal_objective <= -1.0 + 1e-6

    @pytest.mark.parametrize("text", [DISJOINT, NO_INTERIOR], ids=["disjoint", "no-interior"])
    @pytest.mark.parametrize("variant,r", CORPUS_RUNGS)
    def test_optimal_objectives_agree(self, text, variant, r):
        report = _corpus_report(text, variant, r)
        if report.status == OPTIMAL:
            scale = 1.0 + abs(report.primal_objective) + abs(report.dual_objective)
            assert report.residuals.gap <= 1e-8 * scale

    def test_cli_reports_solver_failure(self, tmp_path, capsys):
        path = tmp_path / "disjoint.txt"
        path.write_text(DISJOINT)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert cli.main([str(path), "--order", "2"]) == 3
        assert "numerical-failure" in capsys.readouterr().out


_COUNT_GETTERS = (
    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_", "openblas_get_num_threads",
)


def _openblas_function(module, names, argtypes):
    """The first of ``names`` that the library behind ``module`` exports,
    with an int result, or None."""
    lib = ctypes.CDLL(module.__file__)
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.argtypes = argtypes
            fn.restype = ctypes.c_int
            return fn
    return None


@pytest.fixture
def blas_threads():
    """Reader of the (scipy, numpy) OpenBLAS thread counts, with both pools
    set to 2 for the test so that a pin left behind shows in either library;
    skips unless scipy and numpy each bundle an OpenBLAS."""
    from numpy.linalg import _umath_linalg
    from scipy.linalg import _flapack

    modules = _flapack, _umath_linalg
    readers = [_openblas_function(module, _COUNT_GETTERS, []) for module in modules]
    setters = [
        _openblas_function(module, ("openblas_set_num_threads_local",), [ctypes.c_int])
        for module in modules
    ]
    if None in readers + setters:
        pytest.skip("scipy and numpy do not each bundle an OpenBLAS")
    callers = [setter(2) for setter in setters]
    yield lambda: tuple(read() for read in readers)
    for setter, count in reversed(list(zip(setters, callers))):
        setter(count)


class TestScipyBlasPin:
    """While the IPM runs, the OpenBLAS pools of scipy and numpy are both on
    one thread; the caller's counts are the same afterwards."""

    def test_one_scipy_thread_inside_ipm(self, blas_threads, monkeypatch):
        before = blas_threads()
        seen = []
        factor = solver.cho_factor

        def cho_factor(*args, **kwargs):
            seen.append(blas_threads())
            return factor(*args, **kwargs)

        monkeypatch.setattr(solver, "cho_factor", cho_factor)
        report = solve_sdp(assemble_sparse_schmudgen(problems.twoballs(), 2))
        assert report.status == OPTIMAL
        assert before == (2, 2)
        assert seen and all(counts == (1, 1) for counts in seen)
        assert blas_threads() == before

    @pytest.mark.parametrize(
        "instance,status",
        [
            (problems.twoballs(), OPTIMAL),
            (cli.parse_problem(DISJOINT), NUMERICAL_FAILURE),
        ],
        ids=["optimal", "numerical-failure"],
    )
    def test_caller_counts_restored(self, blas_threads, instance, status):
        before = blas_threads()
        program = assemble_sparse_schmudgen(instance, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert solve_sdp(program).status == status
        assert blas_threads() == before

    def test_lp_restores_caller_counts(self, blas_threads):
        before = blas_threads()
        prog = assemble_krivine(normalize_krivine(problems.interval_affine(), [1]), 2)
        assert solve_lp(prog).status == OPTIMAL
        assert blas_threads() == before

    def test_overlapping_solves_restore_caller_counts(self, blas_threads, monkeypatch):
        # The count is process-wide.  Solve a starts first and ends while b
        # is still running; the caller's count must come back after b.
        before = blas_threads()
        factor = solver.cho_factor
        a_inside, b_inside, a_done = threading.Event(), threading.Event(), threading.Event()

        def cho_factor(*args, **kwargs):
            if threading.current_thread().name == "a":
                a_inside.set()
                assert b_inside.wait(60)
            else:
                b_inside.set()
                assert a_done.wait(60)
            return factor(*args, **kwargs)

        def solve(done=None):
            statuses.append(solve_sdp(assemble_sparse_schmudgen(problems.twoballs(), 2)).status)
            if done is not None:
                done.set()

        monkeypatch.setattr(solver, "cho_factor", cho_factor)
        statuses = []
        a = threading.Thread(target=solve, args=(a_done,), name="a")
        b = threading.Thread(target=solve, name="b")
        a.start()
        assert a_inside.wait(60)
        b.start()
        for thread in (a, b):
            thread.join(60)
            assert not thread.is_alive()
        assert statuses == [OPTIMAL, OPTIMAL]
        assert blas_threads() == before

    def test_solves_on_many_threads_restore_caller_counts(self, blas_threads):
        before = blas_threads()
        program = assemble_sparse_schmudgen(problems.interval(), 1)
        statuses = []

        def solve():
            for _ in range(5):
                statuses.append(solve_sdp(program).status)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=solve) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert statuses == [OPTIMAL] * 20
        assert blas_threads() == before

    def test_without_the_symbol_the_solve_is_unchanged(self, monkeypatch):
        program = assemble_sparse_schmudgen(problems.twoballs(), 2)
        pinned = solve_sdp(program)
        monkeypatch.setattr(solver, "_thread_setters", lambda: ())
        plain = solve_sdp(program)
        assert plain.status == pinned.status == OPTIMAL
        scale = 1.0 + abs(pinned.primal_objective)
        assert abs(plain.primal_objective - pinned.primal_objective) <= 1e-9 * scale


class TestCertifyBlasPin:
    """``extract`` and ``verify`` run on one-thread pools too, under the pin
    that ``solve`` takes, and give the caller back its counts."""

    def test_one_thread_inside_extract_and_verify(self, blas_threads, monkeypatch):
        instance = problems.twoballs()
        program = assemble_sparse_schmudgen(instance, 2)
        report = solve(program)
        before = blas_threads()
        seen = {"extract": [], "verify": []}
        eigh, min_eigenvalue = np.linalg.eigh, certify.min_eigenvalue

        def recording_eigh(a):
            seen["extract"].append(blas_threads())
            return eigh(a)

        def recording_min_eigenvalue(a):
            seen["verify"].append(blas_threads())
            return min_eigenvalue(a)

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        monkeypatch.setattr(certify, "min_eigenvalue", recording_min_eigenvalue)
        cert = extract(report, program)
        assert blas_threads() == before == (2, 2)
        assert verify(cert, instance).passed
        assert blas_threads() == before
        for calls in seen.values():
            assert len(calls) == program.num_blocks
            assert all(counts == (1, 1) for counts in calls)

    def test_refusals_restore_caller_counts(self, blas_threads):
        instance = problems.twoballs()
        program = assemble_sparse_schmudgen(instance, 2)
        report = solve(program)
        before = blas_threads()
        with pytest.raises(certify.ExtractionError):
            extract(replace(report, status=NUMERICAL_FAILURE), program)
        assert blas_threads() == before
        cert = extract(report, program)
        with pytest.raises(ValueError, match="lambda"):
            verify(replace(cert, lam=float("nan")), instance)
        assert blas_threads() == before

    @pytest.mark.usefixtures("blas_threads")  # unpinned calls then run on two threads
    def test_without_the_symbol_the_certificate_is_bit_identical(self, monkeypatch):
        # ball313 r=3 has 35 x 35 blocks, past the size (k = 28) from which
        # an unpinned eigh wakes a second OpenBLAS thread.
        text = runpy.run_path(os.path.join(ROOT, "perfbench", "gen.py"))["instance_text"]
        instance = cli.parse_problem(text("ball313", 1))
        program = assemble_sparse_schmudgen(instance, 3)
        assert max(matrix.size for _, matrix in program.psd_blocks) == 35
        report = solve(program)  # one solve: a two-thread solve ends a little elsewhere

        def run():
            cert = extract(report, program)
            return cert, verify(cert, instance)

        pinned, pinned_report = run()
        monkeypatch.setattr(solver, "_thread_setters", lambda: ())
        plain, plain_report = run()
        assert pinned_report.passed
        assert plain_report == pinned_report
        assert [t.gram.tobytes() for t in plain.terms] == [t.gram.tobytes() for t in pinned.terms]
        assert certificate_to_json(plain) == certificate_to_json(pinned)
