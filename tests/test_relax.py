import gc
import itertools
import os
import runpy
from collections import Counter
from fractions import Fraction
from functools import cache
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsepos import problems
from sparsepos.certify import (
    ConeCertificate,
    certificate_from_json,
    certificate_to_json,
    extract,
    extract_sos,
    verify,
)
from sparsepos.cli import parse_problem
from sparsepos.moments import half_degree, moments_of_dirac, min_eigenvalue
from sparsepos.poly import BlockLayout, Polynomial, grlex_key, monomial_basis
from sparsepos.problem import ProblemInstance
from sparsepos.relax import (
    BoundError,
    CapacityError,
    LinearProgram,
    ModeError,
    NormalizationError,
    OrderError,
    RECIPES,
    VARIANTS,
    _power_pairs,
    assemble,
    assemble_dense,
    assemble_krivine,
    assemble_sparse_putinar,
    assemble_sparse_schmudgen,
    min_order,
    normalize_krivine,
)
from sparsepos.solver import solve, solve_sdp

LAYOUT = BlockLayout(1, 1, 1)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@st.composite
def _mixed_families(draw):
    """One to three constraints of degree exactly 1, 2 or 3 with small
    rational coefficients; a degree-3 one leaves an odd budget unspent."""
    coeffs = st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-2, 3)])
    degrees = draw(st.lists(st.sampled_from([1, 2, 3]), min_size=1, max_size=3))
    exps = [e for e in itertools.product(range(4), repeat=3) if sum(e) <= 3]
    constraints = []
    for d in degrees:
        top = draw(st.sampled_from([e for e in exps if sum(e) == d]))
        lower = draw(st.dictionaries(st.sampled_from([e for e in exps if sum(e) < d]), coeffs))
        constraints.append(Polynomial.from_terms(LAYOUT, {**lower, top: draw(coeffs)}))
    return constraints


def _cone_product(constraints, alpha, beta):
    """prod_j g_j^a_j (1 - g_j)^b_j by plain powers."""
    one = Polynomial.constant(LAYOUT, 1)
    product = one
    for g, a, b in zip(constraints, alpha, beta):
        product = product * g**a * (one - g) ** b
    return product


def _certified(assemble, instance, r):
    """True when the order-r program solves optimal and its certificate verifies."""
    prog = assemble(instance, r)
    report = solve_sdp(prog)
    return report.status == "optimal" and verify(extract_sos(report, prog), instance).passed


def _instance(f, gs, hs, layout=LAYOUT, **kw):
    return ProblemInstance(layout, f, tuple(gs), tuple(hs), **kw)


def _vars(layout):
    return [Polynomial.variable(layout, n) for n in layout.names]


class TestMinOrder:
    def test_quadratics(self):
        assert min_order(problems.twoballs()) == 1

    def test_quartic_objective(self):
        x, y, z = _vars(LAYOUT)
        inst = _instance((x - y) ** 4, [1 - x**2 - y**2], [1 - y**2 - z**2])
        assert min_order(inst) == 2

    def test_product_of_two_quadratics(self):
        x, y, z = _vars(LAYOUT)
        inst = _instance(x, [1 - x**2, 1 - y**2], [1 - z**2])
        assert min_order(inst) >= 2

    def test_putinar_uses_singletons(self):
        x, y, z = _vars(LAYOUT)
        inst = _instance(x, [1 - x**2, 1 - y**2], [1 - z**2])
        assert min_order(inst, "putinar-sparse") == 1

    def test_dense_covers_joint_product(self):
        assert min_order(problems.twoballs(), "dense") == 2

    @pytest.mark.parametrize("name", sorted(problems.TEXTS))
    def test_krivine_rows_need_the_schmudgen_order(self, name):
        # Both reach the degree of the full subset products of each family.
        inst = problems.get(name)
        assert min_order(inst, "krivine") == min_order(inst, "schmudgen-sparse")


class TestRecipeTable:
    def test_variants_are_the_recipes_in_order(self):
        assert VARIANTS == ("schmudgen-sparse", "putinar-sparse", "dense", "product", "krivine")

    def test_unknown_variant_named(self):
        with pytest.raises(ValueError, match="'nope'"):
            assemble(problems.twoballs(), "nope", 1)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_program_and_certificate_follow_the_structure(self, variant):
        # Rows and no PSD block make a LinearProgram, whose certificate is a
        # ConeCertificate; every other program is neither.
        inst = problems.constant5()
        if RECIPES[variant].rows:
            inst = normalize_krivine(inst, [1] * len(inst.g_constraints))
        prog = assemble(inst, variant, 2)
        rows_only = prog.num_rows > 0 and prog.num_blocks == 0
        assert rows_only == (variant == "krivine")
        assert isinstance(prog, LinearProgram) == rows_only
        report = solve(prog)
        assert report.status == "optimal"
        assert isinstance(extract(report, prog), ConeCertificate) == rows_only


class TestSideSubsets:
    ALL = RECIPES["schmudgen-sparse"].sides[0]  # every subset product of g on (X,Y)

    def test_single_constraint(self):
        x, _, _ = _vars(LAYOUT)
        g = 1 - x**2
        inst = _instance(x, [g], [])
        assert self.ALL.subsets(inst) == [(), (0,)]
        weights = [self.ALL.weight(inst, s) for s in self.ALL.subsets(inst)]
        assert weights == [Polynomial.constant(LAYOUT, 1), g]
        assert [half_degree(w) for w in weights] == [0, 1]

    def test_half_degrees_of_mixed_products(self):
        x, y, _ = _vars(LAYOUT)
        inst = _instance(x, [1 - x**2, 1 - y], [])
        subsets = self.ALL.subsets(inst)
        assert subsets == [(), (0,), (1,), (0, 1)]
        assert [half_degree(self.ALL.weight(inst, s)) for s in subsets] == [0, 1, 1, 2]

    def test_empty_list(self):
        x, _, _ = _vars(LAYOUT)
        inst = _instance(x, [], [])
        assert self.ALL.subsets(inst) == [()]
        assert half_degree(self.ALL.weight(inst, ())) == 0

    def test_capacity_guard(self):
        x, y, _ = _vars(LAYOUT)
        inst = _instance(x, [1 - x**2] * 13, [])
        with pytest.raises(CapacityError):
            self.ALL.subsets(inst)
        # The singletons never enumerate the subsets, so they are not guarded.
        assert len(RECIPES["putinar-sparse"].sides[0].subsets(inst)) == 14

    def test_subsets_in_size_then_lex_order(self):
        x, y, _ = _vars(LAYOUT)
        inst = _instance(x, [1 - x**2, 1 - y**2, 1 - x * y, 2 - x], [])
        subsets = self.ALL.subsets(inst)
        assert subsets == sorted(subsets, key=lambda s: (len(s), s))
        assert len(subsets) == 16
        assert RECIPES["product"].sides[1].subsets(inst) == subsets[1:]

    def test_assemble_refuses_13_preordering_constraints(self):
        # Thirteen constraints on one side: the preordering would enumerate
        # 2^13 products and is refused at its smallest order, 13; the
        # quadratic module, the escape hatch, gives 1 + 13 blocks on (X,Y)
        # and the unit block on (Y,Z) at order 1.
        x, _, _ = _vars(LAYOUT)
        inst = _instance(x, [1 - x**2] * 13, [])
        with pytest.raises(CapacityError):
            assemble(inst, "schmudgen-sparse", min_order(inst, "schmudgen-sparse"))
        prog = assemble(inst, "putinar-sparse", 1)
        assert prog.num_blocks == 15


class TestSchmudgenAssembly:
    def test_twoballs_block_sizes(self):
        prog = assemble_sparse_schmudgen(problems.twoballs(), 1)
        assert [m.size for _, m in prog.psd_blocks] == [3, 1, 3, 1]
        assert [lab.name() for lab, _ in prog.psd_blocks] == [
            "1@xy", "g1@xy", "1@yz", "h1@yz",
        ]

    def test_no_constraints_two_blocks(self):
        x, y, z = _vars(LAYOUT)
        inst = _instance(x + z, [], [])
        prog = assemble_sparse_schmudgen(inst, 1)
        assert prog.num_blocks == 2

    def test_free_moment_count_matches_enumeration(self):
        # All degree<=2 indices on (x,y) plus on (y,z) with shared pure-y ones
        # counted once; brute-force enumeration is the reference.
        prog = assemble_sparse_schmudgen(problems.twoballs(), 1)
        expected = set(monomial_basis(LAYOUT, "xy", 2)) | set(
            monomial_basis(LAYOUT, "yz", 2)
        )
        assert set(prog.variable_index) == expected
        assert len(prog.variable_index) == 9

    def test_order_error(self):
        with pytest.raises(OrderError):
            assemble_sparse_schmudgen(problems.twoballs(), 0)

    def test_product_instance_certified(self):
        # g on X alone is still supported on (X,Y).
        assert _certified(assemble_sparse_schmudgen, problems.product_twoballs(), 1)

    def test_validate(self):
        # The index starts at the unit moment and holds every moment a block
        # reads.
        prog = assemble_sparse_schmudgen(problems.twoballs(), 2)
        assert prog.variable_index[0] == prog.layout.zero_exponent
        index = set(prog.variable_index)
        for _, matrix in prog.psd_blocks:
            assert matrix.referenced_exponents() <= index


class TestPutinarAssembly:
    def test_single_pair_four_blocks(self):
        for r in (1, 2, 3):
            prog = assemble_sparse_putinar(problems.twoballs(), r)
            assert prog.num_blocks == 4

    def test_twoballs_block_names(self):
        prog = assemble_sparse_putinar(problems.twoballs(), 2)
        assert [lab.name() for lab, _ in prog.psd_blocks] == [
            "1@xy", "g1@xy", "1@yz", "h1@yz",
        ]
        assert [m.size for _, m in prog.psd_blocks] == [6, 3, 6, 3]

    def test_singletons_only(self):
        x, y, z = _vars(LAYOUT)
        inst = _instance(x, [1 - x**2, 1 - y**2], [1 - z**2])
        prog = assemble_sparse_putinar(inst, 1)
        assert [lab.name() for lab, _ in prog.psd_blocks] == [
            "1@xy", "g1@xy", "g2@xy", "1@yz", "h1@yz",
        ]

    def test_product_instance_certified(self):
        assert _certified(assemble_sparse_putinar, problems.product_twoballs(), 1)

    def test_five_and_five_gives_twelve(self):
        layout = BlockLayout(5, 0, 5)
        xs = [Polynomial.variable(layout, n) for n in layout.names[:5]]
        zs = [Polynomial.variable(layout, n) for n in layout.names[5:]]
        inst = _instance(
            sum(xs[1:], xs[0]) + sum(zs[1:], zs[0]),
            [1 - v**2 for v in xs],
            [1 - v**2 for v in zs],
            layout=layout,
        )
        prog = assemble_sparse_putinar(inst, 1)
        assert prog.num_blocks == 12
        schm = assemble_sparse_schmudgen(inst, min_order(inst))
        assert schm.num_blocks == 64


class TestDenseAssembly:
    def test_block_sizes_at_minimum_order(self):
        prog = assemble_dense(problems.twoballs(), 2)
        assert sorted(m.size for _, m in prog.psd_blocks) == [1, 4, 4, 10]

    def test_twoballs_block_names(self):
        prog = assemble_dense(problems.twoballs(), 2)
        assert [lab.name() for lab, _ in prog.psd_blocks] == [
            "1@xyz", "c1@xyz", "c2@xyz", "c1*c2@xyz",
        ]

    def test_moment_count_is_full_binomial(self):
        import math

        prog = assemble_dense(problems.twoballs(), 2)
        assert len(prog.variable_index) == math.comb(3 + 4, 4)

    def test_order_error_below_joint_product(self):
        with pytest.raises(OrderError):
            assemble_dense(problems.twoballs(), 1)


class TestProductAssembly:
    def test_block_structure(self):
        prog = assemble(problems.product_twoballs(), "product", 1)
        assert [(lab.family, m.size) for lab, m in prog.psd_blocks] == [
            ("sigma_xy", 3), ("xy", 1), ("yz", 3), ("yz", 1),
        ]
        assert prog.psd_blocks[1][0].block == "x"

    def test_requires_g_on_x(self):
        # The support check runs before the order check.
        for r in (0, 1):
            with pytest.raises(ModeError):
                assemble(problems.twoballs(), "product", r)

    def test_g_touching_y_rejected_at_assembly(self):
        x, y, z = _vars(LAYOUT)
        inst = _instance(x + z, [1 - x**2 - y**2], [1 - y**2 - z**2])
        with pytest.raises(ModeError, match="product assembly .* on the x block"):
            assemble(inst, "product", 1)


class TestKrivineAssembly:
    def test_requires_normalization(self):
        with pytest.raises(NormalizationError):
            assemble_krivine(problems.twoballs(), 2)

    def test_row_enumeration_single_constraint(self):
        inst = normalize_krivine(problems.interval(), [1])
        prog = assemble_krivine(inst, 2)
        xy_rows = [key for key, _ in prog.rows if key[0] == "xy"]
        # one degree-2 constraint at budget 4: only the top shell a + b = 2
        assert sorted(xy_rows) == [("xy", (a,), (2 - a,)) for a in range(3)]

    def test_top_shell_rows_partition_unity(self):
        # The unit row is gone; sum_{a+b=2} C(2, a) g^a (1-g)^b = 1 replaces it.
        inst = normalize_krivine(problems.interval(), [1])
        rows = dict(assemble_krivine(inst, 2).rows)
        total = {}
        for a in range(3):
            for p, c in rows[("xy", (a,), (2 - a,))].items():
                total[p] = total.get(p, 0) + comb(2, a) * c
        assert {p: c for p, c in total.items() if c} == {0: Fraction(1)}

    @settings(max_examples=25, deadline=None)
    @given(_mixed_families(), st.integers(1, 2))
    def test_lower_pairs_are_top_shell_combinations(self, constraints, r):
        # P = P g_j + P (1 - g_j) while g_j still fits the budget, so each
        # pair of degree <= 2r is a nonnegative integer combination of top-shell
        # products, exactly.
        degs = [g.degree for g in constraints]
        budget = 2 * r

        @cache
        def split(alpha, beta):
            left = budget - sum((a + b) * d for a, b, d in zip(alpha, beta, degs))
            j = next((j for j, d in enumerate(degs) if d <= left), None)
            if j is None:
                return Counter({(alpha, beta): 1})

            def bump(powers):
                return tuple(k + (i == j) for i, k in enumerate(powers))

            return split(bump(alpha), beta) + split(alpha, bump(beta))

        leaves = set()
        for powers in itertools.product(range(budget + 1), repeat=2 * len(degs)):
            alpha, beta = powers[0::2], powers[1::2]
            if sum((a + b) * d for a, b, d in zip(alpha, beta, degs)) > budget:
                continue
            combination = split(alpha, beta)
            leaves.update(combination)
            products = {pair: _cone_product(constraints, *pair) for pair in combination}
            total = Polynomial.sum(LAYOUT, (
                (k, products[pair].nums.items(), products[pair].den)
                for pair, k in combination.items()
            ))
            assert total.terms == _cone_product(constraints, alpha, beta).terms
        # The shell is exactly the pairs with no room left: none missing, none extra.
        assert leaves == set(_power_pairs(degs, budget))

    def test_box212_row_counts(self):
        text = runpy.run_path(os.path.join(ROOT, "perfbench", "gen.py"))["instance_text"]
        inst = parse_problem(text("box212", 1))
        inst = normalize_krivine(inst, [1] * (len(inst.g_constraints) + len(inst.h_constraints)))
        assert [assemble_krivine(inst, r).num_rows for r in (2, 3, 4)] == [252, 924, 2574]

    def test_box212_pipeline_leaves_no_reference_cycles(self):
        # Every step frees what it made by reference counting alone, so with
        # the collector off a collection after each finds nothing.
        text = runpy.run_path(os.path.join(ROOT, "perfbench", "gen.py"))["instance_text"]
        inst = parse_problem(text("box212", 1))
        normed = normalize_krivine(inst, [1] * (len(inst.g_constraints) + len(inst.h_constraints)))
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            prog = assemble_krivine(normed, 2)
            assert gc.collect() == 0
            report = solve(prog)
            assert gc.collect() == 0
            cert = extract(report, prog)
            assert gc.collect() == 0
            assert verify(cert, inst).passed
            assert gc.collect() == 0
            document = certificate_to_json(cert)
            assert gc.collect() == 0
            assert verify(certificate_from_json(document, inst), inst).passed
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    def test_rows_nonnegative_at_feasible_dirac(self):
        inst = normalize_krivine(problems.twoballs(), [1, 1])
        prog = assemble_krivine(inst, 2)
        rng = np.random.default_rng(3)
        for _ in range(10):
            pt = rng.uniform(-1, 1, 3)
            if not inst.feasible(pt):
                continue
            u = moments_of_dirac(LAYOUT, pt, prog.order)
            for _, form in prog.rows:
                value = sum(float(c) * float(u.get(LAYOUT.unpack(p))) for p, c in form.items())
                assert value >= -1e-9


class TestNormalize:
    def test_unit_bound_is_identity(self):
        inst = problems.interval()
        normed = normalize_krivine(inst, [1])
        assert normed.g_constraints == inst.g_constraints
        assert normed.krivine_scaling == (Fraction(1),)

    def test_scaling_divides(self):
        layout = BlockLayout(1, 0, 0)
        x = Polynomial.variable(layout, "x")
        inst = _instance(x, [4 - x**2], [], layout=layout)
        normed = normalize_krivine(inst, [4])
        assert normed.g_constraints[0] == (4 - x**2).scale(Fraction(1, 4))

    def test_nonpositive_bound_rejected(self):
        with pytest.raises(BoundError):
            normalize_krivine(problems.interval(), [0])
        # A bound that is no finite number is refused the same way.
        for bad in (float("inf"), float("nan"), float("-inf")):
            with pytest.raises(BoundError):
                normalize_krivine(problems.twoballs(), [bad, 1])

    def test_double_normalization_rejected(self):
        inst = normalize_krivine(problems.interval(), [1])
        with pytest.raises(NormalizationError):
            normalize_krivine(inst, [1])

    def test_auto_bounds_dominate_grid_maximum(self):
        # Reference: the same grid scan the oracle module uses, run on -g.
        from sparsepos.oracle import grid_min
        from dataclasses import replace

        inst = problems.twoballs()
        normed = normalize_krivine(inst, None)
        for idx, poly in enumerate((*inst.g_constraints, *inst.h_constraints)):
            neg = replace(inst, objective=-poly)
            grid_max = -grid_min(neg, [(-1, 1)] * 3, 0.01).minimum
            assert float(normed.krivine_scaling[idx]) >= grid_max - 1e-6

    def test_auto_bounds_read_the_certified_side(self, monkeypatch):
        # The moment side of a maximization can fall short of the maximum;
        # lambda is the value the bound solve certifies.
        from sparsepos import solver
        from sparsepos.solver import Residuals, SolveReport

        report = SolveReport("optimal", -0.5, -1.0, None, [], 0, Residuals(0.0, 0.0, 0.5))
        for name in ("solve", "solve_sdp"):  # one function, two names
            monkeypatch.setattr(solver, name, lambda program, tol: report, raising=False)
        bounds = normalize_krivine(problems.twoballs(), None).krivine_scaling
        assert len(bounds) == 2 and all(b >= 1 for b in bounds)

    def test_auto_bounds_name_the_unbounded_constraint(self):
        # (1 - x)/2 alone has no maximum, so its bound solve cannot finish.
        with pytest.raises(BoundError, match=r"constraint g1 .*status max-iterations"):
            normalize_krivine(problems.interval_affine())


class TestProgramInvariants:
    @pytest.mark.parametrize("assemble,r", [
        (assemble_sparse_schmudgen, 1),
        (assemble_sparse_putinar, 1),
        (assemble_sparse_schmudgen, 2),
    ])
    def test_sparse_programs_never_couple(self, assemble, r):
        prog = assemble(problems.twoballs(), r)
        for exp in prog.variable_index:
            assert not (exp[0] > 0 and exp[2] > 0)

    def test_tuple_views_unpack_packed_keys(self):
        # variable_index and the blocks' tuple views are layout.unpack of the
        # packed keys that terms, rows and the objective carry.
        inst = problems.twoballs()
        unpack = inst.layout.unpack
        psd = assemble_sparse_schmudgen(inst, 2)
        lp = assemble_krivine(normalize_krivine(inst, [1, 1]), 2)
        forms = [[t[3] for t in m.terms] for _, m in psd.psd_blocks]
        for prog, keys in ((psd, forms), (lp, [form for _, form in lp.rows])):
            packed = {0, *prog.objective}.union(*keys)
            assert prog.variable_index == tuple(sorted(map(unpack, packed), key=grlex_key))
        for _, m in psd.psd_blocks:
            assert m.referenced_exponents() == {unpack(t[3]) for t in m.terms}
            upper = {}
            for i, j, coeff, p in m.terms:
                upper.setdefault((i, j), []).append((coeff, unpack(p)))
            for i in range(m.size):
                for j in range(m.size):
                    assert m.entries[i][j] == tuple(upper[min(i, j), max(i, j)])

    def test_product_program_never_couples(self):
        prog = assemble(problems.product_twoballs(), "product", 2)
        for exp in prog.variable_index:
            assert not (exp[0] > 0 and exp[2] > 0)

    def test_feasibility_of_dirac_moments(self):
        # Moments of feasible points satisfy every assembled block, and the
        # objective pairing equals the objective value at the point.
        rng = np.random.default_rng(11)
        inst = problems.twoballs()
        progs = [
            assemble_sparse_schmudgen(inst, 2),
            assemble_sparse_putinar(inst, 2),
            assemble_dense(inst, 2),
        ]
        found = 0
        while found < 10:
            pt = rng.uniform(-1, 1, 3)
            if not inst.feasible(pt):
                continue
            found += 1
            u = moments_of_dirac(LAYOUT, pt, 2)
            for prog in progs:
                for _, matrix in prog.psd_blocks:
                    assert min_eigenvalue(matrix.instantiate(u)) >= -1e-10
                objective = prog.objective.items()
                value = sum(float(c) * float(u.get(LAYOUT.unpack(p))) for p, c in objective)
                assert abs(value - float(inst.objective.evaluate(pt))) <= 1e-9

    def test_feasibility_of_dirac_moments_product(self):
        rng = np.random.default_rng(12)
        inst = problems.product_twoballs()
        prog = assemble(inst, "product", 2)
        found = 0
        while found < 10:
            pt = rng.uniform(-1, 1, 3)
            if not inst.feasible(pt):
                continue
            found += 1
            u = moments_of_dirac(LAYOUT, pt, 2)
            for _, matrix in prog.psd_blocks:
                assert min_eigenvalue(matrix.instantiate(u)) >= -1e-10
