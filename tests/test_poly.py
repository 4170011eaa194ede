import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsepos.poly import (
    BlockLayout,
    CouplingError,
    LayoutError,
    Polynomial,
    check_sparsity,
    grlex_key,
    monomial_basis,
)

LAYOUT = BlockLayout(1, 1, 1)
X = Polynomial.variable(LAYOUT, "x")
Y = Polynomial.variable(LAYOUT, "y")
Z = Polynomial.variable(LAYOUT, "z")


def fractions(max_num=9, max_den=9):
    return st.builds(
        Fraction,
        st.integers(-max_num, max_num),
        st.integers(1, max_den),
    )


def exponents(layout=LAYOUT, max_deg=3):
    return st.lists(
        st.integers(0, max_deg), min_size=layout.nvars, max_size=layout.nvars
    ).map(tuple)


def polynomials(layout=LAYOUT, coefficients=None):
    if coefficients is None:
        coefficients = fractions()
    return st.dictionaries(exponents(layout), coefficients, max_size=4).map(
        lambda terms: Polynomial.from_terms(layout, terms)
    )


# Products run on integer numerators over the operands' common
# denominators.  Drawing each operand from small or 10^12 denominators gives
# small x small, large x large and mixed pairs, whose common denominators
# reach far past 64 bits.
BIG = 10**12
MIXED_POLYNOMIALS = st.one_of(polynomials(), polynomials(coefficients=fractions(BIG, BIG)))


class TestArithmetic:
    def test_difference_of_squares(self):
        assert (X + Y) * (X - Y) == X**2 - Y**2

    def test_add_zero_identity(self):
        p = X**2 + 3 * Y
        assert p + Polynomial.zero(LAYOUT) == p

    def test_scale_by_rational(self):
        assert (X**2).scale(Fraction(3, 2)) == Polynomial.from_terms(
            LAYOUT, {(2, 0, 0): Fraction(3, 2)}
        )

    def test_layout_mismatch_raises(self):
        other = Polynomial.variable(BlockLayout(1, 0, 0), "x")
        with pytest.raises(LayoutError):
            X + other

    def test_zero_pruning(self):
        assert (X - X).terms == {}
        assert (X - X).degree == 0

    def test_mul_degree_adds(self):
        a = X**2 + Y
        b = Y * Z + 1
        assert (a * b).degree == a.degree + b.degree


class TestEvaluate:
    def test_direct_substitution(self):
        p = X**2 + 2 * Y
        assert p.evaluate((1, 2, 0)) == 5

    def test_constant(self):
        p = Polynomial.constant(LAYOUT, 7)
        assert p.evaluate((13, -2, 900)) == 7

    def test_cross_term(self):
        assert (X * Z).evaluate((3, 0, 2)) == 6

    def test_dimension_mismatch(self):
        with pytest.raises(LayoutError):
            X.evaluate((1, 2))


@settings(max_examples=100)
@given(MIXED_POLYNOMIALS, MIXED_POLYNOMIALS)
def test_product_matches_pointwise_product(a, b):
    rng = random.Random(17)
    prod = a * b
    for _ in range(20):
        point = tuple(
            Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(3)
        )
        assert prod.evaluate(point) == a.evaluate(point) * b.evaluate(point)


@settings(max_examples=100)
@given(MIXED_POLYNOMIALS, MIXED_POLYNOMIALS, MIXED_POLYNOMIALS)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


class TestCheckSparsity:
    def test_disjoint_supports(self):
        f = X**2 * Y + Y * Z
        f_xy, f_yz = check_sparsity(f)
        assert f_xy == X**2 * Y
        assert f_yz == Y * Z

    def test_pure_y_goes_left(self):
        f_xy, f_yz = check_sparsity(Y**2)
        assert f_xy == Y**2
        assert f_yz.is_zero

    def test_coupling_rejected(self):
        with pytest.raises(CouplingError) as err:
            check_sparsity(X * Z)
        assert err.value.monomial == (1, 0, 1)
        assert "x*z" in str(err.value)


@settings(max_examples=60)
@given(polynomials())
def test_sparsity_split_is_partition(f):
    try:
        f_xy, f_yz = check_sparsity(f)
    except CouplingError:
        assert any(e[0] > 0 and e[2] > 0 for e in f.terms)
        return
    assert set(f_xy.terms) & set(f_yz.terms) == set()
    assert f_xy + f_yz == f


class TestMonomialBasis:
    def test_univariate(self):
        layout = BlockLayout(1, 0, 0)
        basis = monomial_basis(layout, "x", 2)
        assert basis == ((0,), (1,), (2,))

    def test_xy_count(self):
        assert len(monomial_basis(LAYOUT, "xy", 2)) == 6

    def test_degree_zero(self):
        assert monomial_basis(LAYOUT, "yz", 0) == ((0, 0, 0),)

    @pytest.mark.parametrize("d", range(1, 7))
    @pytest.mark.parametrize("r", range(0, 7))
    def test_counts_match_binomial(self, d, r):
        layout = BlockLayout(d, 0, 0)
        assert len(monomial_basis(layout, "x", r)) == math.comb(d + r, r)

    def test_block_membership(self):
        for exp in monomial_basis(LAYOUT, "yz", 3):
            assert exp[0] == 0

    def test_grlex_leading_order(self):
        basis = monomial_basis(LAYOUT, "xy", 2)
        assert basis[:3] == ((0, 0, 0), (1, 0, 0), (0, 1, 0))


@settings(max_examples=60)
@given(st.lists(exponents(), min_size=2, max_size=8))
def test_grlex_total_order(exps):
    once = sorted(exps, key=grlex_key)
    assert sorted(once, key=grlex_key) == once
    for a, b in zip(once, once[1:]):
        assert grlex_key(a) <= grlex_key(b)
    for a in exps:
        for b in exps:
            if a != b:
                assert (grlex_key(a) < grlex_key(b)) != (grlex_key(b) < grlex_key(a))


class TestLayout:
    def test_distinct_names_required(self):
        with pytest.raises(LayoutError):
            BlockLayout(1, 1, 0, names=("x", "x"))

    def test_needs_a_variable(self):
        with pytest.raises(LayoutError):
            BlockLayout(0, 0, 0)

    def test_default_names(self):
        assert BlockLayout(2, 1, 0).names == ("x1", "x2", "y")
