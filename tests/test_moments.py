import numpy as np
import pytest

from sparsepos.moments import (
    MomentVector,
    TruncationError,
    localizing_matrix,
    min_eigenvalue,
    mixture_moments,
    moment_matrix,
    moments_of_dirac,
    riesz,
)
from sparsepos.poly import BlockLayout, LayoutError, Polynomial, monomial_basis
from sparsepos.problem import BlockSupportError
from sparsepos import problems

LAYOUT = BlockLayout(1, 1, 1)
X = Polynomial.variable(LAYOUT, "x")
Y = Polynomial.variable(LAYOUT, "y")
Z = Polynomial.variable(LAYOUT, "z")


def _feasible_points(instance, count, rng):
    points = []
    while len(points) < count:
        pt = rng.uniform(-1, 1, size=instance.layout.nvars)
        if instance.feasible(pt):
            points.append(pt)
    return points


class TestRiesz:
    def test_dirac_evaluates(self):
        u = moments_of_dirac(LAYOUT, (1, 2, 0), 1)
        assert riesz(X**2 + 2 * Y, u) == 5

    def test_unit_moment(self):
        u = moments_of_dirac(LAYOUT, (0.3, -0.7, 0.1), 2)
        assert riesz(Polynomial.constant(LAYOUT, 1), u) == 1

    def test_single_index_readoff(self):
        u = MomentVector(LAYOUT, {(0, 0, 0): 1.0, (1, 0, 0): 0.25}, 1)
        assert riesz(X, u) == 0.25

    def test_truncation_error(self):
        u = MomentVector(LAYOUT, {(0, 0, 0): 1.0}, 0)
        with pytest.raises(TruncationError):
            riesz(X, u)


class TestDiracMoments:
    def test_index_value(self):
        u = moments_of_dirac(LAYOUT, (1, 2, 0), 2)
        assert u.values[(1, 1, 0)] == 2

    def test_zero_index_is_one(self):
        u = moments_of_dirac(LAYOUT, (5, -3, 2), 1)
        assert u.values[(0, 0, 0)] == 1

    def test_origin_kills_positive_degrees(self):
        u = moments_of_dirac(LAYOUT, (0, 0, 0), 2)
        assert all(v == 0 for e, v in u.values.items() if sum(e) > 0)


class TestMomentMatrix:
    def test_basis_and_entry(self):
        mat = moment_matrix(LAYOUT, "xy", 1)
        assert mat.basis == ((0, 0, 0), (1, 0, 0), (0, 1, 0))
        assert mat.entries[1][2] == ((1, (1, 1, 0)),)

    def test_order_zero(self):
        mat = moment_matrix(LAYOUT, "xyz", 0)
        assert mat.size == 1
        assert mat.entries[0][0] == ((1, (0, 0, 0)),)

    def test_block_restriction_is_submatrix(self):
        full = moment_matrix(LAYOUT, "xyz", 2)
        restricted = moment_matrix(LAYOUT, "x", 2)
        positions = [full.basis.index(e) for e in restricted.basis]
        for i, pi in enumerate(positions):
            for j, pj in enumerate(positions):
                assert full.entries[pi][pj] == restricted.entries[i][j]

    def test_instantiate_dirac_rank_one(self):
        point = (0.5, -0.25, 0.0)
        u = moments_of_dirac(LAYOUT, point, 1)
        mat = moment_matrix(LAYOUT, "xy", 1).instantiate(u)
        w = np.array([float(Polynomial.from_terms(LAYOUT, {e: 1}).evaluate(point))
                      for e in moment_matrix(LAYOUT, "xy", 1).basis])
        assert np.allclose(mat, np.outer(w, w))

    def test_instantiate_unit_corner(self):
        values = {e: 0.0 for e in monomial_basis(LAYOUT, "xyz", 2)}
        values[(0, 0, 0)] = 1.0
        u = MomentVector(LAYOUT, values, 2)
        mat = moment_matrix(LAYOUT, "xy", 1).instantiate(u)
        expected = np.zeros((3, 3))
        expected[0, 0] = 1.0
        assert np.array_equal(mat, expected)


class TestLocalizingMatrix:
    def test_interval_order_zero(self):
        layout = BlockLayout(1, 0, 0)
        x = Polynomial.variable(layout, "x")
        mat = localizing_matrix(1 - x**2, "x", 0)
        assert mat.entries[0][0] == ((1, (0,)), (-1, (2,)))

    def test_constant_weight_is_moment_matrix(self):
        one = Polynomial.constant(LAYOUT, 1)
        assert localizing_matrix(one, "xy", 2).entries == moment_matrix(LAYOUT, "xy", 2).entries

    def test_weight_shift(self):
        mat = localizing_matrix(Y, "xy", 1)
        assert mat.entries[0][0] == ((1, (0, 1, 0)),)
        assert mat.entries[1][1] == ((1, (2, 1, 0)),)

    def test_block_violation(self):
        with pytest.raises(BlockSupportError):
            localizing_matrix(Z, "xy", 1)

    def test_entries_above_degree_cap_refused(self):
        # Degree 2 * 127 + 2 = 256: the packed sums would carry into the
        # next digit, so the terms are refused; one degree less fits.
        layout = BlockLayout(1, 0, 0)
        g = 1 - Polynomial.variable(layout, "x") ** 2
        assert localizing_matrix(g, "x", 126).terms[-1][3] == layout.pack((254,))
        with pytest.raises(LayoutError, match="255"):
            localizing_matrix(g, "x", 127).terms

    def test_instantiate_dirac_scales(self):
        point = (0.5, 0.25, 0.0)
        g = 1 - X**2 - Y**2
        u = moments_of_dirac(LAYOUT, point, 2)
        loc = localizing_matrix(g, "xy", 1).instantiate(u)
        mom = moment_matrix(LAYOUT, "xy", 1).instantiate(u)
        assert np.allclose(loc, float(g.evaluate(point)) * mom)

    def test_entries_symmetric_and_degree_capped(self):
        g = 1 - X**2 - Y**2
        r = 2
        mat = localizing_matrix(g, "xy", r)
        for i in range(mat.size):
            for j in range(mat.size):
                assert mat.entries[i][j] == mat.entries[j][i]
        assert all(sum(e) <= 2 * r + g.degree for e in mat.referenced_exponents())


class TestMeasureLaws:
    def test_mixture_moment_matrices_psd(self):
        rng = np.random.default_rng(5)
        instance = problems.twoballs()
        for _ in range(20):
            k = rng.integers(1, 6)
            pts = _feasible_points(instance, k, rng)
            w = rng.dirichlet(np.ones(k))
            u = mixture_moments(LAYOUT, w, pts, 2)
            for block in ("xy", "yz", "xyz"):
                mat = moment_matrix(LAYOUT, block, 2).instantiate(u)
                assert min_eigenvalue(mat) >= -1e-10

    def test_mixture_localizing_psd(self):
        rng = np.random.default_rng(6)
        instance = problems.twoballs()
        g, h = instance.g_constraints[0], instance.h_constraints[0]
        for _ in range(20):
            k = rng.integers(1, 6)
            pts = _feasible_points(instance, k, rng)
            w = rng.dirichlet(np.ones(k))
            u = mixture_moments(LAYOUT, w, pts, 2)
            assert min_eigenvalue(localizing_matrix(g, "xy", 1).instantiate(u)) >= -1e-10
            assert min_eigenvalue(localizing_matrix(h, "yz", 1).instantiate(u)) >= -1e-10

    def test_two_by_two_minor_inequality(self):
        rng = np.random.default_rng(7)
        instance = problems.twoballs()
        for _ in range(20):
            k = rng.integers(1, 6)
            pts = _feasible_points(instance, k, rng)
            w = rng.dirichlet(np.ones(k))
            u = mixture_moments(LAYOUT, w, pts, 2)
            for a in range(0, 3):
                for b in range(0, 3):
                    lhs = u.values[(2 * a, 0, 0)] * u.values[(0, 2 * b, 0)]
                    rhs = u.values[(a, b, 0)] ** 2
                    assert lhs >= rhs - 1e-10

    def test_riesz_square_is_quadratic_form(self):
        rng = np.random.default_rng(8)
        basis = moment_matrix(LAYOUT, "xyz", 2).basis
        for _ in range(10):
            pts = [rng.uniform(-1, 1, 3) for _ in range(3)]
            w = rng.dirichlet(np.ones(3))
            u = mixture_moments(LAYOUT, w, pts, 2)
            coeffs = rng.integers(-3, 4, size=len(basis))
            f = Polynomial.from_terms(LAYOUT, dict(zip(basis, (int(c) for c in coeffs))))
            mat = moment_matrix(LAYOUT, "xyz", 2).instantiate(u)
            direct = riesz(f * f, u)
            quadratic = float(coeffs @ mat @ coeffs)
            assert abs(direct - quadratic) <= 1e-9 * (1 + abs(direct))
