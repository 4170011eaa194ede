"""Moment sequences and symbolic moment/localizing matrices.

A truncated moment sequence assigns a number u_e to every exponent vector e
up to a truncation degree; the linear functional L_u sends a polynomial
sum_e f_e m_e to sum_e f_e u_e.  The moment matrix of order r over a variable
block has rows and columns indexed by the degree-r monomial basis of that
block, with entry (a, b) referring to the moment at a+b; the localizing
matrix of a weight polynomial g shifts every entry by g's monomials.

A symbolic matrix is just its basis and its weight w (the constant 1 for a
moment matrix): entry (a, b) is L_u(w * m_{a+b}) = sum_e w_e u_{e+a+b}.  One
derivation turns the pair into the upper triangle's (i, j, coefficient,
moment index) terms, computed once per matrix; the moment index and the
solver's constraint data read those terms, and so do the tuple views
``entries``, ``referenced_exponents`` and ``instantiate``.

Moment indices are global packed exponents (see :mod:`poly`) over all of
X, Y, Z even for block-restricted matrices, so a pure-Y moment is shared
between the (X,Y) and (Y,Z) sides by construction rather than by explicit
equality constraints; the views unpack them to :class:`MomentVector` keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .poly import (
    MAX_DEGREE, BlockLayout, Exponent, LayoutError, Polynomial, grlex_key, monomial_basis
)
from .problem import BlockSupportError


class TruncationError(KeyError):
    """A required moment index is missing from the moment vector."""


@dataclass
class MomentVector:
    """Truncated moment sequence over a layout's monomials."""

    layout: BlockLayout
    values: dict[Exponent, float]
    truncation: int

    def get(self, exp: Exponent):
        try:
            return self.values[tuple(exp)]
        except KeyError:
            raise TruncationError(
                f"moment index {exp} is outside the stored truncation "
                f"(degree {self.truncation})"
            ) from None

    @property
    def unit(self):
        return self.get(self.layout.zero_exponent)


def riesz(f: Polynomial, u: MomentVector):
    """Pair a polynomial against a moment vector: sum_e f_e u_e."""
    total = 0
    for exp, coeff in f.terms.items():
        total = total + coeff * u.get(exp)
    return total


def moments_of_dirac(layout: BlockLayout, point: Sequence, r: int) -> MomentVector:
    """Moments of the point mass at ``point``, stored to degree 2r."""
    if len(point) != layout.nvars:
        raise ValueError(f"point has {len(point)} coordinates, need {layout.nvars}")
    values: dict[Exponent, object] = {}
    for exp in monomial_basis(layout, "xyz", 2 * r):
        v = 1
        for coord, e in zip(point, exp):
            if e:
                v = v * coord**e
        values[exp] = v
    return MomentVector(layout, values, 2 * r)


def mixture_moments(
    layout: BlockLayout, weights: Sequence, points: Sequence[Sequence], r: int
) -> MomentVector:
    """Moments of a finite convex mixture of point masses."""
    if len(weights) != len(points):
        raise ValueError("one weight per point required")
    values: dict[Exponent, float] = {e: 0.0 for e in monomial_basis(layout, "xyz", 2 * r)}
    for w, pt in zip(weights, points):
        d = moments_of_dirac(layout, pt, r)
        for exp in values:
            values[exp] += float(w) * float(d.values[exp])
    return MomentVector(layout, values, 2 * r)


@dataclass(frozen=True)
class SymbolicMatrix:
    """Localizing matrix of ``weight`` on ``basis``: entry (a, b) is
    L_u(weight * m_{a+b})."""

    basis: tuple[Exponent, ...]
    weight: Polynomial

    @property
    def size(self) -> int:
        return len(self.basis)

    @cached_property
    def terms(self) -> tuple[tuple[int, int, Fraction, int], ...]:
        """(i, j, coefficient, packed moment) of the upper triangle, row by
        row, weight monomials in graded-lex order within an entry."""
        layout = self.weight.layout
        basis = [layout.pack(a) for a in self.basis]
        if 2 * (max(basis, default=0) >> layout.degree_shift) + self.weight.degree > MAX_DEGREE:
            raise LayoutError(f"matrix entries reach a degree above {MAX_DEGREE}")
        w = sorted(self.weight.terms.items(), key=lambda item: grlex_key(item[0]))
        w = [(layout.pack(e), coeff) for e, coeff in w]
        out = []
        for i, a in enumerate(basis):
            for j in range(i, self.size):
                ab = a + basis[j]
                out.extend((i, j, coeff, e + ab) for e, coeff in w)
        return tuple(out)

    def _unpacked(self) -> Iterator[tuple[int, int, Fraction, Exponent]]:
        unpack = cache(self.weight.layout.unpack)
        return ((i, j, coeff, unpack(p)) for i, j, coeff, p in self.terms)

    @cached_property
    def entries(self) -> tuple:
        """entries[i][j]: entry (i, j) as ((coefficient, moment index), ...)."""
        k = self.size
        upper = [[[] for _ in range(k)] for _ in range(k)]
        for i, j, coeff, e in self._unpacked():
            upper[i][j].append((coeff, e))
        return tuple(
            tuple(tuple(upper[min(i, j)][max(i, j)]) for j in range(k)) for i in range(k)
        )

    def referenced_exponents(self) -> set[Exponent]:
        return {e for _, _, _, e in self._unpacked()}

    def instantiate(self, u: MomentVector) -> np.ndarray:
        """Numeric matrix with moment values substituted (float64)."""
        mat = np.zeros((self.size, self.size))
        for i, j, coeff, e in self._unpacked():
            mat[i, j] += float(coeff) * float(u.get(e))
        return mat + np.triu(mat, 1).T


def moment_matrix(layout: BlockLayout, block: str, r: int) -> SymbolicMatrix:
    """Order-r moment matrix over ``block``: entry (a, b) reads u_{a+b}."""
    return localizing_matrix(Polynomial.constant(layout, 1), block, r)


def localizing_matrix(g: Polynomial, block: str, r: int) -> SymbolicMatrix:
    """Order-r localizing matrix of ``g``: entry (a, b) reads L_u(g * m_{a+b})."""
    if not g.is_supported_on(block):
        raise BlockSupportError(
            f"weight polynomial is not supported on the {block} block"
        )
    return SymbolicMatrix(monomial_basis(g.layout, block, r), g)


def half_degree(g: Polynomial) -> int:
    """ceil(deg(g)/2); the constant 1 weight has half-degree 0."""
    return (g.degree + 1) // 2


def min_eigenvalue(mat: np.ndarray) -> float:
    if mat.size == 0:
        return 0.0
    return float(np.linalg.eigvalsh(0.5 * (mat + mat.T))[0])
