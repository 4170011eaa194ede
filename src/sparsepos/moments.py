"""Moment sequences and symbolic moment/localizing matrices.

A truncated moment sequence assigns a number u_e to every exponent vector e
up to a truncation degree; the linear functional L_u sends a polynomial
sum_e f_e m_e to sum_e f_e u_e.  The moment matrix of order r over a variable
block has rows and columns indexed by the degree-r monomial basis of that
block, with entry (a, b) referring to the moment at a+b; the localizing
matrix of a weight polynomial g shifts every entry by g's monomials.

Matrices are built symbolically: every entry is a linear form in moment
indices (lists of coefficient/exponent pairs).  The same object serves as
constraint data for relaxation assembly and, instantiated on a concrete
moment vector, as a numeric diagnostic.

Moment indices are global exponent vectors over all of X, Y, Z even for
block-restricted matrices, so a pure-Y moment is shared between the (X,Y)
and (Y,Z) sides by construction rather than by explicit equality constraints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .poly import (
    BlockLayout,
    Exponent,
    Polynomial,
    exp_add,
    grlex_key,
    monomial_basis,
)
from .problem import BlockSupportError


class TruncationError(KeyError):
    """A required moment index is missing from the moment vector."""


#: Linear form in moment indices: ((coefficient, exponent), ...).
LinearForm = tuple[tuple[Fraction, Exponent], ...]


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
    """Symmetric matrix of linear forms in moment indices."""

    basis: tuple[Exponent, ...]
    entries: tuple[tuple[LinearForm, ...], ...]

    @property
    def size(self) -> int:
        return len(self.basis)

    def referenced_exponents(self) -> set[Exponent]:
        out: set[Exponent] = set()
        for i in range(self.size):
            for j in range(i, self.size):
                out.update(e for _, e in self.entries[i][j])
        return out

    def instantiate(self, u: MomentVector) -> np.ndarray:
        """Numeric matrix with moment values substituted (float64)."""
        mat = np.zeros((self.size, self.size))
        for i in range(self.size):
            for j in range(i, self.size):
                val = 0.0
                for coeff, exp in self.entries[i][j]:
                    val += float(coeff) * float(u.get(exp))
                mat[i, j] = val
                mat[j, i] = val
        return mat


def moment_matrix(layout: BlockLayout, block: str, r: int) -> SymbolicMatrix:
    """Order-r moment matrix over ``block``: entry (a, b) reads u_{a+b}."""
    basis = monomial_basis(layout, block, r)
    one = Fraction(1)
    entries = tuple(
        tuple(((one, exp_add(a, b)),) for b in basis) for a in basis
    )
    return SymbolicMatrix(basis, entries)


def localizing_matrix(g: Polynomial, block: str, r: int) -> SymbolicMatrix:
    """Order-r localizing matrix of ``g``: entry (a, b) reads L_u(g * m_{a+b})."""
    if not g.is_supported_on(block):
        raise BlockSupportError(
            f"weight polynomial is not supported on the {block} block"
        )
    layout = g.layout
    basis = monomial_basis(layout, block, r)
    g_terms = sorted(g.terms.items(), key=lambda item: grlex_key(item[0]))
    rows = []
    for a in basis:
        row = []
        for b in basis:
            ab = exp_add(a, b)
            row.append(tuple((coeff, exp_add(exp, ab)) for exp, coeff in g_terms))
        rows.append(tuple(row))
    return SymbolicMatrix(basis, tuple(rows))


def half_degree(g: Polynomial) -> int:
    """ceil(deg(g)/2); the constant 1 weight has half-degree 0."""
    return (g.degree + 1) // 2


def min_eigenvalue(mat: np.ndarray) -> float:
    if mat.size == 0:
        return 0.0
    return float(np.linalg.eigvalsh(0.5 * (mat + mat.T))[0])
