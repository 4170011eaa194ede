"""Exact multivariate polynomials over partitioned variable blocks.

A polynomial is stored sparsely as a map from exponent vectors to
``fractions.Fraction`` coefficients.  An exponent vector is a plain tuple of
nonnegative ints, one per variable, with the X block first, then Y, then Z;
:class:`BlockLayout` records the block sizes.  All arithmetic here is exact.
Floats only appear where a caller converts explicitly (the solver boundary
does).

Example (layout with one variable per block, so vars are ``x, y, z``)::

    x**2 * y + 3   ->   {(2, 1, 0): Fraction(1), (0, 0, 0): Fraction(3)}

The zero polynomial stores no terms and has degree 0 by convention.

The structural assumption used throughout the library is that X variables
never meet Z variables inside a monomial.  :func:`check_sparsity` splits a
polynomial into an (X,Y) part and a (Y,Z) part and rejects inputs violating
the pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add
from typing import Iterator, Mapping, Sequence

Exponent = tuple[int, ...]

#: Valid variable-block selectors.
BLOCKS = ("x", "xy", "yz", "xyz")


class LayoutError(ValueError):
    """Invalid block layout, or mismatched layouts between operands."""


class CouplingError(ValueError):
    """A monomial couples an X variable with a Z variable."""

    def __init__(self, message: str, monomial: Exponent):
        super().__init__(message)
        self.monomial = monomial


def _default_names(n: int, m: int, p: int) -> tuple[str, ...]:
    def group(count: int, letter: str) -> list[str]:
        if count == 1:
            return [letter]
        return [f"{letter}{i + 1}" for i in range(count)]

    return tuple(group(n, "x") + group(m, "y") + group(p, "z"))


@dataclass(frozen=True)
class BlockLayout:
    """Variable-block sizes: ``n`` X vars, ``m`` Y vars, ``p`` Z vars."""

    n: int
    m: int
    p: int
    names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if min(self.n, self.m, self.p) < 0 or self.n + self.m + self.p < 1:
            raise LayoutError(
                f"block sizes must be nonnegative with at least one variable, "
                f"got n={self.n}, m={self.m}, p={self.p}"
            )
        names = self.names or _default_names(self.n, self.m, self.p)
        object.__setattr__(self, "names", tuple(names))
        if len(self.names) != self.nvars:
            raise LayoutError(
                f"expected {self.nvars} variable names, got {len(self.names)}"
            )
        if len(set(self.names)) != len(self.names):
            raise LayoutError("variable names must be pairwise distinct")

    @property
    def nvars(self) -> int:
        return self.n + self.m + self.p

    @property
    def zero_exponent(self) -> Exponent:
        return (0,) * self.nvars

    def block_positions(self, block: str) -> tuple[int, ...]:
        """Variable positions belonging to ``block`` (one of BLOCKS)."""
        x = range(0, self.n)
        y = range(self.n, self.n + self.m)
        z = range(self.n + self.m, self.nvars)
        if block == "x":
            return tuple(x)
        if block == "xy":
            return tuple(x) + tuple(y)
        if block == "yz":
            return tuple(y) + tuple(z)
        if block == "xyz":
            return tuple(range(self.nvars))
        raise LayoutError(f"unknown block {block!r}; expected one of {BLOCKS}")

    def in_block(self, exp: Exponent, block: str) -> bool:
        """True when ``exp`` is zero on every variable outside ``block``."""
        inside = set(self.block_positions(block))
        return all(e == 0 for i, e in enumerate(exp) if i not in inside)

    def touches_x(self, exp: Exponent) -> bool:
        return any(exp[i] > 0 for i in range(0, self.n))

    def touches_z(self, exp: Exponent) -> bool:
        return any(exp[i] > 0 for i in range(self.n + self.m, self.nvars))

    def monomial_str(self, exp: Exponent) -> str:
        parts = []
        for name, e in zip(self.names, exp):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"


def grlex_key(exp: Exponent) -> tuple:
    """Sort key for graded lexicographic order.

    Ascending sort lists monomials by total degree, and within a degree with
    larger exponents on earlier variables first; for one X and one Y variable
    the order is 1, x, y, x^2, x*y, y^2.
    """
    return (sum(exp), tuple(-e for e in exp))


def exp_add(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(add, a, b))


def _bounded_compositions(slots: int, cap: int) -> Iterator[tuple[int, ...]]:
    """All tuples of ``slots`` nonnegative ints with sum at most ``cap``."""
    if slots == 0:
        yield ()
        return
    for head in range(cap + 1):
        for tail in _bounded_compositions(slots - 1, cap - head):
            yield (head,) + tail


def monomial_basis(layout: BlockLayout, block: str, r: int) -> tuple[Exponent, ...]:
    """Exponent vectors of total degree <= r supported on ``block``.

    Returned in ascending graded lexicographic order; the length is
    C(d + r, r) where d is the number of variables in the block.
    """
    if r < 0:
        raise ValueError(f"basis degree must be nonnegative, got {r}")
    positions = layout.block_positions(block)
    exps = []
    for partial in _bounded_compositions(len(positions), r):
        full = [0] * layout.nvars
        for pos, e in zip(positions, partial):
            full[pos] = e
        exps.append(tuple(full))
    exps.sort(key=grlex_key)
    return tuple(exps)


#: Polynomial products take the integer-numerator path while the product of
#: the operands' common denominators stays below this.
INT_PRODUCT_LIMIT = 1 << 62


def common_denominator(terms: Mapping[Exponent, Fraction], cap: int | None = None) -> int:
    """Least common multiple of the coefficient denominators (1 when empty),
    or 0 as soon as it reaches ``cap``."""
    den = 1
    for c in terms.values():
        q = c.denominator
        if den % q:
            den = lcm(den, q)
            if cap is not None and den >= cap:
                return 0
    return den


def integer_numerators(terms: Mapping[Exponent, Fraction], den: int) -> dict[Exponent, int]:
    """The coefficients times ``den``, a multiple of their common denominator."""
    return {e: c.numerator * (den // c.denominator) for e, c in terms.items()}


def _coerce_coeff(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot use {type(value).__name__} as an exact coefficient")


@dataclass(frozen=True)
class Polynomial:
    """Sparse exact polynomial tied to a :class:`BlockLayout`.

    ``terms`` maps exponent vectors to nonzero Fraction coefficients.
    Instances are immutable by convention; no operation mutates its inputs.
    """

    layout: BlockLayout
    terms: dict[Exponent, Fraction]

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_terms(cls, layout: BlockLayout, terms: Mapping[Exponent, object]) -> "Polynomial":
        clean: dict[Exponent, Fraction] = {}
        for exp, coeff in terms.items():
            exp = tuple(exp)
            if len(exp) != layout.nvars or any(e < 0 for e in exp):
                raise LayoutError(f"bad exponent vector {exp} for {layout.nvars} variables")
            c = _coerce_coeff(coeff)
            if c != 0:
                clean[exp] = clean.get(exp, Fraction(0)) + c
        return cls(layout, {e: c for e, c in clean.items() if c != 0})

    @classmethod
    def zero(cls, layout: BlockLayout) -> "Polynomial":
        return cls(layout, {})

    @classmethod
    def constant(cls, layout: BlockLayout, value) -> "Polynomial":
        c = _coerce_coeff(value)
        if c == 0:
            return cls(layout, {})
        return cls(layout, {layout.zero_exponent: c})

    @classmethod
    def variable(cls, layout: BlockLayout, name: str) -> "Polynomial":
        try:
            idx = layout.names.index(name)
        except ValueError:
            raise LayoutError(f"unknown variable {name!r}; layout has {layout.names}")
        exp = [0] * layout.nvars
        exp[idx] = 1
        return cls(layout, {tuple(exp): Fraction(1)})

    @classmethod
    def monomial(cls, layout: BlockLayout, exp: Exponent, coeff=1) -> "Polynomial":
        return cls.from_terms(layout, {tuple(exp): coeff})

    # -- queries -----------------------------------------------------------

    @property
    def degree(self) -> int:
        """Total degree; the zero polynomial has degree 0 by convention."""
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exp: Exponent) -> Fraction:
        return self.terms.get(tuple(exp), Fraction(0))

    def max_norm(self) -> Fraction:
        """Largest absolute coefficient (0 for the zero polynomial)."""
        if not self.terms:
            return Fraction(0)
        return max(abs(c) for c in self.terms.values())

    def is_supported_on(self, block: str) -> bool:
        return all(self.layout.in_block(e, block) for e in self.terms)

    def evaluate(self, point: Sequence) -> object:
        """Evaluate at ``point``; exact when the inputs are ints/Fractions."""
        if len(point) != self.layout.nvars:
            raise LayoutError(
                f"point has {len(point)} coordinates, layout needs {self.layout.nvars}"
            )
        total = 0
        for exp, coeff in self.terms.items():
            value = coeff
            for v, e in zip(point, exp):
                if e:
                    value = value * v**e
            total = total + value
        return total

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.layout != self.layout:
                raise LayoutError("operands live on different block layouts")
            return other
        return Polynomial.constant(self.layout, other)

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        out = dict(self.terms)
        for exp, coeff in other.terms.items():
            acc = out.get(exp, Fraction(0)) + coeff
            if acc == 0:
                out.pop(exp, None)
            else:
                out[exp] = acc
        return Polynomial(self.layout, out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.layout, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Polynomial":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Polynomial":
        other = self._coerce(other)
        d1 = common_denominator(self.terms, INT_PRODUCT_LIMIT)
        d2 = common_denominator(other.terms, INT_PRODUCT_LIMIT)
        if d1 and d2 and d1 * d2 < INT_PRODUCT_LIMIT:
            # Integer numerators over d1 * d2: one int multiply-add per term
            # pair and one Fraction per output term.
            n2 = integer_numerators(other.terms, d2).items()
            sums: dict[Exponent, int] = {}
            for e1, c1 in integer_numerators(self.terms, d1).items():
                for e2, c2 in n2:
                    exp = tuple(map(add, e1, e2))
                    sums[exp] = sums.get(exp, 0) + c1 * c2
            den = d1 * d2
            return Polynomial(self.layout, {e: Fraction(v, den) for e, v in sums.items() if v})
        # Large denominators (snapped SOS factors): their lcm would explode,
        # so stay with Fraction arithmetic.
        out: dict[Exponent, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = exp_add(e1, e2)
                acc = out.get(exp, Fraction(0)) + c1 * c2
                if acc == 0:
                    out.pop(exp, None)
                else:
                    out[exp] = acc
        return Polynomial(self.layout, out)

    __rmul__ = __mul__

    def scale(self, factor) -> "Polynomial":
        c = _coerce_coeff(factor)
        if c == 0:
            return Polynomial(self.layout, {})
        return Polynomial(self.layout, {e: v * c for e, v in self.terms.items()})

    def __pow__(self, power: int) -> "Polynomial":
        if not isinstance(power, int) or power < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = Polynomial.constant(self.layout, 1)
        base = self
        k = power
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exp in sorted(self.terms, key=grlex_key, reverse=True):
            coeff = self.terms[exp]
            mono = self.layout.monomial_str(exp)
            if mono == "1":
                parts.append(f"{coeff}")
            elif coeff == 1:
                parts.append(mono)
            elif coeff == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{coeff}*{mono}")
        out = parts[0]
        for part in parts[1:]:
            out += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
        return out


def check_sparsity(
    f: Polynomial, layout: BlockLayout | None = None
) -> tuple[Polynomial, Polynomial]:
    """Split ``f`` into an (X,Y)-supported and a (Y,Z)-supported part.

    Monomials supported on Y alone go to the (X,Y) part; a monomial with
    positive degree on both an X and a Z variable raises :class:`CouplingError`.
    The two parts always sum back to ``f`` exactly.
    """
    if layout is not None and layout != f.layout:
        raise LayoutError("layout argument disagrees with the polynomial's layout")
    layout = f.layout
    xy: dict[Exponent, Fraction] = {}
    yz: dict[Exponent, Fraction] = {}
    for exp, coeff in f.terms.items():
        tx, tz = layout.touches_x(exp), layout.touches_z(exp)
        if tx and tz:
            raise CouplingError(
                f"monomial {layout.monomial_str(exp)} couples X and Z variables",
                exp,
            )
        (yz if tz else xy)[exp] = coeff
    return Polynomial(layout, xy), Polynomial(layout, yz)
