"""Exact multivariate polynomials over partitioned variable blocks.

A polynomial is stored sparsely as int numerators over one positive
denominator, keyed by packed exponents.  A packed exponent is one int with a
``WIDTH``-bit digit per variable, the X block first, then Y, then Z
(:class:`BlockLayout` records the block sizes), and the total degree as the
top digit, so adding packed exponents multiplies monomials.  Packing and
multiplying check the degree cap ``MAX_DEGREE`` (raising
:class:`LayoutError`), so no digit ever carries.  All arithmetic here is
exact; floats only appear where a caller converts explicitly (the solver
boundary does).  Elsewhere exponents are tuples of nonnegative ints, one per
variable: :attr:`Polynomial.terms` is a cached view from them to
``fractions.Fraction`` coefficients for printing, evaluation, the oracle
and grlex order; assembled programs keep packed exponents to the solver.

Example (layout with one variable per block, so vars are ``x, y, z``)::

    x**2 * y + 3   ->   terms {(2, 1, 0): Fraction(1), (0, 0, 0): Fraction(3)}

The zero polynomial stores no terms and has degree 0 by convention.

The structural assumption used throughout the library is that X variables
never meet Z variables inside a monomial.  :func:`check_sparsity` splits a
polynomial into an (X,Y) part and a (Y,Z) part and rejects inputs violating
the pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping, Sequence

Exponent = tuple[int, ...]

#: Valid variable-block selectors.
BLOCKS = ("x", "xy", "yz", "xyz")

#: Bits per digit of a packed exponent, and the largest total degree.
WIDTH = 8
MAX_DEGREE = (1 << WIDTH) - 1


class LayoutError(ValueError):
    """Invalid block layout, mismatched layouts between operands, or a
    degree above ``MAX_DEGREE``."""


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

    @property
    def degree_shift(self) -> int:
        """Bit position of the total-degree digit of a packed exponent."""
        return WIDTH * self.nvars

    def is_exponent(self, exp) -> bool:
        """True when ``exp`` is a tuple of one nonnegative int per variable."""
        return isinstance(exp, tuple) and len(exp) == self.nvars and all(
            type(e) is int and e >= 0 for e in exp
        )

    def pack(self, exp) -> int:
        """The packed form of an exponent vector of degree <= MAX_DEGREE."""
        exp = tuple(exp)
        if not self.is_exponent(exp):
            raise LayoutError(f"bad exponent vector {exp} for {self.nvars} variables")
        degree = sum(exp)
        if degree > MAX_DEGREE:
            raise LayoutError(f"exponent {exp} has degree {degree} above {MAX_DEGREE}")
        return sum(e << (WIDTH * i) for i, e in enumerate((*exp, degree)))

    def unpack(self, packed: int) -> Exponent:
        return tuple((packed >> (WIDTH * i)) & MAX_DEGREE for i in range(self.nvars))

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

    def outside(self, block: str) -> int:
        """Mask of the variable digits outside ``block``: a packed exponent
        is supported on ``block`` when it has no bit in common with it."""
        inside = self.block_positions(block)
        return sum(MAX_DEGREE << (WIDTH * i) for i in range(self.nvars) if i not in inside)

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


def _coerce_coeff(value) -> Fraction:
    if isinstance(value, (Fraction, int, float, str)):
        return Fraction(value)
    raise TypeError(f"cannot use {type(value).__name__} as an exact coefficient")


@dataclass(frozen=True)
class Polynomial:
    """Sparse exact polynomial tied to a :class:`BlockLayout`:
    ``sum_p nums[p] / den * m_p`` over packed exponents ``p``.

    Construction drops zero numerators and divides out the common factor of
    ``den`` (a positive int) and the numerators, so equal polynomials have
    equal fields.  Instances are immutable by convention; no operation
    mutates its inputs.  Use :meth:`from_terms` for tuple-keyed coefficients.
    """

    layout: BlockLayout
    nums: dict[int, int]
    den: int

    def __post_init__(self) -> None:
        nums = self.nums
        if 0 in nums.values():
            nums = {p: v for p, v in nums.items() if v}
        g = gcd(self.den, *nums.values())
        if g != 1:
            nums = {p: v // g for p, v in nums.items()}
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", self.den // g)

    # -- constructors ------------------------------------------------------

    @classmethod
    def sum(cls, layout: BlockLayout, pieces: Iterable[tuple]) -> "Polynomial":
        """The sum of pieces ``(c, items, den)``, each the polynomial
        ``c * sum_p v / den * m_p`` over the ``(p, v)`` in ``items``, with
        ``c`` an int or Fraction, packed ``p`` and int ``v``.

        Everything accumulates as ints over the running common denominator
        of the pieces so far; ints do not overflow, so this is exact.
        """
        sums: dict[int, int] = {}
        den = 1
        for c, items, d in pieces:
            d *= c.denominator
            grown = lcm(den, d)
            if grown != den:
                sums = {p: v * (grown // den) for p, v in sums.items()}
                den = grown
            scale = c.numerator * (den // d)
            get = sums.get
            for p, v in items:
                sums[p] = get(p, 0) + scale * v
        return cls(layout, sums, den)

    @classmethod
    def from_terms(cls, layout: BlockLayout, terms: Mapping[Exponent, object]) -> "Polynomial":
        pieces = ((_coerce_coeff(c), ((layout.pack(e), 1),), 1) for e, c in terms.items())
        return cls.sum(layout, pieces)

    @classmethod
    def zero(cls, layout: BlockLayout) -> "Polynomial":
        return cls(layout, {}, 1)

    @classmethod
    def constant(cls, layout: BlockLayout, value) -> "Polynomial":
        c = _coerce_coeff(value)
        return cls(layout, {0: c.numerator}, c.denominator)

    @classmethod
    def variable(cls, layout: BlockLayout, name: str) -> "Polynomial":
        if name not in layout.names:
            raise LayoutError(f"unknown variable {name!r}; layout has {layout.names}")
        return cls(layout, {layout.pack(int(v == name) for v in layout.names): 1}, 1)

    # -- queries -----------------------------------------------------------

    @cached_property
    def terms(self) -> dict[Exponent, Fraction]:
        """Exponent tuple -> nonzero Fraction coefficient; a read-only view."""
        unpack, den = self.layout.unpack, self.den
        return {unpack(p): Fraction(v, den) for p, v in self.nums.items()}

    @property
    def degree(self) -> int:
        """Total degree; the zero polynomial has degree 0 by convention."""
        return max(self.nums) >> self.layout.degree_shift if self.nums else 0

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def max_norm(self) -> Fraction:
        """Largest absolute coefficient (0 for the zero polynomial)."""
        return Fraction(max(map(abs, self.nums.values()), default=0), self.den)

    def is_supported_on(self, block: str) -> bool:
        outside = self.layout.outside(block)
        return not any(p & outside for p in self.nums)

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
        return Polynomial.sum(self.layout, ((1, p.nums.items(), p.den) for p in (self, other)))

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.layout, {p: -v for p, v in self.nums.items()}, self.den)

    def __sub__(self, other) -> "Polynomial":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Polynomial":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Polynomial":
        other = self._coerce(other)
        degree = self.degree + other.degree
        if degree > MAX_DEGREE:
            raise LayoutError(f"product of degree {degree} is above {MAX_DEGREE}")
        # One int multiply-add per term pair; packed exponents add.
        sums: dict[int, int] = {}
        get = sums.get
        n2 = other.nums.items()
        for p, u in self.nums.items():
            for q, v in n2:
                s = p + q
                sums[s] = get(s, 0) + u * v
        return Polynomial(self.layout, sums, self.den * other.den)

    __rmul__ = __mul__

    def scale(self, factor) -> "Polynomial":
        c = _coerce_coeff(factor)
        nums = {p: v * c.numerator for p, v in self.nums.items()}
        return Polynomial(self.layout, nums, self.den * c.denominator)

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


def check_sparsity(f: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Split ``f`` into an (X,Y)-supported and a (Y,Z)-supported part.

    Monomials supported on Y alone go to the (X,Y) part; a monomial with
    positive degree on both an X and a Z variable raises :class:`CouplingError`.
    The two parts always sum back to ``f`` exactly.
    """
    layout = f.layout
    x, z = layout.outside("yz"), layout.outside("xy")
    xy, yz = {}, {}
    for p, v in f.nums.items():
        if p & x and p & z:
            exp = layout.unpack(p)
            raise CouplingError(
                f"monomial {layout.monomial_str(exp)} couples X and Z variables", exp
            )
        (yz if p & z else xy)[p] = v
    return Polynomial(layout, xy, f.den), Polynomial(layout, yz, f.den)
