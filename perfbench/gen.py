"""Seeded problem-file text for the benchmark ladders.

Every instance is written as the text a user would hand to the
``sparsepos`` command line; the benchmark parses that text and nothing
else.  The same seed gives byte-identical text.

The random families start from a base instance whose coefficients were
drawn once from {-1/2, -1/4, 1/4, 1/2} with a fixed generator seed, one per
admissible monomial, like the frozen ``fivevar`` built-in.  A benchmark
seed then draws an isomorphic copy: it permutes the variables inside each
block and flips the sign of each variable.  Both maps send the feasible
set to itself, so every seed poses the same problem in a different
coordinate order.  Unrelated random draws would not: the interior-point
iteration count of one rung varies by up to 40% between them, and that
would swamp the run-to-run spread the benchmark has to resolve.

Instances:

  twoballs   built-in, x + (x-y)^2 + (y-z)^2 + z over two unit disks
  fivevar    built-in frozen random quadratic over two unit balls, (2,1,2)
  ball313    random quadratic over two unit balls, (n,m,p)=(3,1,3)
  ball424    the same at (4,2,4)
  box212     random quadratic over the box [-1,1]^5, layout (2,1,2), with
             affine constraints for the cone (krivine) hierarchy and user
             bounds of 1
"""

from __future__ import annotations

import random
from fractions import Fraction

_COEFFS = (Fraction(-1, 2), Fraction(-1, 4), Fraction(1, 4), Fraction(1, 2))

TWOBALLS = """\
# two unit disks sharing the middle variable
vars x : X; y : Y; z : Z;
minimize x + (x - y)^2 + (y - z)^2 + z;
st g1: 1 - x^2 - y^2 >= 0;
st h1: 1 - y^2 - z^2 >= 0;
"""

FIVEVAR = """\
# frozen random quadratic over two unit balls, (n,m,p)=(2,1,2)
vars x1 : X; x2 : X; y1 : Y; z1 : Z; z2 : Z;
minimize 1/4*x1 - 1/2*x2 - 1/2*x1^2 - 1/2*x1*x2 - 1/2*x1*y1 - 1/4*x2*y1
  + 1/4*y1^2 + 1/2*z2 + 1/2*y1*z1 + 1/4*y1*z2 - 1/2*z1^2 - 1/2*z1*z2
  + 1/2*z2^2;
st g1: 1 - x1^2 - x2^2 - y1^2 >= 0;
st h1: 1 - y1^2 - z1^2 - z2^2 >= 0;
"""

#: Known global minima of the built-ins (grid oracle and converged bounds).
KNOWN_MINIMA = {"twoballs": -1.52034518, "fivevar": -1.58179935}

#: Seeded families: name -> (kind, n, m, p).
FAMILIES = {
    "ball313": ("ball", 3, 1, 3),
    "ball424": ("ball", 4, 2, 4),
    "box212": ("box", 2, 1, 2),
}


def _names(n: int, m: int, p: int) -> tuple[list[str], list[str], list[str]]:
    return (
        [f"x{i + 1}" for i in range(n)],
        [f"y{i + 1}" for i in range(m)],
        [f"z{i + 1}" for i in range(p)],
    )


def _quadratic_support(xs, ys, zs) -> list[tuple[str, ...]]:
    """Monomials of degree 1 and 2 on (X,Y) or (Y,Z); none couples X with Z."""
    monos: list[tuple[str, ...]] = []
    for side in (xs + ys, ys + zs):
        for i, a in enumerate(side):
            for mono in [(a,)] + [(a, b) for b in side[i:]]:
                if mono not in monos:
                    monos.append(mono)
    return monos


class _Copy:
    """A seeded isomorphic copy of a base instance: each base variable maps
    to a variable of the same block, with a sign."""

    def __init__(self, kind: str, n: int, m: int, p: int, seed: int):
        self.blocks = _names(n, m, p)
        self.order = [v for block in self.blocks for v in block]
        base = random.Random(f"{kind}-{n}-{m}-{p}")
        support = _quadratic_support(*self.blocks)
        self.base = {mono: _COEFFS[base.getrandbits(2)] for mono in support}
        rng = random.Random(f"{kind}-{n}-{m}-{p}-{seed}")
        self.rename: dict[str, str] = {}
        for block in self.blocks:
            image = list(block)
            rng.shuffle(image)
            self.rename.update(zip(block, image))
        self.sign = {v: (1, -1)[rng.getrandbits(1)] for v in self.order}

    def declarations(self) -> str:
        return " ".join(
            f"{v} : {b};" for block, b in zip(self.blocks, "XYZ") for v in block
        )

    def objective(self) -> str:
        coeffs: dict[tuple[str, ...], Fraction] = {}
        for mono, c in self.base.items():
            image = tuple(sorted((self.rename[v] for v in mono), key=self.order.index))
            for v in mono:
                c *= self.sign[v]
            coeffs[image] = c
        text = " ".join(_term(coeffs[mono], mono) for mono in _quadratic_support(*self.blocks))
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    def signed(self, v: str) -> str:
        """The image of base variable ``v`` as a signed summand."""
        return f"{'+' if self.sign[v] > 0 else '-'} {self.rename[v]}"


def _term(coeff: Fraction, mono: tuple[str, ...]) -> str:
    sign = "-" if coeff < 0 else "+"
    if len(mono) == 2 and mono[0] == mono[1]:
        body = f"{mono[0]}^2"
    else:
        body = "*".join(mono)
    return f"{sign} {abs(coeff)}*{body}"


def _squares(names: list[str]) -> str:
    return " - ".join(f"{v}^2" for v in names)


def ball_quadratic(n: int, m: int, p: int, seed: int) -> str:
    """Random quadratic over the unit balls |x|^2+|y|^2 <= 1, |y|^2+|z|^2 <= 1."""
    copy = _Copy("ball", n, m, p, seed)
    xs, ys, zs = copy.blocks
    return (
        f"# random quadratic over two unit balls, (n,m,p)=({n},{m},{p}), seed {seed}\n"
        f"vars {copy.declarations()}\n"
        f"minimize {copy.objective()};\n"
        f"st g1: 1 - {_squares(xs + ys)} >= 0;\n"
        f"st h1: 1 - {_squares(ys + zs)} >= 0;\n"
    )


def box_quadratic(n: int, m: int, p: int, seed: int) -> str:
    """Random quadratic over [-1,1]^(n+m+p) for the cone hierarchy.

    Each base variable v gets the affine constraint (1+v)/2 >= 0, which the
    cone rows pair with its complement (1-v)/2.  A constraint without a Z
    variable lands in the (X,Y) family, so the (Y,Z) family sees each middle
    variable y through (2 + y + z_1)/4 >= 0, which also lies in [0, 1] on
    the box.  Every constraint therefore takes the user bound 1.
    """
    if p < 1:
        raise ValueError("box instances need at least one Z variable")
    copy = _Copy("box", n, m, p, seed)
    xs, ys, zs = copy.blocks
    lines = [
        f"# random quadratic over the box [-1,1]^{n + m + p}, (n,m,p)=({n},{m},{p}), seed {seed}",
        f"vars {copy.declarations()}",
        f"minimize {copy.objective()};",
    ]
    g = [f"(1 {copy.signed(v)})/2" for v in xs + ys]
    h = [f"(2 {copy.signed(v)} {copy.signed(zs[0])})/4" for v in ys]
    h += [f"(1 {copy.signed(v)})/2" for v in zs]
    lines += [f"st g{i + 1}: {body} >= 0;" for i, body in enumerate(g)]
    lines += [f"st h{i + 1}: {body} >= 0;" for i, body in enumerate(h)]
    return "\n".join(lines) + "\n"


def instance_text(name: str, seed: int) -> str:
    """Problem-file text of one benchmark instance."""
    if name == "twoballs":
        return TWOBALLS
    if name == "fivevar":
        return FIVEVAR
    kind, n, m, p = FAMILIES[name]
    return (ball_quadratic if kind == "ball" else box_quadratic)(n, m, p, seed)
