"""Command-line front end.

Problem files are line-oriented UTF-8 text with ``;``-terminated statements:

    # comment
    vars x : X; y : Y; z : Z;
    minimize x + (x - y)^2 + (y - z)^2 + z;
    st g1: 1 - x^2 - y^2 >= 0;
    st h1: 1 - y^2 - z^2 >= 0;

Every variable is assigned to block X, Y or Z; polynomials use infix
arithmetic with ``^`` powers and exact rational literals (``3/4``, ``0.25``).
Constraints are ``name: poly >= 0`` with block membership inferred from the
variables they touch and validated.

Exit codes: 0 all orders solved to optimality, 2 usage/config/parse errors
or a file that cannot be read or written, 3 a solver failure on some order,
or a ``--certificate`` that does not verify against the parsed problem or
whose JSON does not read back, through ``certificate_from_json``, as a
certificate that verifies with the same lambda and ``scaling`` (no file is
written then).
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from .certify import certificate_from_json, certificate_to_json, verify
from .hierarchy import (
    EXIT_CONFIG,
    EXIT_SOLVER,
    HierarchyResult,
    ConfigError,
    RunConfig,
    VARIANTS,
    run_hierarchy,
)
from .poly import MAX_DEGREE, BlockLayout, CouplingError, LayoutError, Polynomial
from .problem import BlockSupportError, ProblemInstance


class ProblemFileError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


@dataclass
class _Token:
    kind: str
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>\#[^\n]*)
      | (?P<number>\d+\.\d*|\.\d+|\d+)
      | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<ge>>=)
      | (?P<sym>[-+*/^():;])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[_Token]:
    text = text.replace("−", "-")  # unicode minus
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ProblemFileError(f"unexpected character {text[pos]!r}", line, col)
        kind = match.lastgroup
        snippet = match.group()
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, snippet, line, col))
        newlines = snippet.count("\n")
        if newlines:
            line += newlines
            col = len(snippet) - snippet.rfind("\n")
        else:
            col += len(snippet)
        pos = match.end()
    return tokens


# Python's default limit on the digits of an int read from a string,
# applied on every Python version so that every version reads the same files.
_MAX_DIGITS = 4300


def _number(tok: _Token) -> Fraction:
    if (digits := len(tok.text.replace(".", ""))) > _MAX_DIGITS:
        raise ProblemFileError(
            f"number of {digits} digits is above {_MAX_DIGITS}", tok.line, tok.col
        )
    return Fraction(tok.text)


class _ExprParser:
    def __init__(self, tokens: list[_Token], layout: BlockLayout):
        self.tokens = tokens
        self.layout = layout
        self.i = 0

    def _peek(self) -> _Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _next(self) -> _Token:
        tok = self._peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else _Token("sym", "", 1, 1)
            raise ProblemFileError("unexpected end of expression", last.line, last.col)
        self.i += 1
        return tok

    def parse(self) -> Polynomial:
        poly = self._expr()
        tok = self._peek()
        if tok is not None:
            raise ProblemFileError(f"unexpected token {tok.text!r}", tok.line, tok.col)
        return poly

    def _expr(self) -> Polynomial:
        poly = self._term()
        while (tok := self._peek()) is not None and tok.text in ("+", "-"):
            self._next()
            rhs = self._term()
            poly = poly + rhs if tok.text == "+" else poly - rhs
        return poly

    def _term(self) -> Polynomial:
        poly = self._unary()
        while (tok := self._peek()) is not None and tok.text in ("*", "/"):
            self._next()
            rhs = self._unary()
            if tok.text == "*":
                poly = poly * rhs
            else:
                if rhs.degree != 0 or rhs.is_zero:
                    raise ProblemFileError(
                        "division is only allowed by a nonzero constant", tok.line, tok.col
                    )
                poly = poly.scale(Fraction(rhs.den, rhs.nums[0]))  # 1 / rhs
        return poly

    def _unary(self) -> Polynomial:
        tok = self._peek()
        if tok is not None and tok.text in ("+", "-"):
            self._next()
            inner = self._unary()
            return inner if tok.text == "+" else -inner
        return self._power()

    def _power(self) -> Polynomial:
        base = self._atom()
        tok = self._peek()
        if tok is not None and tok.text == "^":
            self._next()
            exp_tok = self._next()
            if exp_tok.kind != "number" or "." in exp_tok.text:
                raise ProblemFileError(
                    "exponent must be a nonnegative integer", exp_tok.line, exp_tok.col
                )
            # The degree cap bounds a constant's power too.
            if (exp := _number(exp_tok)) > MAX_DEGREE:
                raise ProblemFileError(
                    f"exponent is above {MAX_DEGREE}", exp_tok.line, exp_tok.col
                )
            return base ** int(exp)
        return base

    def _atom(self) -> Polynomial:
        tok = self._next()
        if tok.kind == "number":
            return Polynomial.constant(self.layout, _number(tok))
        if tok.kind == "name":
            if tok.text not in self.layout.names:
                raise ProblemFileError(f"unknown variable {tok.text!r}", tok.line, tok.col)
            return Polynomial.variable(self.layout, tok.text)
        if tok.text == "(":
            poly = self._expr()
            closing = self._next()
            if closing.text != ")":
                raise ProblemFileError("expected ')'", closing.line, closing.col)
            return poly
        raise ProblemFileError(f"unexpected token {tok.text!r}", tok.line, tok.col)


def _split_statements(tokens: list[_Token]) -> list[list[_Token]]:
    statements: list[list[_Token]] = []
    current: list[_Token] = []
    for tok in tokens:
        if tok.text == ";":
            if current:
                statements.append(current)
                current = []
        else:
            current.append(tok)
    if current:
        statements.append(current)
    return statements


def parse_problem(text: str) -> ProblemInstance:
    """Parse a problem file into a validated instance."""
    tokens = _tokenize(text)
    if not tokens:
        raise ProblemFileError("empty problem file", 1, 1)
    statements = _split_statements(tokens)

    declarations: list[tuple[str, str, _Token]] = []
    body: list[list[_Token]] = []
    in_vars = False
    for stmt in statements:
        head = stmt[0]
        if head.kind == "name" and head.text == "vars":
            in_vars = True
            stmt = stmt[1:]
            if not stmt:
                raise ProblemFileError("empty vars declaration", head.line, head.col)
        elif head.kind == "name" and head.text in ("minimize", "st"):
            in_vars = False
            body.append(stmt)
            continue
        elif not in_vars:
            raise ProblemFileError(
                f"unexpected statement starting with {head.text!r}", head.line, head.col
            )
        # declaration: NAME : BLOCK
        if len(stmt) != 3 or stmt[0].kind != "name" or stmt[1].text != ":" or stmt[2].kind != "name":
            tok = stmt[0]
            raise ProblemFileError(
                "variable declaration must look like 'x : X'", tok.line, tok.col
            )
        block = stmt[2].text.upper()
        if block not in ("X", "Y", "Z"):
            raise ProblemFileError(
                f"block must be X, Y or Z, got {stmt[2].text!r}", stmt[2].line, stmt[2].col
            )
        declarations.append((stmt[0].text, block, stmt[0]))

    if not declarations:
        raise ProblemFileError("no variable declarations", 1, 1)
    seen = set()
    for name, _, tok in declarations:
        if name in seen:
            raise ProblemFileError(f"duplicate variable {name!r}", tok.line, tok.col)
        seen.add(name)
    by_block = {"X": [], "Y": [], "Z": []}
    for name, block, _ in declarations:
        by_block[block].append(name)
    names = tuple(by_block["X"] + by_block["Y"] + by_block["Z"])
    layout = BlockLayout(len(by_block["X"]), len(by_block["Y"]), len(by_block["Z"]), names)

    objective: Polynomial | None = None
    constraints: list[tuple[str, Polynomial, _Token]] = []
    for stmt in body:
        head = stmt[0]
        if head.text == "minimize":
            if objective is not None:
                raise ProblemFileError("multiple minimize statements", head.line, head.col)
            if len(stmt) == 1:
                raise ProblemFileError("empty objective", head.line, head.col)
            objective = _ExprParser(stmt[1:], layout).parse()
        else:  # st
            if len(stmt) < 3 or stmt[1].kind != "name" or stmt[2].text != ":":
                raise ProblemFileError(
                    "constraint must look like 'st name: poly >= 0'", head.line, head.col
                )
            name = stmt[1].text
            rest = stmt[3:]
            ge_at = next((i for i, t in enumerate(rest) if t.kind == "ge"), None)
            if ge_at is None or ge_at == 0:
                raise ProblemFileError("constraint needs '>= 0'", head.line, head.col)
            rhs = rest[ge_at + 1 :]
            if len(rhs) != 1 or rhs[0].kind != "number" or _number(rhs[0]) != 0:
                tok = rhs[0] if rhs else rest[ge_at]
                raise ProblemFileError("right-hand side must be 0", tok.line, tok.col)
            poly = _ExprParser(rest[:ge_at], layout).parse()
            constraints.append((name, poly, stmt[1]))

    if objective is None:
        raise ProblemFileError("missing minimize statement", 1, 1)

    g_list, g_names, h_list, h_names = [], [], [], []
    for name, poly, tok in constraints:
        if poly.is_supported_on("xy"):
            g_list.append(poly)
            g_names.append(name)
        elif poly.is_supported_on("yz"):
            h_list.append(poly)
            h_names.append(name)
        else:
            raise ProblemFileError(
                f"constraint {name} mixes X and Z variables", tok.line, tok.col
            )

    return ProblemInstance(
        layout,
        objective,
        tuple(g_list),
        tuple(h_list),
        g_names=tuple(g_names),
        h_names=tuple(h_names),
    )


# -- rendering ---------------------------------------------------------------

def _fmt_bound(bound: float | None) -> str:
    return "-" if bound is None else format(bound, ".9g")


def render_text(result: HierarchyResult) -> str:
    lines = [f"variant: {result.variant}"]
    header = f"{'r':>4}  {'bound':>16}  {'status':<18} {'gap':>10}  {'blocks':>6}  {'max_block':>9}  {'ms':>9}"
    lines.append(header)
    flagged = False
    for row in result.rows:
        mark = " *" if row.monotonicity_violated else ""
        if row.error is not None:
            lines.append(
                f"{row.r:>4}  {'-':>16}  {row.status:<18} {'-':>10}  {0:>6}  {0:>9}  {row.ms:>9.1f}"
            )
            lines.append(f"      error: {row.error}")
            continue
        gap = "-" if row.gap is None else format(row.gap, ".1e")
        lines.append(
            f"{row.r:>4}  {_fmt_bound(row.bound):>16}  {row.status + mark:<18} {gap:>10}  "
            f"{row.blocks:>6}  {row.max_block:>9}  {row.ms:>9.1f}"
        )
        flagged = flagged or row.monotonicity_violated
    if flagged:
        lines.append("  (*) bound decreased from the previous order beyond tolerance")
    if result.oracle is not None:
        o = result.oracle
        point = ", ".join(format(v, ".6g") for v in o.argmin)
        lines.append(
            f"oracle minimum: {format(o.minimum, '.9g')} at ({point}) "
            f"[step {o.step:g}, {o.feasible_count} feasible points]"
        )
        for r, slack in result.slacks:
            lines.append(f"  slack at r={r}: {format(slack, '.3e')}")
    return "\n".join(lines)


def render_csv(result: HierarchyResult) -> str:
    lines = ["r,bound,status,gap,blocks,max_block,ms"]
    for row in result.rows:
        bound = "" if row.bound is None else format(row.bound, ".9g")
        gap = "" if row.gap is None else format(row.gap, ".3e")
        lines.append(
            f"{row.r},{bound},{row.status},{gap},{row.blocks},{row.max_block},{row.ms:.1f}"
        )
    if result.oracle is not None:
        lines.append(f"oracle,{format(result.oracle.minimum, '.9g')},,,,,")
    return "\n".join(lines)


# -- entry point --------------------------------------------------------------

def _parse_box(text: str) -> list[tuple[float, float]]:
    box = []
    for part in text.split(","):
        lo, _, hi = part.partition(":")
        if not _:
            raise ConfigError(f"bad interval {part!r}; expected lo:hi")
        box.append((float(lo), float(hi)))
    return box


def _build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsepos",
        description="Lower bounds and positivity certificates for polynomial "
        "optimization with separated X and Z variable blocks.",
    )
    parser.add_argument("problem", help="path to a problem file")
    parser.add_argument("--variant", choices=VARIANTS, default="schmudgen-sparse")
    parser.add_argument("--order", type=int, default=None, help="first relaxation order")
    parser.add_argument("--max-order", type=int, default=None, help="last relaxation order")
    parser.add_argument("--tol", type=float, default=1e-8, help="solver tolerance")
    parser.add_argument("--certificate", default=None, metavar="PATH",
                        help="write the best solved order's certificate as JSON once it verifies")
    parser.add_argument("--oracle-box", default=None, metavar="LO:HI,...",
                        help="per-variable intervals for the grid reference minimum")
    parser.add_argument("--oracle-step", type=float, default=None)
    parser.add_argument("--krivine-bounds", default=None, metavar="B1,...",
                        help="upper bounds normalizing each constraint (g family first)")
    parser.add_argument("--format", choices=("text", "csv"), default="text")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_arg_parser()
    args = parser.parse_args(argv)

    try:
        with open(args.problem, "r", encoding="utf-8") as handle:
            instance = parse_problem(handle.read())
    except (OSError, UnicodeDecodeError, ProblemFileError, CouplingError, BlockSupportError,
            LayoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    config = RunConfig(
        variant=args.variant,
        r_min=args.order,
        r_max=args.max_order,
        tol=args.tol,
        oracle_step=args.oracle_step,
    )
    try:
        if args.oracle_box is not None:
            config.oracle_box = _parse_box(args.oracle_box)
        if args.krivine_bounds is not None:
            config.krivine_bounds = [Fraction(b) for b in args.krivine_bounds.split(",")]
        result = run_hierarchy(instance, config)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    print(render_csv(result) if args.format == "csv" else render_text(result))

    if args.certificate and result.certificate is not None:
        # A file is written only when its text loads back as this certificate,
        # and the loaded copy is the one verified.
        cert = result.certificate
        text = certificate_to_json(cert)
        try:
            back = certificate_from_json(text, instance)
            if (back.lam, back.scaling) != (cert.lam, cert.scaling):
                raise ValueError("it loads with another lambda or scaling")
        except ValueError as exc:
            print(f"error: certificate not written, its JSON does not read back: {exc}",
                  file=sys.stderr)
            return EXIT_SOLVER
        check = verify(back, instance)
        if not check.passed:
            print(f"error: certificate not written, it does not verify: residual "
                  f"{check.residual:.3e}, psd_ok={check.psd_ok}, "
                  f"coupling_free={check.coupling_free}", file=sys.stderr)
            return EXIT_SOLVER
        try:
            with open(args.certificate, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG

    return result.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
