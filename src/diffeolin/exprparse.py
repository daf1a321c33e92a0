"""Parser and printer for the atom-algebra expression syntax.

Grammar (whitespace insignificant, no float literals):

    expr    :=  ['+'|'-'] term (('+'|'-') term)*
    term    :=  factor ('*' factor)*
    factor  :=  RATIONAL | 'x' ['^' INT] | 'abs' '(' 'x' ')'
    RATIONAL := INT ['/' INT]
    INT     :=  ('0'-'9')+

Only the ASCII digits form integers: any other character that Unicode
counts as a digit (``²``, ``٣``) is an unexpected character.

Examples: ``3*x^2``, ``abs(x)``, ``abs(x)*x^3``, ``-1/2*abs(x)``.
Products are evaluated in the algebra, so ``abs(x)*abs(x)`` parses to
``x^2``.  Exponents above ``MAX_DEGREE``, products of higher degree and
integers of more than ``MAX_DIGITS`` digits are rejected to bound runtimes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .atoms import FunctionExpr

MAX_DEGREE = 64
MAX_DIGITS = 4300
_DIGITS = frozenset("0123456789")


class ParseError(ValueError):
    """Syntax error with position and the expected-token set."""

    def __init__(self, message: str, position: int, expected: tuple[str, ...] = ()):
        self.position = position
        self.expected = expected
        suffix = f" (expected one of: {', '.join(expected)})" if expected else ""
        super().__init__(f"{message} at position {position}{suffix}")


@dataclass(frozen=True)
class _Token:
    kind: str  # 'int', 'x', 'abs', '+', '-', '*', '/', '^', '(', ')', 'end'
    text: str
    position: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _DIGITS:
            start = i
            while i < n and text[i] in _DIGITS:
                i += 1
            if i < n and text[i] == ".":
                raise ParseError("float literals are not allowed", i)
            if i - start > MAX_DIGITS:
                raise ParseError(f"integer literal exceeds {MAX_DIGITS} digits", start)
            tokens.append(_Token("int", text[start:i], start))
            continue
        if c == ".":
            raise ParseError("float literals are not allowed", i)
        if text.startswith("abs", i):
            tokens.append(_Token("abs", "abs", i))
            i += 3
            continue
        if c == "x":
            tokens.append(_Token("x", "x", i))
            i += 1
            continue
        if c in "+-*/^()":
            tokens.append(_Token(c, c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def take(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"unexpected token {tok.text or 'end of input'!r}",
                             tok.position, (kind,))
        self.index += 1
        return tok

    def parse(self) -> FunctionExpr:
        result = self.parse_term(self.sign())
        while self.peek().kind in "+-":
            op = self.take(self.peek().kind)
            term = self.parse_term(Fraction(1 if op.kind == "+" else -1))
            result = result + term
        end = self.peek()
        if end.kind != "end":
            raise ParseError(f"unexpected token {end.text!r}", end.position,
                             ("+", "-", "*", "end of input"))
        return result

    def sign(self) -> Fraction:
        if self.peek().kind in "+-":
            return Fraction(1 if self.take(self.peek().kind).kind == "+" else -1)
        return Fraction(1)

    def parse_term(self, sign: Fraction) -> FunctionExpr:
        result = self.parse_factor() * sign
        while self.peek().kind == "*":
            tok = self.take("*")
            result = result * self.parse_factor()
            if any(atom.degree > MAX_DEGREE for atom, _ in result.terms):
                raise ParseError(f"product degree exceeds the maximum {MAX_DEGREE}",
                                 tok.position)
        return result

    def parse_factor(self) -> FunctionExpr:
        tok = self.peek()
        if tok.kind == "int":
            return FunctionExpr.constant(self.rational())
        if tok.kind == "x":
            self.take("x")
            return FunctionExpr.monomial(self.exponent())
        if tok.kind == "abs":
            self.take("abs")
            self.take("(")
            self.take("x")
            self.take(")")
            return FunctionExpr.abs_monomial(0)
        raise ParseError(f"unexpected token {tok.text or 'end of input'!r}",
                         tok.position, ("number", "x", "abs(x)"))

    def rational(self) -> Fraction:
        numerator = int(self.take("int").text)
        if self.peek().kind == "/":
            self.take("/")
            tok = self.take("int")
            denominator = int(tok.text)
            if denominator == 0:
                raise ParseError("zero denominator", tok.position)
            return Fraction(numerator, denominator)
        return Fraction(numerator)

    def exponent(self) -> int:
        if self.peek().kind != "^":
            return 1
        self.take("^")
        tok = self.take("int")
        degree = int(tok.text)
        if degree > MAX_DEGREE:
            raise ParseError(f"exponent {degree} exceeds the maximum {MAX_DEGREE}",
                             tok.position)
        return degree


def parse_expr(text: str) -> FunctionExpr:
    return _Parser(text).parse()


def format_expr(expr: FunctionExpr) -> str:
    """Canonical text form; reparses to an equal expression."""
    if not expr:
        return "0"
    parts = []
    for atom, coeff in expr.terms:
        factors = []
        if atom.is_abs:
            factors.append("abs(x)")
        if atom.degree == 1:
            factors.append("x")
        elif atom.degree > 1:
            factors.append(f"x^{atom.degree}")
        magnitude = abs(coeff)
        if magnitude != 1 or not factors:
            factors.insert(0, str(magnitude))
        body = "*".join(factors)
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(parts)
