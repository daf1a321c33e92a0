"""Exact symbolic algebra of one-variable functions spanned by x^k and |x|*x^k.

Every element is a finite rational linear combination of the atoms

    x^k         (k >= 0, smooth everywhere)
    |x|*x^k     (k >= 0, k times continuously differentiable at 0, no more)

The span is closed under addition, scaling, multiplication and the
substitution x -> c*x, because |x|^2 = x^2 and |c*x| = |c|*|x|.  All
coefficients are `fractions.Fraction`; evaluation at rational points is
exact.  Smoothness of an element is decidable: it is smooth iff the
|x|-part (the "singular residue") vanishes.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Mapping
from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]


class Atom(namedtuple("Atom", "is_abs degree")):
    """x^degree if is_abs is False, else |x|*x^degree.  A tuple, so that a
    ``FunctionExpr``'s terms merge, sort and hash in C; equals ``(is_abs, degree)``."""

    __slots__ = ()

    def __new__(cls, is_abs: bool, degree: int) -> "Atom":
        if degree < 0:
            raise ValueError(f"atom degree must be >= 0, got {degree}")
        return tuple.__new__(cls, (is_abs, degree))

    def evaluate(self, t: Fraction) -> Fraction:
        value = t**self.degree
        if self.is_abs:
            value *= abs(t)
        return value

    def evaluate_float(self, x: float) -> float:
        value = x**self.degree
        if self.is_abs:
            value *= abs(x)
        return value


def mono(degree: int) -> Atom:
    return Atom(False, degree)


def abs_mono(degree: int) -> Atom:
    return Atom(True, degree)


def _multiply_atoms(a: Atom, b: Atom) -> Atom:
    # |x|*|x| = x^2, so two abs atoms merge into a plain monomial.
    if a.is_abs and b.is_abs:
        return Atom(False, a.degree + b.degree + 2)
    return Atom(a.is_abs or b.is_abs, a.degree + b.degree)


class FunctionExpr:
    """Canonical-form element of the atom algebra.

    Stores a sorted tuple of (Atom, nonzero Fraction) pairs; two expressions
    are equal iff the tuples are equal.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Atom, Rational] | Iterable[tuple[Atom, Rational]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        merged: dict[Atom, Fraction] = {}
        for atom, coeff in items:
            c = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
            if atom in merged:
                c += merged.pop(atom)
            if c:
                merged[atom] = c
        object.__setattr__(self, "_terms", tuple(sorted(merged.items())))

    @property
    def terms(self) -> tuple[tuple[Atom, Fraction], ...]:
        return self._terms

    @staticmethod
    def zero() -> "FunctionExpr":
        return FunctionExpr()

    @staticmethod
    def _single(atom: Atom, coeff: Rational) -> "FunctionExpr":
        """coeff times one atom, already in canonical form: no merge or sort."""
        c = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
        expr = object.__new__(FunctionExpr)
        object.__setattr__(expr, "_terms", ((atom, c),) if c else ())
        return expr

    @staticmethod
    def constant(c: Rational) -> "FunctionExpr":
        return FunctionExpr._single(mono(0), c)

    @staticmethod
    def monomial(degree: int, coeff: Rational = 1) -> "FunctionExpr":
        return FunctionExpr._single(mono(degree), coeff)

    @staticmethod
    def abs_monomial(degree: int, coeff: Rational = 1) -> "FunctionExpr":
        return FunctionExpr._single(abs_mono(degree), coeff)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FunctionExpr):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(self._terms)

    def __add__(self, other: "FunctionExpr") -> "FunctionExpr":
        if not isinstance(other, FunctionExpr):
            return NotImplemented
        return FunctionExpr(list(self._terms) + list(other._terms))

    def __sub__(self, other: "FunctionExpr") -> "FunctionExpr":
        return self + (-other)

    def __neg__(self) -> "FunctionExpr":
        return FunctionExpr([(a, -c) for a, c in self._terms])

    def scale(self, c: Rational) -> "FunctionExpr":
        c = Fraction(c)
        if not c:
            return FunctionExpr()
        return FunctionExpr([(a, k * c) for a, k in self._terms])

    def __mul__(self, other: "FunctionExpr | Rational") -> "FunctionExpr":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, FunctionExpr):
            return NotImplemented
        out: list[tuple[Atom, Fraction]] = []
        for a, ca in self._terms:
            for b, cb in other._terms:
                out.append((_multiply_atoms(a, b), ca * cb))
        return FunctionExpr(out)

    __rmul__ = __mul__

    def compose_scale(self, c: Rational) -> "FunctionExpr":
        """Return x -> f(c*x).  Stays in the algebra since |c*x| = |c|*|x|."""
        c = Fraction(c)
        out = []
        for atom, coeff in self._terms:
            factor = c**atom.degree
            if atom.is_abs:
                factor *= abs(c)
            out.append((atom, coeff * factor))
        return FunctionExpr(out)

    def evaluate(self, t: Rational) -> Fraction:
        t = Fraction(t)
        return sum((c * a.evaluate(t) for a, c in self._terms), Fraction(0))

    def evaluate_float(self, x: float) -> float:
        return sum(float(c) * a.evaluate_float(x) for a, c in self._terms)

    def singular_residue(self) -> dict[int, Fraction]:
        """Coefficient map of the |x|*x^k part; empty iff the function is smooth."""
        return {a.degree: c for a, c in self._terms if a.is_abs}

    def is_smooth(self) -> bool:
        return not any(atom.is_abs for atom, _ in self._terms)

    def __repr__(self) -> str:
        from .exprparse import format_expr

        return f"FunctionExpr({format_expr(self)!r})"
