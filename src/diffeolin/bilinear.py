"""Smooth bilinear maps and the curry/uncurry correspondence.

A bilinear map into a fine space is smooth iff every coefficient slice with
a singular direction on either side vanishes: pairing a singular generator
with a constant plot produces |x| times a constant, which is smooth only if
zero.  Diagonal generator pairs contribute |x|*|x| = x^2 terms and impose
nothing, so the binding constraints come from the mixed pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .linalg import Subspace, Vector, kron_vector
from .spaces import (
    Coarse,
    DiffSpace,
    DiffeolinError,
    DimensionMismatchError,
    Fine,
    UnsupportedDescriptorError,
    Verdict,
    singular_span,
)


@dataclass(frozen=True)
class BilinearForm:
    """Bilinear map left x right -> codomain, stored as the coefficient array
    b(v_i, w_j) in Q^q, indexed (i, j)."""

    left: DiffSpace
    right: DiffSpace
    codomain: DiffSpace
    coefficients: tuple[tuple[Vector, ...], ...]

    def __post_init__(self) -> None:
        if len(self.coefficients) != self.left.dim:
            raise DimensionMismatchError("coefficient rows != left dimension")
        for row in self.coefficients:
            if len(row) != self.right.dim:
                raise DimensionMismatchError("coefficient columns != right dimension")
            for value in row:
                if len(value) != self.codomain.dim:
                    raise DimensionMismatchError("coefficient vector != codomain dimension")

    def apply(self, u: Sequence, w: Sequence) -> Vector:
        q = self.codomain.dim
        out = [Fraction(0)] * q
        for i, ui in enumerate(u):
            if not ui:
                continue
            for j, wj in enumerate(w):
                if not wj:
                    continue
                c = Fraction(ui) * Fraction(wj)
                for k in range(q):
                    out[k] += c * self.coefficients[i][j][k]
        return tuple(out)

    def left_slice(self, u: Sequence) -> tuple[Vector, ...]:
        """The family b(u, v_j) for all j."""
        return tuple(
            tuple(
                sum((Fraction(ui) * self.coefficients[i][j][k] for i, ui in enumerate(u)),
                    Fraction(0))
                for k in range(self.codomain.dim)
            )
            for j in range(self.right.dim)
        )

    def right_slice(self, w: Sequence) -> tuple[Vector, ...]:
        return tuple(
            tuple(
                sum((Fraction(wj) * self.coefficients[i][j][k] for j, wj in enumerate(w)),
                    Fraction(0))
                for k in range(self.codomain.dim)
            )
            for i in range(self.left.dim)
        )

    def transpose(self) -> "BilinearForm":
        coeffs = tuple(
            tuple(self.coefficients[i][j] for i in range(self.left.dim))
            for j in range(self.right.dim)
        )
        return BilinearForm(self.right, self.left, self.codomain, coeffs)


def form_from_flat(left: DiffSpace, right: DiffSpace, codomain: DiffSpace,
                   flat: Sequence) -> BilinearForm:
    n, m, q = left.dim, right.dim, codomain.dim
    if len(flat) != n * m * q:
        raise DimensionMismatchError("flat coefficient length mismatch")
    it = iter(flat)
    coeffs = tuple(
        tuple(tuple(Fraction(next(it)) for _ in range(q)) for _ in range(m))
        for _ in range(n)
    )
    return BilinearForm(left, right, codomain, coeffs)


def is_smooth_bilinear(b: BilinearForm) -> Verdict:
    desc = b.codomain.diffeology
    if isinstance(desc, Coarse):
        return Verdict.SMOOTH
    if not isinstance(desc, Fine):
        raise UnsupportedDescriptorError(
            "bilinear smoothness requires a fine or coarse codomain"
        )
    for s in singular_span(b.left).basis:
        if any(any(v) for v in b.left_slice(s)):
            return Verdict.NOT_SMOOTH
    for t in singular_span(b.right).basis:
        if any(any(v) for v in b.right_slice(t)):
            return Verdict.NOT_SMOOTH
    return Verdict.SMOOTH


def smooth_bilinear_basis(v: DiffSpace, w: DiffSpace) -> Subspace:
    """Basis of the smooth bilinear maps v x v -> w over the n*n*q flattened
    coordinates.  For a fine codomain these are exactly the forms vanishing
    whenever either argument meets the singular span."""
    n, q = v.dim, w.dim
    total = n * n * q
    desc = w.diffeology
    if isinstance(desc, Coarse):
        return Subspace.full(total)
    if not isinstance(desc, Fine):
        raise UnsupportedDescriptorError(
            "smooth bilinear basis requires a fine or coarse codomain"
        )
    ann = singular_span(v).annihilator()
    rows = []
    for phi in ann.basis:
        for psi in ann.basis:
            pair = kron_vector(phi, psi)
            for k in range(q):
                rows.append(tuple(
                    pair[idx // q] if idx % q == k else Fraction(0)
                    for idx in range(total)
                ))
    return Subspace.from_rows(total, rows)


@dataclass(frozen=True)
class CurriedMap:
    """Linear map v -> L(v, w) given by its blocks: blocks[i] is the matrix
    (codomain.dim x v.dim) of the image of the i-th basis vector."""

    space: DiffSpace
    codomain: DiffSpace
    blocks: tuple[tuple[Vector, ...], ...]

    def __post_init__(self) -> None:
        if len(self.blocks) != self.space.dim:
            raise DimensionMismatchError("one block per domain basis vector required")
        for block in self.blocks:
            if len(block) != self.codomain.dim:
                raise DimensionMismatchError("block rows != codomain dimension")
            for row in block:
                if len(row) != self.space.dim:
                    raise DimensionMismatchError("block columns != domain dimension")


def curry(b: BilinearForm) -> CurriedMap:
    """View a smooth bilinear form as a linear map v -> L(v, w).

    The image of each basis vector kills the singular span (the form was
    smooth in the second slot), and the map itself passes the functional-
    diffeology criterion, which reduces to the bilinear condition already
    checked.
    """
    if b.left is not b.right and b.left != b.right:
        raise DiffeolinError("curry requires matching left and right spaces")
    if is_smooth_bilinear(b) is not Verdict.SMOOTH:
        raise DiffeolinError("curry requires a Smooth bilinear form")
    return _curry_unchecked(b)


def _curry_unchecked(b: BilinearForm) -> CurriedMap:
    q = b.codomain.dim
    blocks = tuple(
        tuple(
            tuple(b.coefficients[i][j][k] for j in range(b.right.dim))
            for k in range(q)
        )
        for i in range(b.left.dim)
    )
    return CurriedMap(b.left, b.codomain, blocks)


def uncurry(g: CurriedMap) -> BilinearForm:
    """Inverse of curry: coefficients b(v_i, v_j) = G(v_i)(v_j)."""
    q = g.codomain.dim
    coeffs = tuple(
        tuple(
            tuple(g.blocks[i][k][j] for k in range(q))
            for j in range(g.space.dim)
        )
        for i in range(g.space.dim)
    )
    return BilinearForm(g.space, g.space, g.codomain, coeffs)


def curried_is_smooth(g: CurriedMap) -> Verdict:
    """Smoothness of a curried map in the reduced sense: the functional-
    diffeology criterion turns it into smoothness of the uncurried form."""
    return is_smooth_bilinear(uncurry(g))
