"""Smooth bilinear maps and the curry/uncurry correspondence.

By the universal property of the tensor product diffeology, a bilinear map
b: V x W -> Z is smooth exactly when the linear map V (x) W -> Z it induces
is smooth.  Smoothness of b is therefore ``check_smooth_linear``'s
criterion on the block presentation of V (x) W, for every codomain Z:
pairing a singular or coarse direction of one factor with a constant plot
of the other gives the block directions, and diagonal generator pairs only
contribute |x|*|x| = x^2 terms, which impose nothing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .hom import smooth_hom_basis
from .linalg import Subspace, Vector
from .spaces import (
    DiffSpace,
    DiffeolinError,
    DimensionMismatchError,
    Verdict,
    presentation,
)
from .tensor import tensor_product


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
        """The family b(u, w_j) for all j."""
        terms = [(Fraction(ui), row) for ui, row in zip(u, self.coefficients) if ui]
        return tuple(
            tuple(sum((c * row[j][k] for c, row in terms), Fraction(0))
                  for k in range(self.codomain.dim))
            for j in range(self.right.dim)
        )

    def right_slice(self, w: Sequence) -> tuple[Vector, ...]:
        """The family b(v_i, w) for all i."""
        terms = [(j, Fraction(wj)) for j, wj in enumerate(w) if wj]
        return tuple(
            tuple(sum((c * row[j][k] for j, c in terms), Fraction(0))
                  for k in range(self.codomain.dim))
            for row in self.coefficients
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
    """``check_smooth_linear``'s criterion for the induced map V (x) W -> Z,
    read off the factor presentations without building V (x) W.

    The block presentation of V (x) W has the directions c (x) e_j and
    e_i (x) c for coarse directions c of either factor, and r (x) e_j and
    e_i (x) r at degree d for each row r presented at degree d.  The induced
    map sends them to the slices b(c, e_j), b(e_i, c), b(r, e_j) and
    b(e_i, r); the first two must lie in the coarse part of Z, the others in
    its filtration step F_d.
    """
    left, right, cod = presentation(b.left), presentation(b.right), presentation(b.codomain)
    blocks = itertools.chain(
        ((cod.coarse, b.left_slice(c)) for c in left.coarse.basis),
        ((cod.coarse, b.right_slice(c)) for c in right.coarse.basis),
        ((cod.filtration_step(d), b.left_slice(r)) for d, r in left.rows),
        ((cod.filtration_step(d), b.right_slice(r)) for d, r in right.rows),
    )
    for target, images in blocks:
        if not all(target.contains(y) for y in images):
            return Verdict.NOT_SMOOTH
    return Verdict.SMOOTH


def smooth_bilinear_basis(v: DiffSpace, w: DiffSpace) -> Subspace:
    """Basis of the smooth bilinear maps v x v -> w over the n*n*q flattened
    coordinates (i, j, k) of ``form_from_flat``: the smooth linear maps
    v (x) v -> w, whose matrix entry (k, i*n + j) is reindexed to
    (i*n + j)*q + k."""
    n, q = v.dim, w.dim
    hom = smooth_hom_basis(tensor_product(v, v), w)
    return Subspace.from_rows(n * n * q, [
        tuple(row[k * n * n + p] for p in range(n * n) for k in range(q))
        for row in hom.basis
    ])


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
