"""Smooth bilinear maps and the curry/uncurry correspondence.

By the universal property of the tensor product diffeology, a bilinear map
b: V x W -> Z is smooth exactly when the linear map V (x) W -> Z it induces
(``BilinearForm.matrix``) is smooth: ``check_smooth_linear``'s criterion on
the block rows of V (x) W, for every codomain Z.  Pairing a row of one
factor (coarse rows included) with a constant plot of the other gives the
block rows, and diagonal generator pairs only contribute |x|*|x| = x^2
terms, which impose nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .hom import smooth_hom_basis
from .linalg import Matrix, Subspace, Vector, _integer_row, identity, kron_vector, matvec, vector
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

    @cached_property
    def matrix(self) -> Matrix:
        """The induced map V (x) W -> Z: entry (k, i*m + j) = b(v_i, w_j)_k."""
        return _transpose([value for row in self.coefficients for value in row], self.codomain.dim)

    def apply(self, u: Sequence, w: Sequence) -> Vector:
        return matvec(self.matrix, kron_vector(vector(u), vector(w)))

    @cached_property
    def verdict(self) -> Verdict:
        """``is_smooth_bilinear``'s answer, decided on first use and kept."""
        return _decide(self)

    def left_slice(self, u: Sequence) -> tuple[tuple[int, ...], ...]:
        """A positive integer multiple of the family b(u, w_j) for all j."""
        return _integer_family([self.apply(u, e) for e in identity(self.right.dim)])

    def right_slice(self, w: Sequence) -> tuple[tuple[int, ...], ...]:
        """A positive integer multiple of the family b(v_i, w) for all i."""
        return _integer_family([self.apply(e, w) for e in identity(self.left.dim)])


def _integer_family(family: Sequence[Vector]) -> tuple[tuple[int, ...], ...]:
    """The vectors times the lcm of all their denominators, as ints."""
    entries = iter(_integer_row([x for value in family for x in value]))
    return tuple(tuple(next(entries) for _ in value) for value in family)


def form_from_flat(left: DiffSpace, right: DiffSpace, codomain: DiffSpace,
                   flat: Sequence) -> BilinearForm:
    """The form whose induced matrix is ``flat`` row by row: b(v_i, w_j)_k =
    flat[k*n*m + i*m + j], as in ``smooth_hom_basis`` on left (x) right."""
    n, m, q = left.dim, right.dim, codomain.dim
    if len(flat) != n * m * q:
        raise DimensionMismatchError("flat coefficient length mismatch")
    entries = [x if isinstance(x, Fraction) else Fraction(x) for x in flat]
    cells = _transpose([entries[k * n * m:(k + 1) * n * m] for k in range(q)], n * m)
    return BilinearForm(left, right, codomain, tuple(cells[i * m:i * m + m] for i in range(n)))


def _transpose(rows: Sequence[Sequence], width: int) -> tuple:
    """zip(*rows), or ``width`` empty columns when there is no row."""
    return tuple(zip(*rows)) if rows else ((),) * width


def _decide(b: BilinearForm) -> Verdict:
    """The verdict of ``is_smooth_bilinear``, computed without caching.  It
    reads the factor presentations: presenting V (x) W anew for each form
    would cost more than deciding it."""
    cod = presentation(b.codomain)
    columns = _transpose(b.coefficients, b.right.dim)
    for factor, slices, other in ((b.left, b.coefficients, b.right.dim),
                                  (b.right, columns, b.left.dim)):
        for d, r in presentation(factor).rows:
            support = [(x, slices[i]) for i, x in enumerate(r) if x]
            for psi in cod.filtration_step(d).annihilator().basis:
                terms = [(x, p, s, k) for x, s in support for k, p in enumerate(psi) if p]
                if any(sum(x * p * s[t][k] for x, p, s, k in terms if s[t][k]) for t in range(other)):
                    return Verdict.NOT_SMOOTH
    return Verdict.SMOOTH


def is_smooth_bilinear(b: BilinearForm) -> Verdict:
    """``check_smooth_linear``'s criterion for the induced map V (x) W -> Z,
    read off the factor presentations without building V (x) W: for each row
    r presented at degree d >= -1 in either factor, the images b(r, e_j) and
    b(e_i, r) of the block rows r (x) e_j and e_i (x) r must lie in F_d(Z)
    (its coarse part for d = -1), so each psi in Ann(F_d(Z)) kills them, as in
    ``smooth_bilinear_basis``.  Only nonzero coefficients enter the sums, and
    the first nonzero value decides NotSmooth.  The verdict is kept on the
    form, so each form is decided once."""
    return b.verdict


def smooth_bilinear_basis(v: DiffSpace, w: DiffSpace) -> Subspace:
    """Basis of the smooth bilinear maps v x v -> w over the coordinates of
    ``form_from_flat``: the smooth linear maps v (x) v -> w, constrained on
    the closed-form presentation of v (x) v, whose dim S(v (x) v) rows are
    independent (``tensor`` module docstring)."""
    return smooth_hom_basis(tensor_product(v, v), w)


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

    @cached_property
    def uncurried(self) -> BilinearForm:
        """b(v_i, v_j) = G(v_i)(v_j), transposed from the blocks once and kept."""
        return BilinearForm(self.space, self.space, self.codomain,
                            tuple(_transpose(block, self.space.dim) for block in self.blocks))


def curry(b: BilinearForm) -> CurriedMap:
    """View a smooth bilinear form as a linear map v -> L(v, w).  The
    verdict is read off the form, so one that ``is_smooth_bilinear`` judged
    is not decided again.  The curried map's smoothness is still not a check
    of its own (see ``curried_is_smooth``)."""
    if b.left is not b.right and b.left != b.right:
        raise DiffeolinError("curry requires matching left and right spaces")
    if b.verdict is not Verdict.SMOOTH:
        raise DiffeolinError("curry requires a Smooth bilinear form")
    return CurriedMap(b.left, b.codomain, tuple(tuple(zip(*row)) for row in b.coefficients))


def uncurry(g: CurriedMap) -> BilinearForm:
    """Inverse of curry: coefficients b(v_i, v_j) = G(v_i)(v_j)."""
    return g.uncurried


def curried_is_smooth(g: CurriedMap) -> Verdict:
    """Smoothness of a curried map in the reduced sense: the verdict read off
    its uncurried form, decided at most once per map.  This is circular (the
    bilinear question asked again) until L(v, w) is a space of its own."""
    return g.uncurried.verdict
