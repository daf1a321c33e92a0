"""Smooth bilinear maps and the curry/uncurry correspondence.

By the universal property of the tensor product diffeology, a bilinear map
b: V x W -> Z is smooth exactly when the linear map V (x) W -> Z it induces
is smooth, so a ``BilinearForm`` is that map's matrix, and its verdict is
the engine's one test (``spaces.first_outside``) on the rows V (x) W
presents, the block rows of its definition, mapped by that matrix; no step
of V (x) W is built.  Pairing a row of one factor with a constant plot of
the other gives the block rows, and diagonal generator pairs only
contribute |x|*|x| = x^2 terms, which impose nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .hom import smooth_hom_basis
from .linalg import (
    Matrix,
    Subspace,
    Vector,
    identity,
    image_support,
    integer_columns,
    integer_family,
    kron_vector,
    matvec,
    vector,
)
from .spaces import (
    DiffSpace,
    DiffeolinError,
    DimensionMismatchError,
    Verdict,
    first_outside,
    presentation,
)
from .tensor import tensor_product


@dataclass(frozen=True)
class BilinearForm:
    """Bilinear map left x right -> codomain, stored as its induced map on
    ``product`` = V (x) W: entry (k, i*m + j) of ``matrix`` is b(v_i, w_j)_k."""

    left: DiffSpace
    right: DiffSpace
    codomain: DiffSpace
    matrix: Matrix
    product: DiffSpace = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.matrix) != self.codomain.dim:
            raise DimensionMismatchError("matrix rows != codomain dimension")
        if any(len(row) != self.left.dim * self.right.dim for row in self.matrix):
            raise DimensionMismatchError("matrix columns != left dimension * right dimension")
        object.__setattr__(self, "product", tensor_product(self.left, self.right))

    def apply(self, u: Sequence, w: Sequence) -> Vector:
        if len(u) != self.left.dim or len(w) != self.right.dim:
            raise DimensionMismatchError(
                f"arguments have {len(u)} and {len(w)} entries, "
                f"the spaces have dimensions {self.left.dim} and {self.right.dim}")
        return matvec(self.matrix, kron_vector(vector(u), vector(w)))

    @cached_property
    def verdict(self) -> Verdict:
        """``is_smooth_bilinear``'s answer, decided on first use and kept:
        ``first_outside`` on the presented rows (d, r) of ``product``, the
        block rows of its definition, each image mapped on ints through the
        columns of the matrix, as ``LinearMap`` maps supports."""
        columns = integer_columns(self.matrix, self.product.dim)
        rows = ((d, image_support(columns, s)) for d, s in presentation(self.product).supports)
        return Verdict.SMOOTH if first_outside(self.codomain, rows) is None else Verdict.NOT_SMOOTH

    def left_slice(self, u: Sequence) -> tuple[tuple[int, ...], ...]:
        """A positive integer multiple of the family b(u, w_j) for all j."""
        return integer_family([self.apply(u, e) for e in identity(self.right.dim)])

    def right_slice(self, w: Sequence) -> tuple[tuple[int, ...], ...]:
        """A positive integer multiple of the family b(v_i, w) for all i."""
        return integer_family([self.apply(e, w) for e in identity(self.left.dim)])


def form_from_flat(left: DiffSpace, right: DiffSpace, codomain: DiffSpace,
                   flat: Sequence) -> BilinearForm:
    """The form whose induced matrix is ``flat`` row by row: b(v_i, w_j)_k =
    flat[k*n*m + i*m + j], as in ``smooth_hom_basis`` on left (x) right."""
    nm, q = left.dim * right.dim, codomain.dim
    if len(flat) != nm * q:
        raise DimensionMismatchError("flat coefficient length mismatch")
    entries = [x if isinstance(x, Fraction) else Fraction(x) for x in flat]
    return BilinearForm(left, right, codomain,
                        tuple(tuple(entries[k * nm:(k + 1) * nm]) for k in range(q)))


def is_smooth_bilinear(b: BilinearForm) -> Verdict:
    """``check_smooth_linear``'s criterion for the induced map V (x) W -> Z on
    the block rows of the definition of V (x) W (module docstring), decided
    once per form and kept on it."""
    return b.verdict


def smooth_bilinear_basis(v: DiffSpace, w: DiffSpace) -> Subspace:
    """Basis of the smooth bilinear maps v x v -> w over the coordinates of
    ``form_from_flat``: the smooth linear maps v (x) v -> w, spanned from
    the closed-form flag of v (x) v and that of w (``smooth_hom_basis``)."""
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
        if any(len(block) != self.codomain.dim for block in self.blocks):
            raise DimensionMismatchError("block rows != codomain dimension")
        if any(len(row) != self.space.dim for block in self.blocks for row in block):
            raise DimensionMismatchError("block columns != domain dimension")

    @cached_property
    def uncurried(self) -> BilinearForm:
        """b(v_i, v_j) = G(v_i)(v_j): row k of the induced matrix is row k of
        every block in turn, concatenated once and kept."""
        return BilinearForm(self.space, self.space, self.codomain,
                            tuple(tuple(x for block in self.blocks for x in block[k])
                                  for k in range(self.codomain.dim)))


def curry(b: BilinearForm) -> CurriedMap:
    """View a smooth bilinear form as a linear map v -> L(v, w).  The
    verdict is read off the form, so one that ``is_smooth_bilinear`` judged
    is not decided again.  The curried map's smoothness is still not a check
    of its own (see ``curried_is_smooth``)."""
    if b.left is not b.right and b.left != b.right:
        raise DiffeolinError("curry requires matching left and right spaces")
    if b.verdict is not Verdict.SMOOTH:
        raise DiffeolinError("curry requires a Smooth bilinear form")
    n = b.left.dim
    return CurriedMap(b.left, b.codomain,
                      tuple(tuple(row[i * n:(i + 1) * n] for row in b.matrix) for i in range(n)))


def uncurry(g: CurriedMap) -> BilinearForm:
    """Inverse of curry: b(v_i, v_j) = G(v_i)(v_j)."""
    return g.uncurried


def curried_is_smooth(g: CurriedMap) -> Verdict:
    """Smoothness of a curried map in the reduced sense: the verdict read off
    its uncurried form, decided at most once per map.  This is circular (the
    bilinear question asked again) until L(v, w) is a space of its own."""
    return g.uncurried.verdict
