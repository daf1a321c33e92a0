"""Tensor product diffeology and the canonical maps around it.

Basis convention: v_i (x) w_j sits at flat index i*m + j (row-major).  The
plots of V (x) W are reached by mixed generator/constant plot pairs, so its
flag is the block flag

    F_e(V (x) W) = F_e V (x) R^m  +  R^n (x) F_e W,

with the coarse part at e = -1 and the singular span S(V) (x) R^m +
R^n (x) S(W) at the top; pairs of singular generators only add
|x|*|x| = x^2 terms, which are smooth (the test suite checks the residues of
``product_plot`` on generator pairs).  Like every other space, a product
is presented by the block rows of its definition
(``spaces.TensorOf.present``), and each step is built on first ask, in
RREF from the factors' RREF steps (``linalg.tensor_span``), so any two
spaces tensor with no elimination over the n*m coordinates.  The Kronecker
product of RREF rows with pivots p and q is an RREF row with pivot
p*m + q, zero at every other such pivot, so the RREF basis of
Ann F_e(V (x) W) = Ann F_e V (x) Ann F_e W is the Kronecker products of the
factor bases, row-major (``linalg.kron_span``): every step carries it, and
neither the dual nor a NotPlot certificate computes a nullspace.  Rows,
steps and annihilators are built on ints, so presenting, dualising and
certifying a product builds no Fraction.  ``tensor_product(v, w)`` is one
space per live factor pair: a memo on ``v`` maps ``id(w)`` to a weak
reference to the product, and the product's death removes the entry (the
product holds ``w``, so the key is not reused while it lives).  Callers of
one pair share its presentation and its dual's annihilator.
``tensor_dual_iso`` certifies the closed-form top step against the
presented block rows on every call and is the one runtime check of it.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from .hom import (
    DualSpace,
    LinearMap,
    diffeological_dual,
    is_smooth_linear,
    smooth_hom_basis,
)
from .linalg import (
    Matrix,
    identity,
    invert,
    kron,
    kron_vector,
    unit_vector,
)
from .spaces import (
    DiffSpace,
    DiffeolinError,
    Plot,
    TensorOf,
    Verdict,
    direct_sum,
    presentation,
    singular_span,
)


def tensor_product(v: DiffSpace, w: DiffSpace) -> DiffSpace:
    """The tensor product space, the one still held for these two factor
    objects if any; its presentation is the closed-form block flag."""
    products = v.__dict__.setdefault("_products", {})
    ref = products.get(id(w))
    t = ref() if ref is not None else None
    if t is None:
        t = DiffSpace(v.dim * w.dim, TensorOf(v, w))
        products[id(w)] = weakref.ref(t, lambda _, key=id(w): products.pop(key, None))
    return t


def product_plot(p: Plot, q: Plot) -> Plot:
    """The image x -> p(x) (x) q(x) of a plot pair under the universal map."""
    return Plot([pi * qj for pi in p.components for qj in q.components])


def tensor_of_maps(f: LinearMap, g: LinearMap) -> LinearMap:
    """Kronecker product of two smooth maps."""
    for m in (f, g):
        if is_smooth_linear(m) is not Verdict.SMOOTH:
            raise DiffeolinError("tensor of maps requires Smooth factors")
    domain = tensor_product(f.domain, g.domain)
    codomain = tensor_product(f.codomain, g.codomain)
    return LinearMap(domain, codomain, kron(f.matrix, g.matrix))


def distribute(v1: DiffSpace, v2: DiffSpace, v3: DiffSpace) -> LinearMap:
    """The canonical map V1 (x) (V2 (+) V3) -> (V1 (x) V2) (+) (V1 (x) V3).

    In the chosen bases it is a permutation matrix; both it and its inverse
    receive Smooth verdicts, and the singular spans on the two sides have
    equal dimension.
    """
    n1, n2, n3 = v1.dim, v2.dim, v3.dim
    domain = tensor_product(v1, direct_sum(v2, v3))
    codomain = direct_sum(tensor_product(v1, v2), tensor_product(v1, v3))
    total = n1 * (n2 + n3)
    rows = []
    # Codomain slot (i, j) of the first block reads domain slot i*(n2+n3) + j;
    # the second block reads i*(n2+n3) + n2 + k.
    for i in range(n1):
        for j in range(n2):
            rows.append(unit_vector(total, i * (n2 + n3) + j))
    for i in range(n1):
        for k in range(n3):
            rows.append(unit_vector(total, i * (n2 + n3) + n2 + k))
    return LinearMap(domain, codomain, tuple(rows))


def inverse_map(f: LinearMap) -> LinearMap:
    inv = invert(f.matrix)
    if inv is None:
        raise DiffeolinError("map is not invertible")
    return LinearMap(f.codomain, f.domain, inv)


@dataclass(frozen=True)
class TensorDualIso:
    """The canonical map V* (x) W* -> (V (x) W)* on annihilator bases.

    matrix maps the kron basis (phi_a (x) psi_b, row-major) to coordinates
    over the annihilator basis of the tensor dual.  That basis is the kron
    basis itself, so the matrix is the identity.
    """

    left_dual: DualSpace
    right_dual: DualSpace
    tensor_dual: DualSpace
    matrix: Matrix

    @property
    def domain_dim(self) -> int:
        return self.left_dual.dim * self.right_dual.dim

    @property
    def codomain_dim(self) -> int:
        return self.tensor_dual.dim

    @property
    def injective(self) -> bool:
        # The matrix is identity(codomain_dim), whose rank is codomain_dim.
        return self.codomain_dim == self.domain_dim

    @property
    def isomorphism(self) -> bool:
        return self.injective  # equal dimensions: onto as well


def tensor_dual_iso(v: DiffSpace, w: DiffSpace) -> TensorDualIso:
    """The canonical map, certified with no elimination over the n*m
    coordinates of V (x) W: (i) every row V (x) W presents lies in the
    closed-form S(V (x) W), by pivot reduction (the block rows it leaves out
    lie in C, spanned by those kept), and (ii) dim S(V (x) W) + dim V* *
    dim W* = n*m.  (i) puts the block span inside S, and (ii) gives S its
    dimension n*m - (n - dim S(V))*(m - dim S(W)), so S is the block span.
    Its annihilator is then ann S(V) (x) ann S(W), whose Kronecker basis is
    the RREF basis of (V (x) W)* (module docstring): the map is the
    identity.  A failure signals a bug in the closed-form steps."""
    t = tensor_product(v, w)
    dual_v, dual_w, dual_t = diffeological_dual(v), diffeological_dual(w), diffeological_dual(t)
    span = singular_span(t)
    outside = sum(not span.contains_support(row) for _, row in presentation(t).supports)
    if outside or span.dim + dual_v.dim * dual_w.dim != t.dim:
        raise DiffeolinError(
            "the singular span of the tensor product is not the block span: "
            f"{outside} block rows outside it, dim S = {span.dim}, "
            f"dim V* * dim W* = {dual_v.dim * dual_w.dim}, n*m = {t.dim}"
        )
    return TensorDualIso(dual_v, dual_w, dual_t, identity(dual_t.dim))


@dataclass(frozen=True)
class FunctionSpaceComparison:
    """Dimension comparison between a tensor product and a smooth hom space."""

    tensor_dim: int
    hom_dim: int
    matrix: Matrix

    @property
    def isomorphic(self) -> bool:
        return self.tensor_dim == self.hom_dim


def hat_f(v: DiffSpace, w: DiffSpace) -> FunctionSpaceComparison:
    """The map V (x) W -> L(V*, W), v (x) w -> [f -> f(v) w], on annihilator
    coordinates; reports dimensions but never asserts an isomorphism."""
    dual_v = diffeological_dual(v)
    n, m, a = v.dim, w.dim, dual_v.dim
    # Row-major target coordinates: image matrix entry (r, col) at r*a + col.
    basis = dual_v.annihilator_basis.basis
    rows = [kron_vector(basis[col], unit_vector(m, r)) for r in range(m) for col in range(a)]
    return FunctionSpaceComparison(n * m, smooth_hom_basis(dual_v, w).dim, tuple(rows))


def hat_g(v: DiffSpace, w: DiffSpace) -> FunctionSpaceComparison:
    """Symmetric companion of hat_f: V (x) W -> L(W*, V).  It is hat_f(w, v)
    with the tensor factors swapped: its input column j*n + i (w_j (x) v_i)
    becomes column i*m + j (v_i (x) w_j)."""
    swapped = hat_f(w, v)
    n, m = v.dim, w.dim
    rows = tuple(tuple(row[j * n + i] for i in range(n) for j in range(m))
                 for row in swapped.matrix)
    return FunctionSpaceComparison(swapped.tensor_dim, swapped.hom_dim, rows)


@dataclass(frozen=True)
class EndoComparison:
    """dim(V* (x) V) against dim L^inf(V, V)."""

    dual_tensor_dim: int
    endo_hom_dim: int

    @property
    def equal(self) -> bool:
        return self.dual_tensor_dim == self.endo_hom_dim


def endo_remark_check(v: DiffSpace) -> EndoComparison:
    return EndoComparison(diffeological_dual(v).dim * v.dim, smooth_hom_basis(v, v).dim)
