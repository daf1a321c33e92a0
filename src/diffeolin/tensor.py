"""Tensor product diffeology and the canonical maps around it.

Basis convention: v_i (x) w_j sits at flat index i*m + j (row-major).  The
singular span of a tensor product is the block span

    S(V) (x) R^m  +  R^n (x) S(W),

which is exactly what mixed generator/constant plot pairs reach; pairs of
singular generators only add |x|*|x| = x^2 terms, which are smooth.  The
block presentation (``spaces._tensor_presentation``) is built from the
factor presentations alone, so any two spaces tensor: fine, coarse,
generated, sums, tensors, pushforwards (hat duals) and duals.  The
dual-dimension multiplicativity of the computed spans is asserted wherever
a tensor dual is produced, so a wrong block formula fails loudly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .hom import (
    DualSpace,
    LinearMap,
    diffeological_dual,
    is_smooth_linear,
    smooth_hom_basis,
)
from .linalg import (
    Matrix,
    kron,
    kron_vector,
    rank,
    unit_vector,
)
from .spaces import (
    DiffSpace,
    DiffeolinError,
    Generated,
    Plot,
    TensorOf,
    Verdict,
    direct_sum,
    singular_span,
)


def tensor_product(v: DiffSpace, w: DiffSpace) -> DiffSpace:
    """The tensor product space with the block singular span.

    Product plots of generator pairs are validated to stay inside the block
    span; a violation would falsify the block formula and raises.
    """
    space = DiffSpace(v.dim * w.dim, TensorOf(v, w))
    _validate_generator_pairs(space, v, w)
    return space


def _generator_plots(space: DiffSpace) -> tuple[Plot, ...]:
    d = space.diffeology
    if isinstance(d, Generated):
        return d.generators
    return ()


def product_plot(p: Plot, q: Plot) -> Plot:
    """The image x -> p(x) (x) q(x) of a plot pair under the universal map."""
    return Plot([pi * qj for pi in p.components for qj in q.components])


def _validate_generator_pairs(space: DiffSpace, v: DiffSpace, w: DiffSpace) -> None:
    span = singular_span(space)
    for p, q in itertools.product(_generator_plots(v), _generator_plots(w)):
        for _, row in product_plot(p, q).residue_rows().items():
            if not span.contains(row):
                raise DiffeolinError(
                    "generator pair product leaves the block singular span; "
                    "block formula violated"
                )


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
    from .linalg import invert

    inv = invert(f.matrix)
    if inv is None:
        raise DiffeolinError("map is not invertible")
    return LinearMap(f.codomain, f.domain, inv)


@dataclass(frozen=True)
class TensorDualIso:
    """The canonical map V* (x) W* -> (V (x) W)* on annihilator bases.

    matrix maps the kron basis (phi_a (x) psi_b, row-major) to coordinates
    over the annihilator basis of the tensor dual.
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
        return rank(self.matrix) == self.domain_dim

    @property
    def isomorphism(self) -> bool:
        return self.injective and self.domain_dim == self.codomain_dim


def tensor_dual_iso(v: DiffSpace, w: DiffSpace) -> TensorDualIso:
    """Build the canonical map and assert that it is a linear isomorphism.

    Each product functional phi (x) psi must annihilate the block singular
    span (it is a smooth functional on the tensor product), injectivity is
    exact, and the dimensions multiply.  Any failure signals a bug in the
    block singular-span formula.
    """
    dual_v = diffeological_dual(v)
    dual_w = diffeological_dual(w)
    t = tensor_product(v, w)
    dual_t = diffeological_dual(t)
    bt = dual_t.annihilator_basis
    span_t = singular_span(t)
    columns = []
    for phi in dual_v.annihilator_basis.basis:
        for psi in dual_w.annihilator_basis.basis:
            functional = kron_vector(phi, psi)
            support = [(j, x) for j, x in enumerate(functional) if x]
            if any(sum(s[j] * x for j, x in support if s[j]) for s in span_t.basis):
                raise DiffeolinError(
                    "product functional fails to annihilate the tensor singular span"
                )
            coords = bt.coordinates(functional)
            if coords is None:
                raise DiffeolinError("product functional not expressible in the tensor dual")
            columns.append(coords)
    rows = tuple(tuple(col[i] for col in columns) for i in range(bt.dim))
    iso = TensorDualIso(dual_v, dual_w, dual_t, rows)
    if not iso.injective:
        raise DiffeolinError("tensor dual map is not injective")
    if iso.domain_dim != iso.codomain_dim:
        raise DiffeolinError(
            f"tensor dual dimensions differ: {iso.domain_dim} vs {iso.codomain_dim}"
        )
    return iso


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
    rows = []
    basis = dual_v.annihilator_basis.basis
    for r in range(m):
        for col in range(a):
            row = []
            for i in range(n):
                for j in range(m):
                    row.append(basis[col][i] if j == r else Fraction(0))
            rows.append(tuple(row))
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
