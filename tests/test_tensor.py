"""Tensor product diffeology: block spans, dual multiplicativity, canonical maps."""

import itertools
import random
from fractions import Fraction

import pytest

from diffeolin import (
    DiffeolinError,
    FunctionExpr,
    LinearMap,
    Plot,
    TensorDualIso,
    Verdict,
    classify,
    diffeological_dual,
    direct_sum,
    distribute,
    endo_remark_check,
    hat_dual,
    hat_f,
    hat_g,
    identity_map,
    inverse_map,
    is_smooth_linear,
    kink_plot,
    make_coarse,
    make_fine,
    make_generated,
    product_plot,
    singular_span,
    tensor_dual_iso,
    tensor_of_maps,
    tensor_product,
)
from diffeolin.linalg import Subspace, identity, invert, kron, kron_vector, matmul, rank


def kink_space(n, k):
    return make_generated(n, [kink_plot(n, i) for i in range(k)])


def frac_matrix(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def test_tensor_product_examples():
    t = tensor_product(make_fine(2), make_fine(3))
    assert singular_span(t).dim == 0 and diffeological_dual(t).dim == 6

    t = tensor_product(make_coarse(2), make_fine(1))
    assert singular_span(t).dim == 2 and diffeological_dual(t).dim == 0

    t = tensor_product(kink_space(2, 1), kink_space(2, 1))
    assert singular_span(t).dim == 3 and diffeological_dual(t).dim == 1


def test_block_span_content():
    t = tensor_product(kink_space(2, 1), make_fine(2))
    # v1 (x) e_1 and v1 (x) e_2 in row-major coordinates
    assert singular_span(t) == Subspace.from_rows(4, [[1, 0, 0, 0], [0, 1, 0, 0]])


def test_tensor_of_pushforward_factor():
    swap = frac_matrix([[0, 1], [1, 0]])
    hat = hat_dual(kink_space(2, 1), swap)          # kink along e1
    t = tensor_product(hat, make_fine(2))
    assert singular_span(t) == Subspace.from_rows(4, [[0, 0, 1, 0], [0, 0, 0, 1]])
    assert diffeological_dual(t).dim == 2
    assert tensor_dual_iso(hat, kink_space(2, 1)).isomorphism


def test_tensor_of_hat_dual_is_hat_dual_of_tensor():
    """(V, pushed along A) (x) W has the singular span of V (x) W pushed
    along kron(A, I): both present (A r) (x) e_j and A e_i (x) s."""
    rng = random.Random(31)
    factors = [make_fine(2), make_coarse(1), kink_space(2, 1), kink_space(3, 2),
               direct_sum(make_coarse(1), kink_space(2, 1)),
               tensor_product(kink_space(2, 1), make_fine(1))]
    for v, w in itertools.product(factors, repeat=2):
        while True:
            a = tuple(tuple(Fraction(rng.randint(-2, 2)) for _ in range(v.dim))
                      for _ in range(v.dim))
            if invert(a) is not None:
                break
        left = tensor_product(hat_dual(v, a), w)
        right = hat_dual(tensor_product(v, w), kron(a, identity(w.dim)))
        assert singular_span(left) == singular_span(right), (v.describe(), w.describe())


def test_tensor_with_dual_factors():
    # Duals are fine spaces, so they tensor like fine factors.
    dual = diffeological_dual(kink_space(3, 1))     # fine R^2
    t = tensor_product(dual, kink_space(2, 1))
    assert t.dim == 4 and singular_span(t).dim == 2
    assert diffeological_dual(t).dim == 2      # dim V** * dim <(|x|, 0)>* = 2 * 1
    ident = identity_map(dual)
    square = tensor_of_maps(ident, ident)
    assert is_smooth_linear(square) is Verdict.SMOOTH and square.domain.dim == 4


def test_dual_dimension_multiplicativity_exhaustive():
    spaces = []
    for n in (1, 2, 3):
        spaces.extend([make_fine(n), make_coarse(n), kink_space(n, 1)])
        if n >= 2:
            spaces.append(kink_space(n, 2))
    for v, w in itertools.product(spaces, repeat=2):
        t = tensor_product(v, w)
        assert diffeological_dual(t).dim == (
            diffeological_dual(v).dim * diffeological_dual(w).dim
        )


def test_tensor_dual_iso_examples():
    iso = tensor_dual_iso(make_fine(2), make_fine(3))
    assert iso.domain_dim == iso.codomain_dim == 6 and iso.isomorphism

    iso = tensor_dual_iso(make_coarse(2), make_fine(1))
    assert iso.domain_dim == iso.codomain_dim == 0 and iso.isomorphism

    iso = tensor_dual_iso(kink_space(2, 1), kink_space(2, 1))
    assert iso.matrix == ((Fraction(1),),) and iso.isomorphism


def _random_factor(rng, depth=0):
    kinds = ["fine", "coarse", "generated"]
    if depth < 1:
        kinds += ["sum", "hat", "dual", "tensor"]
    kind = rng.choice(kinds)
    n = rng.randint(1, 3)
    if kind == "fine":
        return make_fine(n)
    if kind == "coarse":
        return make_coarse(n)
    if kind == "generated":
        plots = [Plot([FunctionExpr.monomial(rng.randint(0, 2), rng.randint(-2, 2))
                       + FunctionExpr.abs_monomial(rng.randint(0, 3), rng.randint(-2, 2))
                       for _ in range(n)])
                 for _ in range(rng.randint(1, 2))]
        return make_generated(n, plots)
    if kind == "dual":
        return diffeological_dual(_random_factor(rng, depth + 1))
    if kind == "hat":
        base = _random_factor(rng, depth + 1)
        while True:
            a = tuple(tuple(Fraction(rng.randint(-2, 2)) for _ in range(base.dim))
                      for _ in range(base.dim))
            if invert(a) is not None:
                return hat_dual(base, a)
    v, w = _random_factor(rng, depth + 1), _random_factor(rng, depth + 1)
    return direct_sum(v, w) if kind == "sum" else tensor_product(v, w)


def test_tensor_dual_basis_is_the_kron_of_the_factor_bases():
    """On seeded pairs over fine, coarse, generated, sum, hat, dual and
    tensor spaces, the RREF basis of (V (x) W)* is the row-major Kronecker
    products of the factor bases, and the dual map is the identity."""
    rng = random.Random(20150430)
    kinds = set()
    for _ in range(40):
        v, w = _random_factor(rng), _random_factor(rng)
        # A dual is a DualSpace with the fine descriptor.
        kinds.update((type(s).__name__, type(s.diffeology).__name__) for s in (v, w))
        iso = tensor_dual_iso(v, w)
        products = tuple(kron_vector(phi, psi)
                         for phi in diffeological_dual(v).annihilator_basis.basis
                         for psi in diffeological_dual(w).annihilator_basis.basis)
        assert products == diffeological_dual(tensor_product(v, w)).annihilator_basis.basis
        assert iso.matrix == identity(iso.codomain_dim) and iso.isomorphism
    assert len(kinds) == 7, kinds


def test_injective_equals_the_rank_of_the_matrix():
    """``injective`` reads the dimensions; on seeded pairs, and on records
    whose tensor dual has the wrong dimension, it equals the rank test of
    the identity matrix, and so does ``isomorphism``."""
    rng = random.Random(74207281)
    duals = [diffeological_dual(make_fine(n)) for n in range(4)]
    isos = [TensorDualIso(duals[1], duals[a], duals[c], identity(c))
            for a in range(4) for c in range(4)]
    for _ in range(40):
        isos.append(tensor_dual_iso(_random_factor(rng), _random_factor(rng)))
    assert {iso.injective for iso in isos} == {True, False}
    for iso in isos:
        full_rank = rank(iso.matrix) == iso.domain_dim
        assert iso.injective == full_rank
        assert iso.isomorphism == (full_rank and iso.domain_dim == iso.codomain_dim)


def test_tensor_dual_iso_rejects_a_wrong_block_formula(monkeypatch):
    """Without the right factor's block rows, S(fine 2 (x) coarse 2) is zero
    and its dual has dim 4, but dim V* * dim W* = 2 * 0.  The coarse factor
    has no generating plots, so tensor_product itself accepts the space."""
    import diffeolin.spaces as spaces

    real = spaces._tensor_rows

    def left_rows_only(left, right):
        return real(left, right)[:len(spaces.presentation(left).rows) * right.dim]

    monkeypatch.setattr(spaces, "_tensor_rows", left_rows_only)
    v, w = make_fine(2), make_coarse(2)
    assert diffeological_dual(tensor_product(v, w)).dim == 4
    with pytest.raises(DiffeolinError, match="RREF basis of the tensor dual"):
        tensor_dual_iso(v, w)


def test_oracle_validates_the_block_formula():
    """Functionals inside the tensor annihilator compose smoothly with
    product and mixed plots; functionals outside do not."""
    rng = random.Random(29)
    for _ in range(10):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        v, w = kink_space(n, rng.randint(1, n)), kink_space(m, rng.randint(1, m))
        t = tensor_product(v, w)
        ann = diffeological_dual(t).annihilator_basis
        span = singular_span(t)

        p = rng.choice(v.diffeology.generators)
        q = rng.choice(w.diffeology.generators)
        prod = product_plot(p, q)
        constant = Plot([FunctionExpr.constant(1) if j == 0 else FunctionExpr.zero()
                         for j in range(m)])
        mixed = product_plot(p, constant)

        def compose(phi, plot):
            total = FunctionExpr.zero()
            for c, comp in zip(phi, plot.components):
                if c:
                    total = total + comp.scale(c)
            return total

        for phi in ann.basis:
            assert classify(compose(phi, prod)).smooth
            assert classify(compose(phi, mixed)).smooth
            assert compose(phi, mixed).is_smooth()
        # A functional outside the annihilator: detect against the mixed plot
        # whose residue it fails to kill.
        for s in span.basis:
            candidate_rows = mixed.residue_rows()
            for _, row in candidate_rows.items():
                pairing = sum((a * b for a, b in zip(s, row)), Fraction(0))
                if pairing:
                    expr = compose(s, mixed)
                    assert not expr.is_smooth()
                    assert not classify(expr).smooth
                    break


def test_tensor_of_maps_examples():
    v = kink_space(2, 1)
    f = LinearMap(v, make_fine(1), frac_matrix([[0, 1]]))
    g = identity_map(make_fine(1))
    fg = tensor_of_maps(f, g)
    assert fg.matrix == frac_matrix([[0, 1]])
    assert is_smooth_linear(fg) is Verdict.SMOOTH

    ident = tensor_of_maps(identity_map(v), identity_map(make_fine(2)))
    assert ident.matrix == identity(4)

    zero = LinearMap(make_fine(2), make_fine(2), frac_matrix([[0, 0], [0, 0]]))
    assert all(not x for row in tensor_of_maps(zero, g).matrix for x in row)


def test_tensor_of_maps_rejects_non_smooth_factor():
    bad = LinearMap(make_coarse(2), make_fine(1), frac_matrix([[1, 0]]))
    with pytest.raises(DiffeolinError):
        tensor_of_maps(bad, identity_map(make_fine(1)))


def test_tensor_of_maps_functoriality():
    rng = random.Random(37)
    v, w = make_fine(2), make_fine(2)
    for _ in range(10):
        def rand_map():
            return LinearMap(v, w, frac_matrix(
                [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
            ))
        f, f2, g, g2 = rand_map(), rand_map(), rand_map(), rand_map()
        lhs = tensor_of_maps(f2.compose(f), g2.compose(g))
        rhs = tensor_of_maps(f2, g2).compose(tensor_of_maps(f, g))
        assert lhs.matrix == rhs.matrix


def test_distribute_examples():
    t = distribute(make_fine(2), make_fine(1), make_fine(2))
    assert is_smooth_linear(t) is Verdict.SMOOTH
    assert is_smooth_linear(inverse_map(t)) is Verdict.SMOOTH
    assert sorted(sum(1 for x in row if x) for row in t.matrix) == [1] * 6

    v1 = kink_space(2, 1)
    t = distribute(v1, make_fine(1), make_fine(1))
    assert singular_span(t.domain).dim == singular_span(t.codomain).dim == 2
    assert is_smooth_linear(t) is Verdict.SMOOTH

    t = distribute(make_coarse(2), kink_space(2, 1), make_fine(1))
    assert is_smooth_linear(t) is Verdict.SMOOTH
    assert is_smooth_linear(inverse_map(t)) is Verdict.SMOOTH
    assert diffeological_dual(t.domain).dim == diffeological_dual(t.codomain).dim == 0


def test_distribute_is_a_bijection():
    t = distribute(kink_space(2, 1), make_fine(2), make_coarse(1))
    assert matmul(t.matrix, inverse_map(t).matrix) == identity(6)


def test_hat_f_and_hat_g_comparisons():
    v, w = make_coarse(2), make_fine(1)
    f_side = hat_f(v, w)
    assert (f_side.tensor_dim, f_side.hom_dim, f_side.isomorphic) == (2, 0, False)
    g_side = hat_g(v, w)
    assert (g_side.tensor_dim, g_side.hom_dim, g_side.isomorphic) == (2, 2, True)

    fine_case = hat_f(make_fine(2), make_fine(2))
    assert fine_case.tensor_dim == fine_case.hom_dim == 4
    assert fine_case.isomorphic is True

    # Generated factors: L^inf(V*, W) has V* fine, so every map counts.
    kink = kink_space(2, 1)
    gen_f, gen_g = hat_f(kink, kink), hat_g(kink, make_coarse(1))
    assert (gen_f.tensor_dim, gen_f.hom_dim, gen_f.isomorphic) == (4, 2, False)
    assert (gen_g.tensor_dim, gen_g.hom_dim, gen_g.isomorphic) == (2, 0, False)

    # V* = span{(0, 1)}: hat_f sends v_i (x) w_j to the matrix with V*-column
    # entry phi(v_i) in row j; hat_g reads the same data with the factors
    # swapped, so v_i (x) w_j goes to phi(w_j) in row i.
    assert hat_f(kink, make_fine(2)).matrix == frac_matrix([[0, 0, 1, 0], [0, 0, 0, 1]])
    assert hat_g(make_fine(2), kink).matrix == frac_matrix([[0, 1, 0, 0], [0, 0, 0, 1]])
    assert hat_g(make_fine(2), make_fine(3)).matrix == frac_matrix(
        [[1 if c == i * 3 + j else 0 for c in range(6)] for i in range(2) for j in range(3)])


def test_endo_remark_examples():
    assert (endo_remark_check(make_coarse(2)).dual_tensor_dim,
            endo_remark_check(make_coarse(2)).endo_hom_dim) == (0, 4)
    fine3 = endo_remark_check(make_fine(3))
    assert (fine3.dual_tensor_dim, fine3.endo_hom_dim, fine3.equal) == (9, 9, True)
    gen = endo_remark_check(kink_space(2, 1))
    assert (gen.dual_tensor_dim, gen.endo_hom_dim, gen.equal) == (2, 3, False)


def test_iterated_tensor_factors():
    v = kink_space(2, 1)
    nested = tensor_product(tensor_product(v, make_fine(1)), make_fine(2))
    assert nested.dim == 4
    assert diffeological_dual(nested).dim == diffeological_dual(v).dim * 2


def test_sum_factors_in_tensor():
    s = direct_sum(make_coarse(1), make_fine(1))
    t = tensor_product(s, make_fine(2))
    assert singular_span(t).dim == 2
    assert diffeological_dual(t).dim == 2
