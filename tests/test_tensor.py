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
    UnsupportedDescriptorError,
    Verdict,
    classify,
    diffeological_dual,
    direct_sum,
    distribute,
    endo_remark_check,
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
from diffeolin.linalg import Subspace, identity, matmul


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


def test_tensor_rejects_pushforward_factor():
    from diffeolin import hat_dual

    hat = hat_dual(make_fine(2), identity(2))
    with pytest.raises(UnsupportedDescriptorError):
        tensor_product(hat, make_fine(1))


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
