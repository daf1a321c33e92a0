"""Duals, smooth hom spaces, dual maps and the pushforward (hat) dual."""

import random
from fractions import Fraction

import pytest

from diffeolin import (
    DiffeolinError,
    Fine,
    FunctionExpr,
    LinearMap,
    Plot,
    Verdict,
    check_smooth_linear,
    diffeological_dual,
    direct_sum,
    dual_map,
    hat_dual,
    hat_dual_wellposed,
    identity_map,
    is_plot,
    is_smooth_linear,
    kink_plot,
    make_coarse,
    make_fine,
    make_generated,
    represent_dual,
    singular_span,
    smooth_hom_basis,
    tensor_product,
)
from diffeolin.linalg import identity, invert, transpose


def frac_matrix(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def kink_space(n, k):
    return make_generated(n, [kink_plot(n, i) for i in range(k)])


# --- smoothness of linear maps --------------------------------------------

def test_nonzero_functional_on_coarse_space_is_not_smooth():
    f = LinearMap(make_coarse(3), make_fine(1), frac_matrix([[1, 2, 3]]))
    assert is_smooth_linear(f) is Verdict.NOT_SMOOTH


def test_identity_is_smooth_everywhere():
    for space in (make_fine(3), make_coarse(2), kink_space(3, 1)):
        assert is_smooth_linear(identity_map(space)) is Verdict.SMOOTH


def test_functional_missing_the_kink_is_smooth():
    v = kink_space(3, 1)
    f = LinearMap(v, make_fine(1), frac_matrix([[0, 1, 1]]))
    assert is_smooth_linear(f) is Verdict.SMOOTH
    g = LinearMap(v, make_fine(1), frac_matrix([[1, 0, 0]]))
    assert is_smooth_linear(g) is Verdict.NOT_SMOOTH


def test_generated_codomain_uses_membership():
    v = kink_space(2, 1)
    w = kink_space(2, 1)
    assert is_smooth_linear(LinearMap(v, w, identity(2))) is Verdict.SMOOTH
    swap = frac_matrix([[0, 1], [1, 0]])
    assert is_smooth_linear(LinearMap(v, w, swap)) is Verdict.NOT_SMOOTH


def test_witness_plot_accompanies_not_smooth():
    # The second domain is kinked only at degree 2, so the witness must be
    # |x|*x^2 along e1, not the degree-0 kink |x|.
    late_kink = Plot([FunctionExpr.abs_monomial(2), FunctionExpr.zero()])
    for v in (kink_space(2, 1), make_generated(2, [late_kink])):
        report = check_smooth_linear(LinearMap(v, make_fine(1), frac_matrix([[1, 0]])))
        assert report.verdict is Verdict.NOT_SMOOTH
        witness = report.witness
        assert witness is not None
        assert is_plot(v, witness) is Verdict.SMOOTH
        image = witness.transform(frac_matrix([[1, 0]]))
        assert not image.components[0].is_smooth()


# --- duals -----------------------------------------------------------------

def test_dual_dimension_examples():
    assert diffeological_dual(make_coarse(4)).dim == 0
    assert diffeological_dual(make_fine(4)).dim == 4
    assert diffeological_dual(kink_space(4, 2)).dim == 2


def test_dual_dimension_formula_across_descriptors():
    rng = random.Random(3)
    for _ in range(15):
        n = rng.randint(1, 4)
        v = kink_space(n, rng.randint(0, n))
        assert diffeological_dual(v).dim == n - singular_span(v).dim
    s = direct_sum(make_coarse(1), kink_space(2, 1))
    assert diffeological_dual(s).dim == 3 - singular_span(s).dim == 1


def test_dual_of_dual_is_fine():
    # V* is fine R^(dim V*), so V** is fine of the same dimension: it equals
    # V in dimension only when V is fine.
    for v in (make_fine(2), make_coarse(3), kink_space(3, 1), kink_space(4, 2),
              direct_sum(make_coarse(1), kink_space(2, 1))):
        dual = diffeological_dual(v)
        double = diffeological_dual(dual)
        assert double.dim == dual.dim == v.dim - singular_span(v).dim
        assert double.diffeology == Fine() and double.base is dual
        assert singular_span(dual).dim == 0
        assert is_smooth_linear(identity_map(double)) is Verdict.SMOOTH
    assert diffeological_dual(diffeological_dual(make_coarse(3))).dim == 0


def test_represent_dual():
    assert represent_dual(diffeological_dual(make_fine(3))).dim == 3
    assert represent_dual(diffeological_dual(make_coarse(3))).dim == 0
    assert represent_dual(diffeological_dual(kink_space(2, 1))) == make_fine(1)


def test_fine_self_duality():
    for n in (1, 2, 3):
        v = make_fine(n)
        dual = diffeological_dual(v)
        pairing = LinearMap(v, dual, identity(n))
        assert is_smooth_linear(pairing) is Verdict.SMOOTH
        assert is_smooth_linear(LinearMap(dual, v, identity(n))) is Verdict.SMOOTH


# --- smooth hom bases --------------------------------------------------------

def test_smooth_hom_examples():
    assert smooth_hom_basis(make_coarse(2), make_coarse(2)).dim == 4
    assert smooth_hom_basis(make_coarse(2), make_fine(1)).dim == 0
    assert smooth_hom_basis(kink_space(3, 1), make_fine(2)).dim == 4


def test_smooth_hom_members_are_smooth():
    v, w = kink_space(3, 1), make_fine(2)
    basis = smooth_hom_basis(v, w)
    for flat in basis.basis:
        rows = tuple(tuple(flat[i * 3 + j] for j in range(3)) for i in range(2))
        assert is_smooth_linear(LinearMap(v, w, rows)) is Verdict.SMOOTH


def test_smooth_hom_generated_codomain():
    # Every linear map out of a fine space is smooth, whatever the codomain.
    assert smooth_hom_basis(make_fine(2), kink_space(2, 1)).dim == 4
    # An endomorphism of <(|x|, 0)> must keep the kink direction e0 in place.
    basis = smooth_hom_basis(kink_space(2, 1), kink_space(2, 1))
    assert basis.dim == 3
    assert not basis.contains([0, 0, 1, 0])


def _random_hom_space(rng, depth=0):
    kinds = ["fine", "coarse", "generated"] + (["sum", "hat", "tensor"] if depth == 0 else [])
    kind = rng.choice(kinds)
    n = rng.randint(1, 3)
    if kind == "fine":
        return make_fine(n)
    if kind == "coarse":
        return make_coarse(n)
    if kind == "generated":
        plots = []
        for _ in range(rng.randint(1, 2)):
            comps = [FunctionExpr.monomial(rng.randint(0, 2), rng.randint(-2, 2))
                     + FunctionExpr.abs_monomial(rng.randint(0, 3), rng.randint(-2, 2))
                     for _ in range(n)]
            plots.append(Plot(comps))
        return make_generated(n, plots)
    if kind == "sum":
        return direct_sum(_random_hom_space(rng, 1), _random_hom_space(rng, 1))
    if kind == "tensor":
        return tensor_product(_random_hom_space(rng, 1), _random_hom_space(rng, 1))
    base = _random_hom_space(rng, 1)
    while True:
        iso = tuple(tuple(Fraction(rng.randint(-2, 2)) for _ in range(base.dim))
                    for _ in range(base.dim))
        if invert(iso) is not None:
            return hat_dual(base, iso)


def test_smooth_hom_basis_agrees_with_the_map_check():
    """Membership in smooth_hom_basis(v, w) is is_smooth_linear, on random
    pairs of fine, coarse, generated, sum, hat and tensor spaces; half of
    the sampled matrices are drawn from the basis itself."""
    rng = random.Random(20150430)
    for _ in range(60):
        v, w = _random_hom_space(rng), _random_hom_space(rng)
        basis = smooth_hom_basis(v, w)
        n, m = v.dim, w.dim
        for _ in range(4):
            if basis.dim and rng.random() < 0.5:
                coeffs = [rng.randint(-2, 2) for _ in basis.basis]
                flat = [sum(c * b[i] for c, b in zip(coeffs, basis.basis)) for i in range(n * m)]
            else:
                flat = [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n * m)]
            matrix = tuple(tuple(flat[i * n + j] for j in range(n)) for i in range(m))
            smooth = is_smooth_linear(LinearMap(v, w, matrix)) is Verdict.SMOOTH
            assert basis.contains(flat) == smooth, (v.describe(), w.describe(), matrix)


# --- dual maps ---------------------------------------------------------------

def test_dual_map_of_identity():
    v = make_fine(2)
    star = dual_map(identity_map(v))
    assert star.matrix == identity(2)


def test_dual_map_into_coarse_has_zero_dual_domain():
    f = LinearMap(make_fine(2), make_coarse(2), frac_matrix([[1, 2], [3, 4]]))
    star = dual_map(f)
    assert star.domain.dim == 0
    assert star.codomain.dim == 2
    assert star.matrix == ((), ())


def test_dual_map_on_generated_example():
    v = kink_space(2, 1)
    f = LinearMap(v, make_fine(1), frac_matrix([[0, 1]]))
    star = dual_map(f)
    assert star.matrix == ((Fraction(1),),)
    assert star.domain.dim == 1 and star.codomain.dim == 1


def test_dual_map_requires_smoothness():
    f = LinearMap(make_coarse(2), make_fine(1), frac_matrix([[1, 0]]))
    with pytest.raises(DiffeolinError):
        dual_map(f)


def test_dual_map_contravariant_functoriality():
    rng = random.Random(17)
    v, w, z = kink_space(3, 1), kink_space(3, 2), make_fine(2)
    # f: v -> w aligned with the kinks, g: w -> z killing the singular span.
    f = LinearMap(v, w, identity(3))
    g = LinearMap(z, z, identity(2))
    gw = LinearMap(w, z, frac_matrix([[0, 0, 1], [0, 0, 2]]))
    assert is_smooth_linear(f) is Verdict.SMOOTH
    assert is_smooth_linear(gw) is Verdict.SMOOTH
    composite = gw.compose(f)
    lhs = dual_map(composite)
    rhs = dual_map(f).compose(dual_map(gw))
    assert lhs.matrix == rhs.matrix
    assert dual_map(identity_map(v)).matrix == identity(diffeological_dual(v).dim)


def test_dual_map_output_smooth_for_representable_codomain_dual():
    # codomain dual representable: base fine or coarse
    cases = [
        LinearMap(make_fine(2), make_fine(2), frac_matrix([[1, 1], [0, 1]])),
        LinearMap(make_fine(3), make_coarse(2), frac_matrix([[1, 0, 2], [0, 1, 0]])),
        LinearMap(kink_space(2, 1), make_fine(1), frac_matrix([[0, 1]])),
    ]
    for f in cases:
        assert is_smooth_linear(f) is Verdict.SMOOTH
        assert is_smooth_linear(dual_map(f)) is Verdict.SMOOTH


def test_dual_map_between_duals():
    # Duals are spaces, so dual_map applies to a map between duals: the
    # transpose of a smooth map V* -> W* is a map W** -> V**.
    dual_v = diffeological_dual(kink_space(3, 1))   # fine R^2
    dual_w = diffeological_dual(make_fine(1))       # fine R^1
    f = LinearMap(dual_v, dual_w, frac_matrix([[2, 3]]))
    star = dual_map(f)
    assert star.domain.base is dual_w and star.codomain.base is dual_v
    assert star.matrix == frac_matrix([[2], [3]])


def test_smoothness_into_dual_reduces_to_the_pairing():
    # Maps into a dual are judged through the induced bilinear pairing.
    v = kink_space(2, 1)
    dual = diffeological_dual(v)  # annihilator span{(0, 1)}
    good = LinearMap(v, dual, frac_matrix([[0, 1]]))
    assert is_smooth_linear(good) is Verdict.SMOOTH
    bad = LinearMap(v, dual, frac_matrix([[1, 0]]))
    assert is_smooth_linear(bad) is Verdict.NOT_SMOOTH


def test_maps_out_of_functional_duals_are_smooth():
    # Plots of a functional dual are classically smooth in annihilator
    # coordinates, so linear maps out of one are smooth into anything.
    w = kink_space(3, 1)
    dual_w = diffeological_dual(w)
    assert represent_dual(dual_w) == make_fine(2)
    into_fine = LinearMap(dual_w, make_fine(2), frac_matrix([[1, 0], [0, 1]]))
    assert is_smooth_linear(into_fine) is Verdict.SMOOTH
    into_dual = LinearMap(dual_w, diffeological_dual(kink_space(2, 1)),
                          frac_matrix([[1, 1]]))
    assert is_smooth_linear(into_dual) is Verdict.SMOOTH


# --- hat dual ---------------------------------------------------------------

def test_hat_dual_examples():
    v = make_fine(2)
    hat = hat_dual(v, identity(2))
    assert is_plot(hat, Plot([FunctionExpr.monomial(1), FunctionExpr.monomial(2)])) is Verdict.SMOOTH
    assert is_plot(hat, kink_plot(2, 0)) is Verdict.NOT_SMOOTH

    coarse_hat = hat_dual(make_coarse(2), frac_matrix([[1, 1], [0, 1]]))
    assert is_plot(coarse_hat, kink_plot(2, 1)) is Verdict.SMOOTH

    swap = frac_matrix([[0, 1], [1, 0]])
    gen_hat = hat_dual(kink_space(2, 1), swap)
    assert is_plot(gen_hat, kink_plot(2, 1)) is Verdict.SMOOTH
    assert is_plot(gen_hat, kink_plot(2, 0)) is Verdict.NOT_SMOOTH


def test_hat_dual_rejects_singular_matrix():
    with pytest.raises(DiffeolinError):
        hat_dual(make_fine(2), frac_matrix([[1, 1], [1, 1]]))


def test_hat_dual_wellposedness_examples():
    v = make_fine(2)
    smooth_samples = [Plot([FunctionExpr.monomial(1), FunctionExpr.monomial(0, 3)])]
    report = hat_dual_wellposed(v, identity(2), frac_matrix([[2, 0], [0, 2]]), smooth_samples)
    assert report.consistent
    assert report.verdicts[0] == (Verdict.SMOOTH, Verdict.SMOOTH)

    g = kink_space(2, 1)
    report = hat_dual_wellposed(
        g, identity(2), frac_matrix([[1, 1], [0, 1]]), [kink_plot(2, 0)]
    )
    assert report.consistent
    assert report.verdicts[0] == (Verdict.SMOOTH, Verdict.SMOOTH)

    rng = random.Random(23)
    report = hat_dual_wellposed(
        v, frac_matrix([[1, 2], [1, 3]]), frac_matrix([[3, 1], [2, 1]]),
        [kink_plot(2, 0)]
    )
    assert report.consistent
    assert report.verdicts[0] == (Verdict.NOT_SMOOTH, Verdict.NOT_SMOOTH)


def test_hat_dual_transpose_counterexample():
    """The pushforward dual breaks dual-map smoothness: the transpose of a
    smooth map from a fine to a coarse space is not smooth between the hat
    duals, witnessed by an explicit plot."""
    for n in (2, 3):
        v, w = make_fine(n), make_coarse(n)
        f = LinearMap(v, w, identity(n))
        assert is_smooth_linear(f) is Verdict.SMOOTH
        star = LinearMap(hat_dual(w, identity(n)), hat_dual(v, identity(n)),
                         transpose(f.matrix))
        report = check_smooth_linear(star)
        assert report.verdict is Verdict.NOT_SMOOTH
        assert report.witness is not None
        assert is_plot(star.domain, report.witness) is Verdict.SMOOTH
        assert is_plot(star.codomain, report.witness.transform(star.matrix)) is Verdict.NOT_SMOOTH
