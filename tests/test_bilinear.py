"""Smooth bilinear maps and the curry/uncurry bijection."""

import itertools
import random
from fractions import Fraction

import pytest

from diffeolin import (
    BilinearForm,
    Coarse,
    DiffeolinError,
    LinearMap,
    Verdict,
    classify,
    curried_is_smooth,
    curry,
    diffeological_dual,
    direct_sum,
    form_from_flat,
    hat_dual,
    is_smooth_bilinear,
    is_smooth_linear,
    kink_plot,
    make_coarse,
    make_fine,
    make_generated,
    singular_span,
    smooth_bilinear_basis,
    smooth_hom_basis,
    tensor_product,
    uncurry,
)
from diffeolin.atoms import FunctionExpr
from diffeolin.bilinear import CurriedMap
from diffeolin.linalg import Subspace, invert, kron_vector
from diffeolin.spaces import Plot


def kink_space(n, k):
    return make_generated(n, [kink_plot(n, i) for i in range(k)])


def coeffs_with(n, m, q, entries):
    grid = [[[Fraction(0)] * q for _ in range(m)] for _ in range(n)]
    for (i, j, k), value in entries.items():
        grid[i][j][k] = Fraction(value)
    return tuple(tuple(tuple(v) for v in row) for row in grid)


def test_coarse_left_factor_kills_everything():
    v, w = make_coarse(3), make_fine(1)
    b = BilinearForm(v, v, w, coeffs_with(3, 3, 1, {(0, 0, 0): 1}))
    assert is_smooth_bilinear(b) is Verdict.NOT_SMOOTH
    assert smooth_bilinear_basis(v, w).dim == 0


def test_fine_space_admits_all_forms():
    v, w = make_fine(2), make_fine(1)
    b = BilinearForm(v, v, w, coeffs_with(2, 2, 1, {(0, 1, 0): 5, (1, 1, 0): -2}))
    assert is_smooth_bilinear(b) is Verdict.SMOOTH
    assert smooth_bilinear_basis(v, w).dim == 4


def test_generated_example_forms():
    v, w = kink_space(2, 1), make_fine(1)
    good = BilinearForm(v, v, w, coeffs_with(2, 2, 1, {(1, 1, 0): 1}))
    assert is_smooth_bilinear(good) is Verdict.SMOOTH
    bad = BilinearForm(v, v, w, coeffs_with(2, 2, 1, {(0, 1, 0): 1}))
    assert is_smooth_bilinear(bad) is Verdict.NOT_SMOOTH


def test_generated_codomain_forms():
    # b: V x V -> V for V = <(|x|, 0)>.  The block kink e0 (x) e1 may map
    # into the kink line of the codomain, but not off it.
    v = kink_space(2, 1)
    good = BilinearForm(v, v, v, coeffs_with(2, 2, 2, {(0, 1, 0): 1}))
    bad = BilinearForm(v, v, v, coeffs_with(2, 2, 2, {(0, 1, 1): 1}))
    assert is_smooth_bilinear(good) is Verdict.SMOOTH
    assert is_smooth_bilinear(bad) is Verdict.NOT_SMOOTH
    # Degrees matter: a kink that appears only as |x|*x^2 cannot absorb the
    # degree-0 block kink, but a degree-0 kink absorbs a degree-2 one.
    late = make_generated(2, [Plot([FunctionExpr.abs_monomial(2), FunctionExpr.zero()])])
    assert is_smooth_bilinear(BilinearForm(v, v, late, good.coefficients)) is Verdict.NOT_SMOOTH
    assert is_smooth_bilinear(BilinearForm(late, late, v, good.coefficients)) is Verdict.SMOOTH


def test_basis_counts_slots_outside_the_span():
    assert smooth_bilinear_basis(kink_space(3, 1), make_fine(1)).dim == 4
    assert smooth_bilinear_basis(make_coarse(2), make_coarse(3)).dim == 12


def test_symmetry_under_transpose():
    rng = random.Random(2)
    v, w = kink_space(3, 2), make_fine(1)
    for _ in range(30):
        flat = [Fraction(rng.randint(-3, 3)) for _ in range(9)]
        b = form_from_flat(v, v, w, flat)
        assert is_smooth_bilinear(b) is is_smooth_bilinear(b.transpose())


def test_curry_example():
    v, w = kink_space(2, 1), make_fine(1)
    b = BilinearForm(v, v, w, coeffs_with(2, 2, 1, {(1, 1, 0): 1}))
    g = curry(b)
    assert g.blocks[0] == ((Fraction(0), Fraction(0)),)
    assert g.blocks[1] == ((Fraction(0), Fraction(1)),)
    assert uncurry(g) == b


def test_curry_requires_smooth_form():
    v, w = make_coarse(2), make_fine(1)
    b = BilinearForm(v, v, w, coeffs_with(2, 2, 1, {(0, 0, 0): 1}))
    with pytest.raises(DiffeolinError):
        curry(b)


def test_zero_form_round_trip():
    v, w = make_fine(1), make_fine(1)
    b = BilinearForm(v, v, w, coeffs_with(1, 1, 1, {}))
    g = curry(b)
    assert g.blocks == (((Fraction(0),),),)
    assert uncurry(g) == b


def test_round_trip_on_random_smooth_forms():
    rng = random.Random(41)
    for trial in range(100):
        n = rng.randint(1, 3)
        k = rng.randint(0, n)
        v = kink_space(n, k)
        w = make_fine(rng.randint(1, 2))
        basis = smooth_bilinear_basis(v, w)
        flat = [Fraction(0)] * (n * n * w.dim)
        for row in basis.basis:
            c = Fraction(rng.randint(-3, 3))
            flat = [x + c * y for x, y in zip(flat, row)]
        b = form_from_flat(v, v, w, flat)
        assert is_smooth_bilinear(b) is Verdict.SMOOTH
        g = curry(b)
        assert uncurry(g) == b
        assert curry(uncurry(g)).blocks == g.blocks
        assert curried_is_smooth(g) is Verdict.SMOOTH


def test_verdicts_preserved_through_uncurry():
    rng = random.Random(43)
    v, w = kink_space(2, 1), make_fine(1)
    for _ in range(50):
        blocks = tuple(
            tuple(tuple(Fraction(rng.randint(-2, 2)) for _ in range(2)) for _ in range(1))
            for _ in range(2)
        )
        g = CurriedMap(v, w, blocks)
        assert curried_is_smooth(g) is is_smooth_bilinear(uncurry(g))


def test_oracle_spot_check_on_generator_pairs():
    """A smooth-verdict form composed with plot pairs looks smooth to the
    oracle; a NotSmooth certificate pair does not."""
    v, w = kink_space(2, 1), make_fine(1)
    good = BilinearForm(v, v, w, coeffs_with(2, 2, 1, {(1, 1, 0): 1}))
    bad = BilinearForm(v, v, w, coeffs_with(2, 2, 1, {(0, 1, 0): 1}))

    p = kink_plot(2, 0)
    constant = Plot([FunctionExpr.zero(), FunctionExpr.constant(1)])

    def compose(form, left, right):
        total = FunctionExpr.zero()
        for i, li in enumerate(left.components):
            for j, rj in enumerate(right.components):
                c = form.coefficients[i][j][0]
                if c:
                    total = total + (li * rj).scale(c)
        return total

    assert classify(compose(good, p, p)).smooth          # |x|^2 terms only
    assert classify(compose(good, p, constant)).smooth
    assert not classify(compose(bad, p, constant)).smooth


def test_smooth_bilinear_members_pass_the_verdict():
    v, w = kink_space(3, 1), make_fine(2)
    basis = smooth_bilinear_basis(v, w)
    assert basis.dim == (3 - 1) ** 2 * 2
    for row in basis.basis:
        assert is_smooth_bilinear(form_from_flat(v, v, w, row)) is Verdict.SMOOTH


# --- the universal property: bilinear smoothness on V (x) W -----------------

def _random_space(rng, depth=0):
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
        plots = []
        for _ in range(rng.randint(1, 2)):
            plots.append(Plot([FunctionExpr.monomial(rng.randint(0, 2), rng.randint(-2, 2))
                               + FunctionExpr.abs_monomial(rng.randint(0, 3), rng.randint(-2, 2))
                               for _ in range(n)]))
        return make_generated(n, plots)
    if kind == "dual":
        return diffeological_dual(_random_space(rng, depth + 1))
    if kind == "sum":
        return direct_sum(_random_space(rng, depth + 1), _random_space(rng, depth + 1))
    if kind == "tensor":
        return tensor_product(_random_space(rng, depth + 1), _random_space(rng, depth + 1))
    base = _random_space(rng, depth + 1)
    while True:
        iso = tuple(tuple(Fraction(rng.randint(-2, 2)) for _ in range(base.dim))
                    for _ in range(base.dim))
        if invert(iso) is not None:
            return hat_dual(base, iso)


def _induced_matrix(b):
    """M_b: the matrix of V (x) W -> Z, entry (k, i*m + j) = b(v_i, w_j)_k."""
    return tuple(
        tuple(b.coefficients[i][j][k] for i in range(b.left.dim) for j in range(b.right.dim))
        for k in range(b.codomain.dim)
    )


def _check_forms(rng, left, right, cod):
    """Three forms left x right -> cod, half of them drawn from the smooth
    maps V (x) W -> Z: is_smooth_bilinear equals is_smooth_linear of the
    induced map.  Returns the verdicts."""
    n, m, q = left.dim, right.dim, cod.dim
    t = tensor_product(left, right)
    smooth = smooth_hom_basis(t, cod)
    verdicts = []
    for _ in range(3):
        if smooth.dim and rng.random() < 0.5:
            coeffs = [rng.randint(-2, 2) for _ in smooth.basis]
            flat = [sum(c * row[x] for c, row in zip(coeffs, smooth.basis))
                    for x in range(q * n * m)]
        else:
            flat = [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(q * n * m)]
        coefficients = tuple(
            tuple(tuple(flat[k * n * m + i * m + j] for k in range(q)) for j in range(m))
            for i in range(n))
        b = BilinearForm(left, right, cod, coefficients)
        verdict = is_smooth_bilinear(b)
        assert verdict is is_smooth_linear(LinearMap(t, cod, _induced_matrix(b))), (
            left.describe(), right.describe(), cod.describe(), flat)
        verdicts.append(verdict)
    return verdicts


def test_bilinear_smoothness_is_linear_smoothness_on_the_tensor_product():
    """The universal property on random forms over fine, coarse, generated,
    sum, hat, dual and tensor factors and codomains, and over a grid of
    generated spaces whose kinks appear at different degrees, where a block
    kink may land in the codomain's filtration step but not in its coarse
    part."""
    rng = random.Random(20150430)
    verdicts = []
    for _ in range(80):
        verdicts += _check_forms(rng, _random_space(rng), _random_space(rng), _random_space(rng))
    kinked = Plot([FunctionExpr.abs_monomial(0), FunctionExpr.abs_monomial(1, 2)])
    late = Plot([FunctionExpr.abs_monomial(2), FunctionExpr.monomial(1)])
    grid = [kink_space(2, 1), make_generated(2, [kinked]), make_generated(2, [late]),
            diffeological_dual(make_fine(2))]
    for left, right, cod in itertools.product(grid, repeat=3):
        verdicts += _check_forms(rng, left, right, cod)
    assert set(verdicts) == {Verdict.SMOOTH, Verdict.NOT_SMOOTH}


def _reference_is_smooth_bilinear(b):
    """The fine-or-coarse-codomain procedure that preceded the tensor
    presentation: smooth into a coarse space, and into a fine space iff
    every slice b(s, .) and b(., s) with s in a singular span vanishes."""
    if isinstance(b.codomain.diffeology, Coarse):
        return Verdict.SMOOTH
    n, m, q = b.left.dim, b.right.dim, b.codomain.dim
    c = b.coefficients
    for s in singular_span(b.left).basis:
        if any(sum(s[i] * c[i][j][k] for i in range(n)) for j in range(m) for k in range(q)):
            return Verdict.NOT_SMOOTH
    for t in singular_span(b.right).basis:
        if any(sum(t[j] * c[i][j][k] for j in range(m)) for i in range(n) for k in range(q)):
            return Verdict.NOT_SMOOTH
    return Verdict.SMOOTH


def _reference_smooth_bilinear_basis(v, w):
    """Span of phi (x) psi (x) e_k over phi, psi in Ann S(v) for a fine w;
    every form for a coarse w."""
    n, q = v.dim, w.dim
    total = n * n * q
    if isinstance(w.diffeology, Coarse):
        return Subspace.full(total)
    ann = singular_span(v).annihilator()
    rows = []
    for phi in ann.basis:
        for psi in ann.basis:
            pair = kron_vector(phi, psi)
            for k in range(q):
                rows.append(tuple(pair[x // q] if x % q == k else Fraction(0)
                                  for x in range(total)))
    return Subspace.from_rows(total, rows)


def test_fine_and_coarse_codomains_agree_with_the_reference():
    rng = random.Random(74207281)
    for _ in range(60):
        v, right = _random_space(rng), _random_space(rng)
        w = rng.choice([make_fine, make_coarse])(rng.randint(1, 2))
        assert smooth_bilinear_basis(v, w) == _reference_smooth_bilinear_basis(v, w), (
            v.describe(), w.describe())
        for _ in range(3):
            flat = [Fraction(rng.choice([0, 0, 1, -2])) for _ in range(v.dim * right.dim * w.dim)]
            it = iter(flat)
            coefficients = tuple(tuple(tuple(next(it) for _ in range(w.dim))
                                       for _ in range(right.dim)) for _ in range(v.dim))
            b = BilinearForm(v, right, w, coefficients)
            assert is_smooth_bilinear(b) is _reference_is_smooth_bilinear(b)
