"""Smooth bilinear maps and the curry/uncurry bijection."""

import itertools
import random
from fractions import Fraction

import pytest

from diffeolin import (
    BilinearForm,
    Coarse,
    DiffeolinError,
    DimensionMismatchError,
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
from diffeolin import cli, linalg, spaces, verify
from diffeolin.bilinear import CurriedMap
from diffeolin.linalg import Subspace, invert, kron_vector, unit_vector
from diffeolin.spaces import Plot, presentation

from conftest import presented_rows


def kink_space(n, k):
    return make_generated(n, [kink_plot(n, i) for i in range(k)])


def matrix_with(n, m, q, entries):
    """The induced q x nm matrix with b(v_i, w_j)_k = value at entry
    (k, i*m + j) for each (i, j, k): value, zero elsewhere."""
    rows = [[Fraction(0)] * (n * m) for _ in range(q)]
    for (i, j, k), value in entries.items():
        rows[k][i * m + j] = Fraction(value)
    return tuple(tuple(row) for row in rows)


def _from_cells(left, right, cod, cells):
    """The form with b(v_i, w_j)_k = cells[(i*m + j)*q + k]: a list drawn in
    (i, j, k) order, laid out as the induced matrix."""
    nm, q = left.dim * right.dim, cod.dim
    return BilinearForm(left, right, cod,
                        tuple(tuple(cells[x * q + k] for x in range(nm)) for k in range(q)))


def test_coarse_left_factor_kills_everything():
    v, w = make_coarse(3), make_fine(1)
    b = BilinearForm(v, v, w, matrix_with(3, 3, 1, {(0, 0, 0): 1}))
    assert is_smooth_bilinear(b) is Verdict.NOT_SMOOTH
    assert smooth_bilinear_basis(v, w).dim == 0


def test_fine_space_admits_all_forms():
    v, w = make_fine(2), make_fine(1)
    b = BilinearForm(v, v, w, matrix_with(2, 2, 1, {(0, 1, 0): 5, (1, 1, 0): -2}))
    assert is_smooth_bilinear(b) is Verdict.SMOOTH
    assert smooth_bilinear_basis(v, w).dim == 4


def test_generated_example_forms():
    v, w = kink_space(2, 1), make_fine(1)
    good = BilinearForm(v, v, w, matrix_with(2, 2, 1, {(1, 1, 0): 1}))
    assert is_smooth_bilinear(good) is Verdict.SMOOTH
    bad = BilinearForm(v, v, w, matrix_with(2, 2, 1, {(0, 1, 0): 1}))
    assert is_smooth_bilinear(bad) is Verdict.NOT_SMOOTH


def test_generated_codomain_forms():
    # b: V x V -> V for V = <(|x|, 0)>.  The block kink e0 (x) e1 may map
    # into the kink line of the codomain, but not off it.
    v = kink_space(2, 1)
    good = BilinearForm(v, v, v, matrix_with(2, 2, 2, {(0, 1, 0): 1}))
    bad = BilinearForm(v, v, v, matrix_with(2, 2, 2, {(0, 1, 1): 1}))
    assert is_smooth_bilinear(good) is Verdict.SMOOTH
    assert is_smooth_bilinear(bad) is Verdict.NOT_SMOOTH
    # Degrees matter: a kink that appears only as |x|*x^2 cannot absorb the
    # degree-0 block kink, but a degree-0 kink absorbs a degree-2 one.
    late = make_generated(2, [Plot([FunctionExpr.abs_monomial(2), FunctionExpr.zero()])])
    assert is_smooth_bilinear(BilinearForm(v, v, late, good.matrix)) is Verdict.NOT_SMOOTH
    assert is_smooth_bilinear(BilinearForm(late, late, v, good.matrix)) is Verdict.SMOOTH


def test_basis_counts_slots_outside_the_span():
    assert smooth_bilinear_basis(kink_space(3, 1), make_fine(1)).dim == 4
    assert smooth_bilinear_basis(make_coarse(2), make_coarse(3)).dim == 12


def _transposed(b):
    """The form (w, v) -> b(v, w): column i*m + j moves to j*n + i."""
    n, m = b.left.dim, b.right.dim
    return BilinearForm(b.right, b.left, b.codomain, tuple(
        tuple(row[i * m + j] for j in range(m) for i in range(n)) for row in b.matrix))


def test_symmetry_under_transpose():
    rng = random.Random(2)
    v, w = kink_space(3, 2), make_fine(1)
    for _ in range(30):
        flat = [Fraction(rng.randint(-3, 3)) for _ in range(9)]
        b = form_from_flat(v, v, w, flat)
        assert is_smooth_bilinear(b) is is_smooth_bilinear(_transposed(b))


def test_curry_example():
    v, w = kink_space(2, 1), make_fine(1)
    b = BilinearForm(v, v, w, matrix_with(2, 2, 1, {(1, 1, 0): 1}))
    g = curry(b)
    assert g.blocks[0] == ((Fraction(0), Fraction(0)),)
    assert g.blocks[1] == ((Fraction(0), Fraction(1)),)
    assert uncurry(g) == b


def test_curry_requires_smooth_form():
    v, w = make_coarse(2), make_fine(1)
    b = BilinearForm(v, v, w, matrix_with(2, 2, 1, {(0, 0, 0): 1}))
    with pytest.raises(DiffeolinError):
        curry(b)


def test_curry_requires_matching_factors():
    """The zero form on fine R^2 x <|x| e_0> is Smooth, but its factors
    differ, so it is no map v -> L(v, w)."""
    v, w = make_fine(2), kink_space(2, 1)
    b = BilinearForm(v, w, make_fine(1), matrix_with(2, 2, 1, {}))
    assert is_smooth_bilinear(b) is Verdict.SMOOTH
    with pytest.raises(DiffeolinError, match="matching left and right spaces"):
        curry(b)


def test_zero_form_round_trip():
    v, w = make_fine(1), make_fine(1)
    b = BilinearForm(v, v, w, matrix_with(1, 1, 1, {}))
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
        assert curried_is_smooth(g) is _fraction_is_smooth_bilinear(uncurry(g))


def test_oracle_spot_check_on_generator_pairs():
    """A smooth-verdict form composed with plot pairs looks smooth to the
    oracle; a NotSmooth certificate pair does not."""
    v, w = kink_space(2, 1), make_fine(1)
    good = BilinearForm(v, v, w, matrix_with(2, 2, 1, {(1, 1, 0): 1}))
    bad = BilinearForm(v, v, w, matrix_with(2, 2, 1, {(0, 1, 0): 1}))

    p = kink_plot(2, 0)
    constant = Plot([FunctionExpr.zero(), FunctionExpr.constant(1)])

    def compose(form, left, right):
        total = FunctionExpr.zero()
        for i, li in enumerate(left.components):
            for j, rj in enumerate(right.components):
                c = form.matrix[0][i * len(right.components) + j]
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
        b = BilinearForm(left, right, cod,
                         tuple(tuple(flat[k * n * m:(k + 1) * n * m]) for k in range(q)))
        assert form_from_flat(left, right, cod, flat) == b
        assert all(b.apply(unit_vector(n, i), unit_vector(m, j))
                   == tuple(flat[k * n * m + i * m + j] for k in range(q))
                   for i in range(n) for j in range(m))
        verdict = is_smooth_bilinear(b)
        assert verdict is is_smooth_linear(LinearMap(t, cod, b.matrix)), (
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
    n, m = b.left.dim, b.right.dim
    for s in singular_span(b.left).basis:
        if any(sum(s[i] * row[i * m + j] for i in range(n)) for j in range(m) for row in b.matrix):
            return Verdict.NOT_SMOOTH
    for t in singular_span(b.right).basis:
        if any(sum(t[j] * row[i * m + j] for j in range(m)) for i in range(n) for row in b.matrix):
            return Verdict.NOT_SMOOTH
    return Verdict.SMOOTH


def _reference_smooth_bilinear_basis(v, w):
    """Span of e_k (x) phi (x) psi over phi, psi in Ann S(v) for a fine w
    (flat index k*n*n + i*n + j); every form for a coarse w."""
    n, q = v.dim, w.dim
    total = n * n * q
    if isinstance(w.diffeology, Coarse):
        return Subspace.full(total)
    ann = singular_span(v).annihilator()
    rows = []
    for phi in ann.basis:
        for psi in ann.basis:
            pair = kron_vector(phi, psi)
            rows.extend(kron_vector(unit_vector(q, k), pair) for k in range(q))
    return Subspace.from_rows(total, rows)


def test_smooth_bilinear_basis_equals_the_hom_route():
    """On seeded fine, coarse, generated, sum, hat, dual and tensor spaces
    (any codomain), the block-row basis equals smooth_hom_basis on v (x) v,
    coordinate for coordinate."""
    rng = random.Random(20150430)
    kinds = set()
    draws = 0
    while draws < 150:
        v, w = _random_space(rng), _random_space(rng)
        if v.dim * v.dim * w.dim > 144:
            continue
        draws += 1
        # A dual is a DualSpace with the fine descriptor.
        kinds.update((type(s).__name__, type(s.diffeology).__name__) for s in (v, w))
        assert smooth_bilinear_basis(v, w) == smooth_hom_basis(tensor_product(v, v), w), (
            v.describe(), w.describe())
    assert len(kinds) == 7, kinds


def test_fine_and_coarse_codomains_agree_with_the_reference():
    rng = random.Random(74207281)
    for _ in range(60):
        v, right = _random_space(rng), _random_space(rng)
        w = rng.choice([make_fine, make_coarse])(rng.randint(1, 2))
        assert smooth_bilinear_basis(v, w) == _reference_smooth_bilinear_basis(v, w), (
            v.describe(), w.describe())
        for _ in range(3):
            cells = [Fraction(rng.choice([0, 0, 1, -2])) for _ in range(v.dim * right.dim * w.dim)]
            b = _from_cells(v, right, w, cells)
            assert is_smooth_bilinear(b) is _reference_is_smooth_bilinear(b)


# --- the integer slices -------------------------------------------------------

def _random_fraction_form(rng, left, right, cod, max_den=10**6):
    return _from_cells(left, right, cod, [
        Fraction(rng.randint(-10**6, 10**6), rng.randint(1, max_den)) * rng.choice([0, 1, 1])
        for _ in range(left.dim * right.dim * cod.dim)])


def _assert_positive_multiple(scaled, exact):
    """scaled = lam * exact entrywise for one rational lam > 0."""
    pairs = [(s, e) for s_row, e_row in zip(scaled, exact) for s, e in zip(s_row, e_row)]
    assert all(isinstance(s, int) for s, _ in pairs)
    nonzero = [(s, e) for s, e in pairs if e]
    assert all(s == 0 for s, e in pairs if not e)
    if nonzero:
        lam = Fraction(nonzero[0][0]) / nonzero[0][1]
        assert lam > 0 and all(s == lam * e for s, e in nonzero)


def test_slices_are_positive_multiples_of_the_exact_families():
    rng = random.Random(1016)
    for _ in range(40):
        n, m, q = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 3)
        b = _random_fraction_form(rng, make_fine(n), make_fine(m), make_fine(q))
        for _ in range(3):
            u = [Fraction(rng.randint(-50, 50), rng.randint(1, 10**6)) * rng.choice([0, 1])
                 for _ in range(n)]
            w = [Fraction(rng.randint(-50, 50), rng.randint(1, 10**6)) * rng.choice([0, 1])
                 for _ in range(m)]
            basis_m = [[int(i == j) for i in range(m)] for j in range(m)]
            basis_n = [[int(i == j) for i in range(n)] for j in range(n)]
            _assert_positive_multiple(b.left_slice(u),
                                      [_reference_apply(b, u, e) for e in basis_m])
            _assert_positive_multiple(b.right_slice(w),
                                      [_reference_apply(b, e, w) for e in basis_n])


def _reference_apply(b, u, w):
    """b(u, w) summed entry by entry over the induced matrix, with no
    Kronecker product."""
    m = b.right.dim
    out = [Fraction(0)] * b.codomain.dim
    for i, ui in enumerate(u):
        for j, wj in enumerate(w):
            c = Fraction(ui) * Fraction(wj)
            for k, row in enumerate(b.matrix):
                out[k] += c * row[i * m + j]
    return tuple(out)


def test_apply_is_the_induced_matrix_on_the_kronecker_product():
    rng = random.Random(1017)
    for _ in range(40):
        n, m, q = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 3)
        b = _random_fraction_form(rng, make_fine(n), make_fine(m), make_fine(q))
        for _ in range(3):
            u = [rng.choice([0, 1, -2, Fraction(3, 7), "5/2"]) for _ in range(n)]
            w = [rng.choice([0, 2, Fraction(-1, 3)]) for _ in range(m)]
            assert b.apply(u, w) == _reference_apply(b, u, w)
            assert all(type(x) is Fraction for x in b.apply(u, w))


@pytest.mark.parametrize("build, message", [
    (lambda v, z: BilinearForm(v, v, z, ((1, 0, 0, 1),)), "matrix rows != codomain dimension"),
    (lambda v, z: BilinearForm(v, v, z, ((1, 0, 0), (0, 0, 1))),
     "matrix columns != left dimension"),
    (lambda v, z: form_from_flat(v, v, z, [1] * 7), "flat coefficient length mismatch"),
    (lambda v, z: CurriedMap(v, z, (((1, 0), (0, 1)),)), "one block per domain basis vector"),
    (lambda v, z: CurriedMap(v, z, (((1, 0),), ((0, 1),))), "block rows != codomain dimension"),
    (lambda v, z: CurriedMap(v, z, (((1, 0), (0,)), ((0, 1), (1, 0)))),
     "block columns != domain dimension"),
])
def test_forms_and_curried_maps_reject_matrices_of_the_wrong_shape(build, message):
    """On R^2 x R^2 -> R^2 a form has 2 rows of 4 entries, 8 flat
    coefficients, and a curried map 2 blocks of 2 x 2."""
    v, z = make_fine(2), make_fine(2)
    with pytest.raises(DimensionMismatchError, match=message):
        build(v, z)
    assert uncurry(CurriedMap(v, z, (((1, 0), (0, 1)), ((0, 1), (1, 0))))) == form_from_flat(
        v, v, z, [1, 0, 0, 1, 0, 1, 1, 0])


@pytest.mark.parametrize("u, w", [([1], [1, 1, 1, 1]), ([1, 1, 1, 1], [1]), ([1, 1], [1]),
                                  ([1, 1, 1], [1, 1])])
def test_apply_rejects_arguments_of_the_wrong_length(u, w):
    """Each argument must have its own factor's dimension: on R^2 x R^2,
    ([1], [1, 1, 1, 1]) has the right Kronecker length and once read as
    b(e_1, (1, 1, 1, 1))."""
    b = form_from_flat(make_fine(2), make_fine(2), make_fine(1), [1, 2, 3, 4])
    with pytest.raises(DimensionMismatchError):
        b.apply(u, w)
    assert b.apply([1, 1], [1, 1]) == (10,)


def test_form_from_flat_reads_back_the_induced_matrix():
    """The flat list of a form's induced matrix, row by row, rebuilds the
    form, codomains of dimension q > 1 and zero-dimensional factors included."""
    rng = random.Random(1018)
    for _ in range(40):
        left, right = make_fine(rng.randint(0, 3)), kink_space(3, rng.randint(0, 3))
        cod = make_fine(rng.randint(0, 4))
        b = _random_fraction_form(rng, left, right, cod)
        assert len(b.matrix) == cod.dim
        assert form_from_flat(left, right, cod, [x for row in b.matrix for x in row]) == b


def _fraction_is_smooth_bilinear(b):
    """The procedure on Fraction slices b(r, e_j) and b(e_i, r) that the
    integer slices replaced."""
    m = b.right.dim

    def left_slice(u):
        terms = [(i, Fraction(ui)) for i, ui in enumerate(u) if ui]
        return tuple(
            tuple(sum((c * row[i * m + j] for i, c in terms), Fraction(0)) for row in b.matrix)
            for j in range(m)
        )

    def right_slice(w):
        terms = [(j, Fraction(wj)) for j, wj in enumerate(w) if wj]
        return tuple(
            tuple(sum((c * row[i * m + j] for j, c in terms), Fraction(0)) for row in b.matrix)
            for i in range(b.left.dim)
        )

    cod = presentation(b.codomain)
    blocks = [(d, left_slice(r)) for d, r in presented_rows(b.left)]
    blocks += [(d, right_slice(r)) for d, r in presented_rows(b.right)]
    for d, images in blocks:
        if not all(cod.filtration_step(d).contains(y) for y in images):
            return Verdict.NOT_SMOOTH
    return Verdict.SMOOTH


def test_is_smooth_bilinear_equals_the_fraction_reference():
    rng = random.Random(31415)
    verdicts = []
    for _ in range(60):
        left, right, cod = _random_space(rng), _random_space(rng), _random_space(rng)
        if rng.random() < 0.5:
            b = _random_fraction_form(rng, left, right, cod)
        else:
            b = _from_cells(left, right, cod, [
                Fraction(rng.choice([0, 0, 0, 1, -2]), rng.choice([1, 3, 10**6]))
                for _ in range(left.dim * right.dim * cod.dim)])
        verdict = is_smooth_bilinear(b)
        assert verdict is _fraction_is_smooth_bilinear(b), (
            left.describe(), right.describe(), cod.describe())
        verdicts.append(verdict)
    assert set(verdicts) == {Verdict.SMOOTH, Verdict.NOT_SMOOTH}


# --- each form decided once; the block slicing at its edges ------------------

def _patch_decision(monkeypatch, wrap):
    """Replace the function of the ``verdict`` cached property, the one
    decision procedure, by ``wrap`` of it."""
    verdict = BilinearForm.__dict__["verdict"]
    monkeypatch.setattr(verdict, "func", wrap(verdict.func))


def _count_decisions(monkeypatch):
    """Record every form the decision procedure runs on."""
    decided = []

    def counting(decide):
        def count(b):
            decided.append(b)
            return decide(b)
        return count

    _patch_decision(monkeypatch, counting)
    return decided


def test_a_smooth_form_and_its_curried_map_are_each_decided_once(monkeypatch):
    decided = _count_decisions(monkeypatch)
    v, w = kink_space(3, 1), make_fine(2)
    b = form_from_flat(v, v, w, smooth_bilinear_basis(v, w).basis[-1])
    assert is_smooth_bilinear(b) is Verdict.SMOOTH
    g = curry(b)
    assert uncurry(g) == b
    assert curried_is_smooth(g) is Verdict.SMOOTH
    assert curry(uncurry(g)).blocks == g.blocks
    assert sum(x is b for x in decided) == 1
    assert uncurry(g) is not b
    assert sum(x is uncurry(g) for x in decided) <= 1
    assert len(decided) <= 2


def test_a_not_smooth_form_is_decided_once(monkeypatch):
    decided = _count_decisions(monkeypatch)
    v, w = kink_space(2, 1), make_fine(1)
    b = BilinearForm(v, v, w, matrix_with(2, 2, 1, {(0, 1, 0): 1}))
    assert is_smooth_bilinear(b) is Verdict.NOT_SMOOTH
    with pytest.raises(DiffeolinError):
        curry(b)
    assert len(decided) == 1 and decided[0] is b


def test_curry_correspondence_decides_each_zero_form_once_per_pair(monkeypatch):
    """One check makes 574 decisions over the 26 (V, W) pairs: the 336
    basis rows and unit forms (93 + 243), the uncurried form of each of the
    186 Smooth ones, and the zero form and its curried map once per pair
    (52).  The 2,600 random draws it replaced made 3,261."""
    decided = _count_decisions(monkeypatch)
    assert verify.check_curry_correspondence() == (True, (
        "smooth bases equal on 26 pairs; 336 basis and unit forms over 13 spaces "
        "keep their verdicts and round-trip"))
    assert len(decided) == 574
    assert sum(map(_is_zero, decided)) == 2 * 26


def test_curry_correspondence_fails_on_a_wrong_bilinear_decision(wrong_bilinear_block_rows):
    """Every unit form with a kink index is NotSmooth.  With no block rows
    the smooth bilinear basis of the first kink line reads no degree of
    V (x) V and differs from the uncurried one, before any form is decided;
    with the left rows only, the first form b(e_1, e_0) on the plane kinked
    along e_0 is judged Smooth."""
    detail = {
        "no rows": "smooth bilinear basis differs from the uncurried one on generated R^1",
        "left rows only": "block-row verdict disagrees with the smooth basis on generated R^2",
    }[wrong_bilinear_block_rows]
    assert verify.check_curry_correspondence() == (False, (
        f"{detail} (1 generators) -> fine R^1"))
    assert cli.main(["verify"]) == 1


def _is_zero(b):
    return not any(x for row in b.matrix for x in row)


@pytest.mark.parametrize("side", ["form", "curried map"])
def test_curry_correspondence_rejects_a_zero_form_that_is_not_smooth(monkeypatch, side):
    """A NotSmooth verdict on the zero form, or on its curried map, fails
    the check with its own message."""
    if side == "form":
        _patch_decision(monkeypatch, lambda decide: lambda b: (
            Verdict.NOT_SMOOTH if _is_zero(b) else decide(b)))
    else:
        monkeypatch.setattr(verify, "curried_is_smooth",
                            lambda g: Verdict.NOT_SMOOTH if _is_zero(uncurry(g))
                            else curried_is_smooth(g))
    assert verify.check_curry_correspondence() == (False, "zero form not smooth")


@pytest.mark.parametrize("n, q", [(0, 1), (2, 0), (0, 0)])
def test_round_trip_with_zero_dimensional_factors_and_codomains(n, q):
    for v in (make_fine(n), make_coarse(n), kink_space(n, min(n, 1))):
        for w in (make_fine(q), make_coarse(q)):
            b = form_from_flat(v, v, w, [])
            assert b.matrix == ((Fraction(0),) * (n * n),) * q
            assert is_smooth_bilinear(b) is _fraction_is_smooth_bilinear(b) is Verdict.SMOOTH
            g = curry(b)
            assert g.blocks == ((),) * n
            assert uncurry(g) == b
            assert curried_is_smooth(g) is Verdict.SMOOTH
            assert curry(uncurry(g)).blocks == g.blocks
            assert smooth_bilinear_basis(v, w).dim == 0


def test_forms_on_different_left_and_right_spaces():
    """Factors of different dimensions (one of them zero-dimensional) and
    descriptors: the verdict equals the Fraction-slice reference and the
    universal-property route through V (x) W."""
    rng = random.Random(1703)
    spaces = [make_fine(0), make_coarse(0), make_fine(1), make_coarse(2), kink_space(2, 1),
              kink_space(3, 2), diffeological_dual(kink_space(3, 1))]
    codomains = [make_fine(1), make_coarse(1), kink_space(2, 1)]
    verdicts = []
    for left, right in itertools.permutations(spaces, 2):
        for cod in codomains:
            for _ in range(3):
                flat = [rng.choice([0, 0, 0, 1, -2, Fraction(1, 3)])
                        for _ in range(left.dim * right.dim * cod.dim)]
                b = form_from_flat(left, right, cod, flat)
                verdict = is_smooth_bilinear(b)
                assert verdict is _fraction_is_smooth_bilinear(b), (
                    left.describe(), right.describe(), cod.describe(), flat)
                t = tensor_product(left, right)
                assert verdict is is_smooth_linear(LinearMap(t, cod, b.matrix))
                verdicts.append(verdict)
    assert set(verdicts) == {Verdict.SMOOTH, Verdict.NOT_SMOOTH}


def _tensor_free_space(rng, n):
    """A fine, coarse, generated, sum or dual space of dimension n >= 2."""
    kind = rng.choice(["fine", "coarse", "generated", "sum", "dual"])
    if kind == "fine":
        return make_fine(n)
    if kind == "coarse":
        return make_coarse(n)
    if kind == "dual":
        return diffeological_dual(kink_space(n + 1, 1))  # S is the kink line
    k = n if kind == "generated" else rng.randint(1, n - 1)
    generated = make_generated(k, [
        Plot([FunctionExpr.monomial(1, rng.randint(-2, 2))
              + FunctionExpr.abs_monomial(rng.randint(0, 2), rng.choice([0, 0, 1, -1]))
              for _ in range(k)]) for _ in range(rng.randint(1, 2))])
    return generated if kind == "generated" else direct_sum(generated, make_coarse(n - k))


def test_forms_are_decided_without_presenting_the_tensor_product(monkeypatch):
    """A decision reads the factor presentations and the block rows of the
    definition: on tensor-free factors with n*m up to 64 it builds no step
    of V (x) W and reduces no rows over its n*m coordinates, and the verdict
    equals the Fraction-slice reference."""
    def refuse(*args):
        raise AssertionError("built a step of V (x) W")

    eliminate = linalg._eliminate
    width = None

    def checked(rows, n_cols):
        assert n_cols != width, f"elimination over the {width} coordinates of V (x) W"
        return eliminate(rows, n_cols)

    monkeypatch.setattr(spaces, "tensor_span", refuse)
    monkeypatch.setattr(linalg, "_eliminate", checked)
    rng = random.Random(6400)
    verdicts = []
    for n, m in [(8, 8)] + [(rng.randint(2, 8), rng.randint(2, 8)) for _ in range(59)]:
        left, right = _tensor_free_space(rng, n), _tensor_free_space(rng, m)
        cod = _tensor_free_space(rng, rng.randint(2, 3))
        flat = [rng.choice([0, 0, 0, 0, 1, -2, Fraction(1, 3)]) for _ in range(n * m * cod.dim)]
        b = form_from_flat(left, right, cod, flat)
        width = n * m
        verdict = is_smooth_bilinear(b)
        width = None
        assert verdict is _fraction_is_smooth_bilinear(b), (
            left.describe(), right.describe(), cod.describe(), flat)
        verdicts.append(verdict)
    assert set(verdicts) == {Verdict.SMOOTH, Verdict.NOT_SMOOTH}


def test_form_from_flat_accepts_ints_fractions_and_strings():
    """The flat list is the induced 2 x 2 matrix row by row: b(v_i, w_0)_k
    sits at index 2*k + i."""
    b = form_from_flat(make_fine(2), make_fine(1), make_fine(2), [1, Fraction(1, 2), "-3/4", "0"])
    assert b.matrix == ((Fraction(1), Fraction(1, 2)), (Fraction(-3, 4), Fraction(0)))
    assert b.apply((1, 0), (1,)) == (Fraction(1), Fraction(-3, 4))
    assert b.apply((0, 1), (1,)) == (Fraction(1, 2), Fraction(0))
    assert all(type(x) is Fraction for row in b.matrix for x in row)
    assert b == form_from_flat(make_fine(2), make_fine(1), make_fine(2),
                               ["1", "1/2", Fraction(-3, 4), 0])
