"""Duals, smooth hom spaces, dual maps and the pushforward (hat) dual."""

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from diffeolin import (
    DiffeolinError,
    DimensionMismatchError,
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
    row_plot,
    separating_functional,
    singular_span,
    smooth_hom_basis,
    tensor_product,
)
from diffeolin import verify
from diffeolin.hom import _COARSE_FAILURE
from diffeolin.linalg import (
    Subspace,
    dot,
    identity,
    integer_columns,
    integer_support,
    invert,
    matmul,
    transpose,
)
from diffeolin.spaces import presentation

from conftest import (
    SINGULAR_SHAPES,
    block_rows,
    constraint_hom_basis,
    presented_rows,
    random_square,
    ray,
)


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


def test_coarse_failure_inside_f0_has_no_atom_witness():
    """|x| is a plot of <|x|>, so the identity from the coarse line into it
    fails only on non-smooth set maps, and no atom curve witnesses that."""
    f = LinearMap(make_coarse(1), make_generated(1, [kink_plot(1, 0)]), ((Fraction(1),),))
    report = check_smooth_linear(f)
    assert report.verdict is Verdict.NOT_SMOOTH
    assert report.witness is None
    assert report.reason == "image of a coarse direction leaves the coarse part"
    # A later singular row that fails does carry a witness.
    v = direct_sum(make_coarse(1), kink_space(1, 1))
    report = check_smooth_linear(LinearMap(v, kink_space(2, 1), identity(2)))
    assert report.verdict is Verdict.NOT_SMOOTH
    assert report.witness == kink_plot(2, 1)
    assert report.reason == "image of a singular direction is not a plot"


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


def test_identity_map_carries_the_columns_of_its_matrix(monkeypatch):
    """``identity_map`` hands in its unit columns, so deciding it scans no
    matrix entry; they equal the integer columns read off the identity
    matrix, and the map keeps its Smooth verdict."""
    import diffeolin.hom as hom

    def refuse(m, n_cols):
        raise AssertionError("scanned the identity matrix")

    for n in range(6):
        v = kink_space(n, n // 2)
        with monkeypatch.context() as patch:
            patch.setattr(hom, "integer_columns", refuse)
            f = identity_map(v)
            assert is_smooth_linear(f) is Verdict.SMOOTH
        columns, ref_columns = f._integer_columns, integer_columns(identity(n), n)
        assert list(map(list, columns)) == list(map(list, ref_columns))
        assert f.apply(tuple(Fraction(j + 1, 2) for j in range(n))) == tuple(
            Fraction(j + 1, 2) for j in range(n))


def test_compose_through_zero_dimensional_spaces():
    """A composite keeps its shape when the middle space, or either end, is
    zero-dimensional, and equals the matrix product on seeded matrices."""
    fine = [make_fine(n) for n in range(4)]
    through = LinearMap(fine[0], fine[3], ((),) * 3).compose(LinearMap(make_coarse(2), fine[0], ()))
    assert through.domain == make_coarse(2) and through.codomain == fine[3]
    assert through.matrix == ((Fraction(0),) * 2,) * 3
    back = LinearMap(fine[0], fine[2], ((), ())).compose(LinearMap(fine[3], fine[0], ()))
    assert back.matrix == ((Fraction(0),) * 3,) * 2
    assert LinearMap(fine[2], fine[0], ()).compose(
        LinearMap(fine[0], fine[2], ((), ()))).matrix == ()
    assert LinearMap(fine[2], fine[3], ((1, 0), (0, 1), (1, 1))).compose(
        LinearMap(fine[0], fine[2], ((), ()))).matrix == ((), (), ())
    rng = random.Random(44)
    for _ in range(30):
        a, b, c = (rng.randint(1, 3) for _ in range(3))
        g = tuple(tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(a))
                  for _ in range(b))
        f = tuple(tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(b))
                  for _ in range(c))
        composite = LinearMap(fine[b], fine[c], f).compose(LinearMap(fine[a], fine[b], g))
        assert composite.matrix == matmul(f, g)


@pytest.mark.parametrize("matrix, message", [
    (((1, 1, 1),), "matrix has 1 rows, codomain dimension is 2"),
    (((1, 1, 1), (1, 1, 1), (1, 1, 1)), "matrix has 3 rows"),
    (((1, 1, 1), (1, 1)), "matrix row length 2 != domain dimension 3"),
    (((1, 1, 1), (1, 1, 1, 1)), "matrix row length 4"),
])
def test_a_map_rejects_a_matrix_of_the_wrong_shape(matrix, message):
    with pytest.raises(DimensionMismatchError, match=message):
        LinearMap(make_fine(3), make_fine(2), matrix)


def test_compose_rejects_maps_that_do_not_meet():
    f = LinearMap(make_fine(3), make_fine(2), ((1, 0, 0), (0, 1, 0)))
    with pytest.raises(DimensionMismatchError, match="composition dimension mismatch"):
        f.compose(f)
    assert f.compose(LinearMap(make_fine(2), make_fine(3), ((1, 0), (0, 1), (1, 1)))).matrix == (
        (1, 0), (0, 1))


@pytest.mark.parametrize("v", [(1, 1), (1, 1, 1, 1), ()])
def test_apply_rejects_a_vector_of_the_wrong_length(v):
    """A vector shorter or longer than the domain is refused, not cut to
    fit: on R^3, (1, 1) once came out as the image of (1, 1, 0)."""
    f = LinearMap(make_fine(3), make_fine(2), ((1, 1, 1), (4, 5, 6)))
    with pytest.raises(DimensionMismatchError):
        f.apply(v)
    assert f.apply((1, 1, 0)) == (2, 9)


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


def _seeded_pairs(seed, count):
    """Seeded (v, w) pairs over fine, coarse, generated, sum, hat, tensor and
    dual spaces, with zero-dimensional fine and coarse spaces among them."""
    rng = random.Random(seed)

    def space():
        roll = rng.random()
        if roll < 0.08:
            return rng.choice([make_fine(0), make_coarse(0)])
        if roll < 0.2:
            return diffeological_dual(_random_hom_space(rng))
        return _random_hom_space(rng)

    return [(space(), space()) for _ in range(count)]


def test_smooth_hom_basis_equals_the_constraint_elimination():
    """The basis spanned from the two flags is, as a Subspace, the
    annihilator of the constraint rows psi (x) r, the route it replaced, on
    every ordered pair of flag classes with n <= 2 and on 150 seeded pairs
    over all seven kinds, zero-dimensional spaces included."""
    classes = [v for _, v in verify._flag_classes(2)]
    seeded = _seeded_pairs(1703, 150)
    kinds = {(type(s).__name__, type(s.diffeology).__name__) for pair in seeded for s in pair}
    assert len(kinds) == 7 and any(0 in (v.dim, w.dim) for v, w in seeded)
    for v, w in list(itertools.product(classes, repeat=2)) + seeded:
        assert smooth_hom_basis(v, w) == constraint_hom_basis(v, w), (v.describe(), w.describe())


def test_smooth_hom_basis_eliminates_once_over_the_map_coordinates(monkeypatch):
    """On seeded pairs with n, m > 1, ``smooth_hom_basis`` runs one
    ``linalg._eliminate`` over the n*m coordinates of L(v, w) and computes
    no annihilator there: every elimination and annihilator is recorded
    with its width."""
    import diffeolin.linalg as linalg

    widths, annihilated = [], []
    eliminate, annihilator = linalg._eliminate, linalg._annihilator_form
    monkeypatch.setattr(linalg, "_eliminate", lambda rows, n: widths.append(n) or eliminate(rows, n))
    monkeypatch.setattr(linalg, "_annihilator_form",
                        lambda n, form: annihilated.append(n) or annihilator(n, form))
    pairs = [(v, w) for v, w in _seeded_pairs(2718, 80) if v.dim > 1 and w.dim > 1]
    pairs.append((kink_space(8, 4), direct_sum(kink_space(5, 2), make_coarse(3))))
    for v, w in pairs:
        widths.clear(), annihilated.clear()
        smooth_hom_basis(v, w)
        assert widths.count(v.dim * w.dim) == 1, (v.describe(), w.describe())
        assert v.dim * w.dim not in annihilated, (v.describe(), w.describe())
    assert len(pairs) >= 30


def test_a_witness_is_the_primitive_multiple_of_a_presented_direction():
    """On 600 seeded maps over all seven kinds, every NotSmooth witness is
    |x|*x^e * r for a presented direction of degree d, e = max(d, 0), with
    r the primitive integer vector on its ray (integer entries, gcd 1); it
    is a plot of the domain and its image is not a plot."""
    rng = random.Random(1618)
    witnesses = 0
    for v, w in _seeded_pairs(1618, 600):
        matrix = tuple(tuple(Fraction(rng.choice([0, 0, 1, -1, 2]), rng.randint(1, 3))
                             for _ in range(v.dim)) for _ in range(w.dim))
        report = check_smooth_linear(LinearMap(v, w, matrix))
        if report.witness is None:
            continue
        witnesses += 1
        (e, r), = report.witness.residue_rows().items()
        assert all(x.denominator == 1 for x in r) and gcd(*(int(x) for x in r)) == 1
        assert any(max(d, 0) == e and ray(s) == ray(integer_support(r))
                   for d, s in presentation(v).supports)
        assert is_plot(v, report.witness) is Verdict.SMOOTH
        assert is_plot(w, report.witness.transform(matrix)) is Verdict.NOT_SMOOTH
    assert witnesses >= 100


def test_not_smooth_witnesses_are_plots_with_non_plot_images():
    """On 240 seeded maps between fine, coarse, generated, sum, hat, tensor
    and dual spaces, every NotSmooth witness is a plot of the domain whose
    image is not a plot, and a NotSmooth verdict goes without a witness only
    when every failing row is coarse with its image in F_0 of the
    codomain."""
    rng = random.Random(20150430)
    seen = {"witness": 0, "none": 0}

    def space():
        if rng.random() < 0.15:
            return diffeological_dual(_random_hom_space(rng))
        return _random_hom_space(rng)

    for _ in range(400):
        v, w = space(), space()
        matrix = tuple(tuple(Fraction(rng.choice([0, 0, 1, -1, 2]), rng.randint(1, 2))
                             for _ in range(v.dim)) for _ in range(w.dim))
        f = LinearMap(v, w, matrix)
        report = check_smooth_linear(f)
        if report.verdict is Verdict.SMOOTH:
            assert report.witness is None
            continue
        if report.witness is not None:
            seen["witness"] += 1
            assert is_plot(v, report.witness) is Verdict.SMOOTH
            assert is_plot(w, report.witness.transform(matrix)) is Verdict.NOT_SMOOTH
            continue
        seen["none"] += 1
        cod = presentation(w)
        failing = [(d, f.apply(r)) for d, r in presented_rows(v)
                   if not cod.filtration_step(d).contains(f.apply(r))]
        assert failing
        assert all(d == -1 and cod.filtration_step(0).contains(image) for d, image in failing)
    assert seen["witness"] >= 100 and seen["none"] >= 3, seen


def _reference_apply(matrix, v):
    """M v by Fraction arithmetic over the dense row, the route the integer
    column form replaced."""
    return tuple(sum((a * Fraction(x) for a, x in zip(row, v) if a and x), Fraction(0))
                 for row in matrix)


def _primitive(r):
    """An integer vector divided by the gcd of its entries."""
    content = gcd(*(int(x) for x in r))
    return tuple(x / content for x in r)


def _reference_check_smooth_linear(f):
    """``check_smooth_linear`` on dense Fraction images tested by
    ``Subspace.contains``, the witness along the primitive integer vector
    of the failing direction."""
    cod = presentation(f.codomain)
    coarse_failure = False
    for degree, r in presented_rows(f.domain):
        image = _reference_apply(f.matrix, r)
        if cod.filtration_step(degree).contains(image):
            continue
        r = _primitive(r)
        if degree >= 0:
            return (Verdict.NOT_SMOOTH, row_plot(r, degree),
                    "image of a singular direction is not a plot")
        coarse_failure = True
        if not cod.filtration_step(0).contains(image):
            return Verdict.NOT_SMOOTH, row_plot(r), _COARSE_FAILURE
    if coarse_failure:
        return Verdict.NOT_SMOOTH, None, _COARSE_FAILURE
    return Verdict.SMOOTH, None, "all singular images are plots"


def _reference_separating_functional(space, candidate):
    """``separating_functional`` on the dense residue rows, tested by
    ``Subspace.contains``."""
    pres = presentation(space)
    for degree, rho in candidate.residue_rows().items():
        step = pres.filtration_step(degree)
        if not step.contains(rho):
            return next(phi for phi in step.annihilator().basis if dot(phi, rho))
    return None


def _rational_plot(rng, n, rows=(), stray=0.7):
    """A curve with rational residues: a combination of presented rows at
    their degrees (a plot) plus, with probability ``stray``, one stray
    residue."""
    comps = [FunctionExpr.monomial(rng.randint(0, 2), Fraction(rng.randint(-3, 3), 2))
             for _ in range(n)]
    for d, r in rows:
        e, c = d + rng.randint(0, 1), Fraction(rng.randint(1, 5), rng.randint(1, 4))
        comps = [comp + FunctionExpr.abs_monomial(e, c * x) if x else comp
                 for comp, x in zip(comps, r)]
    if n and rng.random() < stray:
        i = rng.randrange(n)
        comps[i] = comps[i] + FunctionExpr.abs_monomial(
            rng.randint(0, 3), Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 6)))
    return Plot(comps)


def test_integer_path_equals_the_fraction_route():
    """On seeded fine, coarse, generated, sum, tensor, pushforward and dual
    spaces, zero-dimensional domains and codomains included, the verdict,
    witness and reason of ``check_smooth_linear`` and the functional of
    ``separating_functional`` equal those of the dense Fraction route
    (``LinearMap.apply`` as it was, and ``Subspace.contains``), and
    ``apply`` still returns the exact image as Fractions."""
    rng = random.Random(1907)
    verdicts, functionals = set(), set()

    def space():
        roll = rng.random()
        if roll < 0.08:
            return make_fine(0)
        if roll < 0.2:
            return diffeological_dual(_random_hom_space(rng))
        return _random_hom_space(rng)

    for trial in range(300):
        v, w = space(), space()
        dens = [1, 1, 2, 3] if trial % 2 else [1]
        matrix = tuple(tuple(Fraction(rng.choice([0, 0, 1, -1, 2, 5]), rng.choice(dens))
                             for _ in range(v.dim)) for _ in range(w.dim))
        for f in (LinearMap(v, w, matrix), LinearMap(v, make_fine(0), ()),
                  LinearMap(make_fine(0), w, ((),) * w.dim)):
            report = check_smooth_linear(f)
            assert (report.verdict, report.witness, report.reason) == \
                _reference_check_smooth_linear(f), (f.domain.describe(), f.codomain.describe())
            verdicts.add(report.verdict)
            for d, r in presented_rows(f.domain):
                image = f.apply(r)
                assert image == _reference_apply(f.matrix, r)
                assert all(type(x) is Fraction for x in image)
        for target in (v, w):
            rows = [(d, r) for d, r in presented_rows(target) if d >= 0]
            candidate = _rational_plot(rng, target.dim, rng.sample(rows, min(len(rows), 2)))
            phi = separating_functional(target, candidate)
            assert phi == _reference_separating_functional(target, candidate)
            functionals.add(phi is None)
    assert verdicts == {Verdict.SMOOTH, Verdict.NOT_SMOOTH}
    assert functionals == {True, False}


FRACTION_ARITHMETIC = ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__truediv__")


def test_a_warm_query_does_no_fraction_arithmetic(monkeypatch):
    """Once the presentations, filtration steps and column forms are built,
    repeating ``check_smooth_linear`` (Smooth and NotSmooth, with its
    witness), ``is_plot`` of a plot and the block-row check of
    ``tensor_dual_iso`` multiplies, adds, subtracts and divides no
    Fraction: the vectors reach ``Subspace`` as integer supports."""
    rng = random.Random(2015)
    spaces = [kink_space(4, 2), make_coarse(2),
              direct_sum(kink_space(3, 1), make_coarse(2)),
              hat_dual(kink_space(3, 2), ((1, 2, 0), (0, 1, 0), (Fraction(1, 3), 0, 1))),
              tensor_product(kink_space(3, 1), kink_space(2, 1)),
              diffeological_dual(kink_space(4, 1))]
    spaces += [_random_hom_space(rng) for _ in range(12)]
    line = make_fine(1)
    maps = [identity_map(v) for v in spaces]
    maps += [LinearMap(v, line, (tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                                       for _ in range(v.dim)),)) for v in spaces]
    maps += [LinearMap(v, w, tuple(tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                                         for _ in range(v.dim)) for _ in range(w.dim)))
             for v, w in zip(spaces, spaces[1:])]
    plots = [(v, _rational_plot(rng, v.dim, [(d, r) for d, r in presented_rows(v) if d >= 0],
                                stray=0)) for v in spaces]
    pairs = [(kink_space(3, 1), kink_space(4, 2)), (direct_sum(kink_space(2, 1), make_coarse(1)),
                                                    spaces[3])]
    pairs = [(singular_span(tensor_product(v, w)), v, w) for v, w in pairs]

    def queries():
        return ([check_smooth_linear(f) for f in maps],
                [is_plot(v, p) for v, p in plots],
                [span.contains_support(row) for span, v, w in pairs
                 for _, row in block_rows(v, w)])

    warm = queries()
    assert {r.verdict for r in warm[0]} == {Verdict.SMOOTH, Verdict.NOT_SMOOTH}
    assert set(warm[1]) == {Verdict.SMOOTH} and all(warm[2])
    counts = {}
    for name in FRACTION_ARITHMETIC:
        def counted(*args, real=getattr(Fraction, name), name=name):
            counts[name] = counts.get(name, 0) + 1
            return real(*args)
        monkeypatch.setattr(Fraction, name, counted)
    again = queries()
    assert counts == {}
    monkeypatch.undo()
    assert again == warm


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


@pytest.mark.parametrize("how", ("random",) + SINGULAR_SHAPES)
def test_hat_dual_raises_on_every_singular_iso(how):
    """Seeded isos up to 64 x 64: each one made singular is rejected, and a
    random one exactly when elimination finds fewer than n independent rows."""
    rng = random.Random(f"hat-dual-singular:{how}")
    sizes = list(range(2, 9)) * 3 + [12, 33, 64]
    rejected = 0
    for n in sizes:
        iso = random_square(rng, n, how)
        singular = how in SINGULAR_SHAPES or Subspace.from_rows(n, iso).dim < n
        rejected += singular
        if singular:
            with pytest.raises(DiffeolinError, match="pushforward matrix is singular"):
                hat_dual(make_fine(n), iso)
        else:
            assert hat_dual(make_fine(n), iso).dim == n
    assert 0 < rejected < len(sizes) if how == "random" else rejected == len(sizes)


def test_hat_dual_wellposedness_examples():
    swap = frac_matrix([[0, 1], [1, 0]])
    # A fine space pushes forward to a fine space along any isomorphism.
    report = hat_dual_wellposed(make_fine(2), frac_matrix([[1, 2], [1, 3]]),
                                frac_matrix([[3, 1], [2, 1]]))
    assert report.consistent
    assert report.forward.verdict is report.backward.verdict is Verdict.SMOOTH

    # The shear fixes the kink line of kink(2, 1); the swap moves it.
    g = kink_space(2, 1)
    assert hat_dual_wellposed(g, identity(2), frac_matrix([[1, 1], [0, 1]])).consistent
    report = hat_dual_wellposed(g, identity(2), swap)
    assert not report.consistent
    for direction, (domain, codomain) in (
            (report.forward, (identity(2), swap)), (report.backward, (swap, identity(2)))):
        assert direction.verdict is Verdict.NOT_SMOOTH
        assert is_plot(hat_dual(g, domain), direction.witness) is Verdict.SMOOTH
        assert is_plot(hat_dual(g, codomain), direction.witness) is Verdict.NOT_SMOOTH

    # F_0 of kink(2, 2) is R^2, so every isomorphism pair gives one diffeology.
    assert hat_dual_wellposed(kink_space(2, 2), identity(2), swap).consistent
    assert hat_dual_wellposed(kink_space(2, 2), frac_matrix([[1, 2], [1, 3]]),
                              frac_matrix([[5, 0], [1, -1]])).consistent


def test_hat_dual_wellposedness_without_an_atom_witness():
    """The swap moves the coarse line of coarse (+) kink, but inside F_0 =
    R^2: the diffeologies differ, and no atom curve shows it."""
    v = direct_sum(make_coarse(1), make_generated(1, [kink_plot(1, 0)]))
    report = hat_dual_wellposed(v, identity(2), frac_matrix([[0, 1], [1, 0]]))
    assert not report.consistent
    assert report.forward.verdict is report.backward.verdict is Verdict.NOT_SMOOTH
    assert report.forward.witness is None and report.backward.witness is None


def _random_wellposedness_space(rng):
    if rng.random() < 0.3:
        return direct_sum(_random_hom_space(rng, 1), _random_hom_space(rng, 1))
    return _random_hom_space(rng, 1)


def _random_invertible(rng, n):
    while True:
        m = tuple(tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n))
                  for _ in range(n))
        if invert(m) is not None:
            return m


def _random_automorphism(rng, v):
    """B*T*B^-1 for an adapted basis B of v (a basis of F_-1, extended to
    each presented step in turn, then to R^n) and an invertible T that sends
    each basis vector to a combination of vectors of no higher level: a
    linear iso that maps every step onto itself."""
    pres = presentation(v)
    steps = [pres.filtration_step(d) for d in sorted({-1} | {d for d, _ in pres.supports})]
    basis, levels = [], []
    for level, step in enumerate(steps + [Subspace.full(v.dim)]):
        for row in step.basis:
            if Subspace.from_rows(v.dim, basis + [row]).dim > len(basis):
                basis.append(row)
                levels.append(level)
    while True:
        t = tuple(tuple(Fraction(rng.randint(-2, 2)) if levels[i] <= levels[j] else Fraction(0)
                        for j in range(v.dim)) for i in range(v.dim))
        if invert(t) is not None:
            b = transpose(tuple(basis))
            return matmul(matmul(b, t), invert(b))


def _steps_agree(h1, h2, degrees):
    p1, p2 = presentation(h1), presentation(h2)
    return all(p1.filtration_step(e) == p2.filtration_step(e) for e in degrees)


def _random_plot(rng, n):
    return Plot([FunctionExpr.monomial(rng.randint(0, 2), rng.randint(-2, 2))
                 + FunctionExpr.abs_monomial(rng.randint(0, 2), rng.choice([0, 0, 1, -1]))
                 for _ in range(n)])


def test_hat_dual_wellposed_equals_step_equality():
    """On seeded fine, coarse, generated and sum spaces, with isomorphism
    pairs half of which differ by an automorphism: the report is consistent
    exactly when the two hat duals have equal filtration steps; each
    witness is a plot of its report's domain and not of its codomain, and
    both are missing only when every step from F_0 on agrees (the case of
    ``test_hat_dual_wellposedness_without_an_atom_witness``); consistent
    hat duals give random plots one verdict."""
    rng = random.Random(20150430)
    seen = {"automorphism": 0, "consistent": 0, "witness": 0}
    for _ in range(150):
        v = _random_wellposedness_space(rng)
        iso1 = _random_invertible(rng, v.dim)
        if rng.random() < 0.5:
            iso2 = matmul(iso1, _random_automorphism(rng, v))
            seen["automorphism"] += 1
        else:
            iso2 = _random_invertible(rng, v.dim)
        hat1, hat2 = hat_dual(v, iso1), hat_dual(v, iso2)
        degrees = sorted({-1} | {d for d, _ in presentation(v).supports})
        report = hat_dual_wellposed(v, iso1, iso2)
        assert report.consistent == _steps_agree(hat1, hat2, degrees), v.describe()
        if report.consistent:
            seen["consistent"] += 1
            for _ in range(5):
                plot = _random_plot(rng, v.dim)
                assert is_plot(hat1, plot) is is_plot(hat2, plot)
            continue
        witnesses = 0
        for direction, domain, codomain in ((report.forward, hat1, hat2),
                                            (report.backward, hat2, hat1)):
            if direction.witness is not None:
                witnesses += 1
                assert is_plot(domain, direction.witness) is Verdict.SMOOTH
                assert is_plot(codomain, direction.witness) is Verdict.NOT_SMOOTH
        assert (witnesses == 0) == _steps_agree(hat1, hat2, [max(d, 0) for d in degrees])
        seen["witness"] += witnesses > 0
    assert seen["automorphism"] >= 50 and seen["consistent"] >= 75 and seen["witness"] >= 20, seen


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
