"""Singular spans and plot membership with certificates."""

import gc
import random
import sys
import threading
import weakref
from collections import Counter
from fractions import Fraction

import pytest

from diffeolin import (
    DiffeolinError,
    DimensionMismatchError,
    FunctionExpr,
    Plot,
    Verdict,
    direct_sum,
    is_plot,
    kink_plot,
    make_coarse,
    make_fine,
    make_generated,
    parse_expr,
    row_plot,
    separating_functional,
    singular_span,
)
from diffeolin.atoms import abs_mono, mono
from diffeolin.hom import LinearMap, check_smooth_linear, diffeological_dual, hat_dual, identity_map
from diffeolin.linalg import (
    Subspace, dot, identity, integer_support, invert, matvec, vector)
from diffeolin.oracle import classify
from diffeolin.spaces import (
    Coarse, DiffSpace, DualSpace, Fine, Generated, Pushforward, SumOf, TensorOf, presentation,
    residue_supports)
from diffeolin.tensor import tensor_dual_iso, tensor_product

from conftest import (
    presented_rows,
    ray,
    reference_contains,
    reference_residue_supports,
    reference_rref,
)

A = FunctionExpr.abs_monomial
M = FunctionExpr.monomial


def plot_of(*texts):
    return Plot([parse_expr(t) for t in texts])


def test_constructor_examples():
    assert singular_span(make_generated(3, [kink_plot(3, 0)])).dim == 1
    assert singular_span(make_fine(4)).dim == 0
    assert singular_span(make_coarse(2)).dim == 2


def test_a_space_has_a_nonnegative_dimension():
    with pytest.raises(ValueError, match="dimension must be >= 0"):
        DiffSpace(-1, Fine())
    assert singular_span(DiffSpace(0, Fine())).dim == 0


def test_constructor_rejects_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        make_generated(3, [kink_plot(2, 0)])


def test_singular_span_examples():
    v = make_generated(4, [kink_plot(4, 0), kink_plot(4, 1)])
    assert singular_span(v) == Subspace.from_rows(4, [[1, 0, 0, 0], [0, 1, 0, 0]])

    mixed = make_generated(2, [plot_of("abs(x) + x^2", "abs(x)")])
    assert singular_span(mixed) == Subspace.from_rows(2, [[1, 1]])

    summed = direct_sum(make_coarse(1), make_fine(1))
    assert singular_span(summed) == Subspace.from_rows(2, [[1, 0]])


def test_smooth_generators_contribute_nothing():
    v = make_generated(2, [plot_of("x^2", "x"), kink_plot(2, 1)])
    assert singular_span(v) == Subspace.from_rows(2, [[0, 1]])


def test_is_plot_examples():
    assert is_plot(make_coarse(2), plot_of("abs(x)", "abs(x)*x^4")) is Verdict.SMOOTH

    v = make_generated(2, [kink_plot(2, 0)])
    assert is_plot(v, plot_of("x*abs(x)", "0")) is Verdict.SMOOTH

    fine = make_fine(2)
    assert is_plot(fine, plot_of("abs(x)", "x")) is Verdict.NOT_SMOOTH
    assert is_plot(fine, plot_of("x^3", "x")) is Verdict.SMOOTH


def test_generators_are_plots():
    rng = random.Random(5)
    for n, k in [(2, 1), (3, 2), (4, 2)]:
        v = make_generated(n, [kink_plot(n, i) for i in range(k)])
        gens = v.diffeology.generators
        for g in gens:
            assert is_plot(v, g) is Verdict.SMOOTH


def test_reparametrised_scaled_combinations_are_plots():
    """lambda(x) * p(c*x) + s(x) stays a plot for polynomial lambda,
    rational c and smooth s."""
    rng = random.Random(9)
    gen = plot_of("abs(x) + x^2", "abs(x)*x")
    v = make_generated(2, [gen])
    for _ in range(25):
        c = Fraction(rng.choice([1, -1, 2, -2, 3]), rng.choice([1, 2]))
        lam = FunctionExpr([(mono(d), rng.randint(-3, 3)) for d in range(3)])
        if not lam:
            lam = FunctionExpr.constant(1)
        comps = [lam * comp.compose_scale(c) + M(rng.randint(0, 3), rng.randint(-2, 2))
                 for comp in gen.components]
        assert is_plot(v, Plot(comps)) is Verdict.SMOOTH


def test_membership_certificates():
    v = make_generated(2, [kink_plot(2, 0)])
    off_span = plot_of("0", "abs(x)")
    assert is_plot(v, off_span) is Verdict.NOT_SMOOTH
    phi = separating_functional(v, off_span)
    assert phi is not None
    # The functional annihilates the singular span but not the candidate.
    assert all(
        sum(a * b for a, b in zip(phi, row)) == 0
        for row in singular_span(v).basis
    )
    assert separating_functional(v, plot_of("abs(x)", "x")) is None

    # Inside the singular span but below the degree of the generator: the
    # certificate kills F_0, which is smaller than the whole span.
    for space, candidate in [
        (make_generated(1, [Plot([A(1)])]), Plot([A(0)])),
        (make_generated(2, [plot_of("abs(x)*x", "abs(x)")]), plot_of("abs(x)", "0")),
    ]:
        assert singular_span(space).dim == space.dim
        assert is_plot(space, candidate) is Verdict.NOT_SMOOTH
        phi = separating_functional(space, candidate)
        assert phi is not None
        rho = candidate.residue_rows()[0]
        assert sum(a * b for a, b in zip(phi, rho)) != 0
        assert classify(_compose(phi, candidate)).failing_order == 2


def test_membership_not_plot_when_degree_cannot_drop():
    # A generator kinked only at degree 5 cannot produce a degree-0 kink.
    v = make_generated(1, [Plot([A(5)])])
    assert is_plot(v, Plot([A(0)])) is Verdict.NOT_SMOOTH
    assert is_plot(v, Plot([A(6, 3)])) is Verdict.SMOOTH
    # A multiplier lifts a kink to any higher degree.
    assert is_plot(make_generated(1, [Plot([A(0)])]), Plot([A(4)])) is Verdict.SMOOTH


def _random_direction(rng, n):
    while True:
        row = [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n)]
        if any(row):
            return row


def _random_generated(rng, n):
    """A generated space on R^n and its generators; each generator carries
    kinks along one or two random directions at degrees 0..5."""
    gens = []
    for _ in range(rng.randint(1, n)):
        comps = [M(rng.randint(0, 2), rng.randint(-2, 2)) for _ in range(n)]
        for degree in rng.sample(range(6), rng.randint(1, 2)):
            row = _random_direction(rng, n)
            comps = [c + A(degree, r) for c, r in zip(comps, row)]
        gens.append(Plot(comps))
    return make_generated(n, gens), gens


def _random_hat_iso(rng, n):
    while True:
        m = tuple(tuple(Fraction(rng.randint(-2, 2)) for _ in range(n)) for _ in range(n))
        if invert(m) is not None:
            return m


def _random_structured_space(rng):
    """(space, generators of its plots as curves of the space)."""
    kind = rng.choice(["generated", "sum", "hat"])
    if kind == "sum":
        (v, gv), (w, gw) = (_random_generated(rng, rng.randint(1, 2)) for _ in range(2))
        zero_v, zero_w = [M(0, 0)] * v.dim, [M(0, 0)] * w.dim
        gens = ([Plot(list(g.components) + zero_w) for g in gv]
                + [Plot(zero_v + list(g.components)) for g in gw])
        return direct_sum(v, w), gens
    v, gens = _random_generated(rng, rng.randint(1, 3))
    if kind == "hat":
        iso = _random_hat_iso(rng, v.dim)
        return hat_dual(v, iso), [g.transform(iso) for g in gens]
    return v, gens


def _sampled_plot(rng, space, gens):
    """lambda * g(c*x) + s summed over some generators: a plot by construction."""
    comps = [M(rng.randint(0, 2), rng.randint(-2, 2)) for _ in range(space.dim)]
    for g in rng.sample(gens, rng.randint(1, len(gens))):
        lam = FunctionExpr([(mono(d), rng.randint(-2, 2)) for d in range(2)])
        c = Fraction(rng.choice([1, -1, 2, -2, 3]), rng.choice([1, 2]))
        comps = [a + lam * b.compose_scale(c) for a, b in zip(comps, g.components)]
    return Plot(comps)


def _compose(phi, plot):
    return sum((c.scale(a) for a, c in zip(phi, plot.components) if a), FunctionExpr.zero())


def test_not_plot_certificates_agree_with_the_oracle():
    """Every NotPlot carries a functional psi with psi o candidate failing at
    order exactly e + 2 (e its least residue degree), while psi o plot never
    fails at an order <= e + 2 on sampled plots of the same space.  The
    candidates' kinks reach degree 12, so certificates are checked at
    orders up to 14."""
    rng = random.Random(20150430)
    certified = 0
    for _ in range(40):
        space, gens = _random_structured_space(rng)
        n = space.dim
        candidates = [_sampled_plot(rng, space, gens)]
        for _ in range(2):
            degree = rng.randint(0, 12)
            kink = Plot([A(degree, r) for r in _random_direction(rng, n)])
            base = _sampled_plot(rng, space, gens)
            candidates.append(Plot([a + b for a, b in zip(base.components, kink.components)]))
        for candidate in candidates:
            verdict = is_plot(space, candidate)
            phi = separating_functional(space, candidate)
            assert (phi is None) == (verdict is Verdict.SMOOTH)
            if phi is None:
                continue
            composed = _compose(phi, candidate)
            e = min(composed.singular_residue())
            assert classify(composed).failing_order == e + 2
            for _ in range(3):
                order = classify(_compose(phi, _sampled_plot(rng, space, gens))).failing_order
                assert order is None or order > e + 2
            certified += 1
    assert certified >= 20


def test_singular_span_invariances():
    base = [plot_of("abs(x)", "abs(x)*x"), plot_of("0", "abs(x)")]
    v = make_generated(2, base)
    span = singular_span(v)

    scaled = make_generated(2, [base[0].transform(((Fraction(-3), Fraction(0)),
                                                   (Fraction(0), Fraction(-3)))), base[1]])
    assert singular_span(scaled) == span

    smooth_shift = make_generated(2, [Plot([c + M(2, 5) for c in base[0].components]), base[1]])
    assert singular_span(smooth_shift) == span

    permuted = make_generated(2, list(reversed(base)))
    assert singular_span(permuted) == span


def test_monotonicity_of_spans():
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randint(1, 3)
        k2 = rng.randint(1, n)
        v2 = make_generated(n, [kink_plot(n, i) for i in range(k2)])
        k1 = rng.randint(0, k2)
        v1 = make_generated(n, [kink_plot(n, i) for i in range(k1)])
        if all(is_plot(v2, g) is Verdict.SMOOTH for g in v1.diffeology.generators):
            assert singular_span(v2).contains_subspace(singular_span(v1))


def test_row_plot_matches_the_converted_construction():
    """``row_plot`` takes int, Fraction and string rows as they are, with the
    plot that converting them to Fractions first gave."""
    rows = [(0, 1, -2, 0), (Fraction(1, 2), Fraction(0), Fraction(-3, 4)),
            ("1/2", "0", "-3", "0/5", "7"), ()]
    for row in rows:
        for degree in (0, 3):
            plot = row_plot(row, degree)
            assert plot == Plot([A(degree, c) if c else FunctionExpr.zero()
                                 for c in vector(row)])
            assert all(comp == FunctionExpr.zero()
                       for comp, c in zip(plot.components, vector(row)) if not c)


def test_direct_sum_examples():
    assert singular_span(direct_sum(make_fine(2), make_fine(3))).dim == 0
    assert singular_span(direct_sum(make_coarse(1), make_fine(1))).dim == 1
    v = make_generated(2, [kink_plot(2, 0)])
    double = direct_sum(v, v)
    assert singular_span(double) == Subspace.from_rows(4, [[1, 0, 0, 0], [0, 0, 1, 0]])


def test_sum_span_dimension_is_additive():
    rng = random.Random(13)
    for _ in range(10):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        v = make_generated(n, [kink_plot(n, i) for i in range(rng.randint(0, n))])
        w = make_generated(m, [kink_plot(m, i) for i in range(rng.randint(0, m))])
        assert singular_span(direct_sum(v, w)).dim == (
            singular_span(v).dim + singular_span(w).dim
        )


def test_sum_membership_is_componentwise():
    s = direct_sum(make_coarse(1), make_fine(1))
    assert is_plot(s, plot_of("abs(x)", "x^2")) is Verdict.SMOOTH
    assert is_plot(s, plot_of("abs(x)", "abs(x)")) is Verdict.NOT_SMOOTH


def test_pushforward_membership():
    v = make_generated(2, [kink_plot(2, 0)])
    swap = ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))
    pushed = DiffSpace(2, Pushforward(v, swap))
    assert is_plot(pushed, plot_of("0", "abs(x)")) is Verdict.SMOOTH
    assert is_plot(pushed, plot_of("abs(x)", "0")) is Verdict.NOT_SMOOTH
    assert singular_span(pushed) == Subspace.from_rows(2, [[0, 1]])


NOT_SQUARE = (DimensionMismatchError, "pushforward matrix is not square")
SINGULAR = (DiffeolinError, "pushforward matrix is singular")


@pytest.mark.parametrize("matrix, error", [
    (((1, 0, 0), (0, 1, 0)), NOT_SQUARE),
    (((1, 0), (0, 1), (0, 0)), NOT_SQUARE),
    (((1, 0, 0), (0, 1, 0), (0, 0, 1)), NOT_SQUARE),
    (((1, 2), (2, 4)), SINGULAR),
    (((0, 0), (0, 1)), SINGULAR),
])
def test_pushforward_rejects_a_matrix_that_is_not_invertible(matrix, error):
    """A matrix that is not square of the base dimension is rejected before
    the rank is taken, and a square one of rank below it as singular."""
    v = make_generated(2, [kink_plot(2, 0)])
    with pytest.raises(error[0], match=error[1]):
        Pushforward(v, tuple(tuple(Fraction(x) for x in row) for row in matrix))


def test_pushforward_is_singular_exactly_below_the_reference_rank():
    """The singularity test reads the integer columns: on small random
    matrices, many of them singular, it rejects exactly those whose
    Fraction reference RREF has fewer rows than the dimension."""
    rng = random.Random("pushforward-rank")
    v = make_generated(3, [kink_plot(3, 0)])
    rejected = 0
    for _ in range(60):
        m = tuple(tuple(Fraction(rng.choice([0, 0, 1, -1, 2]), rng.randint(1, 2)) for _ in range(3))
                  for _ in range(3))
        singular = len(reference_rref(m)) < 3
        rejected += singular
        if singular:
            with pytest.raises(DiffeolinError, match="singular"):
                Pushforward(v, m)
        else:
            Pushforward(v, m)
    assert 0 < rejected < 60


def test_a_dual_describes_its_base():
    """``DualSpace.describe`` names its base, so it nests for the dual of a
    dual and reads through the factors of a tensor product."""
    v = make_generated(2, [kink_plot(2, 0)])
    dual = diffeological_dual(v)
    assert dual.describe() == "dual of generated R^2 (1 generators)"
    assert diffeological_dual(dual).describe() == "dual of dual of generated R^2 (1 generators)"
    t = tensor_product(dual, make_fine(1))
    assert diffeological_dual(t).describe() == (
        "dual of (dual of generated R^2 (1 generators)) (x) (fine R^1)")


def test_every_kind_describes_itself_and_nests():
    """Each descriptor names its kind, and a composite names its parts
    through their own ``describe``: a sum, a tensor of a sum, a pushforward
    and a dual of composites, each read whole."""
    g2 = make_generated(2, [kink_plot(2, 0)])
    total = direct_sum(make_fine(1), g2)
    t = tensor_product(make_coarse(1), total)
    hat = hat_dual(total, identity(3))
    cases = [
        (make_fine(2), "fine R^2"),
        (make_coarse(3), "coarse R^3"),
        (g2, "generated R^2 (1 generators)"),
        (total, "(fine R^1) (+) (generated R^2 (1 generators))"),
        (t, "(coarse R^1) (x) ((fine R^1) (+) (generated R^2 (1 generators)))"),
        (hat, "pushforward of (fine R^1) (+) (generated R^2 (1 generators))"),
        (diffeological_dual(t),
         "dual of (coarse R^1) (x) ((fine R^1) (+) (generated R^2 (1 generators)))"),
        (direct_sum(hat, diffeological_dual(hat)),
         "(pushforward of (fine R^1) (+) (generated R^2 (1 generators))) (+) "
         "(dual of pushforward of (fine R^1) (+) (generated R^2 (1 generators)))"),
    ]
    for space, text in cases:
        assert space.describe() == text


def test_is_plot_rejects_wrong_dimension():
    with pytest.raises(DimensionMismatchError):
        is_plot(make_fine(2), plot_of("x"))


@pytest.mark.parametrize("m", [((1,), (2,)), ((1, 0, 1),), ((1, 1), (1,))])
def test_transform_rejects_a_row_of_the_wrong_length(m):
    """Each row of the matrix reads every coordinate of the plot: a 2 x 1
    matrix on a plot of R^2 once dropped the second coordinate."""
    p = plot_of("abs(x)", "x")
    with pytest.raises(DimensionMismatchError):
        p.transform(m)
    assert p.transform(((1, 1),)) == plot_of("abs(x) + x")


# --- scope of the presentation memos ------------------------------------------

def test_presentation_is_built_once_per_space():
    v = make_generated(3, [plot_of("abs(x)", "0", "abs(x)*x"), kink_plot(3, 1, 2)])
    pres = presentation(v)
    assert presentation(v) is pres
    assert pres.filtration_step(2) is pres.filtration_step(9) is pres.singular_span()
    assert presentation(tensor_product(v, make_fine(2))) is not presentation(
        tensor_product(v, make_fine(2)))


def test_filtration_membership_matches_row_span_membership():
    """The memoised filtration steps answer exactly as Fraction reference
    membership in the spanning rows of F_e, on generated, sum, hat and tensor spaces, for a
    row given densely and as its integer support."""
    rng = random.Random(20150430)
    for _ in range(30):
        if rng.random() < 0.25:
            (v, _), (w, _) = (_random_generated(rng, rng.randint(1, 2)) for _ in range(2))
            space = tensor_product(v, w)
        else:
            space, _ = _random_structured_space(rng)
        pres = presentation(space)
        for degree in range(7):
            rows = tuple(pres.rows_up_to(degree))
            candidates = [r for _, r in presented_rows(space)] + [
                tuple(_random_direction(rng, space.dim)) for _ in range(3)]
            if rows:
                candidates.append(tuple(sum(c) for c in zip(*rows)))
            step = pres.filtration_step(degree)
            for row in candidates:
                member = reference_contains(rows, row)
                assert step.contains(row) is member
                assert step.contains_support(integer_support(row)) is member


# --- the normal form against the separate-coarse-part presentation -----------

def _reference_embed_row(row, offset, total):
    return (Fraction(0),) * offset + tuple(row) + (Fraction(0),) * (total - offset - len(row))


def _reference_presentation(space):
    """The presentation before the coarse part became the degree -1 rows:
    (coarse subspace, (degree, row) pairs), one branch per descriptor."""
    n = space.dim
    d = space.diffeology
    if isinstance(d, Fine):
        return Subspace.from_supports(n, ()), ()
    if isinstance(d, Coarse):
        return Subspace.full(n), ()
    if isinstance(d, Generated):
        rows = []
        for g in d.generators:
            rows.extend(g.residue_rows().items())
        return Subspace.from_supports(n, ()), tuple(rows)
    if isinstance(d, SumOf):
        (cl, rl), (cr, rr) = _reference_presentation(d.left), _reference_presentation(d.right)
        nl = d.left.dim
        coarse = Subspace.from_rows(
            n,
            [_reference_embed_row(r, 0, n) for r in cl.basis]
            + [_reference_embed_row(r, nl, n) for r in cr.basis],
        )
        rows = tuple(
            [(deg, _reference_embed_row(r, 0, n)) for deg, r in rl]
            + [(deg, _reference_embed_row(r, nl, n)) for deg, r in rr]
        )
        return coarse, rows
    if isinstance(d, TensorOf):
        return _reference_tensor_presentation(d.left, d.right)
    if isinstance(d, Pushforward):
        coarse, rows = _reference_presentation(d.base)
        m = d.matrix
        return coarse.map_by(m), tuple((deg, matvec(m, r)) for deg, r in rows)
    raise TypeError(type(d).__name__)


def _reference_tensor_presentation(left, right):
    n, m = left.dim, right.dim
    total = n * m
    (cl, rl), (cr, rr) = _reference_presentation(left), _reference_presentation(right)

    def left_tensor(row, other_dim, jth):
        out = [Fraction(0)] * total
        for i, c in enumerate(row):
            out[i * other_dim + jth] = c
        return tuple(out)

    def right_tensor(ith, row):
        out = [Fraction(0)] * total
        for j, c in enumerate(row):
            out[ith * m + j] = c
        return tuple(out)

    coarse_rows = []
    for r in cl.basis:
        for j in range(m):
            coarse_rows.append(left_tensor(r, m, j))
    for r in cr.basis:
        for i in range(n):
            coarse_rows.append(right_tensor(i, r))
    coarse = Subspace.from_rows(total, coarse_rows)

    rows = []
    for deg, r in rl:
        for j in range(m):
            row = left_tensor(r, m, j)
            if not coarse.contains(row):
                rows.append((deg, row))
    for deg, r in rr:
        for i in range(n):
            row = right_tensor(i, r)
            if not coarse.contains(row):
                rows.append((deg, row))
    return coarse, tuple(rows)


def _reference_step(space, degree):
    coarse, rows = _reference_presentation(space)
    return Subspace.from_rows(space.dim, list(coarse.basis) + [r for d, r in rows if d <= degree])


def _random_nested_space(rng, depth=0):
    kinds = ["fine", "coarse", "generated"]
    if depth < 2:
        kinds += ["sum", "tensor", "hat", "dual"]
    kind = rng.choice(kinds)
    n = rng.randint(1, 3)
    if kind == "fine":
        return make_fine(n)
    if kind == "coarse":
        return make_coarse(n)
    if kind == "generated":
        return _random_generated(rng, n)[0]
    if kind == "dual":
        return diffeological_dual(_random_nested_space(rng, depth + 1))
    if kind == "hat":
        base = _random_nested_space(rng, depth + 1)
        return hat_dual(base, _random_hat_iso(rng, base.dim))
    # Nested tensors stay small: one factor of a tensor is a leaf.
    v, w = _random_nested_space(rng, depth + 1), _random_nested_space(rng, 2)
    return direct_sum(v, w) if kind == "sum" else tensor_product(v, w)


def _random_candidate(rng, space):
    """A curve of R^n: smooth terms plus up to three kinks, most along a
    presented row of ``space`` one degree below, at or above its own, the
    rest along a random direction."""
    n, rows = space.dim, presented_rows(space)
    comps = [M(rng.randint(0, 2), rng.randint(-2, 2)) for _ in range(n)]
    for _ in range(rng.randint(0, 3) if n else 0):
        if rows and rng.random() < 0.7:
            d, r = rng.choice(rows)
            degree = max(0, d + rng.choice((-1, 0, 1)))
        else:
            r, degree = _random_direction(rng, n), rng.randint(0, 3)
        c = rng.choice((1, -1, 2, Fraction(1, 2)))
        comps = [a + A(degree, c * x) for a, x in zip(comps, r)]
    return Plot(comps)


def _kind(space):
    return "Dual" if isinstance(space, DualSpace) else type(space.diffeology).__name__


def test_is_plot_is_smoothness_of_the_identity_from_the_candidates_space():
    """On all seven kinds of space, ``is_plot(V, c)`` is the verdict of
    ``check_smooth_linear`` on the identity <c> -> V, <c> =
    ``make_generated(n, [c])``: both run the one test on the rows <c>
    presents.  A NotPlot certificate separates the residue of the degree of
    that check's witness, and the witness runs along that residue."""
    rng = random.Random(29)
    kinds, verdicts = Counter(), Counter()
    for _ in range(160):
        space = _random_nested_space(rng)
        kinds[_kind(space)] += 1
        n = space.dim
        for _ in range(4):
            candidate = _random_candidate(rng, space)
            report = check_smooth_linear(
                LinearMap(make_generated(n, [candidate]), space, identity(n)))
            verdicts[report.verdict] += 1
            assert is_plot(space, candidate) is report.verdict
            phi = separating_functional(space, candidate)
            assert (phi is None) == (report.verdict is Verdict.SMOOTH)
            if phi is None:
                continue
            residues = candidate.residue_rows()
            degree = min(d for d, rho in residues.items() if dot(phi, rho))
            (witness_degree, r), = report.witness.residue_rows().items()
            assert witness_degree == degree
            assert ray(integer_support(r)) == ray(integer_support(residues[degree]))
    assert set(kinds) == {"Fine", "Coarse", "Generated", "SumOf", "TensorOf", "Pushforward",
                          "Dual"}
    assert sum(verdicts.values()) >= 600 and min(verdicts.values()) >= 150


def test_coarse_part_is_the_degree_minus_one_step_of_one_row_list():
    """On fixed coarse-bearing spaces and 60 seeded nested ones, every
    filtration step F_-1..F_6 equals the step of the presentation with a
    separate coarse part; the degree -1 rows span F_-1, and no row of
    degree >= 0 lies in F_-1."""
    rng = random.Random(20150430)
    kink = make_generated(2, [plot_of("abs(x)", "abs(x)*x^2")])
    mixed = direct_sum(make_coarse(1), kink)
    fixed = [
        direct_sum(kink, make_coarse(2)),
        tensor_product(make_coarse(2), kink),
        tensor_product(kink, mixed),
        tensor_product(mixed, direct_sum(kink, make_coarse(1))),
        hat_dual(make_coarse(2), ((Fraction(1), Fraction(1)), (Fraction(0), Fraction(1)))),
        hat_dual(mixed, ((0, 1, 0), (1, 0, 0), (1, 1, 1))),
        diffeological_dual(mixed),
        direct_sum(tensor_product(make_coarse(1), kink), make_coarse(1)),
    ]
    spaces = fixed + [_random_nested_space(rng) for _ in range(60)]
    assert sum(presentation(s).filtration_step(-1).dim > 0 for s in spaces) >= 20
    for space in spaces:
        pres = presentation(space)
        for degree in range(-1, 7):
            assert pres.filtration_step(degree) == _reference_step(space, degree), (
                space.describe(), degree)
        step = pres.filtration_step(-1)
        assert Subspace.from_rows(space.dim, pres.rows_up_to(-1)) == step
        assert not any(step.contains_support(r) for d, r in pres.supports if d >= 0)


def _random_summand(rng):
    """A coarse, generated, tensor or hat-dual space of dimension 1 to 4."""
    kind = rng.choice(["coarse", "generated", "tensor", "hat"])
    if kind == "coarse":
        return make_coarse(rng.randint(1, 2))
    if kind == "tensor":
        left = rng.choice([make_coarse(1), _random_generated(rng, 2)[0]])
        return tensor_product(left, _random_generated(rng, rng.randint(1, 2))[0])
    base = _random_generated(rng, rng.randint(1, 3))[0]
    if kind == "hat":
        base = direct_sum(base, make_coarse(1)) if rng.random() < 0.5 else base
        return hat_dual(base, _random_hat_iso(rng, base.dim))
    return base


def test_sum_steps_need_no_elimination_over_the_sum(monkeypatch):
    """On 40 seeded sums, once the summands' steps are built, presenting the
    sum and reading each step and its annihilator eliminates nothing over
    the sum's coordinates; each step equals the elimination of its spanning
    rows, and each annihilator the nullspace of the step."""
    import diffeolin.linalg as linalg

    widths = []
    real = linalg._eliminate
    monkeypatch.setattr(linalg, "_eliminate", lambda rows, n: widths.append(n) or real(rows, n))
    rng = random.Random(1703)
    for _ in range(40):
        v, w = _random_summand(rng), _random_summand(rng)
        for side in (v, w):
            for degree in range(-1, 7):
                presentation(side).filtration_step(degree).annihilator()
        space, n = direct_sum(v, w), v.dim + w.dim
        widths.clear()
        pres = presentation(space)
        steps = [pres.filtration_step(e) for e in range(-1, 7)]
        anns = [step.annihilator() for step in steps]
        assert n not in widths, space.describe()
        for degree, step, ann in zip(range(-1, 7), steps, anns):
            assert step == Subspace.from_rows(n, pres.rows_up_to(degree))
            assert ann == (Subspace.from_rows(n, linalg.nullspace(step.basis, n)) if step.basis
                           else Subspace.full(n))


def _built_steps(space) -> list[int]:
    """The dimensions of the distinct step objects the presentation of
    ``space`` has built, ascending."""
    steps = {id(s): s for s in presentation(space)._steps.values()}
    return sorted(s.dim for s in steps.values())


def test_steps_are_built_only_when_asked():
    """Presenting a generated space, a sum or a pushforward builds no step,
    and a query at degree e builds only the step of its key: the largest
    presented degree <= e, once however many degrees share it.  A
    pushforward eliminates its own rows and never reads its base's steps."""
    g = make_generated(3, [plot_of("abs(x)", "0", "abs(x)*x^2"), kink_plot(3, 1, 5)])
    h = make_generated(2, [kink_plot(2, 0, 1)])
    total = direct_sum(g, h)
    hat = hat_dual(g, ((1, 1, 0), (0, 1, 0), (0, 0, 1)))
    for space in (g, h, total, hat):
        assert _built_steps(space) == []
    step = presentation(g).filtration_step(4)
    assert presentation(g).filtration_step(2) is step is presentation(g).filtration_step(3)
    assert _built_steps(g) == [2]
    presentation(total).filtration_step(1)
    assert _built_steps(total) == [2]
    assert _built_steps(g) == [1, 2]
    assert _built_steps(h) == [1]
    for e in range(5):
        presentation(g).filtration_step(e)
    assert _built_steps(g) == [1, 2]
    presentation(hat).filtration_step(-1)
    presentation(hat).filtration_step(7)
    presentation(hat).filtration_step(6)
    assert _built_steps(hat) == [0, 3]
    assert _built_steps(g) == [1, 2]


def test_memos_do_not_keep_spaces_alive():
    v = make_generated(2, [kink_plot(2, 0)])
    w = make_generated(2, [plot_of("abs(x)*x", "abs(x)*x")])
    t = tensor_product(v, w)
    assert check_smooth_linear(identity_map(t)).verdict is Verdict.SMOOTH
    assert check_smooth_linear(LinearMap(t, make_fine(1), ((0, 1, 0, 0),))).verdict is (
        Verdict.NOT_SMOOTH)
    assert is_plot(t, Plot([A(0, 1), M(0), M(0), M(0)])) is Verdict.SMOOTH
    diffeological_dual(t)
    tensor_dual_iso(v, w)
    refs = [weakref.ref(s) for s in (v, w, t)]
    del v, w, t
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_annihilator_is_kept_on_its_subspace(monkeypatch):
    import diffeolin.linalg as linalg

    calls = []
    real = linalg._annihilator_form
    monkeypatch.setattr(linalg, "_annihilator_form", lambda *a: calls.append(a) or real(*a))
    v = make_generated(3, [kink_plot(3, 0)])
    answers = {separating_functional(v, kink_plot(3, 1)) for _ in range(5)}
    assert len(answers) == 1 and None not in answers
    assert len(calls) == 1

    step = Subspace.from_rows(3, [(1, 0, 0)])
    step.annihilator()
    ref = weakref.ref(step)
    del step
    gc.collect()
    assert ref() is None


def test_memos_under_concurrent_first_use():
    """Threads racing to build the memos of one fresh space answer exactly as
    a single thread does on an equal space."""

    def build():
        v = make_generated(3, [plot_of("abs(x)", "abs(x)*x", "0"), kink_plot(3, 2, 1)])
        return tensor_product(v, make_generated(2, [kink_plot(2, 0, 2)]))

    rng = random.Random(5)
    candidates = [Plot([A(rng.randint(0, 3), rng.randint(-1, 1)) for _ in range(6)])
                  for _ in range(12)]
    reference = build()
    expected = [is_plot(reference, c) for c in candidates]
    assert {Verdict.SMOOTH, Verdict.NOT_SMOOTH} <= set(expected)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            space = build()
            results = [None] * 4

            def work(k, space=space):
                results[k] = [is_plot(space, c) for c in candidates]

            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert results == [expected] * 4
    finally:
        sys.setswitchinterval(interval)


def test_a_pushforward_is_presented_on_ints(monkeypatch):
    """Presenting a hat dual of a presented base, and building each of its
    steps with its annihilator, constructs no Fraction: the base's supports
    go through the integer columns of the matrix.  Each support is a
    positive multiple of the base's direction mapped by the matrix, and
    each step is their span."""
    rng = random.Random(1504)
    hats = []
    for _ in range(30):
        base = _random_summand(rng)
        iso = tuple(tuple(Fraction(x, rng.randint(1, 3)) for x in row)
                    for row in _random_hat_iso(rng, base.dim))
        presentation(base)
        hats.append(hat_dual(base, iso))
    built = []
    real = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    for hat in hats:
        pres = presentation(hat)
        for degree in range(-1, 7):
            pres.filtration_step(degree).annihilator()
    assert not built
    monkeypatch.undo()
    for hat in hats:
        pres, d = presentation(hat), hat.diffeology
        base_rows = presented_rows(d.base)
        assert [e for e, _ in pres.supports] == [e for e, _ in base_rows]
        assert [ray(s) for _, s in pres.supports] == [
            ray(integer_support(matvec(d.matrix, r))) for _, r in base_rows]
        for degree in range(-1, 7):
            assert pres.filtration_step(degree) == Subspace.from_rows(hat.dim,
                                                                      pres.rows_up_to(degree))


def test_residue_supports_gather_what_the_residue_dicts_gave():
    """One pass over each component's sorted terms, stopping at its first
    smooth atom from the end, gives the supports that each component's
    ``singular_residue`` dict, gathered per degree and sorted, gave."""
    rng = random.Random("residue-supports")
    for _ in range(400):
        n = rng.randint(0, 9)
        components = [FunctionExpr(
            [((abs_mono if rng.random() < 0.5 else mono)(rng.randint(0, 6)),
              Fraction(rng.randint(-9, 9), rng.randint(1, 10**rng.randint(0, 15))))
             for _ in range(rng.randint(0, 6))]) for _ in range(n)]
        plot = Plot(components)
        assert list(residue_supports(n, plot)) == reference_residue_supports(plot)
    with pytest.raises(DimensionMismatchError, match="plot has 2 coordinates"):
        residue_supports(3, Plot([A(0), M(1)]))
