"""Tensor product diffeology: block spans, dual multiplicativity, canonical maps."""

import gc
import itertools
import random
import sys
import threading
import weakref
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
from diffeolin.linalg import (
    Subspace,
    identity,
    invert,
    kron,
    kron_vector,
    matmul,
    unit_vector,
)
from diffeolin import spaces
from diffeolin.spaces import generating_plots, presentation

from conftest import block_rows, presented_rows, reference_nullspace, reference_rref


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


def _random_generated(rng, n):
    """R^n generated by one or two plots whose coordinates are seeded
    polynomials plus kinks |x|*x^d, d <= 3."""
    plots = [Plot([FunctionExpr.monomial(rng.randint(0, 2), rng.randint(-2, 2))
                   + FunctionExpr.abs_monomial(rng.randint(0, 3), rng.randint(-2, 2))
                   for _ in range(n)])
             for _ in range(rng.randint(1, 2))]
    return make_generated(n, plots)


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
        return _random_generated(rng, n)
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


def _reference_tensor_step(v, w, degree):
    """F_degree(V (x) W) by elimination: ``Subspace.from_rows`` over the block
    rows r (x) e_j and e_i (x) r' of the factors' rows of degree <= degree,
    the route the closed form replaced."""
    n, m = v.dim, w.dim
    rows = [kron_vector(r, unit_vector(m, j))
            for d, r in presented_rows(v) if d <= degree for j in range(m)]
    rows += [kron_vector(unit_vector(n, i), r)
             for d, r in presented_rows(w) if d <= degree for i in range(n)]
    return Subspace.from_rows(n * m, rows)


def _random_kinked(rng, n):
    """R^n generated by 1 to n - 1 kinks |x|*x^d along seeded rational
    directions, d <= 2: its steps are proper and their RREF rows have
    entries off their pivots."""
    plots = []
    for _ in range(rng.randint(1, n - 1)):
        d = rng.randint(0, 2)
        direction = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
        plots.append(Plot([FunctionExpr.abs_monomial(d, c) if c else FunctionExpr.zero()
                           for c in direction]))
    return make_generated(n, plots)


def _closed_form_pairs(seed, count):
    """Seeded factor pairs over all seven kinds, plus wider kinked factors
    (beside a coarse line or inside a tensor, at times)."""
    rng = random.Random(seed)
    pairs = [(_random_factor(rng), _random_factor(rng)) for _ in range(count)]
    for _ in range(count // 4):
        v, w = _random_kinked(rng, rng.randint(3, 5)), _random_kinked(rng, rng.randint(2, 4))
        if rng.random() < 0.5:
            v = direct_sum(v, make_coarse(1))
        pairs.append((tensor_product(v, _random_kinked(rng, 2)), w)
                     if rng.random() < 0.25 else (v, w))
    return pairs


def test_closed_form_steps_equal_elimination_over_the_block_rows():
    """On seeded pairs over fine, coarse, generated, sum, hat, dual and
    tensor spaces, every step of the closed-form presentation of V (x) W is
    the elimination of the block rows, with dimension a*m + n*b - a*b; the
    presented rows of degree <= e span F_e, and every step hands in its
    annihilator, the nullspace of the step."""
    pairs = _closed_form_pairs(161803, 60)
    kinds = {(type(s).__name__, type(s.diffeology).__name__) for pair in pairs for s in pair}
    assert len(kinds) == 7, kinds
    coarse = wide = 0
    for v, w in pairs:
        n, m = v.dim, w.dim
        t = tensor_product(v, w)
        pres, lp, rp = presentation(t), presentation(v), presentation(w)
        top = max((d for d, _ in lp.supports + rp.supports), default=-1)
        for e in range(-1, top + 2):
            step = pres.filtration_step(e)
            assert step == _reference_tensor_step(v, w, e), (v.describe(), w.describe(), e)
            a, b = lp.filtration_step(e).dim, rp.filtration_step(e).dim
            assert step.dim == a * m + n * b - a * b
            assert Subspace.from_rows(n * m, pres.rows_up_to(e)) == step
            expected = reference_nullspace(step.basis, n * m) if step.basis else identity(n * m)
            assert step.known_annihilator is not None
            assert step.annihilator().basis == expected, (v.describe(), w.describe(), e)
        span = singular_span(t)
        coarse += pres.filtration_step(-1).dim > 0
        wide += n * m >= 12 and 0 < span.dim < n * m
    assert coarse >= 10 and wide >= 10, (coarse, wide)


def test_a_product_presents_its_block_rows_and_builds_each_step_on_first_ask(monkeypatch):
    """On seeded pairs over all seven kinds, coarse factors included, with
    the factors presented and their steps built: presenting V (x) W calls
    ``tensor_span`` zero times, each degree asked whose step is not yet
    built calls it once and every other ask none, and the presented rows
    are the block rows of the definition less those of degree >= 0 in
    C(V (x) W), in order."""
    built = []
    real = spaces.tensor_span
    monkeypatch.setattr(spaces, "tensor_span", lambda a, b: built.append(1) or real(a, b))
    pairs = _closed_form_pairs(271828, 40)
    kinds = {(type(s).__name__, type(s.diffeology).__name__) for pair in pairs for s in pair}
    assert len(kinds) == 7, kinds
    dropped = 0
    for v, w in pairs:
        top = max((d for d, _ in presentation(v).supports + presentation(w).supports),
                  default=-1)
        for e in range(-1, top + 2):
            presentation(v).filtration_step(e), presentation(w).filtration_step(e)
        built.clear()
        pres = presentation(tensor_product(v, w))
        assert built == []
        keys = set()
        for e in [top + 1] + list(range(-1, top + 2)) * 2:
            before = len(built)
            key = max((d for d, _ in pres.supports if d <= e), default=-1)
            pres.filtration_step(e)
            assert len(built) - before == (key not in keys), (v.describe(), w.describe(), e)
            keys.add(key)
        coarse = _reference_tensor_step(v, w, -1)
        expected = [(d, s) for d, s in block_rows(v, w)
                    if d < 0 or not coarse.contains_support(s)]
        assert list(pres.supports) == expected, (v.describe(), w.describe())
        dropped += sum(1 for _ in block_rows(v, w)) - len(expected)
    assert dropped > 0


def test_presenting_a_product_eliminates_nothing_over_its_coordinates(monkeypatch):
    """With both factors presented, presenting V (x) W, taking the
    annihilator of every step (the dual's among them) and certifying the
    dual isomorphism eliminate over factor-sized matrices only, never over
    the n*m product coordinates: every ``linalg._eliminate`` call is
    recorded with its width."""
    import diffeolin.linalg as linalg

    widths = []
    real = linalg._eliminate
    monkeypatch.setattr(linalg, "_eliminate", lambda rows, n: widths.append(n) or real(rows, n))
    pairs = [(v, w) for v, w in _closed_form_pairs(4669, 24) if v.dim > 1 and w.dim > 1]
    pairs.append((kink_space(8, 4), direct_sum(kink_space(5, 2), make_coarse(3))))
    for v, w in pairs:
        presentation(v), presentation(w)
    seen = []
    for v, w in pairs:
        widths.clear()
        t = tensor_product(v, w)
        pres = presentation(t)
        for e in {-1} | {d for d, _ in pres.supports}:
            pres.filtration_step(e).annihilator()
        diffeological_dual(t)
        tensor_dual_iso(v, w)
        assert v.dim * w.dim not in widths, (v.describe(), w.describe())
        seen.extend(widths)
    assert seen


def _generator_pair_rows_outside_the_span(v, w):
    """Residue rows of product_plot(p, q), for generating plots p of v and q
    of w, that lie outside the singular span of v (x) w."""
    span = singular_span(tensor_product(v, w))
    return [row for p, q in itertools.product(generating_plots(v), generating_plots(w))
            for row in product_plot(p, q).residue_rows().values()
            if not span.contains(row)]


def test_generator_pair_products_stay_in_the_block_span():
    """The theorem behind the block formula: on seeded pairs over fine,
    coarse, generated, sum, hat, dual and tensor spaces, every residue row of
    the product plot of two generating plots lies in the block span
    S(V) (x) R^m + R^n (x) S(W).  A smooth part times a kink lands in a
    block; two kinks multiply to a smooth x^2 term."""
    rng = random.Random(1729)
    pairs = []
    while len(pairs) < 40:
        v, w = _random_factor(rng), _random_factor(rng)
        if v.dim * w.dim <= 64:
            pairs.append((v, w))
    kinds = {(type(s).__name__, type(s.diffeology).__name__) for pair in pairs for s in pair}
    assert len(kinds) == 7, kinds
    reached = 0
    for v, w in pairs:
        assert not _generator_pair_rows_outside_the_span(v, w), (v.describe(), w.describe())
        reached += any(product_plot(p, q).residue_rows()
                       for p in generating_plots(v) for q in generating_plots(w))
    assert reached >= 5


def test_generator_pair_products_leave_a_wrong_block_span(left_block_rows_only):
    """Cut to S(V) (x) R^m, the span misses a residue of the product plot of
    some seeded generated pair, so the property above tells the two formulas
    apart."""
    rng = random.Random(1729)
    pairs = [(_random_generated(rng, rng.randint(1, 3)), _random_generated(rng, rng.randint(1, 3)))
             for _ in range(20)]
    assert any(_generator_pair_rows_outside_the_span(v, w) for v, w in pairs)


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
        full_rank = len(reference_rref(iso.matrix)) == iso.domain_dim
        assert iso.injective == full_rank
        assert iso.isomorphism == (full_rank and iso.domain_dim == iso.codomain_dim)


def test_tensor_dual_iso_rejects_a_wrong_block_formula(left_block_rows_only):
    """Without the right factor's block rows, S(fine 2 (x) coarse 2) is zero
    and its dual has dim 4, but dim V* * dim W* = 2 * 0.  tensor_product
    does not check the closed form, so the wrong dual comes out;
    tensor_dual_iso is the check that rejects it."""
    v, w = make_fine(2), make_coarse(2)
    assert diffeological_dual(tensor_product(v, w)).dim == 4
    with pytest.raises(DiffeolinError, match="is not the block span"):
        tensor_dual_iso(v, w)


def test_tensor_dual_iso_presents_the_held_product_once(monkeypatch):
    """While the caller holds V (x) W, the iso certifies that product: it is
    presented once, and the certificate's dual is the held product's dual,
    a new wrapper over the annihilator that the product keeps."""
    presented = []
    real = spaces.TensorOf.present

    def counted(d, n):
        presented.append((d.left, d.right))
        return real(d, n)

    monkeypatch.setattr(spaces.TensorOf, "present", counted)
    v, w = kink_space(3, 1), direct_sum(kink_space(2, 1), make_coarse(1))
    t = tensor_product(v, w)
    dual = diffeological_dual(t)
    iso = tensor_dual_iso(v, w)
    assert presented == [(v, w)]
    assert iso.tensor_dual == dual and iso.tensor_dual.base is t
    assert iso.tensor_dual.annihilator_basis is dual.annihilator_basis
    assert tensor_dual_iso(v, w).tensor_dual.base is t and len(presented) == 1


def test_tensor_dual_iso_certifies_a_held_product_on_every_call(monkeypatch):
    """A second iso on the held product tests every block row again."""
    v, w = kink_space(3, 2), make_fine(2)
    t = tensor_product(v, w)
    tensor_dual_iso(v, w)
    tested = []
    real = Subspace.contains_support

    def counted(self, support):
        tested.append(support)
        return real(self, support)

    monkeypatch.setattr(Subspace, "contains_support", counted)
    assert tensor_dual_iso(v, w).tensor_dual.base is t
    assert tested == [row for _, row in block_rows(v, w)] and tested


def test_tensor_dual_iso_rejects_a_wrong_formula_on_every_call(left_block_rows_only):
    """A held product presented under a wrong block formula is rejected by
    each certificate, not only by the first."""
    v, w = make_fine(2), make_coarse(2)
    t = tensor_product(v, w)
    assert diffeological_dual(t).dim == 4
    for _ in range(2):
        with pytest.raises(DiffeolinError, match="is not the block span"):
            tensor_dual_iso(v, w)
    assert tensor_product(v, w) is t


def test_tensor_product_memo_is_weak():
    """A held product is returned again; a dropped one dies with its last
    holder, without the cycle collector, and leaves no memo entry behind."""
    v, w = kink_space(3, 1), kink_space(2, 1)
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = tensor_product(v, w)
        assert tensor_product(v, w) is t
        tensor_dual_iso(v, w)
        is_smooth_linear(identity_map(t))
        dead = weakref.ref(t)
        del t
        assert dead() is None
        for i in range(1000):
            tensor_product(v, make_fine(1 + i % 3))
        assert len(v.__dict__["_products"]) == 0
    finally:
        if enabled:
            gc.enable()


def test_equal_or_swapped_factors_give_distinct_products():
    """The memo is keyed by the factor objects: an equal but distinct factor,
    or the swapped pair, gives another product."""
    v, w = kink_space(2, 1), kink_space(3, 1)
    v2, w2 = kink_space(2, 1), kink_space(3, 1)
    assert v2 == v and v2 is not v and w2 == w and w2 is not w
    t = tensor_product(v, w)
    for other in (tensor_product(v2, w), tensor_product(v, w2), tensor_product(v2, w2)):
        assert other is not t and other == t
    swapped = tensor_product(w, v)
    assert swapped is not t and swapped != t
    assert swapped.diffeology.left is w and swapped.diffeology.right is v


def test_threads_racing_on_one_pair_get_equal_products():
    """Threads that race on the memo, while their products die and drop
    their entries, may build two products of one pair; each is a valid
    space equal to the others, and no entry outlives its product."""
    def pair():
        return kink_space(3, 1), direct_sum(kink_space(2, 1), make_fine(1))

    v, w = pair()
    reference = tensor_product(*pair())
    expected = diffeological_dual(v).dim * diffeological_dual(w).dim
    results, errors = [], []

    def work():
        try:
            for _ in range(200):
                t = tensor_product(v, w)
                results.append(t == reference and diffeological_dual(t).dim == expected)
        except Exception as exc:  # re-raised by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not errors and len(results) == 800 and all(results)
    assert len(v.__dict__["_products"]) == 0


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


def test_inverse_map_rejects_a_singular_map():
    f = LinearMap(make_fine(2), make_fine(2), frac_matrix([[1, 2], [2, 4]]))
    with pytest.raises(DiffeolinError, match="not invertible"):
        inverse_map(f)


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


def test_a_product_is_presented_dualised_and_certified_without_fractions(monkeypatch):
    """With both factors presented, presenting V (x) W, reading the
    annihilator of every step, dualising it and certifying the dual
    isomorphism construct no Fraction: steps, annihilators and supports stay
    integer forms until ``basis`` or ``rows_up_to`` is read."""
    pairs = _closed_form_pairs(2718, 24)
    pairs.append((kink_space(8, 4), direct_sum(kink_space(5, 2), make_coarse(3))))
    for v, w in pairs:
        presentation(v), presentation(w)
    built = []
    real = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    products = []
    for v, w in pairs:
        t = tensor_product(v, w)
        pres = presentation(t)
        for degree in {-1} | {d for d, _ in pres.supports}:
            pres.filtration_step(degree).annihilator()
        dual = diffeological_dual(t)
        iso = tensor_dual_iso(v, w)
        assert iso.isomorphism and dual.dim == iso.codomain_dim
        assert not built, (v.describe(), w.describe(), built[:3])
        products.append((t, pres, dual))
    for t, pres, dual in products:
        if pres.supports:
            pres.rows_up_to(max(d for d, _ in pres.supports))
            dual.annihilator_basis.basis
    assert built
    monkeypatch.undo()
    for t, pres, dual in products:
        n = t.dim
        assert Subspace.from_rows(n, [r for _, r in presented_rows(t)]) == singular_span(t)
        assert dual.annihilator_basis.basis == (reference_nullspace(singular_span(t).basis, n)
                                                if singular_span(t).dim else identity(n))
