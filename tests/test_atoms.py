"""Ring structure and smoothness bookkeeping of the atom algebra."""

import random
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import given, settings, strategies as st

from diffeolin import FunctionExpr, classify
from diffeolin.atoms import Atom, abs_mono, mono

A = FunctionExpr.abs_monomial
M = FunctionExpr.monomial

coefficients = st.fractions(
    min_value=-10, max_value=10, max_denominator=6
).filter(lambda c: c != 0)

atoms = st.tuples(st.booleans(), st.integers(min_value=0, max_value=6)).map(
    lambda t: abs_mono(t[1]) if t[0] else mono(t[1])
)

expressions = st.lists(
    st.tuples(atoms, coefficients), min_size=0, max_size=5
).map(FunctionExpr)

rational_points = st.fractions(min_value=-8, max_value=8, max_denominator=12)


def test_addition_examples():
    assert A(0) + M(1) == FunctionExpr([(abs_mono(0), 1), (mono(1), 1)])
    assert A(0).scale(2) + A(0).scale(-2) == FunctionExpr.zero()
    assert (M(2) + A(1)) + M(2) == FunctionExpr([(mono(2), 2), (abs_mono(1), 1)])


def test_multiplication_table():
    assert A(0) * A(0) == M(2)
    assert A(0) * M(1) == A(1)
    assert (M(1) + A(0)) * (M(1) - A(0)) == FunctionExpr.zero()
    assert A(2) * A(3) == M(7)
    assert M(2) * M(3) == M(5)


def test_singular_residue_examples():
    assert M(5, 3).singular_residue() == {}
    assert (A(0, 2) + M(2)).singular_residue() == {0: Fraction(2)}
    product = A(0) * (M(1) + A(0))
    assert product == A(1) + M(2)
    assert product.singular_residue() == {1: Fraction(1)}
    # Numeric confirmation that the residue obstructs smoothness.
    assert not classify(product).smooth
    assert classify(product - A(1)).smooth


def test_is_smooth_examples():
    assert M(3).is_smooth()
    assert not A(0).is_smooth()
    assert (A(0) * A(0)).is_smooth()


def test_compose_scale_examples():
    assert A(0).compose_scale(-2) == A(0, 2)
    assert M(2).compose_scale(3) == M(2, 9)
    assert A(1).compose_scale(-1) == A(1, -1)
    assert A(2, 5).compose_scale(Fraction(-1, 2)) == A(2, Fraction(5, 8))


@given(expressions, expressions, expressions)
def test_ring_laws(f, g, h):
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + FunctionExpr.zero() == f
    assert f * FunctionExpr.constant(1) == f


@given(expressions, expressions, rational_points)
def test_evaluation_homomorphism(f, g, t):
    for point in (t, -t, Fraction(0)):
        assert (f * g).evaluate(point) == f.evaluate(point) * g.evaluate(point)
        assert (f + g).evaluate(point) == f.evaluate(point) + g.evaluate(point)


@given(expressions, expressions, coefficients, coefficients)
def test_residue_linearity(f, g, a, b):
    combined = f.scale(a) + g.scale(b)
    expected = {}
    for d, c in f.singular_residue().items():
        expected[d] = expected.get(d, Fraction(0)) + a * c
    for d, c in g.singular_residue().items():
        expected[d] = expected.get(d, Fraction(0)) + b * c
    expected = {d: c for d, c in expected.items() if c}
    assert combined.singular_residue() == expected


@given(expressions, rational_points, st.fractions(min_value=-4, max_value=4, max_denominator=4))
def test_compose_scale_agrees_with_evaluation(f, t, c):
    assert f.compose_scale(c).evaluate(t) == f.evaluate(c * t)


@given(expressions)
def test_canonical_form_drops_zero_coefficients(f):
    assert all(c != 0 for _, c in f.terms)
    assert f - f == FunctionExpr.zero()


# The merge FunctionExpr's constructor made before it skipped converting
# Fractions and adding to zero, kept as the reference.
def _reference_terms(terms):
    items = terms.items() if isinstance(terms, dict) else terms
    merged = {}
    for atom, coeff in items:
        c = merged.get(atom, Fraction(0)) + Fraction(coeff)
        if c:
            merged[atom] = c
        elif atom in merged:
            del merged[atom]
    return tuple(sorted(merged.items()))


def _assert_merges_as_the_reference(terms):
    f = FunctionExpr(terms)
    assert f.terms == _reference_terms(terms), terms
    assert all(type(c) is Fraction and c for _, c in f.terms)


@pytest.mark.parametrize("terms", [
    [(mono(2), 1), (abs_mono(0), Fraction(1, 3)), (mono(2), Fraction(1, 2))],
    [(abs_mono(1), Fraction(2, 3)), (abs_mono(1), Fraction(-2, 3))],
    [(mono(0), 1), (mono(0), -1), (mono(0), 0), (mono(0), Fraction(5, 7))],
    [(mono(3), 0), (abs_mono(3), Fraction(0))],
    [(mono(1), 2), (mono(1), Fraction(-1, 2)), (mono(1), True)],
    {mono(4): 3, abs_mono(2): Fraction(-1, 6), mono(0): 0},
    {},
])
def test_construction_merges_repeats_and_cancels(terms):
    _assert_merges_as_the_reference(terms)


def test_construction_on_random_term_lists():
    rng = random.Random(1505)
    for _ in range(500):
        atoms = [rng.choice((mono, abs_mono))(rng.randint(0, 3)) for _ in range(4)]
        terms = [(rng.choice(atoms), rng.choice((0, 1, -1, 2, Fraction(1, 2), Fraction(-1, 2))))
                 for _ in range(rng.randint(0, 8))]
        _assert_merges_as_the_reference(terms)
        _assert_merges_as_the_reference(dict(terms))


@pytest.mark.parametrize("make, atom", [
    (lambda d, c: FunctionExpr.constant(c), lambda d: mono(0)),
    (M, mono),
    (A, abs_mono),
])
def test_single_terms_are_built_as_the_general_constructor_builds_them(make, atom):
    """``constant``, ``monomial`` and ``abs_monomial`` skip the merge and
    the sort; their one term is the general constructor's, zero dropped."""
    for d in range(4):
        for c in (0, 1, -3, True, Fraction(0), Fraction(-2, 7), Fraction(10**30, 3)):
            f, general = make(d, c), FunctionExpr([(atom(d), c)])
            assert f.terms == _reference_terms([(atom(d), c)])
            assert f == general and hash(f) == hash(general)
            assert all(type(k) is Fraction for _, k in f.terms)


def test_degree_must_be_nonnegative():
    with pytest.raises(ValueError):
        mono(-1)
    for make in (M, A):
        with pytest.raises(ValueError, match="atom degree must be >= 0"):
            make(-1)
    for make in (lambda: Atom(True, -2), lambda: abs_mono(-1)):
        with pytest.raises(ValueError, match="atom degree must be >= 0"):
            make()


def test_atoms_keep_their_repr_order_and_hash():
    assert repr(abs_mono(3)) == "Atom(is_abs=True, degree=3)"
    assert repr(mono(0)) == "Atom(is_abs=False, degree=0)"
    # Plain atoms first, then by degree.
    shuffled = [abs_mono(1), mono(4), abs_mono(0), mono(0), mono(2)]
    assert sorted(shuffled) == [mono(0), mono(2), mono(4), abs_mono(0), abs_mono(1)]
    assert abs_mono(3) == Atom(True, 3) == (True, 3) and abs_mono(3) != mono(3)
    assert hash(abs_mono(3)) == hash(Atom(True, 3)) == hash((True, 3))
    assert (abs_mono(3).is_abs, abs_mono(3).degree) == (True, 3)


def test_construction_merges_the_atoms_of_any_mapping():
    terms = MappingProxyType({mono(1): 2, abs_mono(0): Fraction(1, 2)})
    assert FunctionExpr(terms) == M(1, 2) + A(0, Fraction(1, 2))
    assert FunctionExpr([(mono(2), 1), (Atom(False, 2), 2), (abs_mono(2), -1)]).terms == (
        (mono(2), Fraction(3)), (abs_mono(2), Fraction(-1)))


@given(expressions)
def test_smooth_iff_no_singular_residue(f):
    assert f.is_smooth() == (not f.singular_residue())


@settings(max_examples=30)
@given(expressions, rational_points)
def test_float_evaluation_tracks_exact(f, t):
    exact = float(f.evaluate(t))
    approx = f.evaluate_float(float(t))
    assert approx == pytest.approx(exact, rel=1e-9, abs=1e-9)
