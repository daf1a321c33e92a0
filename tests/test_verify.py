"""The verify suite: its flag classes, the checks that run over them, and the
sampler that draws what it drew as randint calls."""

import random
from fractions import Fraction

import pytest

from diffeolin import FunctionExpr, cli, verify
from diffeolin.atoms import abs_mono, mono
from diffeolin.linalg import Subspace
from diffeolin.oracle import Classification
from diffeolin.spacefile import load_space_file
from diffeolin.spaces import DualSpace, Generated, Verdict, make_fine, presentation, singular_span
from diffeolin.tensor import hat_g
from diffeolin.verify import _random_expression


# The randint sampler the table sampler replaced, kept as a reference.
def _reference_expression(rng):
    terms = []
    for _ in range(rng.randint(1, 6)):
        kind = abs_mono if rng.random() < 0.5 else mono
        coeff = Fraction(rng.randint(-10, 10), rng.randint(1, 4))
        terms.append((kind(rng.randint(0, 6)), coeff))
    return FunctionExpr(terms)


@pytest.mark.parametrize("sampler, reference", [
    (_random_expression, _reference_expression),
])
@pytest.mark.parametrize("seed", [0, 74207281, 20150430])
def test_table_samplers_draw_what_the_randint_samplers_drew(sampler, reference, seed):
    ours, theirs = random.Random(seed), random.Random(seed)
    for draw in range(10_000):
        assert sampler(ours) == reference(theirs), (seed, draw)
    assert ours.random() == theirs.random()


def test_flag_classes_are_the_normal_forms_of_their_levels():
    """14 level multisets of size 1 or 2 over (-1, 0, 1, fine); F_e of each
    space counts the levels <= e, and S(V) the levels that are not fine."""
    classes = verify._flag_classes(2)
    assert len({levels for levels, _ in classes}) == len(classes) == 14
    for levels, v in classes:
        assert v.dim == len(levels) and list(levels) == sorted(levels)
        for e in (-1, 0, 1):
            assert presentation(v).filtration_step(e).dim == sum(l <= e for l in levels)
        assert singular_span(v).dim == sum(l != verify.FINE for l in levels)


def test_dual_map_smoothness_fails_on_a_hom_basis_one_degree_late(late_hom_basis):
    """The coarse line takes no smooth map to the kink line, but one degree
    late its row may map into F_0 of the kink line."""
    assert verify.check_dual_map_smoothness() == (
        False, "1 smooth maps on levels (-1,) -> (0,), level count 0")
    assert cli.main(["verify"]) == 1


def test_hat_dual_wellposedness_fails_on_a_transposed_pushforward(transposed_pushforward):
    """On coarse R^1 (+) the kink line, iso1 and iso1 * A fix the coarse
    line e_0; their transposes take it to (1, 1) and (1, 2)."""
    assert verify.check_hat_dual_wellposedness() == (
        False, "diffeologies differ on levels (-1, 0)")
    assert cli.main(["verify"]) == 1


def test_tensor_dual_multiplicativity_fails_on_left_block_rows_only(left_block_rows_only):
    """Cut to F_e V (x) R^m, a tensor step misses the block rows
    e_i (x) r' of the right factor, and the dual certificate says so."""
    result = verify._timed("tensor-dual-multiplicativity",
                           verify.check_tensor_dual_multiplicativity)
    assert result.passed is False
    assert result.detail.startswith(
        "error: the singular span of the tensor product is not the block span")
    assert cli.main(["verify"]) == 1


def test_distributivity_fails_on_a_block_swapped_permutation(block_swapped_distribute):
    """With the V1 (x) V3 rows first, the map mixes up the two blocks, and
    on the first triple a presented row's image already leaves its step."""
    assert verify.check_distributivity() == (False, "forward map not Smooth at trial 0")
    assert cli.main(["verify"]) == 1


def test_space_file_anchors_fail_when_every_map_reads_smooth(monkeypatch):
    """The bundled example functional is not smooth; a decision that calls
    every map Smooth passes every pinned dual dimension and fails there."""
    monkeypatch.setattr(verify, "is_smooth_linear", lambda f: Verdict.SMOOTH)
    assert verify._check_anchors(load_space_file(cli._default_space_file())) == (
        False, "map example_functional: expected NotSmooth")
    assert cli.main(["verify"]) == 1


def test_dual_dimensions_fail_on_a_kink_dual_one_dimension_short(monkeypatch):
    """A dual of a generated space that loses one annihilator row is one
    dimension short on every k-kink R^n with k < n; coarse and fine duals,
    and the fine pairings, stay right."""
    real = verify.diffeological_dual

    def short(v):
        dual = real(v)
        if isinstance(v.diffeology, Generated):
            return DualSpace(v, Subspace.from_supports(v.dim, dual.annihilator_basis.supports[1:]))
        return dual

    monkeypatch.setattr(verify, "diffeological_dual", short)
    assert verify.check_dual_dimensions() == (False, (
        "wrong dual dimensions: 1-kink R^2, 1-kink R^3, 2-kink R^3, 1-kink R^4, 2-kink R^4, "
        "3-kink R^4, 1-kink R^5, 2-kink R^5, 3-kink R^5, 4-kink R^5"))
    assert cli.main(["verify"]) == 1


def test_bilinear_vanishing_fails_when_the_domain_reads_as_fine(monkeypatch):
    """Read as fine, coarse R^n takes every bilinear form to the line:
    n^2 of them."""
    real = verify.smooth_bilinear_basis
    monkeypatch.setattr(verify, "smooth_bilinear_basis", lambda v, w: real(make_fine(v.dim), w))
    assert verify.check_bilinear_vanishing() == (False, "expected all zero, got [4, 9, 16]")
    assert cli.main(["verify"]) == 1


def test_non_isomorphisms_fail_when_hat_f_reads_as_hat_g(monkeypatch):
    """On the coarse plane and the line, hat_g is an isomorphism (2 vs 2)
    and hat_f is not (2 vs 0)."""
    monkeypatch.setattr(verify, "hat_f", hat_g)
    assert verify.check_non_isomorphisms() == (False, "hat_f comparison got 2 vs 2")
    assert cli.main(["verify"]) == 1


def test_oracle_agreement_fails_on_a_failing_order_one_late(monkeypatch):
    """|x| first fails at order 2; an oracle one order late on every
    non-smooth expression keeps every verdict but fails the atom basis."""
    real = verify.classify

    def late(f):
        result = real(f)
        if result.smooth:
            return result
        return Classification(result.failing_order + 1, result.checked_order + 1)

    monkeypatch.setattr(verify, "classify", late)
    assert verify.check_oracle_agreement() == (False, "|x|*x^0 failing order 3, expected 2")
    assert cli.main(["verify"]) == 1
