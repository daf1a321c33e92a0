"""The verify suite: its flag classes, the checks that run over them, and the
sampler that draws what it drew as randint calls."""

import random
from fractions import Fraction

import pytest

from diffeolin import FunctionExpr, cli, verify
from diffeolin.atoms import abs_mono, mono
from diffeolin.spaces import presentation, singular_span
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
