"""The verify suite's samplers draw what they drew as randint calls."""

import random
from fractions import Fraction

import pytest

from diffeolin import FunctionExpr
from diffeolin.atoms import abs_mono, mono
from diffeolin.verify import _random_expression, _random_rational


# The randint samplers the table samplers replaced, kept as references.
def _reference_rational(rng, lo=-5, hi=5):
    return Fraction(rng.randint(lo, hi), rng.randint(1, 3))


def _reference_expression(rng):
    terms = []
    for _ in range(rng.randint(1, 6)):
        kind = abs_mono if rng.random() < 0.5 else mono
        coeff = Fraction(rng.randint(-10, 10), rng.randint(1, 4))
        terms.append((kind(rng.randint(0, 6)), coeff))
    return FunctionExpr(terms)


@pytest.mark.parametrize("sampler, reference", [
    (_random_rational, _reference_rational),
    (_random_expression, _reference_expression),
])
@pytest.mark.parametrize("seed", [0, 74207281, 20150430])
def test_table_samplers_draw_what_the_randint_samplers_drew(sampler, reference, seed):
    ours, theirs = random.Random(seed), random.Random(seed)
    for draw in range(10_000):
        assert sampler(ours) == reference(theirs), (seed, draw)
    assert ours.random() == theirs.random()
