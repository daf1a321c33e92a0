"""Numeric smoothness classifier: pinned atom orders, determinism, agreement."""

import functools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from diffeolin import FunctionExpr, classify, cross_validate
from diffeolin.atoms import Atom, abs_mono, mono
from diffeolin.exprparse import MAX_DEGREE
from diffeolin.oracle import (HALF_WIDTH_EXPONENTS, MAX_ORDER, Classification, _differences,
                              _stencil_sums, _unit_sum)
from diffeolin import oracle, verify
from diffeolin.verify import check_oracle_agreement
from diffeolin.hom import hat_dual
from diffeolin.spaces import direct_sum, kink_plot, make_coarse, make_fine, make_generated
from diffeolin.tensor import tensor_product

A = FunctionExpr.abs_monomial
M = FunctionExpr.monomial
HALF_WIDTHS = tuple(2.0**-p for p in HALF_WIDTH_EXPONENTS)


# Regression: first computed with the oracle itself, then frozen.  A kink
# |x|*x^d is d times differentiable, and the divided differences first
# diverge at order d + 2 (odd/even symmetry cancels order d + 1 exactly).
# Every kink a parsed factor writes: the probed orders come from the
# expression, so none is reported smooth for want of orders.
@pytest.mark.parametrize("degree", range(MAX_DEGREE + 1))
def test_abs_atoms_fail_at_degree_plus_two(degree):
    result = classify(A(degree))
    assert (result.failing_order, result.checked_order) == (degree + 2, degree + 2)


@pytest.mark.parametrize("degree", range(7))
def test_mono_atoms_are_smooth(degree):
    assert classify(M(degree)).smooth


def test_examples():
    assert classify(M(3)).smooth
    assert classify(A(0)).failing_order == 2
    assert classify(A(1)).failing_order == 3


def test_determinism():
    expr = A(2, Fraction(3, 7)) + M(4, -2) + M(0, 5)
    first = classify(expr)
    second = classify(expr)
    assert first == second


def test_small_kink_amid_large_polynomial():
    expr = M(0, 10) + M(1, -9) + M(6, 10) + A(6, Fraction(1, 4))
    assert classify(expr).failing_order == 8


def test_small_kink_under_a_large_constant():
    # A degree-3 kink fails at order 5 whatever its coefficient.
    assert classify(M(0, 10**6) + A(3, Fraction(1, 10**6))).failing_order == 5


def test_differences_beyond_the_float_range_are_not_divergence():
    # The growth test runs on exact values: a huge constant slope is smooth,
    # and only the reported value of a huge kink is rounded to infinity.
    assert classify(M(1, 10**400)).smooth
    assert classify(M(1, 10**400) + A(3)).failing_order == 5
    huge_kink = classify(A(0, 10**400))
    assert (huge_kink.failing_order, huge_kink.value) == (2, math.inf)


def test_highest_parsable_kink_fails_at_the_order_bound():
    assert MAX_ORDER == MAX_DEGREE + 2
    assert classify(M(MAX_DEGREE) + A(MAX_DEGREE)).failing_order == MAX_ORDER


def test_a_polynomial_is_checked_past_its_degree():
    assert classify(M(7, 3) + M(1)) == Classification(None, 9)
    assert classify(FunctionExpr.zero()) == Classification(None, 2)


def _reference_exact_difference(f, order, h):
    """The direct exact stencil: |sum_j w_j * f((order/2 - j) * h)| / h^order,
    every node evaluated in Fraction arithmetic."""
    acc = Fraction(0)
    step = Fraction(h)
    for j in range(order + 1):
        w = (-1) ** j * math.comb(order, j)
        acc += w * f.evaluate(Fraction(order - 2 * j, 2) * step)
    return abs(acc / step**order)


def _random_expression(rng, max_degree=8):
    terms = []
    for _ in range(rng.randint(1, 6)):
        kind = abs_mono if rng.random() < 0.5 else mono
        terms.append((kind(rng.randint(0, max_degree)),
                      Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**3))))
    return FunctionExpr(terms)


def _exact_differences(expr, order):
    """Every N_p that ``_differences`` computes for ``expr`` at ``order``, and
    its denominator."""
    q = math.lcm(*[c.denominator for _, c in expr.terms])
    scaled = [(atom, c.numerator * (q // c.denominator)) for atom, c in expr.terms]
    value, top = _differences(_stencil_sums(scaled, order), order, HALF_WIDTH_EXPONENTS)
    return list(map(value, HALF_WIDTH_EXPONENTS)), q << top


def _assert_exact_differences(expr, order):
    values, denominator = _exact_differences(expr, order)
    assert denominator > 0 and len(values) == len(HALF_WIDTHS)
    for value, h in zip(values, HALF_WIDTHS):
        assert Fraction(value, denominator) == _reference_exact_difference(expr, order, h), \
            (expr, order, h)


def test_homogeneous_sums_equal_the_direct_stencil_bit_for_bit():
    rng = random.Random(20150430)
    for _ in range(40):
        expr = _random_expression(rng)
        for order in range(1, 9):
            _assert_exact_differences(expr, order)


@pytest.mark.parametrize("expr, orders", [
    # Orders past 8, up to the bound: the shifts run to hundreds of bits.
    (M(64) + A(64), (9, 10, 17, 31, 32, 33, 48, 63, 64, 65, 66)),
    (M(0, Fraction(-7, 3)) + A(5, Fraction(2, 9)) + M(40, 11) + A(60, Fraction(-1, 7)),
     (9, 12, 41, 62)),
    # Every exponent D + p*(D - order) is negative: the common shift is 0.
    (M(0, 7) + M(1, Fraction(-3, 5)), (20,)),
    (A(0, Fraction(5, 3)) + A(1, -2) + M(3, Fraction(1, 4)), (9, 20, 66)),
])
def test_integer_differences_at_high_orders(expr, orders):
    for order in orders:
        _assert_exact_differences(expr, order)


def test_all_negative_exponents_need_no_shift():
    expr = A(0, Fraction(5, 3)) + M(1, Fraction(-3, 5))
    values, denominator = _exact_differences(expr, 20)
    assert denominator == 15 and any(values)


TABLE_SIZE = (MAX_DEGREE + 1) * 2 * MAX_ORDER  # 8,580


def test_stencil_table_equals_the_alternating_sum():
    """Every atom a parsed expression writes, at every order classify may
    probe: the unit stencil sum sum_j (-1)^j C(k, j) a(k - 2j)."""
    for degree in range(MAX_DEGREE + 1):
        for is_abs in (False, True):
            atom = Atom(is_abs, degree)
            for order in range(1, MAX_ORDER + 1):
                direct = sum((-1) ** j * math.comb(order, j) * atom.evaluate(order - 2 * j)
                             for j in range(order + 1))
                assert _unit_sum(degree, is_abs, order) == direct, (atom, order)


def test_stencil_table_is_bounded():
    _unit_sum.cache_clear()
    assert check_oracle_agreement()[0]
    assert 0 < _unit_sum.cache_info().currsize <= TABLE_SIZE
    # Products of atoms reach degrees no parsed factor writes; the table
    # still holds at most TABLE_SIZE entries.
    for degree in range(2 * MAX_DEGREE + 3):
        classify(FunctionExpr.abs_monomial(degree) + FunctionExpr.monomial(degree))
    assert _unit_sum.cache_info().currsize <= TABLE_SIZE == _unit_sum.cache_info().maxsize


# The Fraction implementation the integer one replaced, kept as a reference:
# its stencil sums per total degree, its difference at each half-width and
# its divergence test on exact values.
def _reference_classify(f, max_order=8):
    def stencil_sums(order):
        nodes = [((-1) ** j * math.comb(order, j), Fraction(order, 2) - j)
                 for j in range(order + 1)]
        sums = {}
        for atom, coeff in f.terms:
            unit = sum(w * atom.evaluate(x) for w, x in nodes)
            if unit:
                exponent = atom.degree + atom.is_abs - order
                sums[exponent] = sums.get(exponent, 0) + coeff * unit
        return [(e, s) for e, s in sums.items() if s]

    def diverges(values):
        run_start = None
        for i in range(1, len(values)):
            v_prev, v_cur = values[i - 1], values[i]
            if v_prev and v_cur and v_cur >= Fraction(3, 2) * v_prev:
                if run_start is None:
                    run_start = i - 1
                if i - run_start >= 3 and v_cur >= 10 * values[run_start]:
                    return i
            else:
                run_start = None
        return None

    for order in range(1, max_order + 1):
        sums = stencil_sums(order)
        values = [abs(sum(s * Fraction(h)**e for e, s in sums)) for h in HALF_WIDTHS]
        hit = diverges(values)
        if hit is not None:
            try:
                value = float(values[hit])
            except OverflowError:
                value = math.inf
            return Classification(order, order, HALF_WIDTHS[hit], value)
    return Classification(None, max_order)


def test_classify_equals_the_fraction_reference():
    rng = random.Random(1703)
    for _ in range(200):
        expr = _random_expression(rng, max_degree=6)
        top = max((atom.degree for atom, _ in expr.terms), default=0) + 2
        assert classify(expr) == _reference_classify(expr, top), expr


# The integer sweep classify ran before it stopped where its decision does:
# all of an order's N_p, then the divergence scan over the stored list, for
# each (AGREEMENT_POLICY, GROWTH_THRESHOLD) pair in ``policies`` (the values
# do not depend on the pair).  An order without a growing term (every D >= k)
# sweeps p = 2..20.  An order with one sweeps p = 2..119, longer by the bits
# that the largest scaled coefficient has over the smallest, so that a term
# that masks the growing one at p = 20 is outgrown inside the sweep.
def _full_sweep_classify(f, policies):
    q = math.lcm(*[c.denominator for _, c in f.terms])
    sizes = [abs(c.numerator * (q // c.denominator)).bit_length() for _, c in f.terms]

    def differences(order, exponents):
        sums = {}
        for atom, c in f.terms:
            u = _unit_sum(atom.degree, atom.is_abs, order)
            if u:
                total = atom.degree + atom.is_abs
                sums[total] = sums.get(total, 0) + c.numerator * (q // c.denominator) * u
        terms = [(total, n) for total, n in sums.items() if n]
        top = max([0] + [total + p * (total - order)
                         for total, _ in terms for p in exponents])
        values = [abs(sum(n << (top - total - p * (total - order)) for total, n in terms))
                  for p in exponents]
        return values, q << top

    def diverges(values, policy, threshold):
        run_start = None
        for i in range(1, len(values)):
            v_prev, v_cur = values[i - 1], values[i]
            if v_prev and v_cur and 2 * v_cur >= 3 * v_prev:
                if run_start is None:
                    run_start = i - 1
                if i - run_start >= policy and v_cur >= threshold * values[run_start]:
                    return i
            else:
                run_start = None
        return None

    top = max([atom.degree for atom, _ in f.terms], default=0) + 2
    found = {}
    for order in range(1, top + 1):
        grows = any(atom.degree + atom.is_abs < order and _unit_sum(atom.degree, atom.is_abs, order)
                    for atom, _ in f.terms)
        exponents = range(2, 120 + max(sizes) - min(sizes)) if grows else HALF_WIDTH_EXPONENTS
        values, denominator = differences(order, exponents)
        for pair in policies:
            hit = None if pair in found else diverges(values, *pair)
            if hit is not None:
                try:
                    value = float(Fraction(values[hit], denominator))
                except OverflowError:
                    value = math.inf
                found[pair] = Classification(order, order, 2.0 ** -exponents[hit], value)
        if len(found) == len(policies):
            break
    return {pair: found.get(pair, Classification(None, top)) for pair in policies}


def _sweep_cases():
    """Every atom a parsed factor writes, plain and abs, at three
    coefficients; then seeded sums with huge coefficients.

    An atom's stencil sum is nonzero only at orders of its degree's parity,
    so the two atoms of one total degree never both reach n_D, and an order
    vanishes only where every atom's sum does.  A third of the sums keep to
    one parity, so that each order of the other parity vanishes although
    several atoms are present."""
    for degree in range(MAX_DEGREE + 1):
        for kind in (mono, abs_mono):
            for c in (1, Fraction(-3, 7), 10**400):
                yield FunctionExpr([(kind(degree), c)])
    rng = random.Random(20150430)
    for _ in range(5000):
        parity = rng.choice((0, 1, None))
        terms = []
        for _ in range(rng.randint(2, 6)):
            degree = rng.randint(0, 12)
            if parity is not None:
                degree += (degree - parity) % 2
            terms.append(((abs_mono if rng.random() < 0.5 else mono)(degree),
                          Fraction(rng.randint(-10**30, 10**30) or 1, rng.randint(1, 10**6))))
        if rng.random() < 0.1:
            terms.append((abs_mono(2 * rng.randint(0, 2)), 10**rng.randint(100, 400)))
        yield FunctionExpr(terms)


SWEEP_POLICIES = ((3, 10), (5, 100), (2, 3))


@functools.lru_cache(maxsize=None)
def _full_sweeps():
    """(case, its full sweep under every pair of SWEEP_POLICIES), computed
    once for the three rows below."""
    return [(expr, _full_sweep_classify(expr, SWEEP_POLICIES)) for expr in _sweep_cases()]


@pytest.mark.parametrize("policy, threshold", SWEEP_POLICIES)
def test_classify_equals_the_full_sweep(monkeypatch, policy, threshold):
    monkeypatch.setattr(oracle, "AGREEMENT_POLICY", policy)
    monkeypatch.setattr(oracle, "GROWTH_THRESHOLD", threshold)
    for expr, reference in _full_sweeps():
        assert classify(expr) == reference[policy, threshold], expr


def test_the_failing_order_is_exact_on_skewed_coefficients():
    """A growing term masked by a far larger one still fails at its own
    order: on 3,000 seeded expressions of 2-5 atoms of degree <= 8 with
    coefficients +-10^a / 10^b (a, b <= 15), each fails at its least residue
    degree + 2, or is smooth without a residue."""
    assert classify(A(1) + M(3, 10**6)).failing_order == 3
    rng = random.Random(20150430)
    for _ in range(3000):
        expr = FunctionExpr([((abs_mono if rng.random() < 0.5 else mono)(rng.randint(0, 8)),
                              Fraction(rng.choice((-1, 1)) * 10**rng.randint(0, 15),
                                       10**rng.randint(0, 15)))
                             for _ in range(rng.randint(2, 5))])
        residue = expr.singular_residue()
        assert classify(expr).failing_order == (min(residue) + 2 if residue else None), expr


@pytest.mark.parametrize("policy, threshold", SWEEP_POLICIES + ((2, 2),))
def test_a_masked_kink_reads_on_to_the_factor_7_bound(monkeypatch, policy, threshold):
    """At order 3, abs(x)*x + 10^8*x^5 sums the terms T_2 and T_5 with T_5 /
    T_2 = 4 * 10^9 * 2^(-3(p + 1)): 0.47 at p = 10 and 0.058 at p = 11.  The
    step from p = 10 grows by 2 * 1.058 / 1.47 = 1.44 < 3/2, so a sweep that
    stopped two steps after the factor-2 bound (p = 10) would miss the run
    that policy 2, threshold 2 confirms at p = 13, two steps after the
    factor-7 bound, and report order 5."""
    monkeypatch.setattr(oracle, "AGREEMENT_POLICY", policy)
    monkeypatch.setattr(oracle, "GROWTH_THRESHOLD", threshold)
    expr = A(1) + M(5, 10**8)
    result = classify(expr)
    assert result.failing_order == 3
    assert result == _full_sweep_classify(expr, [(policy, threshold)])[policy, threshold]


def _count_values(monkeypatch, key=lambda terms, order: order):
    """Count the N_p that classify computes, per ``key(terms, order)``."""
    counts = {}

    def counting(terms, order, sweep):
        value, top = _differences(terms, order, sweep)
        at = key(terms, order)

        def counted(p):
            counts[at] = counts.get(at, 0) + 1
            return value(p)
        return counted, top

    monkeypatch.setattr(oracle, "_differences", counting)
    return counts


def test_a_failing_order_stops_where_its_decision_does(monkeypatch):
    counts = _count_values(monkeypatch)
    assert classify(A(0)).failing_order == 2
    assert 0 < counts[2] < len(HALF_WIDTH_EXPONENTS)
    # Two total degrees: the scan reads up to the confirming step only.
    counts.clear()
    assert classify(A(1) + M(0, 5)).failing_order == 3
    assert 0 < counts[3] < len(HALF_WIDTH_EXPONENTS)


def test_vanishing_orders_compute_no_value(monkeypatch):
    counts = _count_values(monkeypatch)
    # |x| has no first difference at 0, and x^2 none past order 2.
    assert _unit_sum(0, True, 1) == 0 and _unit_sum(2, False, 3) == 0
    assert classify(A(0)).failing_order == 2 and 1 not in counts
    assert classify(M(2, 7) + M(0, -1)).smooth
    assert not set(counts) & {3, 4}


def test_oracle_agreement_reads_the_values_up_to_the_bound(monkeypatch):
    # Sweeping every order with terms reads 50,662 values.  The orders without
    # a growing term stop where the bound holds: 1,153 values, not 45,733.
    # The orders with one sweep up to the confirming step, whose value is
    # read once: 4,111 values.
    counts = _count_values(monkeypatch, key=lambda terms, order: min(terms)[0] < order)
    assert check_oracle_agreement()[0]
    assert counts == {False: 1153, True: 4111}


def test_oracle_agreement_sums_each_probed_order_once(monkeypatch):
    sums, orders = [0], [0]

    def counting_sums(scaled, order):
        sums[0] += 1
        return _stencil_sums(scaled, order)

    def counting_classify(f):
        result = classify(f)
        orders[0] += result.checked_order
        return result

    monkeypatch.setattr(oracle, "_stencil_sums", counting_sums)
    monkeypatch.setattr(verify, "classify", counting_classify)
    assert check_oracle_agreement()[0]
    # One summation per probed order: 4,469.
    assert sums[0] == orders[0] == 4469


def test_an_order_reads_no_value_when_the_bound_holds_at_the_first_half_width(monkeypatch):
    # At order 2, 7*x^2 + x^4 has n_2 = 7*8 and n_4 = 32: neither term grows,
    # and at p = 2 already 6 * 32 * 2^-6 = 3 <= 56.  Order 4 has one rate, 0.
    assert _stencil_sums([(mono(2), 7), (mono(4), 1)], 2) == [(2, 56), (4, 32)]
    counts = _count_values(monkeypatch)
    assert classify(M(2, 7) + M(4, 1)).smooth
    assert counts == {}


# Orders without a growing term whose sum crosses zero inside the sweep or
# past it, so that the bound holds late or never; each reads up to the index
# where the bound holds (11 values) or every value (19).
@pytest.mark.parametrize("policy, threshold", [(3, 10), (5, 100), (2, 3)])
@pytest.mark.parametrize("expr, reads", [
    # At order 2 the difference is 2 - 2^22 * 4^-p: zero between p = 10 and
    # 11, and the x^2 term six times the other from p = 12 on.
    (M(2) + M(4, -2**21), 11),
    # 2 - 2^61 * 4^-p crosses zero past the sweep: the bound never holds.
    (M(2) + M(4, -2**60), 19),
    # At p = 10 the other two terms are -9/20 and -1/20 of the x^2 term, so a
    # bound with factor 2 would stop there and miss the run that policy 2,
    # threshold 3 confirms at p = 11 (the step 0.5 -> 0.7625).
    (M(2, 5) + A(2, -9 * 256) + M(4, -2**18), 11),
], ids=["late", "never", "within-a-half"])
def test_an_order_whose_sum_crosses_zero_reads_until_the_bound_holds(
        monkeypatch, policy, threshold, expr, reads):
    monkeypatch.setattr(oracle, "AGREEMENT_POLICY", policy)
    monkeypatch.setattr(oracle, "GROWTH_THRESHOLD", threshold)
    counts = _count_values(monkeypatch)
    result = classify(expr)
    assert result == _full_sweep_classify(expr, [(policy, threshold)])[policy, threshold]
    # A confirmed run ends the sweep at its confirming value, read once:
    # within-a-half under policy 2, threshold 3 confirms at p = 11, the tenth.
    assert counts[2] == (10 if result.failing_order == 2 else reads)


def test_the_stencil_table_starts_empty():
    # Unit sums are computed on first use, not as an eager table on import.
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = "import diffeolin.oracle as o; print(o._unit_sum.cache_info().currsize)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True, timeout=120).stdout
    assert out == "0\n"


def test_expressions_never_take_the_float_path(monkeypatch):
    def refuse(self, x):
        raise AssertionError("float evaluation of an atom expression")

    monkeypatch.setattr(FunctionExpr, "evaluate_float", refuse)
    expr = M(0, 3) + M(2, -1) + A(2, Fraction(1, 5))
    assert classify(expr).failing_order == 4
    assert classify(M(5)).smooth


def test_agreement_rate_on_random_expressions():
    rng = random.Random(99)
    disagreements = 0
    for _ in range(200):
        terms = []
        for _ in range(rng.randint(1, 6)):
            kind = abs_mono if rng.random() < 0.5 else mono
            terms.append((kind(rng.randint(0, 6)),
                          Fraction(rng.randint(-10, 10), rng.randint(1, 4))))
        expr = FunctionExpr(terms)
        if classify(expr).smooth != expr.is_smooth():
            disagreements += 1
    assert disagreements <= 2


def test_oracle_agreement_fails_on_one_disagreement(monkeypatch):
    # The oracle is exact on the atom basis, so one wrong answer in the
    # 1,000 random expressions fails the check.
    first = verify._random_expression(random.Random(verify.VERIFY_SEED + 8))

    def flip_first(f):
        result = classify(f)
        if f != first:
            return result
        return Classification(None, 2) if result.failing_order else Classification(2, 2)

    assert check_oracle_agreement()[0]
    monkeypatch.setattr(verify, "classify", flip_first)
    passed, detail = check_oracle_agreement()
    assert not passed and detail == "1 of 1000 disagree; trials [0]"


# --- cross validation -------------------------------------------------------

def test_cross_validate_annihilating_functional():
    v = make_generated(3, [kink_plot(3, 0)])
    report = cross_validate(v, [0, 1, 1], trials=10, seed=4)
    assert report.map_verdict == "Smooth"
    assert not report.disagreements
    assert all(r.classification.smooth for r in report.records)
    assert report.consistent


def test_cross_validate_exposed_functional():
    v = make_generated(3, [kink_plot(3, 0)])
    report = cross_validate(v, [1, 0, 0], trials=10, seed=4)
    assert report.map_verdict == "NotSmooth"
    # The bare generator composition is the guaranteed witness.
    assert not report.records[0].classification.smooth
    assert not report.disagreements
    assert report.consistent


def test_cross_validate_fine_space():
    report = cross_validate(make_fine(2), [1, 2], trials=6, seed=1)
    assert report.map_verdict == "Smooth"
    assert all(r.classification.smooth for r in report.records)


def test_cross_validate_skips_coarse():
    report = cross_validate(make_coarse(2), [1, 0], trials=5)
    assert report.skipped
    assert report.consistent
    assert report.trials == 0


KINK3 = make_generated(3, [kink_plot(3, 0)])


# (space, functional annihilating S(V), functional exposing S(V)) for the
# composite descriptors: S = span{e1}, span{(1, 1, 0)} and span{e0, e1}.
@pytest.mark.parametrize("space, annihilating, exposed", [
    (direct_sum(make_fine(1), KINK3), (1, 0, 1, 1), (0, 1, 0, 0)),
    (hat_dual(KINK3, ((1, 0, 0), (1, 1, 0), (0, 0, 1))), (1, -1, 5), (1, 0, 0)),
    (tensor_product(make_generated(2, [kink_plot(2, 0)]), make_fine(2)), (0, 0, 1, 1),
     (1, 0, 0, 0)),
], ids=["sum", "pushforward", "tensor"])
def test_cross_validate_composite_spaces(space, annihilating, exposed):
    for functional, verdict in ((annihilating, "Smooth"), (exposed, "NotSmooth")):
        report = cross_validate(space, functional, trials=10, seed=4)
        assert not report.skipped
        assert report.map_verdict == verdict
        assert not report.disagreements
        assert report.consistent


# Records of the sampler from before every generating plot was sampled,
# frozen: while ``trials`` covers the generators, the samples are unchanged.
@pytest.mark.parametrize("space, functional, trials, expected", [
    (KINK3, (1, 0, 0), 4, [
        ("abs(x)", 2, False),
        ("-3 - 3*x - 3*x^2 - 3*abs(x) + 2*abs(x)*x", 2, False),
        ("3 - 3*x - x^2 + abs(x) - abs(x)*x - abs(x)*x^2 + 3*abs(x)*x^3", 2, False),
        ("-2 - 2*x - x^2", None, True),
    ]),
    (direct_sum(make_fine(1), KINK3), (0, 1, 0, 0), 3, [
        ("abs(x)", 2, False),
        ("x - x^2 - 3*abs(x) + 2*abs(x)*x", 2, False),
        ("2 + 3*x - x^2 + 6*abs(x) - 4*abs(x)*x + 6*abs(x)*x^2 - 6*abs(x)*x^3", 2, False),
    ]),
], ids=["generated", "sum"])
def test_cross_validate_samples_are_unchanged_when_trials_cover_the_generators(
        space, functional, trials, expected):
    report = cross_validate(space, functional, trials=trials, seed=4)
    assert [(r.expression, r.classification.failing_order, r.symbolic_smooth)
            for r in report.records] == expected


def test_cross_validate_skips_a_sum_with_a_coarse_summand():
    report = cross_validate(direct_sum(make_coarse(1), KINK3), (0, 0, 1, 1), trials=5)
    assert report.skipped and report.trials == 0


def test_cross_validate_rejects_bad_functional():
    with pytest.raises(ValueError):
        cross_validate(make_fine(2), [1, 2, 3])
