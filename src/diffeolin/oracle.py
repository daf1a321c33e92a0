"""Numeric smoothness classifier based on central divided differences.

Independent of the symbolic side: a function R -> R is probed by its values
at the nodes (k/2 - j)*h around 0 for a geometric sweep of half-widths h.
If the order-k divided differences grow steadily without bound as the scale
shrinks, the function is declared non-smooth with failing order k (the
smallest such k).  A kink |x|*x^d first shows up at order d + 2, where the
divided differences grow like 1/h (ratio 2 per halving).

The probes are atom expressions, probed exactly on Python ints.  An atom
is homogeneous, a(x*h) = h^D * a(x) with D = degree + is_abs, and the nodes
k/2 - j are half-integers, so its unit-spacing stencil sum is U / 2^D with
U = sum_j (-1)^j C(k, j) (k - 2j)^degree |k - 2j|^is_abs.  Summing c*U per D
over a common denominator q of the coefficients gives integers n_D, and the
difference at h = 2^-p, sum_D n_D / q * 2^-(D + p*(D - k)), is N_p / (q << top)
with top the largest of these exponents (at least 0; linear in p, so taken at
the ends of the sweep).  All values share that denominator, so the growth
test compares the integers N_p and only the reported value becomes a float.

Every order takes one path: its n_D are summed once, ``_sweep`` says which
N_p decide it, and an order that reads any builds top and p -> N_p and sweeps
its values lazily, up to the confirming step.  With D0 the least D, the ratio
of the D term to the D0 term, (n_D / n_D0) * 2^((D0 - D)(p + 1)), at least
halves per step: once F * sum_{D != D0} |n_D| * 2^((D0 - D)(p + 1)) <= |n_D0|,
this bound holds at every later p, the value within 1/F of the D0 term, which
grows by 2^(k - D0) per step.  With no growing term (D0 >= k) and F = 6, each
later step grows by at most (7/6)/(5/6) * 2^(k - D0) < 3/2.  A hit at i needs
a 3/2 step into i, so the values up to where the bound first holds (none at
p_0) decide, for any policy; such a sweep never reads past p = 20.  With one
(D0 < k) and F = 7, every later value is nonzero and grows by at least
2 * (6/7)/(8/7) = 3/2 a step: a run under way there, begun no higher, is
confirmed in the least s >= AGREEMENT_POLICY steps with (3/2)^s >=
GROWTH_THRESHOLD, however far past p = 20 a larger term masks the growing one.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Sequence

from .atoms import FunctionExpr
from .exprparse import MAX_DEGREE, format_expr
from .hom import LinearMap, is_smooth_linear
from .linalg import vector
from .spaces import Plot, generating_plots, make_fine, presentation

# The order at which |x|*x^MAX_DEGREE, the highest kink one parsed factor
# writes, fails: the highest order classify probes on a parsed expression.
MAX_ORDER = MAX_DEGREE + 2


# The sweep of half-widths 2^-p starts at these; its divergence test is a run
# of at least AGREEMENT_POLICY consecutive steps, each growing by 3/2, with
# total growth GROWTH_THRESHOLD.  Calibrated on the atom basis: a diverging
# order grows by at least x2 per halving, a converging one settles to ratio 1.
HALF_WIDTH_EXPONENTS = tuple(range(2, 21))
GROWTH_THRESHOLD = 10
AGREEMENT_POLICY = 3


@dataclass(frozen=True)
class Classification:
    """Outcome of a smoothness probe.

    ``failing_order`` is None for a function that looks C-infinity up to
    ``checked_order``; otherwise it is the smallest diverging order, with
    the scale/value pair where divergence was confirmed.
    """

    failing_order: int | None
    checked_order: int
    scale: float | None = None
    value: float | None = None

    @property
    def smooth(self) -> bool:
        return self.failing_order is None

    def label(self) -> str:
        if self.smooth:
            return "CInfinityLikely"
        return f"NonSmoothAt0(order {self.failing_order})"


@lru_cache(maxsize=(MAX_DEGREE + 1) * 2 * MAX_ORDER)
def _unit_sum(degree: int, is_abs: bool, order: int) -> int:
    """The module docstring's U for |x|^is_abs * x^degree at ``order``; the
    cache fits every atom and order that a parsed expression can probe."""
    return sum((-1) ** j * math.comb(order, j) * (order - 2 * j) ** degree
               * (abs(order - 2 * j) if is_abs else 1) for j in range(order + 1))


def _stencil_sums(scaled, order: int) -> list[tuple[int, int]]:
    """The nonzero n_D of the terms (atom, c*q) at ``order``, as (D, n_D)."""
    sums: dict[int, int] = {}
    for (is_abs, degree), n in scaled:
        u = _unit_sum(degree, is_abs, order)
        if u:
            total = degree + is_abs
            sums[total] = sums.get(total, 0) + n * u
    return [(total, n) for total, n in sums.items() if n]


def _differences(terms, order: int, sweep: Sequence[int]) -> tuple[Callable[[int], int], int]:
    """Exact |order-th divided differences| of the sums ``terms``, as (D, n_D),
    on the exponents ``sweep``: the function p -> N_p, computed on call, and
    top, the difference at 2^-p being N_p / (q << top)."""
    ends = (sweep[0], sweep[-1])
    top = max([0] + [total + p * (total - order) for total, _ in terms for p in ends])

    def value(p: int) -> int:
        return abs(sum(n << (top - total - p * (total - order)) for total, n in terms))
    return value, top


def _sweep(terms, order: int) -> range:
    """The exponents p, in sweep order, whose N_p decide ``order`` for nonzero
    ``terms``, by the module docstring's bound times 2^((d1 - d0)(p + 1))."""
    (d0, n0), *rest = sorted(terms)
    n0, d1, grows = abs(n0), max(terms)[0], d0 < order
    first, last = HALF_WIDTH_EXPONENTS[0], math.inf if grows else HALF_WIDTH_EXPONENTS[-1]
    p, factor, steps = first, 7 if grows else 6, AGREEMENT_POLICY
    while p < last:
        if factor * sum(abs(n) << (d1 - d) * (p + 1) for d, n in rest) <= n0 << (d1 - d0) * (p + 1):
            break
        p += 1
    if not grows:
        return range(first, p + 1) if p > first else range(0)
    while 3**steps < GROWTH_THRESHOLD * 2**steps:
        steps += 1
    return range(first, p + steps + 1)


def _rounded(numerator: int, denominator: int) -> float:
    try:
        return numerator / denominator
    except OverflowError:
        return math.inf


def _diverges(values: Iterable[int]) -> tuple[int, int] | None:
    """(index, value) where a sustained divergent run is confirmed, else None.

    The values share one positive scale.  A run is ``AGREEMENT_POLICY`` or
    more consecutive usable (nonzero) steps each growing by 3/2, with total
    growth at least ``GROWTH_THRESHOLD`` across the maximal run.
    """
    run_start, v_start, v_prev = None, 0, 0
    for i, v_cur in enumerate(values):
        if v_prev and v_cur and 2 * v_cur >= 3 * v_prev:
            if run_start is None:
                run_start, v_start = i - 1, v_prev
            if i - run_start >= AGREEMENT_POLICY and v_cur >= GROWTH_THRESHOLD * v_start:
                return i, v_cur
        else:
            run_start = None
        v_prev = v_cur
    return None


def classify(f: FunctionExpr) -> Classification:
    """Probe the atom expression ``f`` for non-smooth behaviour at 0.

    Returns the smallest order whose exact divided differences diverge under
    the sweep of half-widths.  The orders run up to the largest atom degree
    of ``f`` plus 2: ``|x|*x^d`` first fails at ``d + 2``, and past its
    degree a polynomial's differences vanish.
    """
    q = math.lcm(*[c.denominator for _, c in f.terms])
    scaled = [(atom, c.numerator * (q // c.denominator)) for atom, c in f.terms]
    top = max([atom.degree for atom, _ in f.terms], default=0) + 2
    for order in range(1, top + 1):
        terms = _stencil_sums(scaled, order)
        sweep = _sweep(terms, order) if terms else range(0)
        if sweep:
            value, shift = _differences(terms, order, sweep)
            hit = _diverges(map(value, sweep))
            if hit is not None:
                return Classification(order, order, 2.0 ** -sweep[hit[0]],
                                      _rounded(hit[1], q << shift))
    return Classification(None, top)


# --- cross validation against the symbolic side ---------------------------

@dataclass(frozen=True)
class TrialRecord:
    expression: str
    classification: Classification
    symbolic_smooth: bool

    @property
    def agree(self) -> bool:
        return self.classification.smooth == self.symbolic_smooth


@dataclass(frozen=True)
class AgreementReport:
    map_verdict: str
    records: tuple[TrialRecord, ...]
    skipped: bool = False

    @property
    def trials(self) -> int:
        return len(self.records)

    @property
    def disagreements(self) -> tuple[TrialRecord, ...]:
        return tuple(r for r in self.records if not r.agree)

    @property
    def agreement_rate(self) -> float:
        if not self.records:
            return 1.0
        return 1.0 - len(self.disagreements) / len(self.records)

    @property
    def consistent(self) -> bool:
        """The map-level verdict matches the sampled evidence: a Smooth map
        never produces a symbolically non-smooth composition, a NotSmooth map
        produces at least one."""
        if self.skipped:
            return True
        nonsmooth_seen = any(not r.symbolic_smooth for r in self.records)
        return nonsmooth_seen == (self.map_verdict == "NotSmooth")


def cross_validate(
    space,
    functional: Sequence,
    trials: int = 20,
    seed: int = 0,
):
    """Sample plots of the space, compose with the functional and compare the
    numeric classification with the symbolic answer.

    The samples are vector-space combinations lambda(x) * p(c * x) + s(x) of
    the generating plots p of the space (``spaces.generating_plots``:
    polynomial lambda, rational c, smooth s), always starting with the bare
    generating plots, every one of them sampled; ``trials`` is the least
    number of samples.  A fine space samples smooth plots.  A space with a
    coarse part is skipped: there is no faithful sampled representation.
    """
    phi = vector(functional)
    if len(phi) != space.dim:
        raise ValueError("functional length must equal the space dimension")
    functional_map = LinearMap(space, make_fine(1), (phi,))
    verdict = is_smooth_linear(functional_map).value

    if presentation(space).filtration_step(-1).dim:
        return AgreementReport(verdict, (), skipped=True)

    rng = random.Random(seed)

    def random_poly(max_degree: int = 3) -> FunctionExpr:
        out = FunctionExpr.zero()
        for d in range(max_degree + 1):
            c = rng.randint(-3, 3)
            if c:
                out = out + FunctionExpr.monomial(d, c)
        return out

    generators = generating_plots(space)
    scales = [Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
              Fraction(1, 2), Fraction(-1, 2), Fraction(3)]

    samples = list(generators)
    while len(samples) < trials:
        comps = [FunctionExpr.zero()] * space.dim
        for g in generators:
            if rng.random() < 0.75:
                lam = random_poly()
                c = rng.choice(scales)
                for k, comp in enumerate(g.components):
                    comps[k] = comps[k] + lam * comp.compose_scale(c)
        smooth_part = [random_poly(2) for _ in range(space.dim)]
        samples.append(Plot([a + b for a, b in zip(comps, smooth_part)]))

    records = []
    for sample in samples:
        (composed,) = sample.transform((phi,)).components
        records.append(
            TrialRecord(
                format_expr(composed),
                classify(composed),
                composed.is_smooth(),
            )
        )
    return AgreementReport(verdict, tuple(records))
