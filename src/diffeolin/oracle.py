"""Numeric smoothness classifier based on central divided differences.

Independent of the symbolic side: a function R -> R is probed by its values
at the nodes (k/2 - j)*h around 0 for a geometric sweep of half-widths h.
If the order-k divided differences grow steadily without bound as the scale
shrinks, the function is declared non-smooth with failing order k (the
smallest such k).  A kink |x|*x^d first shows up at order d + 2, where the
divided differences grow like 1/h (ratio 2 per halving).

Atom expressions are probed exactly.  Every atom is homogeneous,
a(x*h) = h^D * a(x) with D = degree + is_abs, so the order-k difference at
half-width h is sum_D s_D * h^(D - k), where s_D sums the unit-spacing
stencil values of the atoms of total degree D.  The values are exact, so
a value is usable iff it is nonzero and the growth test runs on exact
numbers; only the reported value is rounded to float.

Plain callables are evaluated in floats, where the k-th difference
amplifies input rounding by 2^k / h^k; values below a worst-case rounding
floor times ``NOISE_GUARD`` are ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence, Union

from .atoms import FunctionExpr
from .exprparse import MAX_DEGREE

Probe = Union[FunctionExpr, Callable[[float], float]]

_EPS = 2.0**-52

# Enough for |x|*x^MAX_DEGREE, the highest kink one parsed factor writes,
# which fails at order MAX_DEGREE + 2; bounds the work of one probe.
MAX_ORDER = MAX_DEGREE + 2


# The sweep of half-widths h, and the divergence test on it: a run of at
# least AGREEMENT_POLICY consecutive steps, each growing by STEP_GROWTH, with
# total growth GROWTH_THRESHOLD.  Calibrated on the atom basis: a diverging
# order grows by at least x2 per halving, a converging one settles to ratio 1.
HALF_WIDTHS = tuple(2.0**-i for i in range(2, 21))
GROWTH_THRESHOLD = 10.0
AGREEMENT_POLICY = 3
STEP_GROWTH = 1.5
# Float probes ignore values below this multiple of their rounding floor.
NOISE_GUARD = 64.0


@dataclass(frozen=True)
class OracleConfig:
    max_order: int = 8

    def __post_init__(self) -> None:
        if not 2 <= self.max_order <= MAX_ORDER:
            raise ValueError(f"max_order must be between 2 and {MAX_ORDER}")


DEFAULT_CONFIG = OracleConfig()


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


class _Overflow(Exception):
    pass


def _float_difference(f: Callable[[float], float], order: int, h: float) -> tuple[float, float]:
    """(|divided difference|, rounding floor) for a float-only probe."""
    terms = []
    fmax = 0.0
    for j in range(order + 1):
        try:
            value = f((order / 2 - j) * h)
        except OverflowError as exc:
            raise _Overflow from exc
        if math.isinf(value) or math.isnan(value):
            raise _Overflow
        fmax = max(fmax, abs(value))
        terms.append((-1) ** j * math.comb(order, j) * value)
    quotient = math.fsum(terms) / h**order
    if math.isinf(quotient) or math.isnan(quotient):
        raise _Overflow
    floor = _EPS * fmax * (2.0**order) / h**order
    return abs(quotient), floor


def _stencil_sums(f: FunctionExpr, order: int) -> list[tuple[int, Fraction]]:
    """Nonzero (D - order, s_D) pairs: s_D sums c * sum_j w_j * a(order/2 - j)
    over the terms c*a of ``f`` whose atom a has total degree D."""
    nodes = [((-1) ** j * math.comb(order, j), Fraction(order, 2) - j)
             for j in range(order + 1)]
    sums: dict[int, Fraction] = {}
    for atom, coeff in f.terms:
        unit = sum(w * atom.evaluate(x) for w, x in nodes)
        if unit:
            exponent = atom.degree + atom.is_abs - order
            sums[exponent] = sums.get(exponent, 0) + coeff * unit
    return [(e, s) for e, s in sums.items() if s]


def _homogeneous_difference(sums: Sequence[tuple[int, Fraction]], h: float) -> Fraction:
    """Exact |divided difference| at half-width h > 0."""
    step = Fraction(h)
    return abs(sum(s * step**e for e, s in sums))


def _rounded(value: float | Fraction) -> float:
    try:
        return float(value)
    except OverflowError:
        return math.inf


def _diverges(values: Sequence[tuple[float | Fraction, bool]]) -> int | None:
    """Index where a sustained divergent run is confirmed, else None.

    A run is ``AGREEMENT_POLICY`` or more consecutive usable scale steps each
    growing by ``STEP_GROWTH``, with total growth at least
    ``GROWTH_THRESHOLD`` across the maximal run.
    """
    # Fraction * float rounds like float * float: float values compare as
    # with a float step, exact values compare exactly.
    growth = Fraction(STEP_GROWTH)
    run_start = None
    for i in range(1, len(values)):
        v_prev, ok_prev = values[i - 1]
        v_cur, ok_cur = values[i]
        growing = ok_prev and ok_cur and v_cur >= growth * v_prev
        if growing:
            if run_start is None:
                run_start = i - 1
            run_len = i - run_start
            total = v_cur / values[run_start][0]
            if run_len >= AGREEMENT_POLICY and total >= GROWTH_THRESHOLD:
                return i
        else:
            run_start = None
    return None


def classify(f: Probe, cfg: OracleConfig = DEFAULT_CONFIG) -> Classification:
    """Probe ``f`` for non-smooth behaviour at 0.

    Returns the smallest order whose divided differences diverge under the
    sweep of half-widths.  For a plain callable, a difference that leaves
    the float range at some order counts as divergence at that order.
    """
    exact = isinstance(f, FunctionExpr)
    for order in range(1, cfg.max_order + 1):
        sums = _stencil_sums(f, order) if exact else ()
        values: list[tuple[float | Fraction, bool]] = []
        for h in HALF_WIDTHS:
            if exact:
                v = _homogeneous_difference(sums, h)
                values.append((v, v != 0))
                continue
            try:
                v, floor = _float_difference(f, order, h)
            except _Overflow:
                return Classification(order, order, h, math.inf)
            values.append((v, v > NOISE_GUARD * floor))
        hit = _diverges(values)
        if hit is not None:
            return Classification(order, order, HALF_WIDTHS[hit], _rounded(values[hit][0]))
    return Classification(None, cfg.max_order)


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
    space: str
    functional: tuple[Fraction, ...]
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
    cfg: OracleConfig = DEFAULT_CONFIG,
    seed: int = 0,
):
    """Sample plots of the space, compose with the functional and compare the
    numeric classification with the symbolic answer.

    Generated spaces sample vector-space combinations lambda(x) * p(c * x) + s(x)
    of the generators (polynomial lambda, rational c, smooth s), always
    starting with the bare generators.  Fine spaces sample smooth plots.
    Coarse spaces are skipped: there is no faithful sampled representation.
    """
    import random

    from .exprparse import format_expr
    from .hom import LinearMap, is_smooth_linear
    from .linalg import vector
    from .spaces import Coarse, Fine, Generated, make_fine

    phi = vector(functional)
    if len(phi) != space.dim:
        raise ValueError("functional length must equal the space dimension")
    desc = space.diffeology
    functional_map = LinearMap(space, make_fine(1), (phi,))
    verdict = is_smooth_linear(functional_map).value

    if isinstance(desc, Coarse):
        return AgreementReport(space.describe(), phi, verdict, (), skipped=True)
    if not isinstance(desc, (Fine, Generated)):
        raise ValueError("cross validation supports fine, coarse and generated spaces")

    rng = random.Random(seed)

    def random_poly(max_degree: int = 3) -> FunctionExpr:
        out = FunctionExpr.zero()
        for d in range(max_degree + 1):
            c = rng.randint(-3, 3)
            if c:
                out = out + FunctionExpr.monomial(d, c)
        return out

    generators = desc.generators if isinstance(desc, Generated) else ()
    scales = [Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
              Fraction(1, 2), Fraction(-1, 2), Fraction(3)]

    samples: list[list[FunctionExpr]] = []
    for g in generators:
        samples.append(list(g.components))
    while len(samples) < trials:
        comps = [FunctionExpr.zero()] * space.dim
        for g in generators:
            if generators and rng.random() < 0.75:
                lam = random_poly()
                c = rng.choice(scales)
                for k, comp in enumerate(g.components):
                    comps[k] = comps[k] + lam * comp.compose_scale(c)
        smooth_part = [random_poly(2) for _ in range(space.dim)]
        comps = [a + b for a, b in zip(comps, smooth_part)]
        samples.append(comps)

    records = []
    for comps in samples[:trials]:
        composed = FunctionExpr.zero()
        for coeff, comp in zip(phi, comps):
            if coeff:
                composed = composed + comp.scale(coeff)
        records.append(
            TrialRecord(
                format_expr(composed),
                classify(composed, cfg),
                composed.is_smooth(),
            )
        )
    return AgreementReport(space.describe(), phi, verdict, tuple(records))
