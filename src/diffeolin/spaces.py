"""Diffeological vector spaces at desk scale.

A space is a dimension plus a diffeology descriptor.  Plots are generator
curves R -> R^n with coordinates in the atom algebra, so the only possible
non-smooth behaviour is |x|*x^k kinks at the origin.  Every descriptor
reduces to one normal form, the *presentation*: a flag of subspaces

    C = F_-1  <=  F_0  <=  F_1  <=  ...  <=  F_top = S(V)

given by degree-indexed rows and each constructor's closed form of F_e.  C
is the coarse part of V (directions along which arbitrary set maps are
plots); F_e adds the directions reachable as |x|*x^e residues.  Degrees
matter because smooth multipliers and reparametrisations x -> c*x can only
move residue content to higher degrees, never lower.  The top step S(V) is
the *singular span*: a linear functional is smooth on V exactly when it
annihilates S(V).

Plot membership is decided exactly on the flag (see ``is_plot``): every
answer is Plot or NotPlot, and every NotPlot comes with a separating
functional.  Smoothness of linear and bilinear maps is one test per row:
f(F_e V) <= F_e W for every e >= -1.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Sequence, Union

from .atoms import FunctionExpr
from .linalg import (
    ZERO,
    Matrix,
    Subspace,
    Support,
    Vector,
    dot,
    identity,
    integer_support,
    kron_vector,
    matvec,
    rank,
    vector,
    zero_vector,
)


class DiffeolinError(Exception):
    """Base class for library errors."""


class DimensionMismatchError(DiffeolinError):
    pass


class Verdict(enum.Enum):
    """Answer of the decision procedures.

    SMOOTH doubles as "is a plot" and NOT_SMOOTH as "is not a plot" in
    membership contexts.
    """

    SMOOTH = "Smooth"
    NOT_SMOOTH = "NotSmooth"

    def plot_label(self) -> str:
        return "Plot" if self is Verdict.SMOOTH else "NotPlot"


def combine_verdicts(verdicts) -> Verdict:
    """Conjunction: any NotSmooth wins."""
    return Verdict.NOT_SMOOTH if Verdict.NOT_SMOOTH in verdicts else Verdict.SMOOTH


@dataclass(frozen=True)
class Plot:
    """A generator curve R -> R^n, one FunctionExpr per coordinate."""

    components: tuple[FunctionExpr, ...]

    def __init__(self, components: Sequence[FunctionExpr]):
        object.__setattr__(self, "components", tuple(components))

    @property
    def target_dim(self) -> int:
        return len(self.components)

    def residue_rows(self) -> dict[int, Vector]:
        """Map degree d -> row of |x|*x^d coefficients across coordinates."""
        degrees: set[int] = set()
        residues = [c.singular_residue() for c in self.components]
        for r in residues:
            degrees.update(r)
        return {
            d: tuple(r.get(d, ZERO) for r in residues)
            for d in sorted(degrees)
        }

    def slice(self, start: int, stop: int) -> "Plot":
        return Plot(self.components[start:stop])

    def transform(self, m: Matrix) -> "Plot":
        """Compose with the linear map given by m (rows of m = output coords)."""
        out = []
        for row in m:
            acc = FunctionExpr.zero()
            for coeff, comp in zip(row, self.components):
                if coeff:
                    acc = acc + comp.scale(coeff)
            out.append(acc)
        return Plot(out)


def kink_plot(n: int, index: int, degree: int = 0) -> Plot:
    """The plot |x|*x^degree * e_index in R^n."""
    comps = [FunctionExpr.zero()] * n
    comps[index] = FunctionExpr.abs_monomial(degree)
    return Plot(comps)


def row_plot(row: Sequence, degree: int = 0) -> Plot:
    """The plot |x|*x^degree * row."""
    return Plot([FunctionExpr.abs_monomial(degree, c) if c else FunctionExpr.zero()
                 for c in vector(row)])


# --- diffeology descriptors ---------------------------------------------

@dataclass(frozen=True)
class Fine:
    pass


@dataclass(frozen=True)
class Coarse:
    pass


@dataclass(frozen=True)
class Generated:
    generators: tuple[Plot, ...]

    def __init__(self, generators: Sequence[Plot]):
        object.__setattr__(self, "generators", tuple(generators))


@dataclass(frozen=True)
class SumOf:
    left: "DiffSpace"
    right: "DiffSpace"


@dataclass(frozen=True)
class TensorOf:
    left: "DiffSpace"
    right: "DiffSpace"


@dataclass(frozen=True)
class Pushforward:
    base: "DiffSpace"
    matrix: Matrix

    def __post_init__(self) -> None:
        n = self.base.dim
        if len(self.matrix) != n or any(len(row) != n for row in self.matrix):
            raise DimensionMismatchError("pushforward matrix is not square of the base dimension")
        if rank(self.matrix) < n:
            raise DiffeolinError("pushforward matrix is singular")


Descriptor = Union[Fine, Coarse, Generated, SumOf, TensorOf, Pushforward]


@dataclass(frozen=True)
class DiffSpace:
    dim: int
    diffeology: Descriptor

    def __post_init__(self) -> None:
        if self.dim < 0:
            raise ValueError("dimension must be >= 0")

    def describe(self) -> str:
        d = self.diffeology
        if isinstance(d, Fine):
            return f"fine R^{self.dim}"
        if isinstance(d, Coarse):
            return f"coarse R^{self.dim}"
        if isinstance(d, Generated):
            return f"generated R^{self.dim} ({len(d.generators)} generators)"
        if isinstance(d, SumOf):
            return f"({d.left.describe()}) (+) ({d.right.describe()})"
        if isinstance(d, TensorOf):
            return f"({d.left.describe()}) (x) ({d.right.describe()})"
        if isinstance(d, Pushforward):
            return f"pushforward of {d.base.describe()}"
        return repr(d)

    @cached_property
    def _presentation(self) -> Presentation:
        return _build_presentation(self)


def make_fine(n: int) -> DiffSpace:
    return DiffSpace(n, Fine())


def make_coarse(n: int) -> DiffSpace:
    return DiffSpace(n, Coarse())


def make_generated(n: int, plots: Sequence[Plot]) -> DiffSpace:
    for p in plots:
        if p.target_dim != n:
            raise DimensionMismatchError(
                f"generator has {p.target_dim} coordinates, space has dimension {n}"
            )
    return DiffSpace(n, Generated(tuple(plots)))


def direct_sum(v: DiffSpace, w: DiffSpace) -> DiffSpace:
    return DiffSpace(v.dim + w.dim, SumOf(v, w))


def generating_plots(space: DiffSpace) -> tuple[Plot, ...]:
    """Plots read off the definition of ``space``, not its presentation: the
    generators of a generated space, each side's plots of a sum (zero-padded),
    A*g for each plot g of a pushforward's base, and p (x) e_j and e_i (x) q
    for plots p, q of a tensor's factors.  Fine and coarse spaces (duals are
    fine) have none.  Without a coarse part, their residue rows span the
    singular span."""
    d = space.diffeology
    if isinstance(d, Generated):
        return d.generators
    zero = FunctionExpr.zero()
    if isinstance(d, SumOf):
        left_pad, right_pad = [zero] * d.right.dim, [zero] * d.left.dim
        return (tuple(Plot(list(p.components) + left_pad) for p in generating_plots(d.left))
                + tuple(Plot(right_pad + list(q.components)) for q in generating_plots(d.right)))
    if isinstance(d, Pushforward):
        return tuple(p.transform(d.matrix) for p in generating_plots(d.base))
    if isinstance(d, TensorOf):
        n, m = d.left.dim, d.right.dim
        plots = []
        for p in generating_plots(d.left):
            for j in range(m):
                comps = [zero] * (n * m)
                comps[j::m] = p.components
                plots.append(Plot(comps))
        for q in generating_plots(d.right):
            for i in range(n):
                comps = [zero] * (n * m)
                comps[i * m:(i + 1) * m] = q.components
                plots.append(Plot(comps))
        return tuple(plots)
    return ()


# --- presentations -------------------------------------------------------

@dataclass(frozen=True)
class Presentation:
    """The degree filtration of a space: spanning rows and closed-form steps.

    ``rows`` holds (degree, direction) pairs: |x|*x^e times the direction is
    a plot for every e >= degree.  The rows of degree -1 span the coarse part
    C = F_-1, along which every set map is a plot; no other row lies in C.
    ``step(e)`` is the constructor's closed form of F_e, at -1 and at each
    presented degree, called on first use and kept.  ``supports`` holds the
    rows as integer supports, the form membership tests read, also kept.
    """

    ambient_dim: int
    rows: tuple[tuple[int, Vector], ...]
    step: Callable[[int], Subspace] = field(compare=False, repr=False)
    _steps: dict[int, Subspace] = field(default_factory=dict, init=False, compare=False, repr=False)

    @cached_property
    def supports(self) -> tuple[tuple[int, Support], ...]:
        return tuple((d, integer_support(r)) for d, r in self.rows)

    def singular_span(self) -> Subspace:
        return self.filtration_step(max((d for d, _ in self.rows), default=-1))

    def rows_up_to(self, degree: int) -> list[Vector]:
        """Spanning rows of the filtration step F_degree."""
        return [r for d, r in self.rows if d <= degree]

    def filtration_step(self, degree: int) -> Subspace:
        """F_degree as a subspace.  Steps are keyed by the largest presented
        degree <= ``degree`` (or -1), so each distinct step is built once."""
        key = max((d for d, _ in self.rows if d <= degree), default=-1)
        step = self._steps.get(key)
        if step is None:
            step = self._steps[key] = self.step(key)
        return step


def presentation(space: DiffSpace) -> Presentation:
    """The presentation of ``space``, built once and kept on the frozen space
    object itself, so it lives exactly as long as the space does."""
    return space._presentation


def _build_presentation(space: DiffSpace) -> Presentation:
    """Spanning (degree, row) pairs per descriptor, with the closed form of
    each step: constant for fine and coarse, the summands' steps side by
    side for a sum (``_sum_step``), ``_tensor_presentation`` for a tensor,
    and the elimination of the rows of degree <= e for generated spaces
    (residue rows) and pushforwards (the base's rows mapped by the matrix)."""
    n = space.dim
    d = space.diffeology
    if isinstance(d, Fine):
        return Presentation(n, (), lambda e: Subspace(n, ()))
    if isinstance(d, Coarse):
        return Presentation(n, tuple((-1, r) for r in identity(n)), lambda e: Subspace.full(n))
    if isinstance(d, SumOf):
        lp, rp = presentation(d.left), presentation(d.right)
        left_pad, right_pad = zero_vector(d.right.dim), zero_vector(d.left.dim)
        rows = (tuple((deg, r + left_pad) for deg, r in lp.rows)
                + tuple((deg, right_pad + r) for deg, r in rp.rows))
        return Presentation(n, rows,
                            lambda e: _sum_step(lp.filtration_step(e), rp.filtration_step(e)))
    if isinstance(d, TensorOf):
        return _tensor_presentation(d.left, d.right)
    if isinstance(d, Generated):
        if any(g.target_dim != n for g in d.generators):
            raise DimensionMismatchError("generator dimension mismatch")
        rows = tuple(row for g in d.generators for row in g.residue_rows().items())
    elif isinstance(d, Pushforward):
        rows = tuple((deg, matvec(d.matrix, r)) for deg, r in presentation(d.base).rows)
    else:
        raise TypeError(f"no presentation for descriptor {type(d).__name__}")
    return Presentation(n, rows, lambda e: Subspace.from_rows(n, [r for k, r in rows if k <= e]))


def _sum_step(left: Subspace, right: Subspace) -> Subspace:
    """A (+) B with no elimination: the RREF rows of A padded right, then
    those of B padded left, are in RREF, and so is Ann A (+) Ann B, built the
    same way on first use."""
    left_pad, right_pad = zero_vector(right.ambient_dim), zero_vector(left.ambient_dim)
    n = left.ambient_dim + right.ambient_dim

    def block(a: Subspace, b: Subspace) -> Matrix:
        return tuple(r + left_pad for r in a.basis) + tuple(right_pad + r for r in b.basis)

    return Subspace(n, block(left, right),
                    lambda: Subspace(n, block(left.annihilator(), right.annihilator())))


def _tensor_presentation(left: DiffSpace, right: DiffSpace) -> Presentation:
    """The flag F_e(V (x) W) = F_e V (x) R^m + R^n (x) F_e W, each step from
    ``_tensor_step`` at -1 (the coarse rows absorb everything they touch)
    and at every degree either factor presents.  All are built here, since
    the rows need them: those of each step whose pivot is new there, which
    are dim S(V (x) W) independent rows, those of degree <= e spanning F_e."""
    lp, rp = presentation(left), presentation(right)
    steps = {e: _tensor_step(lp.filtration_step(e), rp.filtration_step(e))
             for e in sorted({-1} | {d for d, _ in lp.rows + rp.rows})}
    rows, seen = [], set()
    for e, step in steps.items():
        rows.extend((e, r) for p, r in zip(step.pivots, step.basis) if p not in seen)
        seen.update(step.pivots)
    return Presentation(left.dim * right.dim, tuple(rows), steps.__getitem__)


def _tensor_step(left: Subspace, right: Subspace) -> Subspace:
    """The RREF of A (x) R^m + R^n (x) B, read off the RREF rows A_p of A
    (pivots P) and B_q of B (pivots Q) with no elimination: one row per
    pivot, in pivot order,

        (p, j), p in P:              A_p (x) e_j                        if j not in Q,
                                     A_p (x) (e_j - B_j) + e_p (x) B_j  if j in Q;
        (q, k), q not in P, k in Q:  e_q (x) B_k.

    Each row lies in the span, has a leading 1 at its pivot and is zero at
    every other pivot, and there are a*m + n*b - a*b of them, the dimension
    of the span.  Every step carries its annihilator Ann A (x) Ann B,
    built on first use: the row-major Kronecker products of the factor
    bases are already in RREF."""
    n, m = left.ambient_dim, right.ambient_dim
    zero, one = zero_vector(n * m), Fraction(1)
    a = {p: [(i, x) for i, x in enumerate(row) if x and i != p]
         for p, row in zip(left.pivots, left.basis)}
    b = dict(zip(right.pivots, right.basis))
    # The entries of e_q - B_q, which is zero at q and at every other pivot.
    tails = {q: [(k, -y) for k, y in enumerate(row) if y and k != q] for q, row in b.items()}
    rows = []
    for c in range(n):
        ac = a.get(c)
        for j in range(m):
            bj = b.get(j)
            if ac is None and bj is None:
                continue
            row = list(zero)
            if ac is None:
                row[c * m:(c + 1) * m] = bj
            elif bj is None:
                row[c * m + j] = one
                for i, x in ac:
                    row[i * m + j] = x
            else:
                # Block c is e_j (A_p is 1 at p); block i is A_p[i] * (e_j - B_j).
                row[c * m + j] = one
                for i, x in ac:
                    for k, y in tails[j]:
                        row[i * m + k] = x * y
            rows.append(tuple(row))

    def annihilator() -> Subspace:
        return Subspace(n * m, tuple(kron_vector(phi, psi) for phi in left.annihilator().basis
                                     for psi in right.annihilator().basis))

    return Subspace(n * m, tuple(rows), annihilator)


def singular_span(space: DiffSpace) -> Subspace:
    """The obstruction subspace S(V): linear functionals smooth on V are
    exactly the annihilator of S(V)."""
    return presentation(space).singular_span()


# --- plot membership -----------------------------------------------------

# Nothing calls this; perfbench/tracer.py looks the name up and needs it.
def default_slack_degree(pres: Presentation, plot: Plot) -> int:
    return 0


def is_plot(space: DiffSpace, candidate: Plot) -> Verdict:
    """Decide membership of ``candidate`` in the diffeology of ``space``.

    Let F_e = span{rows of degree <= e} be the degree filtration of the
    presentation, with F_-1 = C the coarse part, and rho_e the |x|*x^e
    residue row of the candidate.  The candidate is a plot iff rho_e lies in
    F_e for every e >= 0.

    Sufficiency: a generator g with rows r_d at degrees d has, after the
    reparametrisation x -> c*x (c > 0), residues c^(d+1) * r_d.  Combining
    g(c*x) over distinct scales c is a Vandermonde system that isolates
    |x|*x^d * r_d plus smooth terms, and a multiplier x^k lifts it to degree
    d + k.  Coarse directions take any coefficient.  So every rho_e in F_e is
    the residue of a plot, and the candidate differs from their sum by a
    smooth curve.

    Necessity: residue content only moves up in degree, so a functional psi
    that kills F_e kills the degree <= e residues of every plot, and psi o
    (every plot) is C^(e+1).  At the least e with rho_e outside F_e, a psi
    with psi(rho_e) != 0 makes psi o candidate equal to a multiple of
    |x|*x^e plus higher terms, which is only C^e: the oracle sees it fail at
    order e + 2.  ``separating_functional`` returns that psi.
    """
    return Verdict.SMOOTH if _first_failure(space, candidate) is None else Verdict.NOT_SMOOTH


def _first_failure(space: DiffSpace, candidate: Plot) -> tuple[int, Vector, Subspace] | None:
    """(e, rho_e, F_e) at the least degree e where the candidate leaves the
    filtration, or None for a plot.  Each rho_e is tested as the integer
    support of its entries; only the failing one is built as a row."""
    if candidate.target_dim != space.dim:
        raise DimensionMismatchError(
            f"plot has {candidate.target_dim} coordinates, space has dimension {space.dim}"
        )
    pres = presentation(space)
    residues = [c.singular_residue() for c in candidate.components]
    by_degree: dict[int, dict[int, Fraction]] = {}
    for i, r in enumerate(residues):
        for d, x in r.items():
            by_degree.setdefault(d, {})[i] = x
    for degree in sorted(by_degree):
        step = pres.filtration_step(degree)
        if not step.contains_support(integer_support(by_degree[degree])):
            return degree, tuple(r.get(degree, ZERO) for r in residues), step
    return None


def separating_functional(space: DiffSpace, candidate: Plot) -> Vector | None:
    """The NotPlot certificate of ``is_plot``: a functional that kills F_e but
    not rho_e at the least degree e where the candidate leaves the
    filtration.  None exactly when the candidate is a plot."""
    failure = _first_failure(space, candidate)
    if failure is None:
        return None
    _, rho, step = failure
    ann = step.annihilator()
    return next(phi for phi in ann.basis if dot(phi, rho))
