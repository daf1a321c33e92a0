"""Diffeological vector spaces at desk scale.

A space is a dimension plus a diffeology descriptor.  Plots are generator
curves R -> R^n with coordinates in the atom algebra, so the only possible
non-smooth behaviour is |x|*x^k kinks at the origin.  Each descriptor
(fine, coarse, generated, sum, tensor, pushforward) is the one class that
knows its kind: it names itself (``describe``), lists the plots of its
definition (``plots``) and reduces to one normal form (``present``), the
*presentation*: a flag of subspaces

    C = F_-1  <=  F_0  <=  F_1  <=  ...  <=  F_top = S(V)

given by degree-indexed rows and each constructor's closed form of F_e.  C
is the coarse part of V (directions along which arbitrary set maps are
plots); F_e adds the directions reachable as |x|*x^e residues.  Degrees
matter because smooth multipliers and reparametrisations x -> c*x can only
move residue content to higher degrees, never lower.  The top step S(V) is
the *singular span*: a linear functional is smooth on V exactly when it
annihilates S(V).

One test decides every question on the flag: ``first_outside`` returns the
first (degree d, support) row outside F_d of the target.  A plot, a linear
map and a bilinear map are smooth exactly when it finds none among their
rows: the candidate's residue rows (``is_plot``), the domain's rows mapped
by the matrix (``hom``), and the block rows of V (x) W mapped (``bilinear``).
"""

from __future__ import annotations

import enum
from bisect import bisect
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

from .atoms import FunctionExpr
from .linalg import (
    ZERO,
    Matrix,
    Subspace,
    Support,
    Vector,
    block_sum,
    determinant,
    image_support,
    integer_columns,
    integer_support,
    tensor_span,
    unit_vector,
    vector,
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

    def residues(self) -> dict[int, dict[int, Fraction]]:
        """Map degree d -> {coordinate: nonzero |x|*x^d coefficient}, d ascending."""
        by_degree: dict[int, dict[int, Fraction]] = {}
        for i, c in enumerate(self.components):
            for (is_abs, d), x in reversed(c.terms):
                if not is_abs:
                    break
                by_degree.setdefault(d, {})[i] = x
        return dict(sorted(by_degree.items()))

    def residue_rows(self) -> dict[int, Vector]:
        """Map degree d -> row of |x|*x^d coefficients across coordinates."""
        n = self.target_dim
        return {d: tuple(r.get(i, ZERO) for i in range(n)) for d, r in self.residues().items()}

    def slice(self, start: int, stop: int) -> "Plot":
        return Plot(self.components[start:stop])

    def transform(self, m: Matrix) -> "Plot":
        """Compose with the linear map given by m (rows of m = output coords)."""
        if any(len(row) != self.target_dim for row in m):
            raise DimensionMismatchError(
                f"matrix row length differs from the plot's {self.target_dim} coordinates")
        out = []
        for row in m:
            acc = FunctionExpr.zero()
            for coeff, comp in zip(row, self.components):
                if coeff:
                    acc = acc + comp.scale(coeff)
            out.append(acc)
        return Plot(out)


def residue_supports(n: int, plot: Plot) -> Iterator[tuple[int, Support]]:
    """(d, support of the |x|*x^d residue row of ``plot``) by ascending d,
    each scaled when reached: the rows a generated space on R^n presents for
    the generator ``plot``, and those ``is_plot`` tests for a candidate.
    ``Plot.residues`` reads them in one pass: atoms (is_abs, degree) sort abs
    last, so each component's scan from the end stops at a smooth one."""
    if plot.target_dim != n:
        raise DimensionMismatchError(f"plot has {plot.target_dim} coordinates, space has dimension {n}")
    return ((d, integer_support(r)) for d, r in plot.residues().items())


def kink_plot(n: int, index: int, degree: int = 0) -> Plot:
    """The plot |x|*x^degree * e_index in R^n."""
    return row_plot(unit_vector(n, index), degree)


def row_plot(row: Sequence, degree: int = 0) -> Plot:
    """The plot |x|*x^degree * row."""
    zero = FunctionExpr.zero()
    return Plot([FunctionExpr.abs_monomial(degree, c) if c else zero for c in row])


# --- diffeology descriptors ---------------------------------------------

class Descriptor:
    """A diffeology on R^n: ``describe(n)``, ``present(n)`` and ``plots()``."""

    def plots(self) -> tuple[Plot, ...]:
        return ()


@dataclass(frozen=True)
class Fine(Descriptor):
    def describe(self, n: int) -> str:
        return f"fine R^{n}"

    def present(self, n: int) -> Presentation:
        return Presentation(n, (), lambda e: Subspace.from_supports(n, ()))


@dataclass(frozen=True)
class Coarse(Descriptor):
    def describe(self, n: int) -> str:
        return f"coarse R^{n}"

    def present(self, n: int) -> Presentation:
        return Presentation(n, tuple((-1, ((j, 1),)) for j in range(n)), lambda e: Subspace.full(n))


@dataclass(frozen=True)
class Generated(Descriptor):
    generators: tuple[Plot, ...]

    def __init__(self, generators: Sequence[Plot]):
        object.__setattr__(self, "generators", tuple(generators))

    def describe(self, n: int) -> str:
        return f"generated R^{n} ({len(self.generators)} generators)"

    def present(self, n: int) -> Presentation:
        return _spanned(n, tuple(row for g in self.generators for row in residue_supports(n, g)))

    def plots(self) -> tuple[Plot, ...]:
        return self.generators


@dataclass(frozen=True)
class SumOf(Descriptor):
    left: "DiffSpace"
    right: "DiffSpace"

    def describe(self, n: int) -> str:
        return f"({self.left.describe()}) (+) ({self.right.describe()})"

    def present(self, n: int) -> Presentation:
        lp, rp, shift = presentation(self.left), presentation(self.right), self.left.dim
        return Presentation(
            n, lp.supports + tuple((deg, [(shift + j, x) for j, x in s]) for deg, s in rp.supports),
            lambda e: block_sum(lp.filtration_step(e), rp.filtration_step(e)))

    def plots(self) -> tuple[Plot, ...]:
        pad, v, w = (FunctionExpr.zero(),), self.left, self.right
        return (tuple(Plot(p.components + pad * w.dim) for p in generating_plots(v))
                + tuple(Plot(pad * v.dim + q.components) for q in generating_plots(w)))


@dataclass(frozen=True)
class TensorOf(Descriptor):
    left: "DiffSpace"
    right: "DiffSpace"

    def describe(self, n: int) -> str:
        return f"({self.left.describe()}) (x) ({self.right.describe()})"

    def present(self, n: int) -> Presentation:
        """The block rows (d, r (x) e_j), then (d, e_i (x) r'), of the
        definition of V (x) W, for the rows (d, r) of V and (d, r') of W, less
        those of degree >= 0 whose unit factor lies in the other side's coarse
        part C: e_j lies in C exactly when the RREF row of C at pivot j is
        e_j.  The step F_e = F_e V (x) R^m + R^n (x) F_e W is ``tensor_span``
        of the factors' steps, built on first ask."""
        lp, rp, m = presentation(self.left), presentation(self.right), self.right.dim
        units = [{p for p, s in zip(c.pivots, c.supports) if len(s) == 1}
                 for c in (lp.filtration_step(-1), rp.filtration_step(-1))]
        supports = ([(d, [(i * m + j, x) for i, x in s]) for d, s in lp.supports
                     for j in range(m) if d < 0 or j not in units[1]]
                    + [(d, [(i * m + k, x) for k, x in s]) for d, s in rp.supports
                       for i in range(self.left.dim) if d < 0 or i not in units[0]])
        return Presentation(n, tuple(supports),
                            lambda e: tensor_span(lp.filtration_step(e), rp.filtration_step(e)))

    def plots(self) -> tuple[Plot, ...]:
        """p (x) e_j at the coordinates j::m, then e_i (x) q at i*m:(i+1)*m."""
        n, m, zero = self.left.dim, self.right.dim, FunctionExpr.zero()
        plots = []
        for factor, places in ((self.left, [slice(j, None, m) for j in range(m)]),
                               (self.right, [slice(i * m, (i + 1) * m) for i in range(n)])):
            for p in generating_plots(factor):
                for at in places:
                    comps = [zero] * (n * m)
                    comps[at] = p.components
                    plots.append(Plot(comps))
        return tuple(plots)


@dataclass(frozen=True)
class Pushforward(Descriptor):
    base: "DiffSpace"
    matrix: Matrix

    def __post_init__(self) -> None:
        n = self.base.dim
        if len(self.matrix) != n or any(len(row) != n for row in self.matrix):
            raise DimensionMismatchError("pushforward matrix is not square of the base dimension")
        # Column supports of a positive multiple of the matrix: they map base
        # supports to the supports of their images.
        object.__setattr__(self, "columns", integer_columns(self.matrix, n))
        if not determinant(n, self.columns):
            raise DiffeolinError("pushforward matrix is singular")

    def describe(self, n: int) -> str:
        return f"pushforward of {self.base.describe()}"

    def present(self, n: int) -> Presentation:
        base = presentation(self.base)
        return _spanned(n, tuple((deg, image_support(self.columns, s)) for deg, s in base.supports))

    def plots(self) -> tuple[Plot, ...]:
        return tuple(p.transform(self.matrix) for p in generating_plots(self.base))


@dataclass(frozen=True)
class DiffSpace:
    """R^dim with a diffeology.  Equality is structural, equal descriptor trees:
    two descriptors of one flag give unequal spaces, and that they carry one
    diffeology is an isomorphism (the identity smooth both ways)."""

    dim: int
    diffeology: Descriptor

    def __post_init__(self) -> None:
        if self.dim < 0:
            raise ValueError("dimension must be >= 0")

    def describe(self) -> str:
        return self.diffeology.describe(self.dim)

    @cached_property
    def _presentation(self) -> Presentation:
        return self.diffeology.present(self.dim)


@dataclass(frozen=True, init=False)
class DualSpace(DiffSpace):
    """The diffeological dual of ``base`` (``hom.diffeological_dual``):
    smooth linear functionals with the functional diffeology, which is fine
    R^(dim V*) in coordinates over ``annihilator_basis`` (rows, in RREF over
    the base coordinates): the annihilator kept on the base's top step, so
    a new wrapper for the same base shares it."""

    base: DiffSpace
    annihilator_basis: Subspace

    def __init__(self, base: DiffSpace, annihilator_basis: Subspace):
        super().__init__(annihilator_basis.dim, Fine())
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "annihilator_basis", annihilator_basis)

    def describe(self) -> str:
        return f"dual of {self.base.describe()}"


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
    """Plots read off the definition of ``space``, not its presentation (fine
    and coarse spaces, and so duals, have none).  Without a coarse part,
    their residue rows span the singular span."""
    return space.diffeology.plots()


# --- presentations -------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Presentation:
    """The degree filtration of a space: spanning directions and closed-form
    steps.

    ``supports`` holds (degree, support) pairs: |x|*x^e times the direction
    is a plot for every e >= degree.  The directions of degree -1 span the
    coarse part C = F_-1, along which every set map is a plot; no other
    direction lies in C.  A direction is kept only as its support, a
    positive integer multiple of it: membership, a witness plot and
    ``smooth_hom_basis`` read nothing else.  ``step(e)`` is the
    constructor's closed form of F_e, at -1 and at each presented degree,
    called on first use and kept in ``_steps`` under every degree asked.
    """

    ambient_dim: int
    supports: tuple[tuple[int, Support], ...]
    step: Callable[[int], Subspace] = field(repr=False)
    _steps: dict[int, Subspace] = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def _degrees(self) -> list[int]:
        return sorted({d for d, _ in self.supports})

    def singular_span(self) -> Subspace:
        return self.filtration_step(self._degrees[-1] if self._degrees else -1)

    def rows_up_to(self, degree: int) -> list[Vector]:
        """Spanning directions of F_degree, as the vectors of their supports."""
        return [vector(dict(s).get(j, 0) for j in range(self.ambient_dim))
                for d, s in self.supports if d <= degree]

    def filtration_step(self, degree: int) -> Subspace:
        """F_degree as a subspace.  A step is keyed by the largest presented
        degree <= ``degree`` (or -1), so each distinct step is built once;
        each degree asked finds that key once, by bisection, and keeps it."""
        step = self._steps.get(degree)
        if step is None:
            degrees = self._degrees
            i = bisect(degrees, degree)
            key = degrees[i - 1] if i else -1
            step = self._steps.get(key)
            if step is None:
                step = self._steps[key] = self.step(key)
            self._steps[degree] = step
        return step


def presentation(space: DiffSpace) -> Presentation:
    """The presentation of ``space``, built once and kept on the frozen space
    object itself, so it lives exactly as long as the space does."""
    return space._presentation


def _spanned(n: int, supports: tuple[tuple[int, Support], ...]) -> Presentation:
    """The presentation whose step F_e is the span of its supports of degree
    <= e, found by elimination."""
    return Presentation(n, supports,
                        lambda e: Subspace.from_supports(n, [s for k, s in supports if k <= e]))


def singular_span(space: DiffSpace) -> Subspace:
    """The obstruction subspace S(V): linear functionals smooth on V are
    exactly the annihilator of S(V)."""
    return presentation(space).singular_span()


# --- the decision procedure ----------------------------------------------

def first_outside(space: DiffSpace, rows: Iterable[tuple]) -> tuple | None:
    """The first row (degree, support, ...) whose support lies outside
    F_degree of ``space``, returned as given, or None.  The engine's one
    membership test: ``is_plot``, ``hom.check_smooth_linear`` and
    ``bilinear.BilinearForm.verdict`` each run it on their own rows, read
    one at a time, so a lazy iterable builds only the rows it reaches."""
    step = presentation(space).filtration_step
    for row in rows:
        if not step(row[0]).contains_support(row[1]):
            return row
    return None


# Nothing calls this; perfbench/tracer.py looks the name up and needs it.
def default_slack_degree(pres: Presentation, plot: Plot) -> int:
    return 0


def is_plot(space: DiffSpace, candidate: Plot) -> Verdict:
    """Decide membership of ``candidate`` in the diffeology of ``space``.

    Let F_e = span{rows of degree <= e} be the degree filtration of the
    presentation, with F_-1 = C the coarse part, and rho_e the |x|*x^e
    residue row of the candidate.  The candidate is a plot iff rho_e lies in
    F_e for every e >= 0: ``first_outside`` on the rows of <candidate> =
    ``make_generated(n, [candidate])``, as for the identity <candidate> -> space.

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
    failure = first_outside(space, residue_supports(space.dim, candidate))
    return Verdict.SMOOTH if failure is None else Verdict.NOT_SMOOTH


def separating_functional(space: DiffSpace, candidate: Plot) -> Vector | None:
    """The NotPlot certificate of ``is_plot``: a functional that kills F_e but
    not rho_e at the least degree e where the candidate leaves the
    filtration, tested on the support of rho_e, a positive multiple of it.
    None exactly when the candidate is a plot."""
    failure = first_outside(space, residue_supports(space.dim, candidate))
    if failure is None:
        return None
    degree, support = failure
    ann = presentation(space).filtration_step(degree).annihilator()
    return next(phi for phi in ann.basis if sum(phi[j] * x for j, x in support))
