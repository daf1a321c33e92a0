"""Diffeological vector spaces at desk scale.

A space is a dimension plus a diffeology descriptor.  Plots are generator
curves R -> R^n with coordinates in the atom algebra, so the only possible
non-smooth behaviour is |x|*x^k kinks at the origin.  Two derived objects
drive every decision procedure:

* the *singular span* S(V): the subspace of R^n spanned by the |x|-residue
  directions reachable by plots of V.  A linear functional is smooth on V
  exactly when it annihilates S(V).

* the *presentation* of V: the singular directions together with the least
  atom degree at which each becomes reachable, plus the "coarse part" of V
  (directions along which arbitrary set maps are plots).  Degrees matter
  because smooth multipliers and reparametrisations x -> c*x can only move
  residue content to higher degrees, never lower.

Plot membership is decided exactly on the degree filtration of the
presentation (see ``is_plot``): every answer is Plot or NotPlot, and every
NotPlot comes with a separating functional.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence, Union

from .atoms import FunctionExpr
from .linalg import (
    Matrix,
    Subspace,
    Vector,
    dot,
    invert,
    matvec,
    vector,
    zero_vector,
)


class DiffeolinError(Exception):
    """Base class for library errors."""


class DimensionMismatchError(DiffeolinError):
    pass


class UnsupportedDescriptorError(DiffeolinError):
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
            d: tuple(r.get(d, Fraction(0)) for r in residues)
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


def kink_plot(n: int, index: int, degree: int = 0, coeff=1) -> Plot:
    """The plot |x|*x^degree * e_index in R^n."""
    comps = [FunctionExpr.zero()] * n
    comps[index] = FunctionExpr.abs_monomial(degree, coeff)
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
        if invert(self.matrix) is None:
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


# --- presentations -------------------------------------------------------

@dataclass(frozen=True)
class Presentation:
    """Reachable singular content of a space.

    ``coarse`` collects the directions along which every set map is a plot;
    ``rows`` holds (degree, direction) pairs: the direction is reachable as
    an |x|*x^d residue for every d >= degree, but at no smaller degree.
    The filtration steps F_e are built as subspaces on first use and kept.
    """

    ambient_dim: int
    coarse: Subspace
    rows: tuple[tuple[int, Vector], ...]

    @cached_property
    def _steps(self) -> dict[int, Subspace]:
        return {}

    def singular_span(self) -> Subspace:
        return self.filtration_step(max((d for d, _ in self.rows), default=-1))

    def rows_up_to(self, degree: int) -> list[Vector]:
        """Spanning rows of the filtration step F_degree: the coarse part plus
        every direction presented at a degree <= ``degree``."""
        out = list(self.coarse.basis)
        out.extend(r for d, r in self.rows if d <= degree)
        return out

    def filtration_step(self, degree: int) -> Subspace:
        """F_degree as a subspace.  Steps are keyed by the largest presented
        degree <= ``degree``, so each distinct step is reduced once."""
        key = max((d for d, _ in self.rows if d <= degree), default=-1)
        if key < 0:
            return self.coarse
        step = self._steps.get(key)
        if step is None:
            step = self._steps[key] = Subspace.from_rows(self.ambient_dim, self.rows_up_to(key))
        return step

    def in_filtration(self, degree: int, row: Vector) -> bool:
        """Whether |x|*x^degree * row is a plot: row lies in F_degree."""
        return self.filtration_step(degree).contains(row)


def _embed_row(row: Vector, offset: int, total: int) -> Vector:
    return zero_vector(offset) + row + zero_vector(total - offset - len(row))


def presentation(space: DiffSpace) -> Presentation:
    """The presentation of ``space``, built once and kept on the frozen space
    object itself, so it lives exactly as long as the space does."""
    return space._presentation


def _build_presentation(space: DiffSpace) -> Presentation:
    n = space.dim
    d = space.diffeology
    if isinstance(d, Fine):
        return Presentation(n, Subspace.zero(n), ())
    if isinstance(d, Coarse):
        return Presentation(n, Subspace.full(n), ())
    if isinstance(d, Generated):
        rows = []
        for g in d.generators:
            if g.target_dim != n:
                raise DimensionMismatchError("generator dimension mismatch")
            rows.extend(g.residue_rows().items())
        return Presentation(n, Subspace.zero(n), tuple(rows))
    if isinstance(d, SumOf):
        pl, pr = presentation(d.left), presentation(d.right)
        nl = d.left.dim
        coarse = Subspace.from_rows(
            n,
            [_embed_row(r, 0, n) for r in pl.coarse.basis]
            + [_embed_row(r, nl, n) for r in pr.coarse.basis],
        )
        rows = tuple(
            [(deg, _embed_row(r, 0, n)) for deg, r in pl.rows]
            + [(deg, _embed_row(r, nl, n)) for deg, r in pr.rows]
        )
        return Presentation(n, coarse, rows)
    if isinstance(d, TensorOf):
        return _tensor_presentation(d.left, d.right)
    if isinstance(d, Pushforward):
        base = presentation(d.base)
        m = d.matrix
        coarse = base.coarse.map_by(m)
        rows = tuple((deg, matvec(m, r)) for deg, r in base.rows)
        return Presentation(n, coarse, rows)
    raise UnsupportedDescriptorError(f"no presentation for descriptor {type(d).__name__}")


def _tensor_presentation(left: DiffSpace, right: DiffSpace) -> Presentation:
    """Block presentation of a tensor product.

    A singular direction s of the left factor pairs with every constant plot
    of the right factor, contributing s (x) e_j at the degree where s became
    reachable; symmetrically on the other side.  Coarse directions absorb
    everything they touch: arbitrary maps into C (x) R^m and R^n (x) C are
    plots (split the arbitrary coefficient onto the coarse leg).
    """
    n, m = left.dim, right.dim
    total = n * m
    pl, pr = presentation(left), presentation(right)

    def left_tensor(row: Vector, other_dim: int, jth: int) -> Vector:
        out = [Fraction(0)] * total
        for i, c in enumerate(row):
            out[i * other_dim + jth] = c
        return tuple(out)

    def right_tensor(ith: int, row: Vector) -> Vector:
        out = [Fraction(0)] * total
        for j, c in enumerate(row):
            out[ith * m + j] = c
        return tuple(out)

    coarse_rows = []
    for r in pl.coarse.basis:
        for j in range(m):
            coarse_rows.append(left_tensor(r, m, j))
    for r in pr.coarse.basis:
        for i in range(n):
            coarse_rows.append(right_tensor(i, r))
    coarse = Subspace.from_rows(total, coarse_rows)

    rows: list[tuple[int, Vector]] = []
    for deg, r in pl.rows:
        for j in range(m):
            row = left_tensor(r, m, j)
            if not coarse.contains(row):
                rows.append((deg, row))
    for deg, r in pr.rows:
        for i in range(n):
            row = right_tensor(i, r)
            if not coarse.contains(row):
                rows.append((deg, row))
    return Presentation(total, coarse, tuple(rows))


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

    Let F_e = coarse + span{rows of degree <= e} be the degree filtration of
    the presentation and rho_e the |x|*x^e residue row of the candidate.  The
    candidate is a plot iff rho_e lies in F_e for every e.

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
    filtration, or None for a plot."""
    if candidate.target_dim != space.dim:
        raise DimensionMismatchError(
            f"plot has {candidate.target_dim} coordinates, space has dimension {space.dim}"
        )
    pres = presentation(space)
    for degree, rho in candidate.residue_rows().items():
        if not pres.in_filtration(degree, rho):
            return degree, rho, pres.filtration_step(degree)
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
