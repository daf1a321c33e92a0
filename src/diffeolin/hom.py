"""Smoothness of linear maps, diffeological duals, dual maps, hat-duals.

The dual V* is computed as the annihilator of the singular span: a linear
functional is smooth exactly when it kills every reachable singular
direction.  A curve in V* is a plot of the functional diffeology exactly
when it is classically smooth in annihilator coordinates: composing with
constant plots of the base shows that plots are smooth there, and a smooth
combination of smooth functionals pairs smoothly with every plot of the
base.  So V* is fine R^(dim V*) in those coordinates: ``DualSpace`` is a
``DiffSpace`` with the fine descriptor, and presentations, plot membership,
map smoothness, tensor products and duals serve it like any other space.
In particular V** is fine R^(dim V*), which differs from V unless V is fine.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .linalg import (
    Matrix,
    Subspace,
    Vector,
    identity,
    kron_vector,
    matmul,
    matvec,
)
from .spaces import (
    DiffSpace,
    DiffeolinError,
    DimensionMismatchError,
    Fine,
    Plot,
    Pushforward,
    Verdict,
    is_plot,
    make_fine,
    presentation,
    row_plot,
    singular_span,
)


@dataclass(frozen=True, init=False)
class DualSpace(DiffSpace):
    """The diffeological dual of ``base``: smooth linear functionals with the
    functional diffeology, which is fine R^(dim V*) in coordinates over
    ``annihilator_basis`` (rows, in RREF over the base coordinates)."""

    base: DiffSpace
    annihilator_basis: Subspace

    def __init__(self, base: DiffSpace, annihilator_basis: Subspace):
        super().__init__(annihilator_basis.dim, Fine())
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "annihilator_basis", annihilator_basis)

    def describe(self) -> str:
        return f"dual of {self.base.describe()}"


def diffeological_dual(v: DiffSpace) -> DualSpace:
    """Smooth linear functionals on v; dim = dim v - dim S(v)."""
    return DualSpace(v, singular_span(v).annihilator())


# A DualSpace is itself fine R^(dim V*), so the engine no longer calls this;
# perfbench/tracer.py looks the name up and needs it.
def represent_dual(d: DualSpace) -> DiffSpace:
    return make_fine(d.dim)


@dataclass(frozen=True)
class LinearMap:
    """A linear map with an exact rational matrix (codomain.dim x domain.dim)."""

    domain: DiffSpace
    codomain: DiffSpace
    matrix: Matrix

    def __post_init__(self) -> None:
        rows = len(self.matrix)
        if rows != self.codomain.dim:
            raise DimensionMismatchError(
                f"matrix has {rows} rows, codomain dimension is {self.codomain.dim}"
            )
        for row in self.matrix:
            if len(row) != self.domain.dim:
                raise DimensionMismatchError(
                    f"matrix row length {len(row)} != domain dimension {self.domain.dim}"
                )

    def apply(self, v: Vector) -> Vector:
        return matvec(self.matrix, v)

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self after other."""
        if other.codomain.dim != self.domain.dim:
            raise DimensionMismatchError("composition dimension mismatch")
        return LinearMap(other.domain, self.codomain, matmul(self.matrix, other.matrix))


def identity_map(space: DiffSpace) -> LinearMap:
    return LinearMap(space, space, identity(space.dim))


@dataclass(frozen=True)
class SmoothnessReport:
    verdict: Verdict
    witness: Plot | None = None
    reason: str = ""


def is_smooth_linear(f: LinearMap) -> Verdict:
    return check_smooth_linear(f).verdict


def check_smooth_linear(f: LinearMap) -> SmoothnessReport:
    """Smoothness of a linear map, with a witness plot of the domain whenever
    the verdict is NotSmooth.

    The presentation of the domain spans its plots (see ``is_plot``): arbitrary maps into the coarse part,
    and |x|*x^d * r for each row r presented at degree d.  The map is smooth
    iff it sends the coarse part into the coarse part of the codomain and
    each |x|*x^d * f(r) is a plot of the codomain, i.e. f(r) lies in F_d.
    """
    pres = presentation(f.domain)
    cod_pres = presentation(f.codomain)
    # Arbitrary set maps land in coarse directions of the domain; their
    # images are plots only when they stay inside the coarse directions of
    # the codomain.
    for c in pres.coarse.basis:
        if not cod_pres.coarse.contains(f.apply(c)):
            return SmoothnessReport(
                Verdict.NOT_SMOOTH,
                witness=row_plot(c),
                reason="image of a coarse direction leaves the coarse part",
            )
    for degree, r in pres.rows:
        if not cod_pres.in_filtration(degree, f.apply(r)):
            return SmoothnessReport(
                Verdict.NOT_SMOOTH,
                witness=row_plot(r, degree),
                reason="image of a singular direction is not a plot",
            )
    return SmoothnessReport(Verdict.SMOOTH, reason="all singular images are plots")


def smooth_hom_basis(v: DiffSpace, w: DiffSpace) -> Subspace:
    """Basis of the smooth linear maps v -> w, as a subspace of L(v, w) over
    the row-major flattened matrix coordinates.

    ``check_smooth_linear``'s criterion, linear in the matrix M: psi(M c) = 0
    for psi in Ann(coarse part of w) and c in the coarse part of v, and
    psi(M r) = 0 for psi in Ann(F_d(w)) and each row r presented at degree d
    in v.  psi(M c) is kron(psi, c) dotted with the flattened M, so the
    smooth maps are the annihilator of those constraint rows.
    """
    pres, cod_pres = presentation(v), presentation(w)
    constraints = [kron_vector(psi, c)
                   for psi in cod_pres.coarse.annihilator().basis
                   for c in pres.coarse.basis]
    for degree, r in pres.rows:
        for psi in cod_pres.filtration_step(degree).annihilator().basis:
            constraints.append(kron_vector(psi, r))
    return Subspace.from_rows(v.dim * w.dim, constraints).annihilator()


def dual_map(f: LinearMap) -> LinearMap:
    """The smooth dual map f*: W* -> V*, g -> g o f, on annihilator bases.

    Requires a Smooth verdict for f; the image containment (transposed matrix
    maps Ann S(W) into Ann S(V)) is asserted and can only fail on an internal
    singular-span bug.
    """
    if is_smooth_linear(f) is not Verdict.SMOOTH:
        raise DiffeolinError("dual_map requires a map with a Smooth verdict")
    dual_w = diffeological_dual(f.codomain)
    dual_v = diffeological_dual(f.domain)
    bv = dual_v.annihilator_basis
    columns = []
    for g in dual_w.annihilator_basis.basis:
        # g o f = sum_i g_i * (row i of f), read off in the RREF basis of V*.
        terms = [(c, row) for c, row in zip(g, f.matrix) if c]
        pulled = tuple(sum((c * row[j] for c, row in terms), Fraction(0))
                       for j in range(f.domain.dim))
        coords = bv.coordinates(pulled)
        if coords is None:
            raise DiffeolinError(
                "image containment failed: pulled-back functional leaves Ann S(V); "
                "this signals a singular-span bug"
            )
        columns.append(coords)
    rows = tuple(tuple(col[i] for col in columns) for i in range(bv.dim))
    return LinearMap(dual_w, dual_v, rows)


def hat_dual(v: DiffSpace, iso: Matrix) -> DiffSpace:
    """The full linear dual carrying the diffeology pushed forward along a
    chosen isomorphism v -> v^dual (the coordinate matrix of the iso)."""
    if len(iso) != v.dim or any(len(r) != v.dim for r in iso):
        raise DimensionMismatchError("iso must be a square matrix of the space dimension")
    return DiffSpace(v.dim, Pushforward(v, iso))


@dataclass(frozen=True)
class WellPosednessReport:
    verdicts: tuple[tuple[Verdict, Verdict], ...]
    mismatches: tuple[int, ...]

    @property
    def consistent(self) -> bool:
        return not self.mismatches


def hat_dual_wellposed(
    v: DiffSpace,
    iso1: Matrix,
    iso2: Matrix,
    samples: Sequence[Plot],
) -> WellPosednessReport:
    """Compare membership verdicts of the sample plots under the pushforward
    structures along two isomorphisms."""
    space1 = hat_dual(v, iso1)
    space2 = hat_dual(v, iso2)
    verdicts = []
    mismatches = []
    for k, sample in enumerate(samples):
        pair = (is_plot(space1, sample), is_plot(space2, sample))
        verdicts.append(pair)
        if pair[0] is not pair[1]:
            mismatches.append(k)
    return WellPosednessReport(tuple(verdicts), tuple(mismatches))
