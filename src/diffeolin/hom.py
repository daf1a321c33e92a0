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
The annihilator is kept on the top step, so a dual asked again is only a
new wrapper.  V** is fine R^(dim V*), which differs from V unless V is fine.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd

from .linalg import (
    Matrix,
    Subspace,
    Support,
    Vector,
    identity,
    image_support,
    integer_columns,
    matvec,
    transpose,
)
from .spaces import (
    DiffSpace,
    DiffeolinError,
    DimensionMismatchError,
    DualSpace,
    Plot,
    Pushforward,
    Verdict,
    first_outside,
    make_fine,
    presentation,
    row_plot,
    singular_span,
)


def diffeological_dual(v: DiffSpace) -> DualSpace:
    """Smooth linear functionals on v; dim = dim v - dim S(v).  A new wrapper
    on each call, over the annihilator that S(v) keeps."""
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

    @cached_property
    def _integer_columns(self) -> tuple[Support, ...]:
        """Column supports of a positive multiple of the matrix, built on first use."""
        return integer_columns(self.matrix, self.domain.dim)

    def apply(self, v: Vector) -> Vector:
        if len(v) != self.domain.dim:
            raise DimensionMismatchError(
                f"vector has {len(v)} entries, domain dimension is {self.domain.dim}")
        return matvec(self.matrix, v)

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self after other, column by column: the images of other's
        columns, one per domain dimension, so that a zero-dimensional middle
        space still gives the product its width."""
        if other.codomain.dim != self.domain.dim:
            raise DimensionMismatchError("composition dimension mismatch")
        columns = [self.apply(tuple(row[j] for row in other.matrix))
                   for j in range(other.domain.dim)]
        return LinearMap(other.domain, self.codomain,
                         tuple(tuple(c[i] for c in columns) for i in range(self.codomain.dim)))


def identity_map(space: DiffSpace) -> LinearMap:
    """The identity, handed its unit columns: ``integer_columns`` would scan
    all n^2 entries of the matrix to find them."""
    f = LinearMap(space, space, identity(space.dim))
    object.__setattr__(f, "_integer_columns", tuple(((j, 1),) for j in range(space.dim)))
    return f


@dataclass(frozen=True)
class SmoothnessReport:
    verdict: Verdict
    witness: Plot | None = None
    reason: str = ""


def is_smooth_linear(f: LinearMap) -> Verdict:
    return check_smooth_linear(f).verdict


_COARSE_FAILURE = "image of a coarse direction leaves the coarse part"


def check_smooth_linear(f: LinearMap) -> SmoothnessReport:
    """Smoothness of a linear map, with a witness plot of the domain for a
    NotSmooth verdict whenever an atom curve can show it.

    The presentation of the domain spans its plots (see ``is_plot``):
    arbitrary maps into the coarse part C = F_-1, and |x|*x^d * r for each
    row r presented at degree d >= 0.  The map is smooth iff f(r) lies in
    F_d of the codomain for every row (d, r): one pass of ``first_outside``.

    A failing row (d, r) has the witness |x|*x^max(d, 0) * r, r the
    primitive integer vector of its support, exactly when f(r) also lies
    outside F_max(d, 0): always for d >= 0.  A coarse row failing inside F_0
    is shown only by non-smooth set maps into C, so the rows are then read
    again at max(d, 0), and the first failing there is the witness."""
    rows = presentation(f.domain).supports
    columns = f._integer_columns
    # Rows as (degree tested, image support, degree presented, support).
    failure = first_outside(f.codomain, ((d, image_support(columns, s), d, s) for d, s in rows))
    if failure is None:
        return SmoothnessReport(Verdict.SMOOTH, reason="all singular images are plots")
    if failure[0] < 0:
        failure = first_outside(f.codomain, ((d if d > 0 else 0, image_support(columns, s), d, s)
                                             for d, s in rows))
        if failure is None:
            return SmoothnessReport(Verdict.NOT_SMOOTH, reason=_COARSE_FAILURE)
    tested, _, degree, support = failure
    content, entries = gcd(*[x for _, x in support]), dict(support)
    r = [entries.get(j, 0) // content for j in range(f.domain.dim)]
    reason = _COARSE_FAILURE if degree < 0 else "image of a singular direction is not a plot"
    return SmoothnessReport(Verdict.NOT_SMOOTH, witness=row_plot(r, tested), reason=reason)


def smooth_hom_basis(v: DiffSpace, w: DiffSpace) -> Subspace:
    """Basis of the smooth linear maps v -> w, as a subspace of L(v, w) over
    the row-major flattened matrix coordinates (entry (k, i) at k*n + i),
    spanned from the two flags.  With A_e = F_e(v), B_e = F_e(w), A_-2 = 0
    and B = R^m past the top step, the smooth maps are the sum over e of
    B_e (x) Ann A_(e-1): b (x) psi kills A_f for f < e and maps A_f into
    B_e <= B_f for f >= e, and the dimensions agree.  Ann A_(e-1) shrinks
    as e grows, so B_e adds only its RREF rows whose pivot is new at e."""
    dom, cod = presentation(v), presentation(w)
    n, m = v.dim, w.dim
    degrees = sorted({-1} | {d for d, _ in dom.supports + cod.supports})
    products, seen, ann = [], set(), Subspace.full(n)
    for e in degrees + [None]:
        step = Subspace.full(m) if e is None else cod.filtration_step(e)
        for p, b in zip(step.pivots, step.supports):
            if p not in seen:
                products.extend([(k * n + i, x * y) for k, x in b for i, y in psi]
                                for psi in ann.supports)
        seen.update(step.pivots)
        if e is not None:
            ann = dom.filtration_step(e).annihilator()
    return Subspace.from_supports(n * m, products)


def dual_map(f: LinearMap) -> LinearMap:
    """The smooth dual map f*: W* -> V*, g -> g o f = f^T g, on annihilator bases.

    Requires a Smooth verdict for f; the image containment (transposed matrix
    maps Ann S(W) into Ann S(V)) is asserted and can only fail on an internal
    singular-span bug.
    """
    if is_smooth_linear(f) is not Verdict.SMOOTH:
        raise DiffeolinError("dual_map requires a map with a Smooth verdict")
    dual_w = diffeological_dual(f.codomain)
    dual_v = diffeological_dual(f.domain)
    bv = dual_v.annihilator_basis
    pullback = transpose(f.matrix)
    columns = []
    for g in dual_w.annihilator_basis.basis:
        coords = bv.coordinates(matvec(pullback, g))
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
    chosen isomorphism v -> v^dual (the coordinate matrix of the iso).
    ``Pushforward`` rejects a matrix that is not square of the dimension, or
    singular."""
    return DiffSpace(v.dim, Pushforward(v, iso))


@dataclass(frozen=True)
class WellPosednessReport:
    """The identity checked from the first hat dual to the second and back."""

    forward: SmoothnessReport
    backward: SmoothnessReport

    @property
    def consistent(self) -> bool:
        return self.forward.verdict is self.backward.verdict is Verdict.SMOOTH


def hat_dual_wellposed(v: DiffSpace, iso1: Matrix, iso2: Matrix) -> WellPosednessReport:
    """Whether the hat duals of v along iso1 and iso2 carry one diffeology:
    exactly when the identity is smooth between them both ways, that is
    iso1*F_e = iso2*F_e for every step F_e of v.  A NotSmooth direction has
    a witness plot whenever an atom curve shows one.  On coarse R^1 (+) <|x|>,
    identity(2) against the swap moves the coarse line, but inside F_0 = R^2:
    both directions are NotSmooth with ``witness=None``."""
    hat1, hat2 = hat_dual(v, iso1), hat_dual(v, iso2)
    one = identity(v.dim)
    return WellPosednessReport(check_smooth_linear(LinearMap(hat1, hat2, one)),
                               check_smooth_linear(LinearMap(hat2, hat1, one)))
