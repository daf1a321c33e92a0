"""Exact rational linear algebra on tuples of Fractions.

Matrices are tuples of row tuples.  Everything is immutable; reduced row
echelon form (RREF) is the canonical representative for row spans, so
subspace equality is plain structural equality.

Fractions live only at the API boundary.  Elimination runs on Python ints:
each input row is scaled by the lcm of its denominators, rows are combined
fraction-free (a*r - b*p, with a and b the two entries in the pivot column
divided by their gcd) and every new row is divided by its content, the gcd
of its entries, so the integers stay small.  Only the finished rows turn
back into Fractions, each divided by its pivot entry.

Membership does no elimination.  A vector v lies in the span of RREF rows
b_i with pivot columns p_i exactly when v = sum_i v[p_i] * b_i, so one pass
of integer reduction against the pivot rows decides it, and the values
v[p_i] are its coordinates.  Only the pivot rows that v hits enter, each
over its own nonzero entries: a Subspace keeps a sparse integer form of its
basis from the first query on.

A membership test reads its vector as a *support*: the nonzero entries of a
positive multiple of the vector as (index, int) pairs (``integer_support``),
tested by ``Subspace.contains_support``.  Membership does not see the
multiple, so callers build supports once and keep them: a presentation
keeps one per row, a map keeps its matrix as integer columns and maps a
support to the support of its image (``image_support``), a bilinear form
reads its entries at the columns of a support (``matrix_image_support``),
and tensor block rows are shifted supports.  A query on supports does no
Fraction arithmetic.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Callable, Iterable, Sequence

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]
# The nonzero entries of a positive multiple of a vector, as (index, int).
Support = list[tuple[int, int]]

# Unit, zero, RREF and Kronecker rows hold this one zero object, so
# ``x is not ZERO and x`` skips their zeros without Fraction.__bool__, a
# Python-level call; any other zero still tests false.
ZERO = Fraction(0)
_ONE = Fraction(1)


def vector(entries: Sequence) -> Vector:
    return tuple(Fraction(e) for e in entries)


def matrix(rows: Iterable[Sequence]) -> Matrix:
    return tuple(vector(r) for r in rows)


def zero_vector(n: int) -> Vector:
    return (ZERO,) * n


def unit_vector(n: int, i: int) -> Vector:
    return (ZERO,) * i + (_ONE,) + (ZERO,) * (n - i - 1)


def identity(n: int) -> Matrix:
    return tuple(unit_vector(n, i) for i in range(n))


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m))


def dot(a: Vector, b: Vector) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def matvec(m: Matrix, v: Vector) -> Vector:
    # Presentation rows and many maps are sparse; skipping the zeros of both
    # keeps images of rows under large maps cheap.
    support = [(j, x) for j, x in enumerate(v) if x]
    return tuple(sum((row[j] * x for j, x in support if row[j]), Fraction(0)) for row in m)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product in row-major block order."""
    return tuple(
        tuple(a_ij * b_kl for a_ij in a_row for b_kl in b_row)
        for a_row in a
        for b_row in b
    )


def kron_vector(a: Vector, b: Vector) -> Vector:
    # Multiply only the nonzero entries of both factors, as matvec does:
    # RREF rows are mostly zero.
    m = len(b)
    support = [(k, y) for k, y in enumerate(b) if y is not ZERO and y]
    out = [ZERO] * (len(a) * m)
    for i, x in enumerate(a):
        if x is not ZERO and x:
            for k, y in support:
                out[i * m + k] = x * y
    return tuple(out)


def _integer_row(row: Sequence) -> list[int]:
    """The row scaled by the lcm of its denominators, as Python ints."""
    q = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
    den = lcm(*[x.denominator for x in q])
    if den == 1:
        return [x.numerator for x in q]
    return [x.numerator * (den // x.denominator) for x in q]


def integer_family(family: Sequence[Sequence]) -> tuple[tuple[int, ...], ...]:
    """The vectors times the lcm of all their denominators, as ints."""
    entries = iter(_integer_row([x for value in family for x in value]))
    return tuple(tuple(next(entries) for _ in value) for value in family)


def _scaled_support(v: Sequence | dict) -> tuple[int, Support]:
    """(L, support of L * v), L the lcm of the denominators of v."""
    items = v.items() if isinstance(v, dict) else enumerate(v)
    support = [(j, x if isinstance(x, (int, Fraction)) else Fraction(x))
               for j, x in items if x is not ZERO and x]
    scale = lcm(*[x.denominator for _, x in support])
    if scale == 1:
        return 1, [(j, x.numerator) for j, x in support]
    return scale, [(j, x.numerator * (scale // x.denominator)) for j, x in support]


def integer_support(v: Sequence | dict) -> Support:
    """The support of v, given densely or as an {index: entry} mapping: its
    nonzero entries times the lcm of their denominators."""
    return _scaled_support(v)[1]


def integer_columns(m: Matrix, n_cols: int) -> tuple[int, tuple[Support, ...]]:
    """(L, columns): L the lcm of the denominators of m, and the support of
    each of the n_cols columns of L * m.  The width is passed in because a
    matrix with no rows does not show it."""
    den, flat = _scaled_support([x for row in m for x in row])
    columns: list[Support] = [[] for _ in range(n_cols)]
    for k, a in flat:
        i, j = divmod(k, n_cols)
        columns[j].append((i, a))
    return den, tuple(columns)


def image_support(columns: Sequence[Support], support: Support) -> Support:
    """The support of M v, for the ``integer_columns`` of M and the support
    of v: a positive multiple of M v, accumulated on ints over the columns
    that v hits."""
    out: dict[int, int] = {}
    for j, x in support:
        for i, a in columns[j]:
            out[i] = out.get(i, 0) + a * x
    return [(i, y) for i, y in out.items() if y]


def matrix_image_support(m: Matrix, support: Support) -> Support:
    """The support of M v, for the support of v, read off the entries of M
    at the columns of that support only: no column form of M is built."""
    hits = [(i, x, row[j]) for i, row in enumerate(m) for j, x in support]
    out: dict[int, int] = {}
    for k, a in integer_support([a for _, _, a in hits]):
        i, x, _ = hits[k]
        out[i] = out.get(i, 0) + a * x
    return [(i, y) for i, y in out.items() if y]


def _cancel(row: list[int], pivot: list[int], col: int) -> list[int]:
    """a*row - b*pivot with row[col] = 0 afterwards, divided by its content."""
    a, b = pivot[col], row[col]
    g = gcd(a, b)
    a, b = a // g, b // g
    out = [a * x - b * y for x, y in zip(row, pivot)]
    content = gcd(*out)
    if content > 1:
        out = [x // content for x in out]
    return out


def _eliminate(rows: list[list[int]], n_cols: int) -> list[tuple[int, list[int]]]:
    """Fraction-free Gauss-Jordan elimination on integer rows.

    Returns (pivot column, row) pairs in increasing pivot order.  Each row is
    nonzero at its pivot column and zero at every other pivot column, so
    row / row[pivot] is the matching row of the RREF.  The pivot row of a
    column is the candidate whose entry there is smallest in absolute value;
    the RREF is unique, so the choice only affects the size of the ints.
    """
    pending = [r for r in rows if any(r)]
    done: list[tuple[int, list[int]]] = []
    for col in range(n_cols):
        hits = [r for r in pending if r[col]]
        if not hits:
            continue
        pivot = min(hits, key=lambda r: abs(r[col]))
        reduced = []
        for r in pending:
            if r is pivot:
                continue
            if r[col]:
                r = _cancel(r, pivot, col)
                if not any(r):
                    continue
            reduced.append(r)
        pending = reduced
        done = [(c, _cancel(r, pivot, col) if r[col] else r) for c, r in done]
        done.append((col, pivot))
        if not pending:
            break
    return done


def _fraction_row(row: list[int], col: int) -> Vector:
    """row / row[col] as Fractions: back across the API boundary."""
    d = row[col]
    return tuple(Fraction(x, d) if x else ZERO for x in row)


def rref(rows: Iterable[Sequence]) -> Matrix:
    """Reduced row echelon form with zero rows dropped."""
    work = [_integer_row(r) for r in rows]
    if not work:
        return ()
    return tuple(_fraction_row(r, col) for col, r in _eliminate(work, len(work[0])))


def rank(m: Matrix) -> int:
    work = [_integer_row(r) for r in m]
    return len(_eliminate(work, len(work[0]))) if work else 0


def nullspace(m: Matrix, n_cols: int | None = None) -> Matrix:
    """Basis (in RREF) of {v : m @ v = 0}, for an n_cols-dimensional domain."""
    if n_cols is None:
        if not m:
            raise ValueError("n_cols required for an empty matrix")
        n_cols = len(m[0])
    reduced = _eliminate([_integer_row(r) for r in m], n_cols)
    pivots = {c for c, _ in reduced}
    basis = []
    for j in range(n_cols):
        if j in pivots:
            continue
        # v[j] = 1 and v[c] = -row[j] / row[c]; scaled to integers.
        den = lcm(*[r[c] for c, r in reduced if r[j]])
        v = [0] * n_cols
        v[j] = den
        for c, r in reduced:
            if r[j]:
                v[c] = -r[j] * (den // r[c])
        basis.append(v)
    return tuple(_fraction_row(r, col) for col, r in _eliminate(basis, n_cols))


def solve(a: Matrix, b: Vector) -> Vector | None:
    """One exact solution of a @ x = b, or None if inconsistent."""
    n_rows = len(a)
    n_cols = len(a[0]) if a else 0
    if n_rows == 0:
        return zero_vector(n_cols) if not any(b) else None
    augmented = [_integer_row(tuple(row) + (bi,)) for row, bi in zip(a, b)]
    x = [ZERO] * n_cols
    for col, row in _eliminate(augmented, n_cols + 1):
        if col == n_cols:
            return None
        x[col] = Fraction(row[n_cols], row[col])
    return tuple(x)


def invert(m: Matrix) -> Matrix | None:
    """Inverse of a square matrix, or None if singular."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    augmented = [_integer_row(tuple(row) + unit_vector(n, i)) for i, row in enumerate(m)]
    reduced = _eliminate(augmented, 2 * n)
    if [col for col, _ in reduced] != list(range(n)):
        return None
    return tuple(_fraction_row(row, i)[n:] for i, (_, row) in enumerate(reduced))


def in_row_span(rows: Matrix, v: Vector) -> bool:
    """Exact membership of v in the rational row span of rows, by rank."""
    if not any(v):
        return True
    if not rows:
        return False
    return rank(rows) == rank(rows + (v,))


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q^n, canonically represented by its RREF row basis.

    A constructor that knows the annihilator in closed form hands it in as
    ``known_annihilator``: a function returning the subspace that
    ``annihilator`` would compute, called on first use instead of the
    nullspace.  It takes no part in equality.
    """

    ambient_dim: int
    basis: Matrix
    known_annihilator: Callable[[], "Subspace"] | None = field(default=None, compare=False,
                                                               repr=False)

    @staticmethod
    def from_rows(ambient_dim: int, rows: Iterable[Sequence]) -> "Subspace":
        rows = list(rows)
        for r in rows:
            if len(r) != ambient_dim:
                raise ValueError(f"row length {len(r)} != ambient dim {ambient_dim}")
        return Subspace(ambient_dim, rref(rows))

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, identity(ambient_dim))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def pivots(self) -> tuple[int, ...]:
        """The pivot column of each basis row.  They increase, so each scan
        starts past the previous pivot."""
        pivots, start = [], 0
        for row in self.basis:
            start = next(j for j in range(start, len(row)) if row[j] is not ZERO and row[j])
            pivots.append(start)
            start += 1
        return tuple(pivots)

    @cached_property
    def _pivot_form(self) -> tuple[int, dict[int, tuple[tuple[int, int], ...]]]:
        """(common denominator L, pivot -> nonzero (column, entry) pairs of
        the integer row S), basis row = S / L.  A row is 1 at its pivot and
        can be nonzero only at the free (nonpivot) columns past it."""
        pivots = self.pivots
        taken = set(pivots)
        free = [j for j in range(self.ambient_dim) if j not in taken]
        sparse = [[(p, row[p])] + [(j, row[j]) for j in free[bisect(free, p):]
                                   if row[j] is not ZERO and row[j]]
                  for p, row in zip(pivots, self.basis)]
        den = lcm(*[x.denominator for row in sparse for _, x in row])
        rows = {p: tuple((j, x.numerator * (den // x.denominator)) for j, x in row)
                for p, row in zip(pivots, sparse)}
        return den, rows

    def contains(self, v: Sequence) -> bool:
        """Whether the vector v lies in the subspace."""
        if len(v) != self.ambient_dim:
            raise ValueError(f"vector length {len(v)} != ambient dim {self.ambient_dim}")
        return self.contains_support(integer_support(v))

    def contains_support(self, support: Support) -> bool:
        """Pivot reduction over a support: v = sum_i v[p_i] * basis_i, checked
        on ints.  Each pivot that v hits subtracts its row; an entry of v off
        the pivots may cancel, so only the full remainder decides."""
        den, rows = self._pivot_form
        rest = [0] * self.ambient_dim
        for j, x in support:
            rest[j] += den * x
            row = rows.get(j)
            if row is not None:
                for k, s in row:
                    rest[k] -= x * s
        return not any(rest)

    def coordinates(self, v: Sequence) -> Vector | None:
        """Coefficients of v over the basis, or None if v is outside.  In
        RREF the coefficient of a basis row is v at that row's pivot."""
        if not self.contains(v):
            return None
        return tuple(Fraction(v[p]) for p in self.pivots)

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(row) for row in other.basis)

    def add(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimensions differ")
        return Subspace.from_rows(self.ambient_dim, self.basis + other.basis)

    def map_by(self, m: Matrix) -> "Subspace":
        """Image under the linear map with the given matrix (rows -> m @ row)."""
        target_dim = len(m)
        return Subspace.from_rows(target_dim, [matvec(m, row) for row in self.basis])

    @cached_property
    def _annihilator(self) -> "Subspace":
        if self.known_annihilator is not None:
            return self.known_annihilator()
        if not self.basis:
            return Subspace.full(self.ambient_dim)
        return Subspace(self.ambient_dim, nullspace(self.basis, self.ambient_dim))

    def annihilator(self) -> "Subspace":
        """Functionals vanishing on the subspace, as rows in the dual
        coordinates; computed on first use (or handed in) and kept on the
        subspace."""
        return self._annihilator
