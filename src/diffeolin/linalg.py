"""Exact rational linear algebra on tuples of Fractions.

Matrices are tuples of row tuples.  Everything is immutable; reduced row
echelon form (RREF) is the canonical representative for row spans, so
subspace equality is plain structural equality.

Fractions live only at the API boundary.  Elimination runs on Python ints:
each input row is scaled by the lcm of its denominators, rows are combined
fraction-free (a*r - b*p, with a and b the two entries in the pivot column
divided by their gcd) and every new row is divided by its content, the gcd
of its entries, so the integers stay small.  ``Subspace.from_supports`` and
the annihilator are the only ways into that elimination, and ``rref``,
``rank``, ``solve``, ``invert`` and ``in_row_span`` are views of the
``Subspace`` of their rows.  A ``Subspace`` stores the integer RREF that
elimination produces (``Form``: pivots, the lcm L of the denominators, and
the nonzero entries of L times each RREF row), and builds Fraction rows
only when ``basis`` is read.  The sum A (+) B, the tensor step
A (x) R^m + R^n (x) B and the Kronecker product A (x) B of subspaces are
read off their factors' forms with no elimination (``block_sum``,
``tensor_span``, ``kron_span``), and so is each one's annihilator; one
normalizer, ``_scaled_form``, forms the last two and each elimination.  Any
other Ann A eliminates min(k, n - k) rows, k = dim A: A's rows with the
column order reversed, or the n - k free vectors read off A's RREF.

Membership does no elimination.  A vector v lies in the span of RREF rows
b_i with pivot columns p_i exactly when v = sum_i v[p_i] * b_i, so one pass
of integer reduction against the pivot rows of the form decides it, and
the values v[p_i] are its coordinates.  Only the pivot rows that v hits
enter, each over its own nonzero entries.

A membership test reads its vector as a *support*: the nonzero entries of a
positive multiple of the vector as (index, int) pairs (``integer_support``),
tested by ``Subspace.contains_support``.  Membership does not see the
multiple, so callers build supports once and keep them: a presentation
holds its directions only as supports, a map or a bilinear form keeps its
matrix as integer columns and maps a support to the support of its image
(``image_support``), and tensor block rows are shifted supports.  The rows
of a form are supports too (``Subspace.supports``), and
``Subspace.from_supports`` spans a list of them.  A query on supports does
no Fraction arithmetic.  ``integer_support``, the one boundary where a
vector's Fractions become ints, reads each entry once (``as_integer_ratio``);
``determinant`` tells whether n supports span Q^n in one forward Bareiss pass.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Callable, Iterable, Sequence

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]
# The nonzero entries of a positive multiple of a vector, as (index, int).
Support = Sequence[tuple[int, int]]

# Unit, zero, RREF and Kronecker rows hold this one zero object, so
# ``x is not ZERO`` skips their zeros without reading the entry; any other
# zero reads a zero numerator.
ZERO = Fraction(0)
_ONE = Fraction(1)


def vector(entries: Sequence) -> Vector:
    return tuple(Fraction(e) for e in entries)


def matrix(rows: Iterable[Sequence]) -> Matrix:
    return tuple(vector(r) for r in rows)


def unit_vector(n: int, i: int) -> Vector:
    return (ZERO,) * i + (_ONE,) + (ZERO,) * (n - i - 1)


def identity(n: int) -> Matrix:
    row, rows = [ZERO] * n, []
    for i in range(n):
        row[i] = _ONE
        rows.append(tuple(row))
        row[i] = ZERO
    return tuple(rows)


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m))


def dot(a: Vector, b: Vector) -> Fraction:
    if len(a) != len(b):
        raise ValueError(f"dot of vectors of lengths {len(a)} and {len(b)}")
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def matvec(m: Matrix, v: Vector) -> Vector:
    if any(len(row) != len(v) for row in m):
        raise ValueError(f"matvec of a {len(m)}x{len(m[0])} matrix and a vector of length {len(v)}")
    # Presentation rows and many maps are sparse; skipping the zeros of both
    # keeps images of rows under large maps cheap.
    support = [(j, x) for j, x in enumerate(v) if x]
    return tuple(sum((row[j] * x for j, x in support if row[j]), Fraction(0)) for row in m)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """a @ b.  A 0 x n right factor is () and has no width: k x 0 times it is k empty rows."""
    bt = transpose(b)
    if any(len(row) != len(bt) for row in b):
        raise ValueError(f"matmul by a ragged {len(b)}-row matrix of row lengths {[len(r) for r in b]}")
    if any(len(row) != len(b) for row in a):
        raise ValueError(f"matmul of a {len(a)}x{len(a[0])} and a {len(b)}x{len(bt)} matrix")
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product in row-major block order."""
    return tuple(
        tuple(a_ij * b_kl for a_ij in a_row for b_kl in b_row)
        for a_row in a
        for b_row in b
    )


def kron_vector(a: Vector, b: Vector) -> Vector:
    return kron((a,), (b,))[0]


def integer_family(family: Sequence[Sequence]) -> tuple[tuple[int, ...], ...]:
    """The vectors times the lcm of all their denominators, as ints."""
    flat = [x for value in family for x in value]
    entries = iter(_dense(len(flat), integer_support(flat)))
    return tuple(tuple(next(entries) for _ in value) for value in family)


def integer_support(v: Sequence | dict) -> Support:
    """The support of v, given densely or as an {index: entry} mapping: its
    nonzero entries times the lcm of their denominators, each entry read once."""
    items = v.items if isinstance(v, dict) else lambda: enumerate(v)
    try:
        ratios = [(j, x.as_integer_ratio()) for j, x in items() if x is not ZERO]
    except AttributeError:  # an entry with no ratio of its own, such as "1/3"
        return integer_support({j: Fraction(x) for j, x in items()})
    scale = lcm(*[d for _, (n, d) in ratios if n])
    return [(j, n * (scale // d)) for j, (n, d) in ratios if n]


def integer_columns(m: Matrix, n_cols: int) -> tuple[Support, ...]:
    """The support of each of the n_cols columns of L * m, L the lcm of the
    denominators of m: the columns of one positive multiple of m.  The width
    is passed in because a matrix with no rows does not show it."""
    columns: list[Support] = [[] for _ in range(n_cols)]
    for k, a in integer_support([x for row in m for x in row]):
        i, j = divmod(k, n_cols)
        columns[j].append((i, a))
    return tuple(columns)


def image_support(columns: Sequence[Support], support: Support) -> Support:
    """The support of M v, for the ``integer_columns`` of M and the support
    of v: a positive multiple of M v, accumulated on ints over the columns
    that v hits."""
    out: dict[int, int] = {}
    for j, x in support:
        for i, a in columns[j]:
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


def _dense(n: int, support: Support) -> list[int]:
    row = [0] * n
    for j, x in support:
        row[j] = x
    return row


def determinant(n: int, supports: Sequence[Support]) -> int:
    """The determinant of n rows of Q^n given by supports, by one forward
    fraction-free (Bareiss) pass: each step's entries are minors, so the
    division by the previous pivot is exact.  Any number of rows reads 0
    exactly when they do not span Q^n: a column finds no pivot."""
    rows, prev, sign = [_dense(n, s) for s in supports], 1, 1
    for _ in range(n):
        k = next((i for i, r in enumerate(rows) if r[0]), None)
        if k is None:
            return 0
        pivot, sign = rows.pop(k), -sign if k % 2 else sign
        rows, prev = [[(pivot[0] * x - r[0] * y) // prev for x, y in zip(r[1:], pivot[1:])]
                      for r in rows], pivot[0]
    return sign * prev


def rref(rows: Iterable[Sequence]) -> Matrix:
    """Reduced row echelon form with zero rows dropped."""
    rows = list(rows)
    return Subspace.from_rows(len(rows[0]), rows).basis if rows else ()


def rank(m: Matrix) -> int:
    return Subspace.from_rows(len(m[0]), m).dim if m else 0


def nullspace(m: Matrix, n_cols: int | None = None) -> Matrix:
    """Basis (in RREF) of {v : m @ v = 0}, for an n_cols-dimensional domain:
    the annihilator of the row span of m, in the same coordinates."""
    if n_cols is None:
        if not m:
            raise ValueError("n_cols required for an empty matrix")
        n_cols = len(m[0])
    return Subspace.from_rows(n_cols, m).annihilator().basis


def solve(a: Matrix, b: Vector) -> Vector | None:
    """One exact solution of a @ x = b, or None if inconsistent: x is the
    last column of the augmented RREF at the pivots, unless that column is
    itself a pivot.  With no rows there are no unknowns, and only b = 0."""
    if not a:
        return None if any(b) else ()
    n = len(a[0])
    reduced = Subspace.from_rows(n + 1, [tuple(row) + (bi,) for row, bi in zip(a, b)])
    if reduced.pivots and reduced.pivots[-1] == n:
        return None
    x = [ZERO] * n
    for col, row in zip(reduced.pivots, reduced.basis):
        x[col] = row[n]
    return tuple(x)


def invert(m: Matrix) -> Matrix | None:
    """Inverse of a square matrix, or None if singular: the right half of
    the RREF of [m | I], whose pivots are the first n columns exactly when
    m is invertible."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    reduced = Subspace.from_rows(2 * n, [tuple(row) + unit_vector(n, i) for i, row in enumerate(m)])
    if reduced.pivots != tuple(range(n)):
        return None
    return tuple(row[n:] for row in reduced.basis)


def in_row_span(rows: Matrix, v: Vector) -> bool:
    """Exact membership of v in the rational row span of rows."""
    return Subspace.from_rows(len(v), rows).contains(v)


# The stored form of a subspace: (pivots, L, rows), with L the lcm of the
# denominators of its RREF basis and each row the nonzero (column, int)
# pairs of L times an RREF row, in column order.  A row starts at its pivot,
# where it holds L.
Form = tuple[tuple[int, ...], int, tuple[tuple[tuple[int, int], ...], ...]]


def _reduced_form(reduced: list[tuple[int, list[int]]]) -> Form:
    """The form of ``_eliminate``'s output: the RREF row is row / row[pivot],
    so with L the lcm of the pivot entries, row * (L // row[pivot]) is L
    times it, the quotient carrying the sign of a negative pivot."""
    den = lcm(*[r[col] for col, r in reduced])
    return _scaled_form(tuple(col for col, _ in reduced), den,
                        [tuple((j, x * (den // r[col])) for j, x in enumerate(r) if x)
                         for col, r in reduced])


def _scaled_form(pivots: tuple[int, ...], scale: int,
                 rows: list[tuple[tuple[int, int], ...]]) -> Form:
    """The form of rows holding scale times the RREF rows, whatever common
    factor scale and the entries share: L = scale / gcd(scale, entries)."""
    g = gcd(scale, *[x for row in rows for _, x in row])
    if g > 1:
        rows = [tuple((j, x // g) for j, x in row) for row in rows]
    return tuple(pivots), scale // g, tuple(rows)


def _annihilator_form(n: int, form: Form) -> Form:
    """Ann A, k = dim A, eliminating min(k, n - k) rows.  Rows R_t of A that
    hold L at their pivot t and 0 at the other pivots give, for each other
    column c, w_c: L at c and -R_t[c] at each t.  Off A's RREF the w_c end
    at c and are eliminated.  Off the form of A's rows eliminated with the
    columns reversed, R_t ends at t, so w_c / L = e_c - sum_t (R_t[c] /
    R_t[t]) e_t leads at c and is 0 at the other free columns: the RREF of
    Ann A, its L exact because that form's L is the least clearing R_t / L."""
    pivots, den, rows = form
    reverse = 2 * len(pivots) < n
    if reverse:
        back, den, back_rows = _reduced_form(_eliminate([_dense(n, r)[::-1] for r in rows], n))
        pivots = tuple(n - 1 - t for t in reversed(back))
        rows = [[(n - 1 - j, x) for j, x in r] for r in reversed(back_rows)]
    taken = set(pivots)
    free = {c: {c: den} if reverse else _dense(n, ((c, den),)) for c in range(n) if c not in taken}
    for t, row in zip(pivots, rows):
        for c, x in row[1:]:
            free[c][t] = -x
    if reverse:
        return tuple(free), den, tuple(tuple(v.items()) for v in free.values())
    return _reduced_form(_eliminate(list(free.values()), n))


class Subspace:
    """A subspace of Q^n, canonically represented by its RREF row basis.

    What is stored is the integer form of that basis (``Form``), the one
    argument of the constructor: ``from_rows`` and ``from_supports`` read it
    off elimination, and ``block_sum``, ``tensor_span`` and ``kron_span``
    build it in closed form from the forms of their factors.  The form is
    canonical, so equality and hashing compare it; ``dim``, ``pivots``,
    ``supports`` and membership read it.  The Fraction rows of ``basis`` are
    built from it on first read and kept.

    A constructor that knows the annihilator in closed form hands it in as
    ``known_annihilator``: a function returning the subspace that
    ``annihilator`` would compute, called on first use instead of the
    elimination.  It takes no part in equality.
    """

    def __init__(self, ambient_dim: int, form: Form,
                 known_annihilator: Callable[[], "Subspace"] | None = None):
        self.ambient_dim = ambient_dim
        self._form = form
        self.known_annihilator = known_annihilator

    @staticmethod
    def from_rows(ambient_dim: int, rows: Iterable[Sequence]) -> "Subspace":
        rows = list(rows)
        for r in rows:
            if len(r) != ambient_dim:
                raise ValueError(f"row length {len(r)} != ambient dim {ambient_dim}")
        return Subspace.from_supports(ambient_dim, [integer_support(r) for r in rows])

    @staticmethod
    def from_supports(ambient_dim: int, supports: Iterable[Support]) -> "Subspace":
        """The span of vectors given by their supports; () spans the zero space."""
        dense = [_dense(ambient_dim, support) for support in supports]
        return Subspace(ambient_dim, _reduced_form(_eliminate(dense, ambient_dim)))

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, (tuple(range(ambient_dim)), 1,
                                      tuple(((j, 1),) for j in range(ambient_dim))))

    @cached_property
    def basis(self) -> Matrix:
        """The RREF rows as Fractions: row / L for each row of the form."""
        _, den, rows = self._form
        values = {}
        basis = []
        for row in rows:
            dense = [ZERO] * self.ambient_dim
            for j, x in row:
                dense[j] = values[x] if x in values else values.setdefault(x, Fraction(x, den))
            basis.append(tuple(dense))
        return tuple(basis)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self._form == other._form

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self._form))

    def __repr__(self) -> str:
        return f"Subspace(ambient_dim={self.ambient_dim}, basis={self.basis!r})"

    @property
    def dim(self) -> int:
        return len(self._form[0])

    @property
    def pivots(self) -> tuple[int, ...]:
        """The pivot column of each basis row, increasing."""
        return self._form[0]

    @property
    def supports(self) -> tuple[Support, ...]:
        """The support of each basis row, in pivot order: the rows of the form."""
        return self._form[2]

    @cached_property
    def _pivot_rows(self) -> tuple[int, dict[int, tuple[tuple[int, int], ...]]]:
        """(L, pivot -> row of the form), the lookup membership reads."""
        pivots, den, rows = self._form
        return den, dict(zip(pivots, rows))

    def contains(self, v: Sequence) -> bool:
        """Whether the vector v lies in the subspace."""
        if len(v) != self.ambient_dim:
            raise ValueError(f"vector length {len(v)} != ambient dim {self.ambient_dim}")
        return self.contains_support(integer_support(v))

    def contains_support(self, support: Support) -> bool:
        """Pivot reduction over a support: v = sum_i v[p_i] * basis_i, checked
        on ints.  Each pivot that v hits subtracts its row; an entry of v off
        the pivots may cancel, so only the full remainder decides."""
        den, rows = self._pivot_rows
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
        return all(self.contains_support(s) for s in other.supports)

    def add(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimensions differ")
        return Subspace.from_supports(self.ambient_dim, self.supports + other.supports)

    def map_by(self, m: Matrix) -> "Subspace":
        """Image under the linear map with the given matrix (rows -> m @ row)."""
        columns = integer_columns(m, self.ambient_dim)
        return Subspace.from_supports(len(m), [image_support(columns, s) for s in self.supports])

    @cached_property
    def _annihilator(self) -> "Subspace":
        if self.known_annihilator is not None:
            return self.known_annihilator()
        if not self.dim:
            return Subspace.full(self.ambient_dim)
        return Subspace(self.ambient_dim, _annihilator_form(self.ambient_dim, self._form))

    def annihilator(self) -> "Subspace":
        """Functionals vanishing on the subspace, as rows in the dual
        coordinates; computed on first use (or handed in) and kept on the
        subspace."""
        return self._annihilator


def block_sum(left: Subspace, right: Subspace) -> Subspace:
    """A (+) B in Q^(n+m), with no elimination: the rows of A, then those of
    B shifted by n, are in RREF, and so is Ann A (+) Ann B, its annihilator,
    built the same way on first use."""
    (p, a, a_rows), (q, b, b_rows) = left._form, right._form
    n, den = left.ambient_dim, lcm(a, b)
    sa, sb = den // a, den // b
    form = (p + tuple(n + j for j in q), den,
            tuple(tuple((j, x * sa) for j, x in row) for row in a_rows)
            + tuple(tuple((n + j, x * sb) for j, x in row) for row in b_rows))
    return Subspace(n + right.ambient_dim, form,
                    lambda: block_sum(left.annihilator(), right.annihilator()))


def tensor_span(left: Subspace, right: Subspace) -> Subspace:
    """The RREF of A (x) R^m + R^n (x) B, read off the RREF rows A_p of A
    (pivots P) and B_q of B (pivots Q) with no elimination: one row per
    pivot, in pivot order,

        (p, j), p in P:              A_p (x) e_j                        if j not in Q,
                                     A_p (x) (e_j - B_j) + e_p (x) B_j  if j in Q;
        (q, k), q not in P, k in Q:  e_q (x) B_k.

    Each row lies in the span, has a leading 1 at its pivot and is zero at
    every other pivot, and there are a*m + n*b - a*b of them, the dimension
    of the span.  The rows are built on ints at L_A * L_B times the RREF,
    the product of the factors' L.  The annihilator Ann A (x) Ann B is
    ``kron_span`` of the factors' annihilators, built on first use."""
    n, m = left.ambient_dim, right.ambient_dim
    (_, la, a_rows), (_, lb, b_rows) = left._form, right._form
    scale = la * lb
    # The entries of A_p off its pivot, and of e_q - B_q, which is zero at q
    # and at every other pivot.
    a = {row[0][0]: row[1:] for row in a_rows}
    b = {row[0][0]: row for row in b_rows}
    tails = {q: tuple((k, -y) for k, y in row[1:]) for q, row in b.items()}
    pivots, rows = [], []
    for c in range(n):
        ac = a.get(c)
        for j in range(m):
            bj = b.get(j)
            if ac is None and bj is None:
                continue
            if ac is None:
                row = tuple((c * m + k, la * y) for k, y in bj)
            elif bj is None:
                row = ((c * m + j, scale),) + tuple((i * m + j, lb * x) for i, x in ac)
            else:
                # Block c is e_j (A_p is 1 at p); block i is A_p[i] * (e_j - B_j).
                row = ((c * m + j, scale),) + tuple((i * m + k, x * y) for i, x in ac
                                                    for k, y in tails[j])
            pivots.append(c * m + j)
            rows.append(row)
    return Subspace(n * m, _scaled_form(tuple(pivots), scale, rows),
                    lambda: kron_span(left.annihilator(), right.annihilator()))


def kron_span(left: Subspace, right: Subspace) -> Subspace:
    """A (x) B, with no elimination: the Kronecker product of RREF rows with
    pivots p and q is an RREF row with pivot p*m + q, zero at every other
    such pivot, so the row-major Kronecker products of the two bases are the
    RREF basis, built on ints at L_A * L_B times it."""
    m = right.ambient_dim
    (p, la, a_rows), (q, lb, b_rows) = left._form, right._form
    rows = [tuple((i * m + k, x * y) for i, x in ra for k, y in rb)
            for ra in a_rows for rb in b_rows]
    return Subspace(left.ambient_dim * m,
                    _scaled_form(tuple(i * m + k for i in p for k in q), la * lb, rows))
