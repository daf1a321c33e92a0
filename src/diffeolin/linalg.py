"""Exact rational linear algebra on tuples of Fractions.

Matrices are tuples of row tuples.  Everything is immutable; reduced row
echelon form (RREF) is the canonical representative for row spans, so
subspace equality is plain structural equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]


def vector(entries: Sequence) -> Vector:
    return tuple(Fraction(e) for e in entries)


def matrix(rows: Iterable[Sequence]) -> Matrix:
    return tuple(vector(r) for r in rows)


def zero_vector(n: int) -> Vector:
    return (Fraction(0),) * n


def unit_vector(n: int, i: int) -> Vector:
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


def identity(n: int) -> Matrix:
    return tuple(unit_vector(n, i) for i in range(n))


def transpose(m: Matrix) -> Matrix:
    if not m:
        return ()
    return tuple(zip(*m))


def dot(a: Vector, b: Vector) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def matvec(m: Matrix, v: Vector) -> Vector:
    # Presentation rows are sparse; skipping their zeros keeps images of
    # rows under large maps cheap.
    support = [(j, x) for j, x in enumerate(v) if x]
    return tuple(sum((row[j] * x for j, x in support), Fraction(0)) for row in m)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product in row-major block order."""
    if not a or not b:
        return ()
    return tuple(
        tuple(a_ij * b_kl for a_ij in a_row for b_kl in b_row)
        for a_row in a
        for b_row in b
    )


def kron_vector(a: Vector, b: Vector) -> Vector:
    return tuple(x * y for x in a for y in b)


def rref(rows: Iterable[Sequence]) -> Matrix:
    """Reduced row echelon form with zero rows dropped."""
    work = [list(map(Fraction, r)) for r in rows]
    if not work:
        return ()
    n_cols = len(work[0])
    pivot_row = 0
    for col in range(n_cols):
        pivot = next((r for r in range(pivot_row, len(work)) if work[r][col]), None)
        if pivot is None:
            continue
        work[pivot_row], work[pivot] = work[pivot], work[pivot_row]
        inv = 1 / work[pivot_row][col]
        work[pivot_row] = [x * inv for x in work[pivot_row]]
        for r in range(len(work)):
            if r != pivot_row and work[r][col]:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[pivot_row])]
        pivot_row += 1
        if pivot_row == len(work):
            break
    return tuple(tuple(r) for r in work[:pivot_row] if any(r))


def rank(m: Matrix) -> int:
    return len(rref(m))


def nullspace(m: Matrix, n_cols: int | None = None) -> Matrix:
    """Basis (in RREF) of {v : m @ v = 0}, for an n_cols-dimensional domain."""
    if n_cols is None:
        if not m:
            raise ValueError("n_cols required for an empty matrix")
        n_cols = len(m[0])
    reduced = rref(m)
    pivots = []
    for row in reduced:
        pivots.append(next(j for j, x in enumerate(row) if x))
    free = [j for j in range(n_cols) if j not in pivots]
    basis = []
    for j in free:
        v = [Fraction(0)] * n_cols
        v[j] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -reduced[r][j]
        basis.append(tuple(v))
    return rref(basis)


def solve(a: Matrix, b: Vector) -> Vector | None:
    """One exact solution of a @ x = b, or None if inconsistent."""
    n_rows = len(a)
    n_cols = len(a[0]) if a else 0
    if n_rows == 0:
        return zero_vector(n_cols) if not any(b) else None
    augmented = [list(row) + [bi] for row, bi in zip(a, b)]
    reduced = rref(augmented)
    x = [Fraction(0)] * n_cols
    for row in reduced:
        pivot = next(j for j, v in enumerate(row) if v)
        if pivot == n_cols:
            return None
        x[pivot] = row[n_cols]
    return tuple(x)


def invert(m: Matrix) -> Matrix | None:
    """Inverse of a square matrix, or None if singular."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    if n == 0:
        return ()
    augmented = [list(row) + list(identity(n)[i]) for i, row in enumerate(m)]
    reduced = rref(augmented)
    if len(reduced) < n or any(reduced[i][i] != 1 for i in range(n)):
        return None
    return tuple(tuple(row[n:]) for row in reduced)


def in_row_span(rows: Matrix, v: Vector) -> bool:
    """Exact membership of v in the rational row span of rows."""
    if not any(v):
        return True
    if not rows:
        return False
    return rank(rows) == rank(rows + (v,))


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q^n, canonically represented by its RREF row basis."""

    ambient_dim: int
    basis: Matrix

    @staticmethod
    def from_rows(ambient_dim: int, rows: Iterable[Sequence]) -> "Subspace":
        rows = [vector(r) for r in rows]
        for r in rows:
            if len(r) != ambient_dim:
                raise ValueError(f"row length {len(r)} != ambient dim {ambient_dim}")
        return Subspace(ambient_dim, rref(rows))

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, ())

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, identity(ambient_dim))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: Sequence) -> bool:
        return in_row_span(self.basis, vector(v))

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

    def annihilator(self) -> "Subspace":
        """Functionals vanishing on the subspace, as rows in the dual coordinates."""
        if not self.basis:
            return Subspace.full(self.ambient_dim)
        return Subspace(self.ambient_dim, nullspace(self.basis, self.ambient_dim))
