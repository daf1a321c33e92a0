"""Exact rational linear algebra kernel."""

import functools
import random
from fractions import Fraction
from math import lcm

import pytest

from diffeolin import linalg
from diffeolin.linalg import (
    ZERO,
    Subspace,
    _annihilator_form,
    block_sum,
    determinant,
    dot,
    identity,
    in_row_span,
    integer_columns,
    integer_support,
    invert,
    kron,
    kron_span,
    kron_vector,
    matmul,
    matvec,
    matrix,
    nullspace,
    rank,
    rref,
    solve,
    tensor_span,
    transpose,
    unit_vector,
    vector,
)

from conftest import (
    SINGULAR_SHAPES,
    _pivot,
    reference_contains,
    reference_determinant,
    reference_integer_support,
    reference_nullspace,
    reference_rref,
    random_square,
)


def test_rref_is_canonical():
    m1 = matrix([[2, 4], [1, 3]])
    m2 = matrix([[1, 3], [2, 4]])
    assert rref(m1) == rref(m2) == identity(2)


def test_rref_drops_zero_rows():
    assert rref(matrix([[1, 2], [2, 4], [0, 0]])) == matrix([[1, 2]])


def test_nullspace_annihilates():
    m = matrix([[1, 2, 3], [0, 1, 1]])
    basis = nullspace(m)
    assert len(basis) == 1
    for v in basis:
        assert not any(matvec(m, v))


def test_nullspace_of_empty_matrix_is_full():
    assert nullspace((), n_cols=3) == identity(3)


def test_solve_consistent_and_inconsistent():
    a = matrix([[1, 1], [0, 1]])
    assert solve(a, (Fraction(3), Fraction(1))) == (Fraction(2), Fraction(1))
    b = matrix([[1, 1], [2, 2]])
    assert solve(b, (Fraction(1), Fraction(3))) is None


def test_invert_round_trip():
    rng = random.Random(7)
    for n in (1, 2, 3, 4):
        while True:
            m = tuple(
                tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n))
                for _ in range(n)
            )
            inv = invert(m)
            if inv is not None:
                break
        assert matmul(m, inv) == identity(n)


def test_invert_singular_returns_none():
    assert invert(matrix([[1, 2], [2, 4]])) is None


def test_empty_matrices_need_no_guard():
    """The general expressions of transpose, kron and invert return the
    empty matrix on empty input."""
    assert transpose(()) == kron((), ((1,),)) == kron(((1,),), ()) == invert(()) == ()


def test_kron_shape_and_values():
    a = matrix([[1, 2]])
    b = matrix([[3], [4]])
    assert kron(a, b) == matrix([[3, 6], [4, 8]])
    assert kron(identity(2), identity(3)) == identity(6)


def test_kron_mixed_product():
    rng = random.Random(11)

    def rand(n, m):
        return tuple(
            tuple(Fraction(rng.randint(-3, 3)) for _ in range(m)) for _ in range(n)
        )

    a, b = rand(2, 3), rand(3, 4)
    c, d = rand(2, 2), rand(2, 3)
    left = matmul(kron(a, c), kron(b, d))
    right = kron(matmul(a, b), matmul(c, d))
    assert left == right


def test_unit_and_kron_vectors_match_their_dense_definitions():
    """Shared constants and zero skipping change no entry: both functions
    equal their dense one-line definitions, on vectors with many zeros."""
    rng = random.Random(13)

    def rand(n):
        return tuple(Fraction(rng.choice([0, 0, 0, rng.randint(-3, 3)]), rng.randint(1, 3))
                     for _ in range(n))

    for n in range(1, 8):
        for i in range(n):
            assert unit_vector(n, i) == tuple(Fraction(1 if j == i else 0) for j in range(n))
    for _ in range(50):
        a, b = rand(rng.randint(0, 6)), rand(rng.randint(0, 6))
        dense = tuple(x * y for x in a for y in b)
        assert kron_vector(a, b) == dense
        assert all(type(x) is Fraction for x in kron_vector(a, b))


def test_subspace_equality_is_structural():
    s1 = Subspace.from_rows(3, [[1, 1, 0], [0, 0, 1]])
    s2 = Subspace.from_rows(3, [[2, 2, 2], [0, 0, 5]])
    assert s1 == s2
    assert s1.dim == 2


def test_subspace_contains_and_annihilator():
    s = Subspace.from_rows(3, [[1, 0, 0]])
    assert s.contains([Fraction(5), 0, 0])
    assert not s.contains([0, 1, 0])
    ann = s.annihilator()
    assert ann.dim == 2
    for phi in ann.basis:
        for row in s.basis:
            assert sum(a * b for a, b in zip(phi, row)) == 0


def test_subspace_add_and_map():
    s = Subspace.from_rows(2, [[1, 0]]).add(Subspace.from_rows(2, [[0, 1]]))
    assert s == Subspace.full(2)
    swapped = Subspace.from_rows(2, [[1, 0]]).map_by(matrix([[0, 1], [1, 0]]))
    assert swapped == Subspace.from_rows(2, [[0, 1]])


def test_dot_and_matmul_reject_mismatched_inner_dimensions():
    with pytest.raises(ValueError, match="lengths 3 and 2"):
        dot(matrix([[1, 2, 3]])[0], matrix([[1, 1]])[0])
    with pytest.raises(ValueError, match="2x3 and a 2x2 matrix"):
        matmul(matrix([[1, 2, 3], [4, 5, 6]]), identity(2))
    with pytest.raises(ValueError, match="1x2 and a 0x0 matrix"):
        matmul(matrix([[1, 2]]), ())
    # A 0 x n right factor is () and carries no width.
    assert matmul(((), ()), ()) == ((), ())


def test_matvec_and_matmul_reject_mismatched_shapes():
    """A vector shorter than the rows, and a ragged right factor, raise
    instead of reading a prefix of each row."""
    with pytest.raises(ValueError, match="2x3 matrix and a vector of length 2"):
        matvec(matrix([[1, 2, 3], [4, 5, 6]]), vector([1, 2]))
    with pytest.raises(ValueError, match="length 4"):
        matvec(matrix([[1, 2, 3]]), vector([1, 2, 3, 4]))
    with pytest.raises(ValueError, match=r"ragged 2-row matrix of row lengths \[3, 2\]"):
        matmul(matrix([[1, 1]]), (vector([1, 2, 3]), vector([4, 5])))
    assert matvec(matrix([[1, 2, 3], [4, 5, 6]]), vector([1, 0, 2])) == vector([7, 16])
    assert matvec((), vector([1, 2])) == ()


def test_invert_and_from_rows_reject_mismatched_shapes():
    with pytest.raises(ValueError, match="matrix is not square"):
        invert(matrix([[1, 0, 0], [0, 1, 0]]))
    with pytest.raises(ValueError, match="row length 2 != ambient dim 3"):
        Subspace.from_rows(3, [(1, 0, 0), (0, 1)])
    assert invert(matrix([[2]])) == matrix([[Fraction(1, 2)]])


def test_identity_fills_rows_of_the_shared_zero():
    """``identity`` equals its concatenated definition, and every zero entry
    is the shared ``ZERO``."""
    for n in range(71):
        m = identity(n)
        assert m == tuple((Fraction(0),) * i + (Fraction(1),) + (Fraction(0),) * (n - i - 1)
                          for i in range(n))
        assert all(type(row) is tuple for row in m)
        assert all(x is ZERO for row in m for x in row if not x)


def test_in_row_span_edge_cases():
    assert in_row_span((), (Fraction(0), Fraction(0)))
    assert not in_row_span((), (Fraction(1), Fraction(0)))


def test_rank_of_zero_dimensional():
    assert rank(()) == 0
    assert Subspace.from_supports(0, ()).dim == 0


def test_contains_and_coordinates_reject_a_vector_of_the_wrong_length():
    s = Subspace.from_rows(3, [(1, 0, 0)])
    for v in [(1, 0, 0, 7), (1, 0)]:
        with pytest.raises(ValueError, match=rf"vector length {len(v)} != ambient dim 3"):
            s.contains(v)
        with pytest.raises(ValueError, match=rf"vector length {len(v)} != ambient dim 3"):
            s.coordinates(v)


# --- the integer kernel against a Fraction reference -------------------------

def reference_solve(a, b):
    n_cols = len(a[0]) if a else 0
    if not a:
        return None if any(b) else (Fraction(0),) * n_cols
    x = [Fraction(0)] * n_cols
    for row in reference_rref([list(r) + [bi] for r, bi in zip(a, b)]):
        p = _pivot(row)
        if p == n_cols:
            return None
        x[p] = row[n_cols]
    return tuple(x)


def reference_invert(m):
    n = len(m)
    reduced = reference_rref([list(r) + list(identity(n)[i]) for i, r in enumerate(m)])
    if [_pivot(row) for row in reduced] != list(range(n)):
        return None
    return tuple(row[n:] for row in reduced)


def _random_matrix(rng, shape):
    """(rows, n_cols) of the named shape; entries are sparse rationals."""
    n_cols = rng.randint(1, 7)
    big = shape == "large-denominators"

    def entry():
        if rng.random() < 0.3:
            return Fraction(0)
        if big:
            return Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**12))
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))

    def row():
        return tuple(entry() for _ in range(n_cols))

    if shape == "empty":
        return (), n_cols
    if shape == "zero-rows":
        return tuple((Fraction(0),) * n_cols for _ in range(rng.randint(1, 4))), n_cols
    if shape == "one-row":
        return (row(),), n_cols
    if shape == "tall":
        return tuple(row() for _ in range(n_cols + rng.randint(1, 4))), n_cols
    if shape == "wide":
        n_cols += 3
        return tuple(row() for _ in range(rng.randint(1, n_cols - 1))), n_cols
    if shape == "rank-deficient":
        base = [row() for _ in range(rng.randint(1, n_cols))]
        combos = [tuple(sum((Fraction(rng.randint(-3, 3)) * b[j] for b in base), Fraction(0))
                        for j in range(n_cols)) for _ in range(rng.randint(1, 3))]
        rows = base + combos
        rng.shuffle(rows)
        return tuple(rows), n_cols
    return tuple(row() for _ in range(rng.randint(1, n_cols + 2))), n_cols


@pytest.mark.parametrize("shape", ["empty", "zero-rows", "one-row", "tall", "wide",
                                   "rank-deficient", "large-denominators"])
def test_integer_kernel_agrees_with_the_fraction_reference(shape):
    rng = random.Random(f"linalg-kernel:{shape}")
    for _ in range(60):
        m, n_cols = _random_matrix(rng, shape)
        reduced, expected = rref(m), reference_rref(m)
        assert reduced == expected
        assert rank(m) == len(expected)
        assert nullspace(m, n_cols) == reference_nullspace(m, n_cols)
        x = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n_cols))
        for b in (matvec(m, x), tuple(Fraction(rng.randint(-5, 5)) for _ in m)):
            assert solve(m, b) == reference_solve(m, b)
        if not m:
            # No rows, no unknowns: only the zero right side is solved.
            b = (Fraction(rng.randint(1, 5)),)
            assert solve(m, b) is None and reference_solve(m, b) is None
        if m and len(m) == n_cols:
            assert invert(m) == reference_invert(m)
        s = Subspace.from_rows(n_cols, m)
        inside = tuple(sum((Fraction(rng.randint(-4, 4)) * r[j] for r in m), Fraction(0))
                       for j in range(n_cols))
        outside = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(n_cols))
        for v in (inside, outside, (Fraction(0),) * n_cols):
            member = reference_contains(m, v)
            assert s.contains(v) is member
            assert in_row_span(m, v) is member
            coords = s.coordinates(v)
            if not member:
                assert coords is None
                continue
            # The basis is independent, so the coordinates are the unique
            # solution of basis^T c = v.
            basis_t = tuple(zip(*reduced)) if reduced else ()
            expected = reference_solve(basis_t, v) if reduced else ()
            assert coords == expected
            assert all(isinstance(c, Fraction) for c in coords)


def _random_row_set(rng, n):
    """Rational rows over Q^n mixing zero rows, dependent rows, rows whose
    first nonzero entry is negative and integer rows with content > 1."""
    def entry():
        return Fraction(rng.choice([0, 0, rng.randint(-9, 9)]), rng.randint(1, 6))

    rows = [tuple(entry() for _ in range(n)) for _ in range(rng.randint(0, n + 1))]
    extra = [(Fraction(0),) * n]
    if rows:
        a, b = rng.choice(rows), rng.choice(rows)
        extra.append(tuple(Fraction(rng.randint(-3, 3)) * x + Fraction(1, 2) * y
                           for x, y in zip(a, b)))
        extra.append(tuple(-abs(x) if i == 0 else x for i, x in enumerate(a)))
    extra.append(tuple(Fraction(6 * rng.randint(-2, 2)) for _ in range(n)))
    rows += rng.sample(extra, rng.randint(0, len(extra)))
    rng.shuffle(rows)
    return rows


def test_stored_form_matches_the_fraction_rref():
    """``from_rows`` stores the integer RREF of the rows, and again of the
    Fraction rows of the reference RREF.  Both are one subspace: equal, with one
    hash, basis, pivot tuple and annihilator, the basis being the Fraction
    reference RREF and the annihilator the reference nullspace."""
    rng = random.Random("linalg-form")
    for _ in range(200):
        n = rng.randint(1, 6)
        rows = _random_row_set(rng, n)
        stored, derived = Subspace.from_rows(n, rows), Subspace.from_rows(n, reference_rref(rows))
        assert stored == derived and hash(stored) == hash(derived)
        assert stored.basis == derived.basis == reference_rref(rows)
        assert stored.pivots == derived.pivots and stored.dim == derived.dim
        ann = stored.annihilator()
        assert ann == derived.annihilator() and hash(ann) == hash(derived.annihilator())
        assert ann.basis == (reference_nullspace(rows, n) if stored.dim else identity(n))


def test_closed_form_constructors_store_the_form_elimination_finds():
    """``block_sum``, ``tensor_span`` and ``kron_span`` build their forms
    from their factors' forms with no elimination; each equals, with one
    hash, the elimination of its spanning rows, and so does each
    annihilator."""
    rng = random.Random("linalg-closed-forms")
    for _ in range(80):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        a = Subspace.from_rows(n, _random_row_set(rng, n))
        b = Subspace.from_rows(m, _random_row_set(rng, m))
        zero_n, zero_m = (Fraction(0),) * n, (Fraction(0),) * m
        spans = {
            block_sum: [r + zero_m for r in a.basis] + [zero_n + r for r in b.basis],
            tensor_span: ([kron_vector(r, e) for r in a.basis for e in identity(m)]
                          + [kron_vector(e, r) for e in identity(n) for r in b.basis]),
            kron_span: [kron_vector(r, s) for r in a.basis for s in b.basis],
        }
        for build, rows in spans.items():
            width = n + m if build is block_sum else n * m
            closed, eliminated = build(a, b), Subspace.from_rows(width, rows)
            assert closed == eliminated and hash(closed) == hash(eliminated)
            assert closed.basis == eliminated.basis
            assert closed.annihilator() == eliminated.annihilator()


def _reference_form(basis):
    """The form of a Fraction RREF basis, built from its entries alone."""
    den = lcm(1, *[x.denominator for row in basis for x in row])
    return (tuple(_pivot(row) for row in basis), den,
            tuple(tuple((j, int(x * den)) for j, x in enumerate(row) if x) for row in basis))


def _rank_k_rows(rng, n, k):
    """Rational rows spanning a k-dimensional subspace of Q^n: k rows kept
    independent by a triangular pattern on k random columns, mixed, with
    negative entries, an integer multiple of a row (content above 1), a
    negated repeat and an exact repeat, shuffled."""
    cols = rng.sample(range(n), k)
    rows = []
    for i, c in enumerate(cols):
        # About four entries off the pattern per row, so that the Fraction
        # reference stays quick at n = 64.
        row = [Fraction(rng.randint(-9, 9) if rng.random() < 4 / max(n, 12) else 0,
                        rng.randint(1, 4)) for _ in range(n)]
        for d in cols[:i]:
            row[d] = Fraction(0)
        row[c] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))
        rows.append(row)
    for _ in range(k):
        i, j = rng.randrange(k), rng.randrange(k)
        if i != j:
            q = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            rows[i] = [x + q * y for x, y in zip(rows[i], rows[j])]
    if rows:
        a = rng.choice(rows)
        rows += [[6 * x for x in a], [-x for x in rng.choice(rows)], list(rng.choice(rows))]
    rng.shuffle(rows)
    return rows


@functools.cache
def _annihilator_cases():
    """(n, k, form of A, reference nullspace of A), built once."""
    rng = random.Random("linalg-annihilator")
    shapes = [(n, k) for n in range(1, 13) for k in range(n + 1) for _ in range(3)]
    shapes += [(64, 8), (64, 32), (64, 56), (64, 63)]
    cases = []
    for n, k in shapes:
        rows = _rank_k_rows(rng, n, k)
        cases.append((n, k, _reference_form(reference_rref(rows)), reference_nullspace(rows, n)))
    return tuple(cases)


def test_annihilator_form_equals_the_reference_nullspace():
    """Whichever side it eliminates, ``_annihilator_form`` gives the form of
    the Fraction reference nullspace: equal, with one hash, at every k from
    0 to n for n <= 12 and at four shapes in Q^64."""
    for n, k, form, expected in _annihilator_cases():
        assert len(form[0]) == k and len(expected) == n - k
        got = _annihilator_form(n, form)
        assert got == _reference_form(expected)
        ann, ref = Subspace(n, got), Subspace.from_rows(n, expected)
        assert ann == ref and hash(ann) == hash(ref)
        assert ann.basis == expected


def test_an_annihilator_eliminates_the_smaller_side(monkeypatch):
    """One elimination, of min(k, n - k) rows: A's k rows when 2k < n, else
    the n - k free vectors."""
    real, sizes = linalg._eliminate, []

    def counted(rows, n_cols):
        sizes.append(len(rows))
        return real(rows, n_cols)

    monkeypatch.setattr(linalg, "_eliminate", counted)
    for n, k, form, _ in _annihilator_cases():
        sizes.clear()
        _annihilator_form(n, form)
        assert sizes == [min(k, n - k)]


def test_basis_entries_are_shared_fractions():
    """``Subspace.basis`` is row / L entry by entry, builds one Fraction per
    distinct entry and keeps every zero the shared ``ZERO``."""
    rng = random.Random("linalg-basis-entries")
    for _ in range(150):
        n = rng.randint(1, 8)
        s = Subspace.from_rows(n, _random_row_set(rng, n))
        _, den, rows = s._form
        assert s.basis == tuple(tuple(Fraction(dict(row).get(j, 0), den) for j in range(n))
                                for row in rows)
        assert all(x is ZERO for row in s.basis for x in row if not x)
        entries = [x for row in s.basis for x in row if x]
        assert len({id(x) for x in entries}) == len(set(entries))


# --- one read per entry, and the forward-only determinant --------------------

ZEROS = (ZERO, Fraction(0), Fraction(0, 7), 0, 0.0, -0.0, False)


def _support_entry(rng, kind):
    """One entry of the named kind, zero about a third of the time."""
    if rng.random() < 0.3:
        return rng.choice(ZEROS)
    if kind == "ints":
        return rng.randint(-10**6, 10**6) or 1
    if kind == "bools":
        return True
    if kind == "fractions":
        return Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 12))
    if kind == "floats":
        return rng.choice([0.5, -0.125, 3.0, 1e-300, 0.1, -7.25e12])
    if kind == "large-denominators":
        return Fraction(rng.randint(-10**40, 10**40) or 1, rng.randint(1, 10**40))
    if kind == "strings":
        # No ratio of their own: read through Fraction.
        return rng.choice(["1/3", "-2/7", "5"])
    return _support_entry(rng, rng.choice(["ints", "bools", "fractions", "floats",
                                           "large-denominators", "strings"]))


@pytest.mark.parametrize("kind", ["ints", "bools", "fractions", "floats", "large-denominators",
                                  "mixed"])
def test_integer_support_reads_each_entry_as_the_reference_does(kind):
    """One ``as_integer_ratio()`` per entry gives the support that testing,
    type-checking and reading numerator and denominator gave, densely, as
    a tuple and as a mapping, every zero skipped and every entry an int."""
    rng = random.Random(f"integer-support:{kind}")
    for _ in range(300):
        v = [_support_entry(rng, kind) for _ in range(rng.randint(0, 10))]
        for given in (v, tuple(v), {j: x for j, x in enumerate(v) if rng.random() < 0.7}):
            support = integer_support(given)
            assert support == reference_integer_support(given)
            assert all(type(x) is int and x for _, x in support)


def test_integer_columns_are_the_columns_of_one_integer_multiple():
    rng = random.Random("integer-columns")
    for _ in range(100):
        rows, n = rng.randint(0, 5), rng.randint(1, 6)
        m = tuple(tuple(_support_entry(rng, "mixed") for _ in range(n)) for _ in range(rows))
        flat = reference_integer_support([x for row in m for x in row])
        assert integer_columns(m, n) == tuple(
            [(k // n, a) for k, a in flat if k % n == j] for j in range(n))


@pytest.mark.parametrize("how", ("random",) + SINGULAR_SHAPES)
def test_determinant_is_nonzero_exactly_when_the_columns_span(how):
    """On the integer columns that a pushforward keeps, n up to 64, the
    Bareiss pass is nonzero exactly when elimination finds rank n, and the
    singular shapes read 0."""
    rng = random.Random(f"determinant-rank:{how}")
    singular = how in SINGULAR_SHAPES
    for n in list(range(2 if singular else 0, 9)) * 4 + [16, 33, 64]:
        cols = integer_columns(random_square(rng, n, how), n)
        full = Subspace.from_supports(n, cols).dim == n
        assert (determinant(n, cols) != 0) == full
        assert not (singular and full)


def test_determinant_is_the_determinant():
    """The last Bareiss pivot is the signed determinant, as Fraction
    elimination computes it; without the exact division by the previous
    pivot the pass would still find the rank, but not this value."""
    rng = random.Random("determinant-value")
    for _ in range(300):
        n = rng.randint(0, 7)
        rows = [[rng.choice([0, 0, 1, -1, 2, 3, -5, 7]) for _ in range(n)] for _ in range(n)]
        supports = [[(j, x) for j, x in enumerate(r) if x] for r in rows]
        assert determinant(n, supports) == reference_determinant(rows)


def test_determinant_of_any_number_of_rows_is_zero_exactly_below_rank_n():
    rng = random.Random("determinant-rows")
    for _ in range(300):
        n, k = rng.randint(0, 6), rng.randint(0, 9)
        supports = [[(j, x) for j in range(n) if (x := rng.choice([0, 0, 0, 1, -1, 2]))]
                    for _ in range(k)]
        assert (determinant(n, supports) != 0) == (Subspace.from_supports(n, supports).dim == n)
