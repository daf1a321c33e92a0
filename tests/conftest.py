"""Fixtures shared by the test modules, and the references that several
of them import."""

from fractions import Fraction
from math import gcd, lcm

import pytest

from diffeolin.linalg import Subspace, vector
from diffeolin.spaces import presentation


def ray(support):
    """A support divided by the gcd of its entries, in index order: equal
    for positive multiples of one vector."""
    content = gcd(*[x for _, x in support])
    return sorted((j, x // content) for j, x in support)


def reference_rref(rows):
    """Fraction Gauss-Jordan elimination, sharing no code with the integer
    kernel that ``Subspace`` and every dense routine of ``linalg`` run on."""
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


def _pivot(row):
    """The column of the first nonzero entry of a nonzero row."""
    return next(j for j, x in enumerate(row) if x)


def reference_nullspace(m, n_cols):
    """The RREF basis of {v : m @ v = 0}, from the free columns of the
    reference RREF."""
    reduced = reference_rref(m)
    pivots = [_pivot(row) for row in reduced]
    basis = []
    for j in range(n_cols):
        if j in pivots:
            continue
        v = [Fraction(0)] * n_cols
        v[j] = Fraction(1)
        for row, p in zip(reduced, pivots):
            v[p] = -row[j]
        basis.append(v)
    return reference_rref(basis)


def reference_contains(rows, v):
    """Membership of v in the row span of rows, by reference rank."""
    return len(reference_rref(list(rows) + [v])) == len(reference_rref(rows))


def reference_integer_support(v):
    """The support of v, densely or as an {index: entry} mapping, with each
    entry tested for zero, checked for its type and read by its
    ``.numerator`` and ``.denominator``: the reader that ``integer_support``
    replaced with one ``as_integer_ratio()`` per entry."""
    items = v.items() if isinstance(v, dict) else enumerate(v)
    support = [(j, x if isinstance(x, (int, Fraction)) else Fraction(x)) for j, x in items if x]
    scale = lcm(*[x.denominator for _, x in support])
    return [(j, x.numerator * (scale // x.denominator)) for j, x in support]


def reference_residue_supports(plot):
    """(d, support of the |x|*x^d residue row) by ascending d, read from each
    component's ``singular_residue`` dict, gathered per degree and sorted:
    the path that ``spaces.residue_supports`` replaced with one pass."""
    by_degree = {}
    for i, c in enumerate(plot.components):
        for d, x in c.singular_residue().items():
            by_degree.setdefault(d, {})[i] = x
    return [(d, reference_integer_support(r)) for d, r in sorted(by_degree.items())]


def reference_determinant(rows):
    """The determinant of a square matrix by Fraction elimination: the
    product of the pivots, negated for each row swap."""
    work, det = [list(map(Fraction, r)) for r in rows], Fraction(1)
    for col in range(len(work)):
        k = next((i for i in range(col, len(work)) if work[i][col]), None)
        if k is None:
            return 0
        if k != col:
            work[col], work[k], det = work[k], work[col], -det
        det *= work[col][col]
        for i in range(col + 1, len(work)):
            f = work[i][col] / work[col][col]
            work[i] = [x - f * y for x, y in zip(work[i], work[col])]
    return det


def random_square(rng, n, how):
    """An n x n rational matrix: random, or made singular by a zero column,
    a duplicated (scaled) column or a column combined of the others (n >= 2)."""
    def entry():
        return Fraction(rng.choice([0, 0, 1, -1, 2, -3, 5]), rng.choice([1, 1, 2, 3]))

    cols = [[entry() for _ in range(n)] for _ in range(n)]
    if how == "zero column":
        cols[rng.randrange(n)] = [Fraction(0)] * n
    elif how == "duplicate column":
        (i, j), c = rng.sample(range(n), 2), Fraction(rng.choice([1, -2, 3]))
        cols[j] = [c * x for x in cols[i]]
    elif how == "rank n-1":
        weights = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n - 1)]
        cols[-1] = [sum((w * c[i] for w, c in zip(weights, cols)), Fraction(0)) for i in range(n)]
        rng.shuffle(cols)
    return tuple(tuple(c[i] for c in cols) for i in range(n))


SINGULAR_SHAPES = ("zero column", "duplicate column", "rank n-1")


def presented_rows(space):
    """The (degree, direction) pairs of the presentation of ``space``, each
    direction the vector of its support."""
    return [(d, vector(dict(s).get(j, 0) for j in range(space.dim)))
            for d, s in presentation(space).supports]


def block_rows(v, w):
    """The block rows (d, r (x) e_j) and (d, e_i (x) r') of the definition of
    V (x) W, for every row r of v and r' of w presented at degree d, coarse
    rows included; those of degree <= e span F_e(V (x) W).  Each is the
    factor row's support shifted to its block: r_i sits at i*m + j, r'_k at
    i*m + k."""
    n, m = v.dim, w.dim
    for d, support in presentation(v).supports:
        for j in range(m):
            yield d, [(i * m + j, x) for i, x in support]
    for d, support in presentation(w).supports:
        for i in range(n):
            yield d, [(i * m + k, x) for k, x in support]


def constraint_hom_basis(v, w, late=0):
    """The smooth maps v -> w by elimination, the route the spanned basis
    replaced: the maps M with psi(M r) = 0 for each direction r presented at
    degree d and each psi in Ann F_(d + late)(w), that is the annihilator of
    the rows psi (x) r, with entry (k, i) at k*n + i.  ``late`` = 0 is
    ``check_smooth_linear``'s criterion."""
    cod, n = presentation(w), v.dim
    constraints = [[(k * n + i, y * x) for k, y in psi for i, x in r]
                   for degree, r in presentation(v).supports
                   for psi in cod.filtration_step(degree + late).annihilator().supports]
    return Subspace.from_supports(n * w.dim, constraints).annihilator()


@pytest.fixture
def left_block_rows_only(monkeypatch):
    """A wrong block formula: each closed-form step of a tensor product
    (``linalg.tensor_span`` as ``spaces`` calls it) cut to F_e V (x) R^m,
    without R^n (x) F_e W.  Only steps built after the patch see it."""
    import diffeolin.spaces as spaces

    real = spaces.tensor_span

    def left_factor_only(left, right):
        return real(left, spaces.Subspace.from_supports(right.ambient_dim, ()))

    monkeypatch.setattr(spaces, "tensor_span", left_factor_only)


@pytest.fixture(params=["no rows", "left rows only"])
def wrong_bilinear_block_rows(request, monkeypatch):
    """A wrong tensor presentation: the rows that
    ``spaces.TensorOf.present`` presents cut to none, or to the rows
    r (x) e_j of the left factor, without e_i (x) r'.  The steps stay
    right.  Forms are decided on these rows, and the smooth bilinear basis
    reads their degrees; only tensor products presented after the patch
    see it."""
    import itertools

    import diffeolin.spaces as spaces

    real = spaces.TensorOf.present

    def cut(tensor, n):
        v, w = tensor.left, tensor.right
        pres = real(tensor, n)
        rows = ()
        if request.param == "left rows only":
            coarse = pres.filtration_step(-1)
            rows = tuple((d, s) for d, s in itertools.islice(
                block_rows(v, w), len(presentation(v).supports) * w.dim)
                if d < 0 or not coarse.contains_support(s))
        return spaces.Presentation(pres.ambient_dim, rows, pres.step)

    monkeypatch.setattr(spaces.TensorOf, "present", cut)
    return request.param


@pytest.fixture
def late_hom_basis(monkeypatch):
    """A wrong hom basis for the verify suite: each row r presented at
    degree d constrained to M r in F_(d+1)(W), one degree late, in place of
    F_d(W).  Only ``verify.check_dual_map_smoothness`` sees it."""
    import diffeolin.verify as verify

    monkeypatch.setattr(verify, "smooth_hom_basis", lambda v, w: constraint_hom_basis(v, w, 1))


@pytest.fixture
def transposed_pushforward(monkeypatch):
    """A wrong pushforward presentation: the rows of the base mapped by the
    transpose of the matrix.  Only pushforwards presented after the patch
    see it."""
    import diffeolin.spaces as spaces
    from diffeolin.linalg import transpose

    real = spaces.Pushforward.present

    def transposed(pushforward, n):
        return real(spaces.Pushforward(pushforward.base, transpose(pushforward.matrix)), n)

    monkeypatch.setattr(spaces.Pushforward, "present", transposed)


@pytest.fixture
def block_swapped_distribute(monkeypatch):
    """A wrong distributivity map for the verify suite: the permutation of
    ``tensor.distribute`` with its V1 (x) V3 rows before its V1 (x) V2 rows,
    so each block of the codomain reads the other summand's slots.  Only
    ``verify.check_distributivity`` sees it."""
    import diffeolin.verify as verify
    from diffeolin.hom import LinearMap
    from diffeolin.tensor import distribute

    def swapped(v1, v2, v3):
        f, split = distribute(v1, v2, v3), v1.dim * v2.dim
        return LinearMap(f.domain, f.codomain, f.matrix[split:] + f.matrix[:split])

    monkeypatch.setattr(verify, "distribute", swapped)
