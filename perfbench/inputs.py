"""Seeded inputs for the benchmark, with reference answers that come from
how each input was built, never from the engine.

Functions of one variable are plain dicts {(is_abs, degree): Fraction}:
(False, k) is x^k and (True, k) is |x|*x^k.  The arithmetic on them here is
the benchmark's own, so a defect in the engine's atom algebra cannot hide
itself in the references.

Every generated space draws its singular directions from the rows of a
random unit upper-triangular matrix U.  Distinct rows of U are linearly
independent, so the rank of the singular span is the number of directions
used, and the columns of U^-1 give, without elimination, one functional
per row that is 1 on that row and 0 on every other row (U @ U^-1 = I).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

Func = dict  # {(is_abs: bool, degree: int): Fraction}

SMALL = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(1, 2),
         Fraction(-1, 2), Fraction(3), Fraction(2, 3))
SCALES = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3, 2))


# --- the benchmark's own function algebra ---------------------------------

def f_add(*fs: Func) -> Func:
    out: dict = {}
    for f in fs:
        for key, c in f.items():
            out[key] = out.get(key, Fraction(0)) + c
    return {k: c for k, c in out.items() if c}


def f_scale(f: Func, c: Fraction) -> Func:
    return {k: v * c for k, v in f.items()} if c else {}


def f_mul(f: Func, g: Func) -> Func:
    out: dict = {}
    for (fa, fd), fc in f.items():
        for (ga, gd), gc in g.items():
            # |x| * |x| = x^2
            key = (False, fd + gd + 2) if fa and ga else (fa or ga, fd + gd)
            out[key] = out.get(key, Fraction(0)) + fc * gc
    return {k: c for k, c in out.items() if c}


def f_compose_scale(f: Func, c: Fraction) -> Func:
    """x -> f(c*x), using |c*x| = |c|*|x|."""
    return {(a, d): v * c**d * (abs(c) if a else 1) for (a, d), v in f.items()}


def kink(degree: int, coeff: Fraction = Fraction(1)) -> Func:
    return {(True, degree): Fraction(coeff)} if coeff else {}


def f_text(f: Func) -> str:
    """Expression text in the space-file syntax."""
    if not f:
        return "0"
    parts = []
    for (is_abs, degree), c in sorted(f.items()):
        factors = [f"{c.numerator}/{c.denominator}" if c.denominator != 1 else str(c.numerator)]
        if is_abs:
            factors.append("abs(x)")
        if degree:
            factors.append(f"x^{degree}")
        parts.append("*".join(factors))
    return " + ".join(parts).replace("+ -", "- ")


def random_poly(rng: random.Random, max_degree: int, terms: int) -> Func:
    """A polynomial with exactly ``terms`` nonzero monomials of degree <= max_degree."""
    return {(False, d): rng.choice(SMALL) for d in rng.sample(range(max_degree + 1), terms)}


def apply_matrix(m, comps: list) -> list:
    """Image of a curve (list of coordinate functions) under the matrix m."""
    return [f_add(*(f_scale(f, c) for c, f in zip(row, comps) if c)) for row in m]


# --- small exact linear algebra on triangular bases -----------------------

def unit_upper(rng: random.Random, n: int):
    """Unit upper-triangular matrix whose row i has min(q, n-1-i) nonzero
    entries right of the diagonal, q = row_fill(n), so that seeds vary
    values and positions but not how dense a direction is."""
    q = row_fill(n)
    rows = []
    for i in range(n):
        nonzero = set(rng.sample(range(i + 1, n), min(q, n - 1 - i)))
        rows.append(tuple(Fraction(1) if j == i else
                          (rng.choice(SMALL) if j in nonzero else Fraction(0))
                          for j in range(n)))
    return tuple(rows)


def row_fill(n: int) -> int:
    return max(1, round(0.3 * (n - 1)))


def identity(n: int):
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def inv_unit_upper(u):
    """Inverse of a unit upper-triangular matrix by back substitution."""
    n = len(u)
    inv = [[Fraction(0)] * n for _ in range(n)]
    for col in range(n):
        for i in range(n - 1, -1, -1):
            acc = Fraction(int(i == col))
            for j in range(i + 1, n):
                acc -= u[i][j] * inv[j][col]
            inv[i][col] = acc
    return tuple(tuple(r) for r in inv)


def transpose(m):
    return tuple(zip(*m))


def matmul(a, b):
    bt = transpose(b)
    return tuple(tuple(sum((x * y for x, y in zip(r, c)), Fraction(0)) for c in bt) for r in a)


def dot(a, b) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def kron_vec(a, b) -> tuple:
    return tuple(x * y for x in a for y in b)


def lin_comb(rng: random.Random, rows, n: int) -> tuple:
    out = [Fraction(0)] * n
    for r in rows:
        c = rng.choice(SMALL)
        out = [o + c * x for o, x in zip(out, r)]
    return tuple(out)


# --- generated spaces -----------------------------------------------------

@dataclass(frozen=True)
class GenSpec:
    """A generated space on R^n: generator k is
    scale_k * |x|*x^degree_k * U[index_k] + smooth_k(x)."""

    n: int
    basis: tuple          # U, unit upper triangular
    dual_basis: tuple     # U^-1; column j pairs to 1 with row j only
    indices: tuple        # rows of U used as singular directions
    degrees: tuple
    generators: tuple     # tuple of component lists (Func per coordinate)

    @property
    def dual_dim(self) -> int:
        return self.n - len(self.indices)

    def annihilator(self) -> list:
        """Functionals vanishing on every singular direction."""
        return [tuple(row[j] for row in self.dual_basis)
                for j in range(self.n) if j not in self.indices]

    def detector(self, index: int) -> tuple:
        """Functional that is 1 on direction U[index] and 0 on the other rows."""
        return tuple(row[index] for row in self.dual_basis)


# Degrees of the first k generators of a space; fixed so that seeds do not
# change how many residue degrees a space presents.  Starting at 1 gives
# every space a generator that early_kink can undercut.
DEGREES = (1, 3, 2, 0)


def gen_spec(rng: random.Random, n: int, k: int) -> GenSpec:
    u = unit_upper(rng, n)
    # Directions come from rows with a full complement of off-diagonal entries.
    indices = tuple(sorted(rng.sample(range(n - row_fill(n)), k)))
    degrees = list(DEGREES[:k])
    rng.shuffle(degrees)
    generators = []
    for idx, d in zip(indices, degrees):
        c = rng.choice(SMALL)
        comps = [kink(d, c * u[idx][t]) for t in range(n)]
        for t in rng.sample(range(n), min(2, n)):
            comps[t] = f_add(comps[t], random_poly(rng, 2, 2))
        generators.append(comps)
    return GenSpec(n, u, inv_unit_upper(u), indices, tuple(degrees), tuple(generators))


def kink_spec(n: int, k: int) -> GenSpec:
    """The coordinate-kink space: generators |x| * e_i for i < k."""
    u = identity(n)
    gens = tuple([kink(0) if t == i else {} for t in range(n)] for i in range(k))
    return GenSpec(n, u, u, tuple(range(k)), (0,) * k, gens)


def plot_of(rng: random.Random, spec: GenSpec) -> list:
    """lambda_k(x) * g_k(c_k * x) summed over some generators, plus a smooth
    curve: a plot of the generated diffeology by construction."""
    comps = [random_poly(rng, 2, 1) for _ in range(spec.n)]
    for g in rng.sample(spec.generators, (len(spec.generators) + 1) // 2):
        lam = random_poly(rng, 2, 2)
        c = rng.choice(SCALES)
        comps = [f_add(a, f_mul(lam, f_compose_scale(b, c))) for a, b in zip(comps, g)]
    return comps


def foreign_kink(rng: random.Random, spec: GenSpec) -> list:
    """A kink along a row of U that no generator uses: never a plot."""
    j = rng.choice([j for j in range(spec.n) if j not in spec.indices])
    d = rng.randint(0, 3)
    c = rng.choice(SMALL)
    return [kink(d, c * spec.basis[j][t]) for t in range(spec.n)]


def early_kink(rng: random.Random, spec: GenSpec) -> list:
    """A kink along a generator's direction at a degree below that
    generator's: the direction is in the singular span, but composing with
    the detecting functional gives a function that is C^e and not C^(e+1),
    while every plot composes to a C^d function.  Definitely not a plot;
    only the degree filtration tells."""
    idx, d = rng.choice([(i, d) for i, d in zip(spec.indices, spec.degrees) if d >= 1])
    e = rng.randint(0, d - 1)
    c = rng.choice(SMALL)
    return [kink(e, c * spec.basis[idx][t]) for t in range(spec.n)]


def smooth_functional(rng: random.Random, spec: GenSpec) -> tuple:
    ann = spec.annihilator()
    picks = rng.sample(ann, min(3, len(ann)))
    return lin_comb(rng, picks, spec.n)


def kinked_functional(rng: random.Random, spec: GenSpec) -> tuple:
    """Nonzero on one singular direction, so not smooth on the space."""
    base = smooth_functional(rng, spec)
    c = rng.choice(SMALL)
    return tuple(a + c * b for a, b in zip(base, spec.detector(rng.choice(spec.indices))))
