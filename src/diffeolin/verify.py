"""One-shot verification suite.

Each check replays one headline identity or counterexample of the theory at
desk scale and returns a pass/fail result.  The suite is deterministic:
distributivity and oracle-agreement draw their inputs from a fixed seed,
dual-map-smoothness and hat-dual-wellposedness run over every flag class of
dimension <= 2, and every expected value is either exact or pinned.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from .atoms import FunctionExpr, abs_mono, mono
from .bilinear import (
    curried_is_smooth,
    curry,
    form_from_flat,
    is_smooth_bilinear,
    smooth_bilinear_basis,
    uncurry,
)
from .hom import (
    LinearMap,
    check_smooth_linear,
    diffeological_dual,
    dual_map,
    hat_dual,
    hat_dual_wellposed,
    is_smooth_linear,
    smooth_hom_basis,
)
from .linalg import Subspace, identity, matmul, transpose
from .oracle import classify
from .spaces import (
    DiffSpace,
    DiffeolinError,
    Verdict,
    direct_sum,
    is_plot,
    kink_plot,
    make_coarse,
    make_fine,
    make_generated,
    singular_span,
)
from .spacefile import SpaceFile
from .tensor import (
    distribute,
    endo_remark_check,
    hat_f,
    hat_g,
    inverse_map,
    tensor_dual_iso,
)

VERIFY_SEED = 74207281


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed: float


def _timed(name, fn) -> CheckResult:
    start = time.perf_counter()
    try:
        passed, detail = fn()
    except DiffeolinError as exc:
        passed, detail = False, f"error: {exc}"
    return CheckResult(name, passed, detail, time.perf_counter() - start)


# --- spaces ----------------------------------------------------------------

# Draw tables.  ``choice`` and ``randint`` each consume one ``_randbelow(width)``,
# so ``rng.choice(rng.choice(_COEFFICIENTS))`` draws what ``Fraction(rng.randint(
# -10, 10), rng.randint(1, 4))`` draws, and ``rng.choice(_ATOMS)`` draws what
# an atom of degree ``rng.randint(0, 6)`` draws.
_COEFFICIENTS = tuple(tuple(Fraction(a, b) for b in range(1, 5)) for a in range(-10, 11))
_ABS_ATOMS, _ATOMS = (tuple(kind(d) for d in range(7)) for kind in (abs_mono, mono))

FINE = math.inf


def _flag_classes(max_dim: int) -> list[tuple[tuple, DiffSpace]]:
    """(levels, space) for every normal form of dimension 1 to ``max_dim``
    over the levels -1, 0, 1 and FINE: a coarse block (level -1), then
    |x|*x^e along each direction of level e, then fine directions (level
    FINE).  F_e of the space is spanned by the directions of level <= e, and
    every space of the atom class is isomorphic to the normal form of its
    levels."""
    classes = []
    for m in range(1, max_dim + 1):
        for ls in itertools.combinations_with_replacement((-1, 0, 1, FINE), m):
            c = ls.count(-1)
            rest = make_generated(m - c, [kink_plot(m - c, i, e)
                                          for i, e in enumerate(ls[c:]) if e != FINE])
            space = rest if not c else make_coarse(m) if c == m else direct_sum(make_coarse(c), rest)
            classes.append((ls, space))
    return classes


def _kink_space(n: int, k: int) -> DiffSpace:
    """Generated space on R^n with kink generators on the first k basis vectors."""
    return make_generated(n, [kink_plot(n, i) for i in range(k)])


def _random_space(rng: random.Random, max_dim: int) -> DiffSpace:
    kind = rng.choice(("fine", "coarse", "generated"))
    n = rng.randint(1, max_dim)
    if kind == "fine":
        return make_fine(n)
    if kind == "coarse":
        return make_coarse(n)
    return _kink_space(n, rng.randint(1, n))


# --- criterion 1: dual dimensions -----------------------------------------

def check_dual_dimensions() -> tuple[bool, str]:
    failures = []
    for n in range(1, 6):
        if diffeological_dual(make_coarse(n)).dim != 0:
            failures.append(f"coarse R^{n}")
        if diffeological_dual(make_fine(n)).dim != n:
            failures.append(f"fine R^{n}")
        for k in range(1, n):
            if diffeological_dual(_kink_space(n, k)).dim != n - k:
                failures.append(f"{k}-kink R^{n}")
    # Fine self-duality: the coordinate pairing is a smooth bijection with a
    # smooth inverse whenever every linear functional is smooth.
    for n in range(1, 5):
        v = make_fine(n)
        dual = diffeological_dual(v)
        pairing = LinearMap(v, dual, identity(n))
        inverse = LinearMap(dual, v, identity(n))
        if is_smooth_linear(pairing) is not Verdict.SMOOTH:
            failures.append(f"pairing fine R^{n}")
        if is_smooth_linear(inverse) is not Verdict.SMOOTH:
            failures.append(f"pairing inverse fine R^{n}")
    if failures:
        return False, "wrong dual dimensions: " + ", ".join(failures)
    return True, "coarse duals 0, fine duals n (self-dual), k kinks drop dim by k, n <= 5"


# --- criterion 2: bilinear vanishing ---------------------------------------

def check_bilinear_vanishing() -> tuple[bool, str]:
    line = make_fine(1)
    dims = [smooth_bilinear_basis(make_coarse(n), line).dim for n in (2, 3, 4)]
    if dims != [0, 0, 0]:
        return False, f"expected all zero, got {dims}"
    return True, "no nonzero smooth bilinear map from a coarse space to the line"


# --- criterion 3: curry correspondence --------------------------------------

def _uncurried_smooth_basis(v: DiffSpace, w: DiffSpace) -> Subspace:
    """{G : V -> L(V, W) linear, uncurry(G) smooth} for a fine W, over
    ``form_from_flat``'s coordinates k*n*n + i*n + j: the forms with
    b(s, e_t) = b(e_t, s) = 0 for every s in S(V), by its own elimination
    (independent of ``smooth_bilinear_basis`` and of the block-row decision)."""
    n, total = v.dim, v.dim * v.dim * w.dim
    constraints = []
    for s in singular_span(v).basis:
        for k, t in itertools.product(range(w.dim), range(n)):
            left, right = [0] * total, [0] * total
            for i, si in enumerate(s):
                left[k * n * n + i * n + t] = right[k * n * n + t * n + i] = si
            constraints += (left, right)
    return Subspace.from_rows(total, constraints).annihilator()


def check_curry_correspondence() -> tuple[bool, str]:
    """Per (V, W) pair: the smooth bilinear basis (hom route) equals the
    uncurried one, and on every basis row and unit form the block-row
    verdict is Smooth exactly when the form lies in that basis; smooth forms
    round-trip through curry, and curry rejects the rest."""
    spaces = []
    for n in (1, 2, 3):
        for k in range(0, min(n, 2) + 1):
            for indices in itertools.combinations(range(n), k):
                spaces.append(make_generated(n, [kink_plot(n, i) for i in indices]))
    targets = [make_fine(1), make_fine(2)]
    checked = 0
    for v in spaces:
        for w in targets:
            pair = f"{v.describe()} -> {w.describe()}"
            basis = _uncurried_smooth_basis(v, w)
            if smooth_bilinear_basis(v, w) != basis:
                return False, f"smooth bilinear basis differs from the uncurried one on {pair}"
            size = v.dim * v.dim * w.dim
            zero = form_from_flat(v, v, w, [0] * size)
            if (is_smooth_bilinear(zero) is not Verdict.SMOOTH
                    or curried_is_smooth(curry(zero)) is not Verdict.SMOOTH):
                return False, "zero form not smooth"
            for flat in basis.basis + identity(size):
                b = form_from_flat(v, v, w, flat)
                smooth = is_smooth_bilinear(b) is Verdict.SMOOTH
                if smooth != basis.contains(flat):
                    return False, f"block-row verdict disagrees with the smooth basis on {pair}"
                if smooth:
                    g = curry(b)
                    if uncurry(g) != b:
                        return False, "uncurry(curry(b)) != b"
                    if curried_is_smooth(g) is not Verdict.SMOOTH:
                        return False, "curried side lost the Smooth verdict"
                    if curry(uncurry(g)).blocks != g.blocks:
                        return False, "curry(uncurry(G)) != G"
                else:
                    try:
                        curry(b)
                        return False, "curry accepted a NotSmooth form"
                    except DiffeolinError:
                        pass
                checked += 1
    return True, (f"smooth bases equal on {len(spaces) * len(targets)} pairs; {checked} basis "
                  f"and unit forms over {len(spaces)} spaces keep their verdicts and round-trip")


# --- criterion 4: dual map smoothness ---------------------------------------

def check_dual_map_smoothness() -> tuple[bool, str]:
    """On every ordered pair of flag classes with n <= 2: the smooth maps
    V -> W number sum_i dim F_(l_i)(W) over the levels l_i of V (a fine
    direction takes all of W), and each basis map is Smooth and dualises
    onto W*, whose dimension is the number of fine levels of W."""
    classes = _flag_classes(2)
    maps = 0
    for (v_levels, v), (w_levels, w) in itertools.product(classes, repeat=2):
        pair = f"levels {v_levels} -> {w_levels}"
        basis = smooth_hom_basis(v, w)
        expected = sum(l <= e for e in v_levels for l in w_levels)
        if basis.dim != expected:
            return False, f"{basis.dim} smooth maps on {pair}, level count {expected}"
        n = v.dim
        for flat in basis.basis:
            f = LinearMap(v, w, tuple(flat[k * n:(k + 1) * n] for k in range(w.dim)))
            try:  # dual_map refuses a map whose verdict is not Smooth
                star = dual_map(f)
            except DiffeolinError as exc:
                return False, f"dual map failed on {pair}: {exc}"
            if star.domain.dim != w_levels.count(FINE):
                return False, f"dual map domain dimension wrong on {pair}"
            maps += 1
    # Counterexample: with the pushforward ("hat") dual the transpose of a
    # smooth map need not be smooth.
    for n in (2, 3):
        fine_n, coarse_n = make_fine(n), make_coarse(n)
        f = LinearMap(fine_n, coarse_n, identity(n))
        if is_smooth_linear(f) is not Verdict.SMOOTH:
            return False, "map into coarse space must be smooth"
        hat_w = hat_dual(coarse_n, identity(n))
        hat_v = hat_dual(fine_n, identity(n))
        star = LinearMap(hat_w, hat_v, transpose(f.matrix))
        report = check_smooth_linear(star)
        if report.verdict is not Verdict.NOT_SMOOTH:
            return False, f"hat-dual transpose not flagged for n={n}"
        witness = report.witness
        if witness is None:
            return False, "missing witness plot"
        if is_plot(hat_w, witness) is not Verdict.SMOOTH:
            return False, "witness is not a plot of the domain"
        if is_plot(hat_v, witness.transform(star.matrix)) is not Verdict.NOT_SMOOTH:
            return False, "witness image is unexpectedly a plot"
    return True, (f"smooth maps match the level count on {len(classes) ** 2} class pairs "
                  f"(n <= 2); {maps} basis maps dualise; hat-dual transpose flagged with witness")


# --- criterion 5: tensor dual multiplicativity ------------------------------

def _grid_spaces() -> list[DiffSpace]:
    spaces = []
    for n in (1, 2, 3):
        spaces.append(make_fine(n))
        spaces.append(make_coarse(n))
        spaces.append(_kink_space(n, 1))
        if n >= 2:
            spaces.append(_kink_space(n, 2))
    return spaces


def check_tensor_dual_multiplicativity() -> tuple[bool, str]:
    cells = 0
    for v, w in itertools.product(_grid_spaces(), repeat=2):
        iso = tensor_dual_iso(v, w)
        if iso.codomain_dim != iso.domain_dim:
            return False, (
                f"dim (V (x) W)* = {iso.codomain_dim} != {iso.domain_dim} for "
                f"{v.describe()} (x) {w.describe()}"
            )
        cells += 1
    return True, f"dim (V (x) W)* = dim V* * dim W* with an isomorphism on {cells} grid cells"


# --- criterion 6: non-isomorphism reproductions -----------------------------

def check_non_isomorphisms() -> tuple[bool, str]:
    v, w = make_coarse(2), make_fine(1)
    f_cmp = hat_f(v, w)
    if (f_cmp.tensor_dim, f_cmp.hom_dim) != (2, 0) or f_cmp.isomorphic is not False:
        return False, f"hat_f comparison got {f_cmp.tensor_dim} vs {f_cmp.hom_dim}"
    g_cmp = hat_g(v, w)
    if (g_cmp.tensor_dim, g_cmp.hom_dim) != (2, 2) or g_cmp.isomorphic is not True:
        return False, f"hat_g comparison got {g_cmp.tensor_dim} vs {g_cmp.hom_dim}"
    endo = endo_remark_check(v)
    if (endo.dual_tensor_dim, endo.endo_hom_dim) != (0, 4) or endo.equal is not False:
        return False, f"endo comparison got {endo.dual_tensor_dim} vs {endo.endo_hom_dim}"
    fine3 = endo_remark_check(make_fine(3))
    if (fine3.dual_tensor_dim, fine3.endo_hom_dim) != (9, 9) or fine3.equal is not True:
        return False, "fine endo comparison broken"
    return True, "coarse plane: V (x) W is 2 vs 0 smooth maps; V* (x) V is 0 vs 4 endomorphisms"


# --- criterion 7: distributivity --------------------------------------------

def check_distributivity() -> tuple[bool, str]:
    rng = random.Random(VERIFY_SEED + 7)
    for trial in range(50):
        v1, v2, v3 = (_random_space(rng, 3) for _ in range(3))
        t = distribute(v1, v2, v3)
        if is_smooth_linear(t) is not Verdict.SMOOTH:
            return False, f"forward map not Smooth at trial {trial}"
        if is_smooth_linear(inverse_map(t)) is not Verdict.SMOOTH:
            return False, f"inverse map not Smooth at trial {trial}"
        if singular_span(t.domain).dim != singular_span(t.codomain).dim:
            return False, f"singular span dimensions differ at trial {trial}"
    return True, "50 random triples: both directions Smooth, singular spans match"


# --- criterion 8: oracle agreement ------------------------------------------

def _random_expression(rng: random.Random) -> FunctionExpr:
    terms = []
    for _ in range(rng.randint(1, 6)):
        atoms = _ABS_ATOMS if rng.random() < 0.5 else _ATOMS
        coeff = rng.choice(rng.choice(_COEFFICIENTS))
        terms.append((rng.choice(atoms), coeff))
    return FunctionExpr(terms)


def check_oracle_agreement() -> tuple[bool, str]:
    for d in range(7):
        if not classify(FunctionExpr.monomial(d)).smooth:
            return False, f"x^{d} misclassified"
        result = classify(FunctionExpr.abs_monomial(d))
        if result.failing_order != d + 2:
            return False, f"|x|*x^{d} failing order {result.failing_order}, expected {d + 2}"
    rng = random.Random(VERIFY_SEED + 8)
    disagreements = []
    for trial in range(1000):
        expr = _random_expression(rng)
        if classify(expr).smooth != expr.is_smooth():
            disagreements.append(trial)
    if disagreements:
        return False, f"{len(disagreements)} of 1000 disagree; trials {disagreements[:5]}"
    return True, "atom basis exact (fails at degree + 2); 100.0% agreement on 1000 random expressions"


# --- criterion 9: hat-dual well-posedness -----------------------------------

def check_hat_dual_wellposedness() -> tuple[bool, str]:
    """On every flag class with n <= 2, iso1 (unit upper triangular) and
    iso2 = iso1 * A with A = I + [l_i < l_j] push forward to one diffeology:
    A maps each F_e onto itself."""
    classes = _flag_classes(2)
    for levels, space in classes:
        n = space.dim
        iso1 = tuple(tuple(Fraction(i <= j) for j in range(n)) for i in range(n))
        a = tuple(tuple(Fraction(i == j or levels[i] < levels[j]) for j in range(n))
                  for i in range(n))
        if not hat_dual_wellposed(space, iso1, matmul(iso1, a)).consistent:
            return False, f"diffeologies differ on levels {levels}"
    # Counterexample: swapping the coordinates of the kink plane moves F_0.
    space, swap = _kink_space(2, 1), identity(2)[::-1]
    report = hat_dual_wellposed(space, identity(2), swap)
    witness = report.forward.witness
    if (report.consistent or witness is None
            or is_plot(hat_dual(space, identity(2)), witness) is not Verdict.SMOOTH
            or is_plot(hat_dual(space, swap), witness) is not Verdict.NOT_SMOOTH):
        return False, "the swap on the kink plane is not shown by a separating witness"
    return True, (f"iso1 and iso1 * A push forward to one diffeology on {len(classes)} "
                  "flag classes (n <= 2); the swap on the kink plane changes it, with a witness")


# --- suite -----------------------------------------------------------------

CHECKS = (
    ("dual-dimensions", check_dual_dimensions),
    ("bilinear-vanishing", check_bilinear_vanishing),
    ("curry-correspondence", check_curry_correspondence),
    ("dual-map-smoothness", check_dual_map_smoothness),
    ("tensor-dual-multiplicativity", check_tensor_dual_multiplicativity),
    ("non-isomorphism-reproductions", check_non_isomorphisms),
    ("distributivity", check_distributivity),
    ("oracle-agreement", check_oracle_agreement),
    ("hat-dual-wellposedness", check_hat_dual_wellposedness),
)


def run_checks(space_file: SpaceFile) -> list[CheckResult]:
    """Run the whole suite; ``space_file`` supplies the named anchor spaces,
    which are sanity-checked first."""
    return ([_timed("space-file-anchors", lambda: _check_anchors(space_file))]
            + [_timed(name, fn) for name, fn in CHECKS])


def _check_anchors(space_file: SpaceFile) -> tuple[bool, str]:
    """The bundled example spaces reproduce their expected dual dimensions
    and map verdicts."""
    expectations = {
        "fine1": 1, "fine2": 2, "fine3": 3,
        "coarse2": 0, "coarse3": 0,
        "kink2_1": 1, "kink3_1": 2, "kink4_2": 2,
        "mixed2": 1,
    }
    for name, expected in expectations.items():
        space = space_file.space(name)
        actual = diffeological_dual(space).dim
        if actual != expected:
            return False, f"space {name}: dual dim {actual}, expected {expected}"
    verdicts = {
        "example_functional": Verdict.NOT_SMOOTH,
        "fine_to_coarse2": Verdict.SMOOTH,
        "second_coordinate": Verdict.SMOOTH,
        "first_coordinate": Verdict.NOT_SMOOTH,
    }
    for name, expected in verdicts.items():
        if is_smooth_linear(space_file.map(name)) is not expected:
            return False, f"map {name}: expected {expected.value}"
    return True, f"{len(expectations)} spaces and {len(verdicts)} maps match their pinned verdicts"
