"""The benchmark's workloads.

Each workload turns a seed into passes of operations.  An operation calls
the engine's public API only; its answer is graded against a reference that
``inputs`` derived from how the input was built.  Pass 0 is built during
set-up; later passes are built between passes, outside the timed region,
so that fresh inputs stay fresh when a pass repeats.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import inputs as I

DEFINITE = ("Smooth", "NotSmooth")


@dataclass(frozen=True)
class Op:
    """One closed-loop query: ``call`` runs the engine and returns raw answer
    fields; ``expected`` holds one reference per field (None: the field is
    recorded in the verdict digest but has no independent reference)."""

    kind: str
    call: Callable[[], tuple]
    expected: tuple


def canonical(x):
    """JSON-ready form of an answer field, read through plain attributes only
    (no engine call), so grading adds nothing to a traced run."""
    if isinstance(getattr(x, "value", None), str):      # Verdict
        return x.value
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (tuple, list)):
        return [canonical(v) for v in x]
    if hasattr(x, "components"):                         # Plot
        return canonical(x.components)
    if hasattr(x, "terms"):                              # FunctionExpr
        return [[a.is_abs, a.degree, str(c)] for a, c in x.terms]
    return x


def answer_text(fields: tuple) -> str:
    """Canonical text of an answer, the unit of the verdict digest."""
    return json.dumps(canonical(fields))


def grade(fields: tuple, expected: tuple) -> str:
    """'ok', 'unknown' (definite truth, engine said Unknown) or 'error'."""
    status = "ok"
    for got, want in zip(fields, expected):
        got = canonical(got)
        if want is None or got == want:
            continue
        if got == "Unknown" and want in DEFINITE:
            status = "unknown"
            continue
        return "error"
    return status


def _expr(dl, f: dict):
    return dl.FunctionExpr([(dl.Atom(a, d), c) for (a, d), c in f.items()])


def _plot(dl, comps: list):
    return dl.Plot([_expr(dl, f) for f in comps])


def _space(dl, spec: I.GenSpec):
    return dl.make_generated(spec.n, [_plot(dl, g) for g in spec.generators])


# --- tensor64 ---------------------------------------------------------------

# (left dim, left directions, right dim, right directions); every product is
# 64-dimensional and every random pair presents 24 singular rows.
TENSOR_SHAPES = {"full": ((8, 2, 8, 1), (16, 2, 4, 1), (4, 1, 16, 2)),
                 "toy": ((4, 1, 4, 1), (8, 1, 2, 1), (2, 1, 8, 1))}
ANCHOR = {"full": (8, 4, 8, 1), "toy": (4, 2, 4, 1)}


def _tensor_functional(rng: random.Random, v: I.GenSpec, w: I.GenSpec, smooth: bool):
    """A functional on V (x) W: a combination of products of annihilating
    functionals, which kills S(V) (x) R^m + R^n (x) S(W); the NotSmooth ones
    add detector(i) (x) psi, which is 1 on U[i] (x) W-row for a free row."""
    ann_v, ann_w = v.annihilator(), w.annihilator()
    pairs = [I.kron_vec(a, b) for a in ann_v[:2] for b in ann_w[:2]]
    phi = I.lin_comb(rng, pairs, v.n * w.n)
    if not smooth:
        kinked = I.kron_vec(v.detector(rng.choice(v.indices)), rng.choice(ann_w))
        phi = tuple(a + b for a, b in zip(phi, kinked))
    return phi


def _tensor_op(dl, v_spec: I.GenSpec, w_spec: I.GenSpec, smooth: bool, rng) -> Op:
    v, w = _space(dl, v_spec), _space(dl, w_spec)
    phi = _tensor_functional(rng, v_spec, w_spec, smooth)
    dual = v_spec.dual_dim * w_spec.dual_dim
    line = dl.make_fine(1)

    def call():
        t = dl.tensor_product(v, w)
        ident = dl.is_smooth_linear(dl.identity_map(t))
        functional = dl.is_smooth_linear(dl.LinearMap(t, line, (phi,)))
        dual_t = dl.diffeological_dual(t)
        iso = dl.tensor_dual_iso(v, w)
        return (t.dim, ident, functional, dual_t.dim, dual_t.annihilator_basis.basis,
                iso.domain_dim, iso.codomain_dim, iso.isomorphism, iso.matrix)

    expected = (v_spec.n * w_spec.n, "Smooth", "Smooth" if smooth else "NotSmooth",
                dual, None, dual, dual, True, None)
    return Op("tensor", call, expected)


class Tensor64:
    """One op is one factor pair with a 64-dimensional tensor product; a
    pass is the ROADMAP anchor kink(8,4) (x) kink(8,1) followed by one pair
    of each shape.  The oracle does no work here."""

    name = "tensor64"

    def __init__(self, dl, seed: int, size: str, workdir: str):
        self.dl, self.seed, self.size = dl, seed, size
        self.passes = {0: self.build_pass(0)}

    def build_pass(self, p: int) -> list[Op]:
        rng = random.Random(f"{self.seed}:tensor64:{p}")
        n, k, m, j = ANCHOR[self.size]
        ops = [_tensor_op(self.dl, I.kink_spec(n, k), I.kink_spec(m, j), p % 2 == 0, rng)]
        for i, (n, k, m, j) in enumerate(TENSOR_SHAPES[self.size], start=1):
            v, w = I.gen_spec(rng, n, k), I.gen_spec(rng, m, j)
            ops.append(_tensor_op(self.dl, v, w, (p + i) % 2 == 0, rng))
        return ops


# --- plot-queries -------------------------------------------------------------

# (descriptor, dims of its generated parts): fixed, so that seeds vary the
# coefficients and the query mix but not the sizes of the pool.
POOL_SHAPES = (("generated", (12,)), ("generated", (8,)), ("sum", (4, 4)),
               ("sum", (6, 6)), ("hat", (6,)), ("hat", (9,)))
POOL_COPIES = 3            # pool spaces per shape
BLOCKS = {"full": 30, "toy": 2}
# One block of 20 queries: 4 build a fresh space (a 20% share), 16 use the
# pool; half are is_plot (candidate kinds 4:3:3), half check_smooth_linear
# of a functional (Smooth:NotSmooth 1:1).  Exact counts, shuffled, keep the
# mix identical across passes and seeds.
BLOCK_SOURCES = ("fresh",) * 4 + ("pool",) * 16
BLOCK_QUERIES = (("plot",) * 4 + ("foreign",) * 3 + ("early",) * 3
                 + ("smooth",) * 5 + ("kinked",) * 5)


@dataclass(frozen=True)
class SpaceModel:
    """How a space was built: its generated parts and, for a hat dual, the
    isomorphism it was pushed along and the inverse transpose of that."""

    kind: str
    parts: tuple
    iso: tuple | None = None
    iso_inv_t: tuple | None = None

    def candidate(self, rng: random.Random, kind: str) -> tuple[list, str]:
        """Curve of the given kind and its true membership ('Smooth' = plot)."""
        side = rng.randrange(len(self.parts))
        comps = []
        for i, spec in enumerate(self.parts):
            part = I.plot_of(rng, spec)
            if i == side and kind != "plot":
                extra = (I.foreign_kink if kind == "foreign" else I.early_kink)(rng, spec)
                part = [I.f_add(a, b) for a, b in zip(part, extra)]
            comps.extend(part)
        if self.iso is not None:
            comps = I.apply_matrix(self.iso, comps)
        return comps, "Smooth" if kind == "plot" else "NotSmooth"

    def functional(self, rng: random.Random, smooth: bool) -> tuple:
        side = rng.randrange(len(self.parts))
        phi = []
        for i, spec in enumerate(self.parts):
            make = I.kinked_functional if (i == side and not smooth) else I.smooth_functional
            phi.extend(make(rng, spec))
        if self.iso_inv_t is not None:
            phi = [I.dot(row, phi) for row in self.iso_inv_t]
        return tuple(phi)


def _model(rng: random.Random, shape: tuple) -> SpaceModel:
    kind, dims = shape
    parts = tuple(I.gen_spec(rng, n, max(1, n // 3)) for n in dims)
    if kind != "hat":
        return SpaceModel(kind, parts)
    base = parts[0]
    lower, upper = I.unit_upper(rng, base.n), I.unit_upper(rng, base.n)
    iso = I.matmul(I.transpose(lower), upper)
    # iso^-1 = upper^-1 lower^-T, so iso^-T = lower^-1 upper^-T.
    inv_t = I.matmul(I.inv_unit_upper(lower), I.transpose(I.inv_unit_upper(upper)))
    return SpaceModel(kind, (base,), iso, inv_t)


class PlotQueries:
    """Many small is_plot / check_smooth_linear queries on 6-12 dimensional
    spaces.  The pool is loaded from a generated space file during set-up;
    a fifth of the queries build a brand-new space inside the query."""

    name = "plot-queries"

    def __init__(self, dl, seed: int, size: str, workdir: str):
        self.dl, self.seed, self.size = dl, seed, size
        rng = random.Random(f"{seed}:plot-queries:pool")
        self.models = [_model(rng, shape) for shape in POOL_SHAPES for _ in range(POOL_COPIES)]
        path = os.path.join(workdir, f"plot-queries-{seed}.json")
        self._write_space_file(path)
        loaded = dl.load_space_file(path)
        self.pool = [self._assemble(m, [loaded.space(f"s{i}p{j}") for j in range(len(m.parts))])
                     for i, m in enumerate(self.models)]
        self.line = dl.make_fine(1)
        self.passes = {0: self.build_pass(0)}

    def _write_space_file(self, path: str) -> None:
        spaces = {}
        for i, m in enumerate(self.models):
            for j, spec in enumerate(m.parts):
                gens = [[I.f_text(f) for f in g] for g in spec.generators]
                spaces[f"s{i}p{j}"] = {"dim": spec.n, "diffeology": {"generated": gens}}
        with open(path, "w") as fh:
            json.dump({"spaces": spaces}, fh)

    def _assemble(self, model: SpaceModel, parts: list):
        if model.kind == "sum":
            return self.dl.direct_sum(*parts)
        if model.kind == "hat":
            return self.dl.hat_dual(parts[0], model.iso)
        return parts[0]

    def build_pass(self, p: int) -> list[Op]:
        dl = self.dl
        rng = random.Random(f"{self.seed}:plot-queries:{p}")
        sources = list(BLOCK_SOURCES * BLOCKS[self.size])
        queries = list(BLOCK_QUERIES * BLOCKS[self.size])
        rng.shuffle(sources)
        rng.shuffle(queries)
        pool_order = []
        ops = []
        for source, query in zip(sources, queries):
            if source == "fresh":
                model = _model(rng, rng.choice(POOL_SHAPES))
                parts = [[_plot(dl, g) for g in spec.generators] for spec in model.parts]
                get_space = self._fresh_builder(model, parts)
            else:
                if not pool_order:
                    pool_order = list(range(len(self.pool)))
                    rng.shuffle(pool_order)
                i = pool_order.pop()
                model, get_space = self.models[i], (lambda s=self.pool[i]: s)
            if query in ("smooth", "kinked"):
                phi = model.functional(rng, query == "smooth")
                line = self.line
                call = (lambda g=get_space, row=phi:
                        _report(dl.check_smooth_linear(dl.LinearMap(g(), line, (row,)))))
                ops.append(Op(f"functional/{source}", call,
                              ("Smooth" if query == "smooth" else "NotSmooth", None, None)))
            else:
                comps, truth = model.candidate(rng, query)
                call = (lambda g=get_space, c=_plot(dl, comps): (dl.is_plot(g(), c),))
                ops.append(Op(f"is_plot/{source}", call, (truth,)))
        return ops

    def _fresh_builder(self, model: SpaceModel, parts: list):
        dl = self.dl
        dims = [spec.n for spec in model.parts]

        def build():
            spaces = [dl.make_generated(n, plots) for n, plots in zip(dims, parts)]
            if model.kind == "sum":
                return dl.direct_sum(*spaces)
            if model.kind == "hat":
                return dl.hat_dual(spaces[0], model.iso)
            return spaces[0]

        return build


def _report(report) -> tuple:
    return report.verdict, report.witness, report.reason


# --- verify -------------------------------------------------------------------

class Verify:
    """`diffeolin --json verify` through the CLI entry point, in-process.
    One op is one check; the suite is fixed by VERIFY_SEED, so the
    benchmark seed is ignored."""

    name = "verify"

    def __init__(self, dl, seed: int, size: str, workdir: str):
        self.dl = dl
        self.passes = {}

    def run_pass(self) -> tuple[list, dict]:
        """Run the suite once; return the per-check records and the JSON
        document (exit code under ``"exit_code"``)."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.dl.cli.main(["--json", "verify"])
        doc = json.loads(buf.getvalue())
        doc["exit_code"] = code
        return doc["result"]["checks"], doc


def verify_digest_text(doc: dict) -> str:
    """The verify document with every ``elapsed`` removed and the bundled
    file path reduced to its base name, so it is equal across checkouts."""
    clean = json.loads(json.dumps(doc))
    for check in clean["result"]["checks"]:
        check.pop("elapsed", None)
    if "file" in clean.get("inputs", {}):
        clean["inputs"]["file"] = os.path.basename(clean["inputs"]["file"])
    return json.dumps(clean, sort_keys=True)


WORKLOADS = {w.name: w for w in (Tensor64, PlotQueries, Verify)}

