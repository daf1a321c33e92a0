"""Per-layer tracing from outside the engine.

Wraps the public functions and methods of every ``diffeolin`` module (the
layers) and rebinds each wrapped name in every ``diffeolin`` module that
holds it, because ``from .linalg import rref`` binds names at import time.
A call stack gives every wrapped call its self time (duration minus the
time of wrapped calls inside it).  Counts and self time are aggregated per
function in memory; spans are recorded only for benchmark ops, for calls
made directly from the benchmark and for the verify checks, so hot leaves
such as ``FunctionExpr.evaluate`` do not flood memory.  Nothing is wrapped
unless ``install`` is called, and ``uninstall`` restores every binding.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# Public functions, methods ("Class.name") and properties wrapped per layer.
# Tiny constructors and inner leaves (vector, dot, Atom.evaluate, ...) stay
# unwrapped: their time counts as the self time of the wrapped caller.
PUBLIC = {
    "linalg": ("rref", "rank", "nullspace", "solve", "invert", "in_row_span", "matvec",
               "matmul", "kron", "kron_vector", "transpose", "Subspace.from_rows",
               "Subspace.contains", "Subspace.contains_subspace", "Subspace.add",
               "Subspace.map_by", "Subspace.annihilator"),
    "atoms": ("FunctionExpr.evaluate", "FunctionExpr.evaluate_float", "FunctionExpr.__add__",
              "FunctionExpr.__mul__", "FunctionExpr.scale", "FunctionExpr.compose_scale",
              "FunctionExpr.singular_residue"),
    "exprparse": ("parse_expr", "format_expr"),
    "spacefile": ("load_space_file", "load_space_document", "parse_rational"),
    "spaces": ("presentation", "singular_span", "is_plot", "separating_functional",
               "make_fine", "make_coarse", "make_generated", "direct_sum", "kink_plot",
               "row_plot", "combine_verdicts", "default_slack_degree", "Plot.residue_rows",
               "Plot.transform", "Plot.slice", "Presentation.singular_span",
               "Presentation.rows_up_to"),
    "hom": ("diffeological_dual", "represent_dual", "check_smooth_linear",
            "is_smooth_linear", "identity_map", "smooth_hom_basis", "dual_map", "hat_dual",
            "hat_dual_wellposed", "LinearMap.apply", "LinearMap.compose"),
    "bilinear": ("is_smooth_bilinear", "smooth_bilinear_basis", "curry", "uncurry",
                 "curried_is_smooth", "form_from_flat", "BilinearForm.apply",
                 "BilinearForm.left_slice", "BilinearForm.right_slice"),
    "tensor": ("tensor_product", "product_plot", "tensor_of_maps", "distribute",
               "inverse_map", "tensor_dual_iso", "hat_f", "hat_g", "endo_remark_check",
               "TensorDualIso.injective", "TensorDualIso.isomorphism"),
    "oracle": ("classify", "cross_validate"),
    "verify": ("run_checks", "_check_anchors", "check_dual_dimensions",
               "check_bilinear_vanishing", "check_curry_correspondence",
               "check_dual_map_smoothness", "check_tensor_dual_multiplicativity",
               "check_non_isomorphisms", "check_distributivity", "check_oracle_agreement",
               "check_hat_dual_wellposedness"),
    "cli": ("main", "build_parser"),
}
LAYERS = tuple(PUBLIC)
PACKAGE = "diffeolin"


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}   # name -> [calls, self seconds]
        self.spans: list = []              # (name, start, end, parent span id)
        self._stack: list = []             # [child time, name] of open calls
        self._open: list = []              # ids of open recorded spans
        self._restore: list = []           # (owner, attribute, original)
        self.rref_cells = 0
        self.rref_in_contains = 0
        self.presented: set = set()
        self.plot_unknown = 0
        self.classify_orders = 0

    # --- spans for benchmark ops --------------------------------------------

    def op_begin(self, name: str) -> tuple:
        sid = len(self.spans)
        self.spans.append(None)
        self._open.append(sid)
        return sid, name, time.perf_counter()

    def op_end(self, token: tuple) -> None:
        sid, name, start = token
        self._open.pop()
        self.spans[sid] = (name, start, time.perf_counter(), None)

    # --- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0])
        stack, spans, open_spans = self._stack, self.spans, self._open
        always_span = name.startswith("verify.check_") or name == "verify._check_anchors"
        hook = getattr(self, "_hook_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                args = hook(args)
            sid = None
            if always_span or not stack:
                sid = len(spans)
                spans.append(None)
                parent = open_spans[-1] if open_spans else None
                open_spans.append(sid)
            frame = [0.0, name]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if sid is not None:
                    open_spans.pop()
                    spans[sid] = (name, start, start + elapsed, parent)
            if after is not None:
                after(result)
            return result

        return wrapper

    def _after_spaces_is_plot(self, verdict) -> None:
        if verdict.value == "Unknown":
            self.plot_unknown += 1

    def _after_oracle_classify(self, classification) -> None:
        self.classify_orders += classification.checked_order

    def _hook_linalg_rref(self, args):
        rows = args[0] if isinstance(args[0], (list, tuple)) else tuple(args[0])
        self.rref_cells += sum(len(r) for r in rows)
        if any(frame[1] == "linalg.Subspace.contains" for frame in self._stack):
            self.rref_in_contains += 1
        return (rows,) + args[1:]

    def _hook_spaces_presentation(self, args):
        self.presented.add(args[0])
        return args

    def install(self) -> None:
        """Wrap every PUBLIC entry and rebind it wherever a module holds it."""
        replaced = {}
        for layer, names in PUBLIC.items():
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for dotted in names:
                full = f"{layer}.{dotted}"
                if "." in dotted:
                    cls_name, attr = dotted.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, staticmethod):
                        new = staticmethod(self._wrap(full, raw.__func__))
                    elif isinstance(raw, property):
                        new = property(self._wrap(full, raw.fget))
                    else:
                        new = self._wrap(full, raw)
                    for alias, value in list(cls.__dict__.items()):
                        if value is raw:   # e.g. FunctionExpr.__rmul__ = __mul__
                            self._restore.append((cls, alias, raw))
                            setattr(cls, alias, new)
                else:
                    original = getattr(module, dotted)
                    replaced[id(original)] = (original, self._wrap(full, original))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                entry = replaced.get(id(value))
                if entry is not None and entry[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, entry[1])
        verify = sys.modules[f"{PACKAGE}.verify"]
        self._restore.append((verify, "CHECKS", verify.CHECKS))
        verify.CHECKS = tuple((name, getattr(verify, fn.__name__)) for name, fn in verify.CHECKS)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # --- results ------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0])[0]

    def layer_self(self, layer: str) -> float:
        return sum(s for name, (_, s) in self.stats.items() if name.startswith(layer + "."))

    def metrics(self, traced_wall: float) -> dict:
        """Per-layer metrics (name -> (value, unit)) for ``traced_wall``
        seconds of traced passes."""
        m = {f"{layer}.self_s": (self.layer_self(layer), "s") for layer in LAYERS}
        rref = self.calls("linalg.rref")
        contains = self.calls("linalg.Subspace.contains")
        pres = self.calls("spaces.presentation")
        m.update({
            "linalg.rref.calls": (rref, "count"),
            "linalg.rref.cells": (self.rref_cells, "count"),
            "linalg.contains.calls": (contains, "count"),
            "linalg.contains.rref_per_call": (self.rref_in_contains / contains if contains else 0.0,
                                              "ratio"),
            "linalg.solve.calls": (self.calls("linalg.solve"), "count"),
            "linalg.invert.calls": (self.calls("linalg.invert"), "count"),
            "linalg.nullspace.calls": (self.calls("linalg.nullspace"), "count"),
            "spaces.presentation.calls": (pres, "count"),
            "spaces.presentation.distinct": (len(self.presented), "count"),
            "spaces.presentation.repeat_ratio": ((pres - len(self.presented)) / pres if pres else 0.0,
                                                 "ratio"),
            "spaces.singular_span.calls": (self.calls("spaces.singular_span"), "count"),
            "spaces.is_plot.calls": (self.calls("spaces.is_plot"), "count"),
            "spaces.is_plot.unknown": (self.plot_unknown, "count"),
            "hom.check_smooth_linear.calls": (self.calls("hom.check_smooth_linear"), "count"),
            "hom.diffeological_dual.calls": (self.calls("hom.diffeological_dual"), "count"),
            "tensor.tensor_product.calls": (self.calls("tensor.tensor_product"), "count"),
            "tensor.tensor_dual_iso.calls": (self.calls("tensor.tensor_dual_iso"), "count"),
            "bilinear.is_smooth_bilinear.calls": (self.calls("bilinear.is_smooth_bilinear"), "count"),
            "oracle.classify.calls": (self.calls("oracle.classify"), "count"),
            "oracle.classify.orders": (self.classify_orders, "count"),
            "atoms.evaluate.calls": (self.calls("atoms.FunctionExpr.evaluate"), "count"),
            "atoms.evaluate_float.calls": (self.calls("atoms.FunctionExpr.evaluate_float"), "count"),
            "exprparse.parse_expr.calls": (self.calls("exprparse.parse_expr"), "count"),
        })
        inside = sum(s for _, s in self.stats.values())
        m["trace.wall_s"] = (traced_wall, "s")
        m["trace.outside_s"] = (traced_wall - inside, "s")
        return m

    def write(self, path: str, extra: dict) -> None:
        doc = dict(extra)
        doc["functions"] = {name: {"calls": c, "self_s": s}
                            for name, (c, s) in sorted(self.stats.items())}
        doc["spans"] = [{"name": n, "start": a, "end": b, "parent": p}
                        for n, a, b, p in filter(None, self.spans)]
        with open(path, "w") as fh:
            json.dump(doc, fh)
