"""Command-line interface.

Subcommands expose the library computations over a space-definition file and
print human-readable summaries, or a stable JSON document with ``--json``.
Every plot and map verdict is definite: Plot or NotPlot, Smooth or
NotSmooth.  Exit codes: 0 on success, 1 on a failed verification, 2 on
input errors, each error reported on one ``error:`` line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from importlib import resources

from .bilinear import smooth_bilinear_basis
from .exprparse import ParseError, format_expr, parse_expr
from .hom import (
    check_smooth_linear,
    diffeological_dual,
    hat_dual,
    smooth_hom_basis,
)
from .oracle import Classification, classify, cross_validate
from .spacefile import SpaceFile, SpaceFileError, load_space_file, parse_rational
from .spaces import (
    DiffeolinError,
    Plot,
    Verdict,
    is_plot,
    singular_span,
)
from .tensor import tensor_dual_iso, tensor_product
from .verify import run_checks


# Bounds on the work one command takes on, so that no input makes it hang:
# the flattened unknowns of hom and tensor (dim V * dim W) and of bilinear
# (dim V^2 * dim W), the number of cross-validate trials, and the length of
# the --iso text, 128 KiB, the most that Linux passes as one argument.
MAX_UNKNOWNS = 1024
MAX_TRIALS = 10_000
MAX_ISO_CHARS = 131_072


class InputError(ValueError):
    pass


def _usage_error(parser: argparse.ArgumentParser, message: str):
    """argparse's ``error`` hook.  A usage error (missing argument, malformed
    value, unknown option) becomes an ``InputError``, so ``main`` reports it
    on one ``error:`` line and returns 2, where argparse would print the
    usage and exit."""
    raise InputError(f"{parser.prog}: {message}")


class _Parser(argparse.ArgumentParser):
    """The argument parser with ``_usage_error`` as its error hook; the
    subcommand parsers inherit the class and with it the hook."""

    error = _usage_error


def _check_unknowns(command: str, unknowns: int) -> None:
    if unknowns > MAX_UNKNOWNS:
        raise InputError(f"{command}: {unknowns} unknowns exceed the limit of {MAX_UNKNOWNS}")


def _jsonify(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)  # "inf" / "-inf": JSON has no literal for them
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, Verdict):
        return value.value
    return value


def _default_space_file() -> str:
    return str(resources.files("diffeolin").joinpath("data/paper_examples.json"))


def _load(args) -> SpaceFile:
    return load_space_file(args.file or _default_space_file())


def _parse_matrix_text(text: str):
    try:
        rows = json.loads(text)
    # A JSONDecodeError, an int past Python's digit limit, or a
    # RecursionError from nesting past the recursion limit.
    except (ValueError, RecursionError) as exc:
        raise InputError(f"matrix must be JSON rows: {exc}") from exc
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise InputError("matrix must be a list of rows")
    return tuple(tuple(parse_rational(x) for x in row) for row in rows)


def _parse_functional(text: str):
    return tuple(parse_rational(part.strip()) for part in text.split(","))


def _basis_lines(basis) -> list[str]:
    return ["  [" + ", ".join(str(x) for x in row) + "]" for row in basis]


def _classification_record(expression: str, result: Classification) -> dict:
    return {
        "expression": expression,
        "order": result.failing_order,
        "scale": result.scale,
        "value": result.value,
        "verdict": result.label(),
    }


# --- command handlers ------------------------------------------------------

def _cmd_dual(args, out):
    spaces = _load(args)
    space = spaces.space(args.space)
    dual = diffeological_dual(space)
    out.human(f"space: {space.describe()}")
    out.human(f"dim V* = {dual.dim}")
    if dual.annihilator_basis.basis:
        out.human("annihilator basis (rows):")
        for line in _basis_lines(dual.annihilator_basis.basis):
            out.human(line)
    out.payload(
        inputs={"space": args.space},
        result={
            "dual_dim": dual.dim,
            "annihilator_basis": dual.annihilator_basis.basis,
        },
    )
    return 0


def _cmd_hom(args, out):
    spaces = _load(args)
    v, w = spaces.space(args.domain), spaces.space(args.codomain)
    _check_unknowns("hom", v.dim * w.dim)
    basis = smooth_hom_basis(v, w)
    out.human(f"smooth linear maps {v.describe()} -> {w.describe()}")
    out.human(f"dim L^inf(V, W) = {basis.dim} (of {v.dim * w.dim} linear maps)")
    out.payload(
        inputs={"domain": args.domain, "codomain": args.codomain},
        result={"hom_dim": basis.dim, "linear_dim": v.dim * w.dim, "basis": basis.basis},
    )
    return 0


def _cmd_bilinear(args, out):
    spaces = _load(args)
    v, w = spaces.space(args.domain), spaces.space(args.codomain)
    _check_unknowns("bilinear", v.dim * v.dim * w.dim)
    basis = smooth_bilinear_basis(v, w)
    out.human(f"smooth bilinear maps {v.describe()} x (same) -> {w.describe()}")
    out.human(f"dim B^inf(V, W) = {basis.dim} (of {v.dim * v.dim * w.dim} bilinear maps)")
    out.payload(
        inputs={"domain": args.domain, "codomain": args.codomain},
        result={"bilinear_dim": basis.dim, "full_dim": v.dim * v.dim * w.dim},
    )
    return 0


def _cmd_tensor(args, out):
    spaces = _load(args)
    v, w = spaces.space(args.left), spaces.space(args.right)
    _check_unknowns("tensor", v.dim * w.dim)
    t = tensor_product(v, w)
    dual, span = diffeological_dual(t), singular_span(t)
    out.human(f"tensor product: {t.describe()}")
    out.human(f"dim = {t.dim}, singular span dim = {span.dim}, dual dim = {dual.dim}")
    result = {
        "dim": t.dim,
        "singular_dim": span.dim,
        "dual_dim": dual.dim,
    }
    if args.dual_iso:
        iso = tensor_dual_iso(v, w)
        flags = {"domain_dim": iso.domain_dim, "codomain_dim": iso.codomain_dim,
                 "injective": iso.injective, "isomorphism": iso.isomorphism}
        out.human(
            f"dual isomorphism: {iso.domain_dim} x {iso.codomain_dim}, "
            f"injective={flags['injective']}, isomorphism={flags['isomorphism']}"
        )
        result["dual_iso"] = flags
    out.payload(inputs={"left": args.left, "right": args.right}, result=result)
    return 0


def _cmd_check_map(args, out):
    spaces = _load(args)
    f = spaces.map(args.map)
    report = check_smooth_linear(f)
    out.human(f"map {args.map}: {f.domain.describe()} -> {f.codomain.describe()}")
    out.human(f"verdict: {report.verdict.value}")
    witness = None
    if report.witness is not None:
        witness = [format_expr(c) for c in report.witness.components]
        out.human("witness plot: (" + ", ".join(witness) + ")")
    out.payload(
        inputs={"map": args.map},
        result={"reason": report.reason, "witness": witness},
        verdicts={"smooth": report.verdict},
    )
    return 0


def _cmd_check_plot(args, out):
    spaces = _load(args)
    space = spaces.space(args.space)
    if len(args.expr) != space.dim:
        raise InputError(
            f"space {args.space!r} needs {space.dim} coordinate expressions, got {len(args.expr)}"
        )
    plot = Plot([parse_expr(text) for text in args.expr])
    label = is_plot(space, plot).plot_label()
    out.human(f"candidate in {space.describe()}: {label}")
    out.payload(
        inputs={"space": args.space, "expressions": list(args.expr)},
        result={},
        verdicts={"plot": label},
    )
    return 0


def _cmd_hat_dual(args, out):
    if len(args.iso) > MAX_ISO_CHARS:
        raise InputError(f"--iso has {len(args.iso)} characters, over the limit of {MAX_ISO_CHARS}")
    spaces = _load(args)
    space = spaces.space(args.space)
    iso = _parse_matrix_text(args.iso)
    try:
        hat = hat_dual(space, iso)
    except DiffeolinError as exc:
        raise InputError(f"--iso: {exc}") from exc
    span = singular_span(hat)
    out.human(f"hat dual of {space.describe()}: {hat.describe()}")
    out.human(f"singular span dim = {span.dim}, annihilator dim = {space.dim - span.dim}")
    out.payload(
        inputs={"space": args.space, "iso": iso},
        result={"dim": hat.dim, "singular_dim": span.dim},
    )
    return 0


def _cmd_oracle(args, out):
    expr = parse_expr(args.expr)
    record = _classification_record(format_expr(expr), classify(expr))
    out.human(f"{record['expression']}: {record['verdict']}")
    out.payload(inputs={"expression": args.expr}, result=record)
    return 0


def _cmd_cross_validate(args, out):
    spaces = _load(args)
    space = spaces.space(args.space)
    functional = _parse_functional(args.functional)
    if not 1 <= args.trials <= MAX_TRIALS:
        raise InputError(f"--trials must be between 1 and {MAX_TRIALS}, got {args.trials}")
    try:
        report = cross_validate(space, functional, trials=args.trials, seed=args.seed)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if report.skipped:
        out.human("skipped: a coarse part has no sampled representation")
    else:
        out.human(
            f"map verdict {report.map_verdict}; {report.trials} trials, "
            f"agreement rate {report.agreement_rate:.1%}"
        )
        for record in report.disagreements:
            out.human(f"  disagreement: {record.expression} -> {record.classification.label()}")
    records = [
        {**_classification_record(r.expression, r.classification),
         "symbolic_smooth": r.symbolic_smooth}
        for r in report.records
    ]
    out.payload(
        inputs={"space": args.space, "functional": functional, "trials": args.trials},
        result={
            "skipped": report.skipped,
            "agreement_rate": report.agreement_rate,
            "consistent": report.consistent,
            "records": records,
        },
        verdicts={"map": report.map_verdict},
    )
    return 0 if report.consistent and not report.disagreements else 1


def _cmd_verify(args, out):
    spaces = _load(args)
    results = run_checks(spaces)
    failed = [r for r in results if not r.passed]
    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        out.human(f"{tag}  {r.name:<32} {r.detail}  [{r.elapsed:.2f}s]")
    out.human(f"{len(results) - len(failed)}/{len(results)} checks passed")
    out.payload(
        inputs={"file": args.file or _default_space_file()},
        result={
            "checks": [
                {"name": r.name, "passed": r.passed, "detail": r.detail,
                 "elapsed": round(r.elapsed, 6)}
                for r in results
            ],
        },
        verdicts={"all_passed": not failed},
    )
    return 0 if not failed else 1


# --- wiring ----------------------------------------------------------------

class _Output:
    def __init__(self, command: str, as_json: bool):
        self.command = command
        self.as_json = as_json
        self.lines: list[str] = []
        self.document = {"command": command, "inputs": {}, "result": {}, "verdicts": {}}

    def human(self, line: str) -> None:
        self.lines.append(line)

    def payload(self, inputs=None, result=None, verdicts=None) -> None:
        if inputs:
            self.document["inputs"] = inputs
        if result:
            self.document["result"] = result
        if verdicts:
            self.document["verdicts"] = verdicts

    def emit(self) -> None:
        if self.as_json:
            print(json.dumps(_jsonify(self.document), indent=2, allow_nan=False))
        else:
            for line in self.lines:
                print(line)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="diffeolin",
        description="Exact smoothness calculator for finitely generated diffeologies on R^n",
    )
    parser.add_argument("-f", "--file", help="space-definition JSON file (default: bundled examples)")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dual", help="diffeological dual of a space")
    p.add_argument("space")
    p.set_defaults(handler=_cmd_dual)

    p = sub.add_parser("hom", help="basis of the smooth linear maps V -> W")
    p.add_argument("domain")
    p.add_argument("codomain")
    p.set_defaults(handler=_cmd_hom)

    p = sub.add_parser("bilinear", help="dimension of the smooth bilinear maps V x V -> W")
    p.add_argument("domain")
    p.add_argument("codomain")
    p.set_defaults(handler=_cmd_bilinear)

    p = sub.add_parser("tensor", help="tensor product of two spaces")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--dual-iso", action="store_true",
                   help="build and verify the canonical map V* (x) W* -> (V (x) W)*")
    p.set_defaults(handler=_cmd_tensor)

    p = sub.add_parser("check-map", help="smoothness verdict for a named map")
    p.add_argument("map")
    p.set_defaults(handler=_cmd_check_map)

    p = sub.add_parser("check-plot", help="plot membership of a candidate curve")
    p.add_argument("space")
    p.add_argument("expr", nargs="+", help="one coordinate expression per dimension")
    p.set_defaults(handler=_cmd_check_plot)

    p = sub.add_parser("hat-dual", help="pushforward dual along a chosen isomorphism")
    p.add_argument("space")
    p.add_argument("--iso", required=True, help='JSON matrix, e.g. [["0","1"],["1","0"]]')
    p.set_defaults(handler=_cmd_hat_dual)

    p = sub.add_parser("oracle", help="numeric smoothness classification of an expression")
    p.add_argument("expr")
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("cross-validate", help="compare numeric and symbolic verdicts on a space")
    p.add_argument("space")
    p.add_argument("functional", help="comma-separated rationals, e.g. 0,1,1")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_cross_validate)

    p = sub.add_parser("verify", help="replay every bundled identity and counterexample")
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        out = _Output(args.command, args.json)
        code = args.handler(args, out)
    except (InputError, SpaceFileError, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DiffeolinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        out.emit()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe early.  Point stdout at the null device
        # so that the flush at interpreter exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
