#!/usr/bin/env python3
"""Benchmark of the diffeolin engine.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tensor64 --seed 1 --seconds 20 --trace 0

One single-threaded process runs one workload as a closed loop with one
client.  The engine is imported from the checkout's ``src/``.  With
``--trace 0`` the end-to-end metrics are measured; with ``--trace 1`` the
per-layer metrics come from a traced phase (set-up plus pass 0 with every
layer wrapped, see ``tracer``) followed by the same work untraced, whose
ratio is the tracing overhead.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the line
before it reports the seed, the verdict digest, sample counts and the
error and unknown rates.  See NOTES.md for the workloads and predictions.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 5
HELD_OUT_SEED = 20150430

sys.path.insert(0, HERE)

import workloads  # noqa: E402  (needs HERE on sys.path)
from speed import SpeedMeter  # noqa: E402
from tracer import Tracer  # noqa: E402

clock = time.perf_counter


def fresh_import():
    """Import diffeolin (and its CLI) from the checkout, discarding any
    previously imported copy so that every set-up pays the import."""
    for name in [n for n in sys.modules if n == "diffeolin" or n.startswith("diffeolin.")]:
        del sys.modules[name]
    dl = importlib.import_module("diffeolin")
    importlib.import_module("diffeolin.cli")
    if not os.path.abspath(dl.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"diffeolin imported from {dl.__file__}, not from {SRC}")
    return dl


class PassLog:
    """Answers and (start, end) clock readings of the passes of one phase."""

    def __init__(self):
        self.passes: list[tuple[float, float]] = []
        self.ops: list[tuple[float, float]] = []
        self.statuses = {"ok": 0, "unknown": 0, "error": 0}
        self.digest_text: str | None = None
        self.checks: dict[str, float] = {}
        self.errors: list[str] = []

    @property
    def attempted(self) -> int:
        return sum(self.statuses.values())

    def digest(self) -> str:
        return hashlib.sha256((self.digest_text or "").encode()).hexdigest()


def run_op_pass(ops, log: PassLog, tracer: Tracer | None, first: bool) -> None:
    records = []
    start = clock()
    for op in ops:
        token = tracer.op_begin("op:" + op.kind) if tracer else None
        t0 = clock()
        try:
            fields, error = op.call(), None
        except Exception as exc:  # a raising op is a failed op, not a crash
            fields, error = None, exc
        records.append((op, fields, (t0, clock()), error))
        if tracer:
            tracer.op_end(token)
    log.passes.append((start, clock()))
    texts = []
    for op, fields, span, error in records:
        log.ops.append(span)
        if error is not None:
            status, text = "error", f"raised {type(error).__name__}: {error}"
        else:
            status, text = workloads.grade(fields, op.expected), workloads.answer_text(fields)
        log.statuses[status] += 1
        if status == "error" and len(log.errors) < 5:
            log.errors.append(f"{op.kind}: got {text}, expected {op.expected!r}")
        texts.append(text)
    if first:
        log.digest_text = "\n".join(texts)


def run_verify_pass(w, log: PassLog, tracer: Tracer | None, first: bool) -> None:
    token = tracer.op_begin("op:verify") if tracer else None
    start = clock()
    checks, doc = w.run_pass()
    log.passes.append((start, clock()))
    if tracer:
        tracer.op_end(token)
    # The checks run back to back; their spans are rebuilt from `elapsed`.
    t = start
    for check in checks:
        log.ops.append((t, t + check["elapsed"]))
        t += check["elapsed"]
        ok = check["passed"] and doc["exit_code"] == 0
        log.statuses["ok" if ok else "error"] += 1
        if not ok:
            log.errors.append(f"{check['name']}: {check['detail']}")
        log.checks.setdefault(check["name"], check["elapsed"])
    if first:
        log.digest_text = workloads.verify_digest_text(doc)


def run_passes(w, log: PassLog, tracer: Tracer | None, seconds: float | None) -> None:
    """Pass 0, then further passes while less than ``seconds`` have passed
    (pass 0 only when ``seconds`` is None)."""
    start = clock()
    p = 0
    while True:
        if isinstance(w, workloads.Verify):
            run_verify_pass(w, log, tracer, p == 0)
        else:
            ops = w.passes.pop(p, None) or w.build_pass(p)
            run_op_pass(ops, log, tracer, p == 0)
        p += 1
        if seconds is None or clock() - start >= seconds:
            return


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(args) -> tuple[dict, PassLog, dict]:
    """Untraced run; every time is speed-normalised (see ``speed``)."""
    cls = workloads.WORKLOADS[args.workload]
    setups = []
    log = PassLog()
    with SpeedMeter() as meter:
        for _ in range(SETUP_REPEATS):
            t0 = clock()
            dl = fresh_import()
            w = cls(dl, args.seed, args.size, OUT)
            setups.append((t0, clock()))
        gc.collect()  # drop the garbage of the earlier set-ups before timing
        run_passes(w, log, None, args.seconds)
    setup = [meter.normalized(a, b) for a, b in setups]
    walls = [meter.normalized(a, b) for a, b in log.passes]
    lat = [meter.normalized(a, b) for a, b in log.ops]
    p90 = percentile(lat, 90)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "ops_per_s": (len(lat) / sum(walls), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1000.0, "ms"),
        "op_p90_ms": (p90 * 1000.0, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    raw = [meter.excluded(a, b) for a, b in log.passes]
    info = {"samples": len(lat), "beyond_p90": sum(1 for x in lat if x > p90),
            "setup_runs_s": setup, "pass_walls_s": walls, "raw_pass_walls_s": raw,
            "raw_setup_runs_s": [b - a for a, b in setups],
            "calibration_unit_ms": 1000.0 * statistics.median(meter.units)}
    if len(lat) <= 100:
        info["op_ms"] = [round(x * 1000.0, 1) for x in lat]
    return metrics, log, info


def traced(args) -> tuple[dict, PassLog, dict]:
    """Set-up plus pass 0 traced, then the same work untraced; raw times."""
    cls = workloads.WORKLOADS[args.workload]
    dl = fresh_import()
    tracer = Tracer()
    tracer.install()
    log = PassLog()
    try:
        start = clock()
        token = tracer.op_begin("setup")
        w = cls(dl, args.seed, args.size, OUT)
        tracer.op_end(token)
        run_passes(w, log, tracer, None)
        traced_wall = clock() - start
    finally:
        tracer.uninstall()
    plain = PassLog()
    start = clock()
    run_passes(cls(dl, args.seed, args.size, OUT), plain, None, None)
    plain_wall = clock() - start

    metrics = tracer.metrics(traced_wall)
    metrics["trace.overhead_ratio"] = (traced_wall / plain_wall, "ratio")
    for name in CHECK_NAMES:
        metrics[f"verify.{name}.s"] = (plain.checks.get(name, 0.0), "s")
    for key, value in plain.statuses.items():
        log.statuses[key] += value
    log.errors += plain.errors
    info = {"untraced_digest": plain.digest(), "untraced_wall_s": plain_wall}
    tracer.write(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json"),
                 {"workload": args.workload, "seed": args.seed, "traced_wall_s": traced_wall,
                  "untraced_wall_s": plain_wall})
    return metrics, log, info


CHECK_NAMES = ("space-file-anchors", "dual-dimensions", "bilinear-vanishing",
               "curry-correspondence", "dual-map-smoothness", "tensor-dual-multiplicativity",
               "non-isomorphism-reproductions", "distributivity", "oracle-agreement",
               "hat-dual-wellposedness")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy shrinks tensor64 and plot-queries for the self-test")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "diffeolin", "__init__.py")):
        print(f"error: no engine sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)

    metrics, log, info = (traced if args.trace else end_to_end)(args)
    attempted = log.attempted
    failed = log.statuses["error"]
    # Every reference answer is definite, so Unknown counts against all ops.
    error_rate = failed / attempted
    unknown_rate = log.statuses["unknown"] / attempted
    if args.trace:
        metrics["error_rate"] = (error_rate, "ratio")
        metrics["unknown_rate"] = (unknown_rate, "ratio")
    digest = log.digest()
    consistent = args.trace == 0 or info["untraced_digest"] == digest
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "size": args.size, "digest": digest, "digest_consistent": consistent,
              "attempted": attempted, "failed": failed, "unknown": log.statuses["unknown"],
              "error_rate": error_rate, "unknown_rate": unknown_rate,
              "errors": log.errors, "held_out_seed": HELD_OUT_SEED, **info}
    print(json.dumps(report))
    print(json.dumps({
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
