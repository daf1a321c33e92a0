#!/usr/bin/env python3
"""Self-test of the benchmark harness.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It runs tensor64 and plot-queries at toy sizes and verify at full size
(verify has no smaller form), each untraced and traced, and asserts that:

* the last output line has exactly the keys correct, attempted, failed and
  metrics, and every operation was answered correctly (error rate 0);
* an untraced run emits exactly the end-to-end metrics of BENCHMARK.json,
  and a traced run exactly its per-layer metrics, each with its unit;
* the verdict digest is the same across two invocations and between the
  traced and untraced runs;
* in a directory holding only BENCHMARK.json and the benchmark, without
  the engine's sources, the benchmark fails without printing a result.

Takes under a minute, most of it the verify suite.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIMEOUT = 300


def run(workload: str, trace: int, size: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", size]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT)


def parse(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def check_result(result: dict, report: dict, spec: list, label: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True, (label, report["errors"])
    assert result["failed"] == 0 and report["error_rate"] == 0, (label, report["errors"])
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, label
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, (label, sorted(set(got) ^ set(want)),
                         {n: (got.get(n), want.get(n)) for n in want if got.get(n) != want[n]})
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), (label, name)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for workload, size, repeats in (("tensor64", "toy", 2), ("plot-queries", "toy", 2),
                                    ("verify", "full", 1)):
        digests = set()
        for _ in range(repeats):
            report, result = parse(run(workload, 0, size))
            check_result(result, report, bench["end_to_end"], f"{workload} untraced")
            digests.add(report["digest"])
        report, result = parse(run(workload, 1, size))
        check_result(result, report, bench["per_layer"], f"{workload} traced")
        digests.update((report["digest"], report["untraced_digest"]))
        assert len(digests) == 1, (workload, digests)
        print(f"ok  {workload}: metrics, correctness and digest {digests.pop()[:16]}")

    bare = os.path.join(HERE, "out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run("tensor64", 0, "toy", cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print("ok  without engine sources: exit", proc.returncode, "and no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
