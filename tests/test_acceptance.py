"""Acceptance suite: every headline criterion at its stated tolerance.

Each test prints one pass/fail line with the measured runtime against the
budget.  All expected values are exact; the only tolerances are the time
budgets and the 99% oracle agreement floor.
"""

import json
import os
import time

from diffeolin.cli import main as cli_main
from diffeolin.verify import (
    check_bilinear_vanishing,
    check_curry_correspondence,
    check_distributivity,
    check_dual_dimensions,
    check_dual_map_smoothness,
    check_hat_dual_wellposedness,
    check_non_isomorphisms,
    check_oracle_agreement,
    check_tensor_dual_multiplicativity,
)

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "verify_golden.json")


def run_criterion(name, budget_seconds, fn):
    start = time.perf_counter()
    passed, detail = fn()
    elapsed = time.perf_counter() - start
    in_budget = elapsed < budget_seconds
    tag = "PASS" if passed and in_budget else "FAIL"
    print(f"{tag}  {name}: {detail}  [{elapsed:.2f}s / budget {budget_seconds}s]")
    assert passed, detail
    assert in_budget, f"{name} took {elapsed:.2f}s, budget {budget_seconds}s"


def test_criterion_1_dual_dimensions():
    """coarse duals vanish, fine duals are full, k kinks drop the dual by k."""
    run_criterion("dual dimensions", 1.0, check_dual_dimensions)


def test_criterion_2_bilinear_vanishing():
    """no nonzero smooth bilinear map from a coarse plane/space to the line."""
    run_criterion("bilinear vanishing", 1.0, check_bilinear_vanishing)


def test_criterion_3_curry_correspondence():
    """curry/uncurry are mutually inverse and preserve smoothness verdicts."""
    run_criterion("curry correspondence", 10.0, check_curry_correspondence)


def test_criterion_4_dual_map_smoothness():
    """the smooth maps between every two flag classes with n <= 2 match the
    level count and each basis map dualises; the hat-dual transpose
    counterexample is flagged NotSmooth with an explicit witness plot."""
    run_criterion("dual map smoothness", 5.0, check_dual_map_smoothness)


def test_criterion_5_tensor_dual_multiplicativity():
    """dim (V (x) W)* = dim V* * dim W* over the exhaustive descriptor grid,
    with the canonical map an isomorphism on every cell."""
    run_criterion("tensor dual multiplicativity", 5.0, check_tensor_dual_multiplicativity)


def test_criterion_6_non_isomorphism_reproductions():
    """the function-space comparisons that genuinely fail: 2 vs 0 and 0 vs 4."""
    run_criterion("non-isomorphism reproductions", 1.0, check_non_isomorphisms)


def test_criterion_7_distributivity():
    """the distributivity permutation is Smooth both ways on 50 random triples
    with matching singular spans."""
    run_criterion("distributivity", 5.0, check_distributivity)


def test_criterion_8_oracle_agreement():
    """symbolic and numeric smoothness agree on >= 99% of 1000 random
    expressions and on 100% of the atom basis."""
    run_criterion("oracle agreement", 30.0, check_oracle_agreement)


def test_criterion_9_hat_dual_wellposedness():
    """the identity is smooth both ways between the hat duals along iso1 and
    iso1 * A on every flag class with n <= 2, where A keeps every F_e; the
    swap on the kink plane changes the diffeology."""
    run_criterion("hat-dual well-posedness", 2.0, check_hat_dual_wellposedness)


def test_criterion_10_verify_subcommand(capsys):
    """the verify subcommand replays everything from the bundled file, exits 0
    inside the total budget, and its JSON document (without timings and the
    file path) matches the golden copy."""
    start = time.perf_counter()
    code = cli_main(["--json", "verify"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    with capsys.disabled():
        tag = "PASS" if code == 0 and elapsed < 60.0 else "FAIL"
        print(f"\n{tag}  verify subcommand: exit {code}  [{elapsed:.2f}s / budget 60s]")
    assert code == 0, f"verify failed:\n{out}"
    assert elapsed < 60.0
    doc = json.loads(out)
    for check in doc["result"]["checks"]:
        del check["elapsed"]
    del doc["inputs"]["file"]
    with open(GOLDEN) as fh:
        assert doc == json.load(fh)
