"""Command-line behaviour: output, JSON schema, exit codes, environment."""

import json
import os

import pytest

from diffeolin.cli import main


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


def test_dual_subcommand(run):
    code, out, _ = run("dual", "coarse3")
    assert code == 0
    assert "dim V* = 0" in out


def test_dual_json_schema(run):
    code, out, _ = run("--json", "dual", "kink3_1")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "dual"
    assert doc["inputs"] == {"space": "kink3_1"}
    assert doc["result"]["dual_dim"] == 2


def test_hom_subcommand(run):
    code, out, _ = run("hom", "kink3_1", "fine2")
    assert code == 0
    assert "dim L^inf(V, W) = 4" in out


def test_bilinear_subcommand(run):
    code, out, _ = run("bilinear", "coarse2", "fine1")
    assert code == 0
    assert "dim B^inf(V, W) = 0" in out


def test_bilinear_into_generated_codomain(run):
    # b: V x V -> V for V = <(|x|, 0)>: the three block directions e0 (x) e0,
    # e0 (x) e1 and e1 (x) e0 must map into the kink line, which fixes 3 of
    # the 8 coefficients.
    code, out, _ = run("bilinear", "kink2_1", "kink2_1")
    assert code == 0
    assert "dim B^inf(V, W) = 5" in out


def test_tensor_subcommand_with_dual_iso(run):
    code, out, _ = run("tensor", "kink2_1", "kink2_1", "--dual-iso")
    assert code == 0
    assert "dual dim = 1" in out
    assert "isomorphism=True" in out


def test_check_map_verdicts(run):
    code, out, _ = run("check-map", "second_coordinate")
    assert code == 0 and "Smooth" in out
    code, out, _ = run("check-map", "first_coordinate")
    assert code == 0 and "NotSmooth" in out and "witness plot" in out


def test_check_plot_subcommand(run):
    code, out, _ = run("check-plot", "kink2_1", "x*abs(x)", "0")
    assert code == 0
    assert "Plot" in out
    code, out, _ = run("check-plot", "fine2", "abs(x)", "x")
    assert code == 0
    assert "NotPlot" in out


def test_check_plot_high_degree_kink(run):
    code, out, _ = run("check-plot", "kink2_1", "x^6*abs(x)", "0")
    assert code == 0
    assert "Plot" in out and "NotPlot" not in out


def test_hat_dual_subcommand(run):
    code, out, _ = run("hat-dual", "kink2_1", "--iso", '[["0","1"],["1","0"]]')
    assert code == 0
    assert "singular span dim = 1" in out


def test_oracle_subcommand_record(run):
    code, out, _ = run("--json", "oracle", "abs(x)*x")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["verdict"] == "NonSmoothAt0(order 3)"
    assert doc["result"]["order"] == 3
    assert set(doc["result"]) == {"expression", "order", "scale", "value", "verdict"}


def test_json_output_is_valid_beyond_the_float_range(run):
    # 10^400*|x| has a second difference beyond the float range; JSON has no
    # Infinity, so the value is written as a string.
    def reject(constant):
        raise ValueError(f"non-JSON constant {constant}")

    code, out, _ = run("--json", "oracle", "1" + "0" * 400 + "*abs(x)")
    assert code == 0
    doc = json.loads(out, parse_constant=reject)
    assert doc["result"]["value"] == "inf"
    assert doc["result"]["order"] == 2


def test_oracle_finds_a_small_kink_under_a_large_constant(run):
    # |x|*x^3 fails at order 5 however small its coefficient; a rounding
    # floor scaled by the constant used to push the answer to order 7.
    code, out, _ = run("--json", "oracle", "1000000 + 1/1000000*abs(x)*x^3")
    assert code == 0
    assert json.loads(out)["result"]["order"] == 5


def test_hom_into_generated_codomain(run):
    code, out, _ = run("hom", "fine2", "kink2_1")
    assert code == 0
    assert "dim L^inf(V, W) = 4" in out


def test_cross_validate_subcommand(run):
    code, out, _ = run("--json", "cross-validate", "kink3_1", "0,1,1", "--trials", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdicts"]["map"] == "Smooth"
    assert doc["result"]["agreement_rate"] == 1.0
    records = doc["result"]["records"]
    assert records and set(records[0]) >= {"expression", "order", "scale", "value", "verdict"}


def test_input_errors_exit_2(run):
    assert run("dual", "nope")[0] == 2
    assert run("check-plot", "kink2_1", "abs(x)")[0] == 2
    assert run("check-plot", "kink2_1", "abs(", "0")[0] == 2
    assert run("hom", "fine2", "nope")[0] == 2
    assert run("-f", "/nonexistent.json", "dual", "x")[0] == 2


@pytest.mark.parametrize("argv", [
    ("oracle", "abs(x)", "--max-order", "1"),
    ("oracle", "abs(x)", "--max-order", "-1"),
    ("oracle", "abs(x)", "--max-order", "0"),
    ("-f", os.path.dirname(os.path.abspath(__file__)), "dual", "fine2"),
    ("hat-dual", "kink2_1", "--iso", '[["1","1"],["1","1"]]'),
    ("cross-validate", "kink3_1", "0,1,1", "--trials", "0"),
    ("cross-validate", "kink3_1", "0,1,1", "--trials", "-3"),
    ("oracle", "x", "--max-order", "100000"),
    ("oracle", "abs(x)*x^64*x^64"),
])
def test_bad_input_exits_2_with_one_error_line(run, argv):
    code, out, err = run(*argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_degree_cap_is_input_error(run):
    code, _, err = run("oracle", "x^200")
    assert code == 2
    assert "exceeds" in err


def test_verify_passes_on_bundled_file(run):
    code, out, _ = run("verify")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 10
    assert all(l.startswith("PASS") for l in lines)


def test_verify_json_is_stable(run):
    code, out, _ = run("--json", "verify")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdicts"]["all_passed"] is True
    names = [c["name"] for c in doc["result"]["checks"]]
    assert "tensor-dual-multiplicativity" in names
