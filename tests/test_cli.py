"""Command-line behaviour: output, JSON schema, exit codes, environment."""

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from diffeolin import cli
from diffeolin.cli import main
from diffeolin.verify import CheckResult


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


def test_tensor_dual_iso_json_flags_and_dimensions(run):
    """The dual isomorphism is the identity of (V (x) W)*, so --json prints
    its two dimensions and its flags, not the matrix."""
    code, out, _ = run("--json", "tensor", "kink3_1", "fine2", "--dual-iso")
    doc = json.loads(out)
    assert code == 0
    assert doc["result"]["dual_iso"] == {"domain_dim": 4, "codomain_dim": 4,
                                         "injective": True, "isomorphism": True}
    assert "dual_iso_matrix" not in doc["result"]


def test_tensor_dual_iso_builds_the_product_once(run, monkeypatch):
    """The command holds V (x) W while ``tensor_dual_iso`` certifies it, so
    the iso reaches the same product: one space, presented once."""
    import diffeolin.cli as cli
    import diffeolin.spaces as spaces
    import diffeolin.tensor as tensor

    products, presented = [], []
    real_product, real_presentation = tensor.tensor_product, spaces.TensorOf.present

    def counted_product(v, w):
        products.append(real_product(v, w))
        return products[-1]

    def counted_presentation(d, n):
        presented.append((d.left, d.right))
        return real_presentation(d, n)

    monkeypatch.setattr(tensor, "tensor_product", counted_product)
    monkeypatch.setattr(spaces.TensorOf, "present", counted_presentation)
    monkeypatch.setattr(cli, "tensor_product", counted_product)
    code, out, _ = run("tensor", "kink3_1", "fine2", "--dual-iso")
    assert code == 0 and "dim = 6, singular span dim = 2, dual dim = 4" in out
    assert len(products) == 2 and products[0] is products[1]
    assert len(presented) == 1


@pytest.mark.parametrize("mode", [(), ("--json",)], ids=["human", "json"])
def test_failed_dual_iso_certificate_is_one_error_line(run, left_block_rows_only, mode):
    """Under a wrong block formula the certificate fails like any other
    verification: exit 1, one ``error:`` line, nothing on stdout."""
    code, out, err = run(*mode, "tensor", "fine2", "coarse2", "--dual-iso")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "is not the block span" in err


def test_closed_pipe_exits_1_without_a_traceback(tmp_path):
    """A reader that stops after the first line, as ``| head -1`` does,
    closes stdout under a large document (the 256 x 256 hom basis between
    two fine R^16): the command exits 1 with nothing about it on stderr."""
    path = tmp_path / "fine16.json"
    path.write_text(json.dumps({"spaces": {"f16": {"dim": 16, "diffeology": "fine"}}}))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    with subprocess.Popen(
            [sys.executable, "-m", "diffeolin.cli", "-f", str(path), "--json", "hom", "f16", "f16"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert b"Traceback" not in err and b"Exception ignored" not in err, err.decode()


def _dense_generated_32():
    """Generated R^32 with 8 generators, each coordinate 0 with probability
    2/5, else c*abs(x)*x^d with c in {1, -1, 2} and d in {0, 1, 2}, drawn
    from random.Random(1).  Its flag has dimensions (0, 8, 16, 24)."""
    rng = random.Random(1)
    generators = [["0" if rng.random() < 0.4
                   else f"{rng.choice([1, -1, 2])}*abs(x)*x^{rng.randint(0, 2)}"
                   for _ in range(32)] for _ in range(8)]
    return {"dim": 32, "diffeology": {"generated": generators}}


@pytest.mark.parametrize("argv, key, expected", [
    (("hom", "g32", "g32"), "hom_dim", 640),
    (("bilinear", "g32", "f1"), "bilinear_dim", 64),
], ids=["hom", "bilinear"])
def test_hom_and_bilinear_at_the_unknowns_cap(run, tmp_path, argv, key, expected):
    """hom and bilinear on a dense generated R^32 take 1,024 unknowns, the
    cap, and answer: the 640 smooth endomorphisms are sum_e 8 * dim F_e over
    the steps 8, 16, 24 and R^32, and the 64 smooth bilinear forms into the
    line are (dim V*)^2 = 8^2."""
    path = tmp_path / "g32.json"
    path.write_text(json.dumps({"spaces": {"g32": _dense_generated_32(),
                                           "f1": {"dim": 1, "diffeology": "fine"}}}))
    code, out, err = run("--json", "-f", str(path), *argv)
    assert code == 0 and err.count("error:") <= 1
    assert json.loads(out)["result"][key] == expected


def test_human_output_converts_nothing_to_json(run, monkeypatch):
    """Only --json converts the document: human mode never calls _jsonify."""
    import diffeolin.cli as cli

    def refuse(value):
        raise AssertionError("_jsonify called in human mode")

    monkeypatch.setattr(cli, "_jsonify", refuse)
    code, out, _ = run("tensor", "kink3_1", "fine2", "--dual-iso")
    assert code == 0 and "isomorphism=True" in out
    code, out, _ = run("hom", "kink3_1", "fine2")
    assert code == 0 and "dim L^inf(V, W) = 4" in out


def test_check_map_verdicts(run):
    code, out, _ = run("check-map", "second_coordinate")
    assert code == 0 and "Smooth" in out
    code, out, _ = run("check-map", "first_coordinate")
    assert code == 0 and "NotSmooth" in out and "witness plot" in out


def test_check_map_json_carries_the_witness(run, tmp_path):
    code, out, _ = run("--json", "check-map", "first_coordinate")
    doc = json.loads(out)
    assert code == 0 and doc["verdicts"]["smooth"] == "NotSmooth"
    assert doc["result"]["witness"] == ["abs(x)", "0"]
    # The coarse direction maps into F_0 but not into C of the codomain: no
    # atom curve witnesses that failure.
    spec = {
        "spaces": {"coarse1": {"dim": 1, "diffeology": "coarse"},
                   "kink1": {"dim": 1, "diffeology": {"generated": [["abs(x)"]]}}},
        "maps": {"coarse_into_kink": {"from": "coarse1", "to": "kink1", "matrix": [["1"]]}},
    }
    path = tmp_path / "spaces.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run("--json", "-f", str(path), "check-map", "coarse_into_kink")
    doc = json.loads(out)
    assert code == 0 and doc["verdicts"]["smooth"] == "NotSmooth"
    assert doc["result"]["witness"] is None


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


def test_oracle_finds_a_kink_past_order_8(run):
    code, out, _ = run("oracle", "abs(x)*x^7")
    assert code == 0
    assert out == "abs(x)*x^7: NonSmoothAt0(order 9)\n"


@pytest.mark.parametrize("expr, order", [
    ("abs(x)*x + 1000000*x^3", 3),
    ("abs(x)*x + " + "9" * 4300 + "*x^3", 3),
    ("abs(x) + " + "9" * 4300 + "*abs(x)*x^2", 2),
], ids=["million", "4300-digits", "4300-digit-kink"])
def test_oracle_reads_a_kink_masked_by_a_larger_term_at_its_own_order(run, expr, order):
    """A larger term hides the growth of the least kink at its failing order
    until p = 21 (a million), or p = 7,100 and 14,300 (a coefficient at the
    parser's 4,300-digit limit); the sweep reads on to there."""
    code, out, _ = run("oracle", expr)
    assert code == 0 and out.endswith(f": NonSmoothAt0(order {order})\n")


def test_cross_validate_samples_every_generator_whatever_the_trials(run):
    # kink4_2 has two generators and only the second shows that the
    # functional is not smooth.
    code, out, _ = run("--json", "cross-validate", "kink4_2", "0,1,0,0", "--trials", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdicts"]["map"] == "NotSmooth"
    assert doc["result"]["consistent"] is True
    assert [r["symbolic_smooth"] for r in doc["result"]["records"]] == [True, False]


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


def test_cross_validate_skips_a_coarse_space(run):
    """A coarse part has no atom plot to sample, so human mode prints one
    ``skipped:`` line and exits 0."""
    assert run("cross-validate", "coarse2", "0,1") == (
        0, "skipped: a coarse part has no sampled representation\n", "")


def test_input_errors_exit_2(run):
    assert run("dual", "nope")[0] == 2
    assert run("check-plot", "kink2_1", "abs(x)")[0] == 2
    assert run("check-plot", "kink2_1", "abs(", "0")[0] == 2
    assert run("hom", "fine2", "nope")[0] == 2
    assert run("-f", "/nonexistent.json", "dual", "x")[0] == 2


# Every subcommand that reads the space file, on names the file would define.
FILE_READERS = [
    ("dual", "f"),
    ("hom", "f", "f"),
    ("bilinear", "f", "f"),
    ("tensor", "f", "f"),
    ("tensor", "f", "f", "--dual-iso"),
    ("check-map", "m"),
    ("check-plot", "f", "x"),
    ("hat-dual", "f", "--iso", '[["1"]]'),
    ("cross-validate", "f", "1"),
    ("verify",),
]


@pytest.mark.parametrize("argv", [
    # The probed orders come from the expression; there is no option for
    # them, so every --max-order row is an unrecognised-argument error.
    ("oracle", "abs(x)", "--max-order", "1"),
    ("oracle", "abs(x)", "--max-order", "-1"),
    ("oracle", "abs(x)", "--max-order", "0"),
    ("-f", os.path.dirname(os.path.abspath(__file__)), "dual", "fine2"),
    ("hat-dual", "kink2_1", "--iso", '[["1","1"],["1","1"]]'),
    ("hat-dual", "kink2_1", "--iso", '[["1","0"]]'),
    ("cross-validate", "kink3_1", "0,1,1", "--trials", "0"),
    ("cross-validate", "kink3_1", "0,1,1", "--trials", "-3"),
    ("oracle", "x", "--max-order", "100000"),
    ("oracle", "abs(x)*x^64*x^64"),
    ("cross-validate", "kink3_1", "0,1,1", "--trials", "10001"),
    ("-f", "{wide}", "dual", "wide"),
    ("-f", "{many}", "dual", "many"),
    ("-f", "{null}", "dual", "null"),
    ("-f", "{big}", "hom", "f33", "f32"),
    ("-f", "{big}", "tensor", "f32", "f33"),
    ("-f", "{big}", "bilinear", "f11", "f9"),
    # Usage errors: one row per subcommand with a missing argument, one with
    # a malformed value, and the options of the top-level parser.
    ("dual",),
    ("dual", "fine2", "--bogus"),
    ("hom", "fine2"),
    ("hom", "fine2", "nope"),
    ("bilinear", "fine2"),
    ("bilinear", "fine2", "fine1", "extra"),
    ("tensor", "fine2"),
    ("tensor", "fine2", "fine2", "--dual-iso=yes"),
    ("check-map",),
    ("check-map", "nope"),
    ("check-plot", "kink2_1"),
    ("check-plot", "kink2_1", "abs(", "0"),
    ("hat-dual", "kink2_1"),
    ("hat-dual", "kink2_1", "--iso", "[[1,"),
    ("oracle",),
    ("oracle", "abs(x)", "--max-order", "two"),
    ("cross-validate", "kink3_1"),
    ("cross-validate", "kink3_1", "0,1,1", "--trials", "abc"),
    ("cross-validate", "kink3_1", "0,1,1", "--seed", "1.5"),
    ("verify", "--bogus"),
    (),
    ("nope",),
    ("-f",),
    ("--bogus", "dual", "fine2"),
    # The dim and generator caps for every other subcommand that reads the
    # file, and the unknown cap for the tensor dual iso.
    *[("-f", "{%s}" % name) + reader for name in ("wide", "many")
      for reader in FILE_READERS if reader[0] != "dual"],
    ("-f", "{big}", "tensor", "f32", "f33", "--dual-iso"),
    # Iso matrices that are JSON but not a list of rows (braces doubled for
    # ``str.format``), and a functional of the wrong length.
    ("hat-dual", "kink2_1", "--iso", '{{"a": 1}}'),
    ("hat-dual", "kink2_1", "--iso", '[1, 2]'),
    ("cross-validate", "kink3_1", "0,1"),
])
def test_bad_input_exits_2_with_one_error_line(run, tmp_path, argv):
    # Space files past the bounds: dim 65, 65 generators (or no generator
    # list), and spaces whose hom (33 * 32), tensor (32 * 33) and bilinear
    # (11^2 * 9) unknowns exceed 1,024.
    documents = {
        "wide": {"wide": {"dim": 65, "diffeology": "fine"}},
        "many": {"many": {"dim": 1, "diffeology": {"generated": [["abs(x)"]] * 65}}},
        "null": {"null": {"dim": 1, "diffeology": {"generated": None}}},
        "big": {f"f{n}": {"dim": n, "diffeology": "fine"} for n in (9, 11, 32, 33)},
    }
    paths = {}
    for name, spaces in documents.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps({"spaces": spaces}))
    code, out, err = run(*(arg.format(**paths) for arg in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# An unknown name in each position that names a space or a map.
UNKNOWN_NAMES = [
    ("dual", "nope"),
    ("hom", "nope", "fine2"),
    ("hom", "fine2", "nope"),
    ("bilinear", "nope", "fine1"),
    ("bilinear", "fine2", "nope"),
    ("tensor", "nope", "fine2"),
    ("tensor", "fine2", "nope"),
    ("tensor", "nope", "fine2", "--dual-iso"),
    ("tensor", "fine2", "nope", "--dual-iso"),
    ("check-map", "nope"),
    ("check-plot", "nope", "abs(x)"),
    ("hat-dual", "nope", "--iso", '[["1"]]'),
    ("cross-validate", "nope", "1"),
]

# A malformed space file and the message that names its fault.
MALFORMED_FILES = {
    "truncated": ('{"spaces": {"f": {"dim": 1, "diffeology": "fi', "invalid JSON"),
    "unknown-diffeology": (json.dumps({"spaces": {"f": {"dim": 1, "diffeology": "smooth"}}}),
                           "diffeology must be"),
    "map-without-from": (json.dumps({"spaces": {"f": {"dim": 1, "diffeology": "fine"}},
                                     "maps": {"m": {"to": "f", "matrix": [["1"]]}}}),
                         "missing 'from'"),
    "spaces-not-an-object": (json.dumps({"spaces": [1]}), "'spaces' must be an object"),
    "spaces-empty-list": (json.dumps({"spaces": []}), "'spaces' must be an object"),
    "maps-not-an-object": (json.dumps({"spaces": {"f": {"dim": 1, "diffeology": "fine"}},
                                       "maps": [1]}), "'maps' must be an object"),
    "maps-zero": (json.dumps({"spaces": {"f": {"dim": 1, "diffeology": "fine"}}, "maps": 0}),
                  "'maps' must be an object"),
    "from-not-a-name": (json.dumps({"spaces": {"f": {"dim": 1, "diffeology": "fine"}},
                                    "maps": {"m": {"from": ["f"], "to": "f", "matrix": [["1"]]}}}),
                        "'from' must be a space name"),
}


@pytest.mark.parametrize("mode", [(), ("--json",)], ids=["human", "json"])
@pytest.mark.parametrize("argv", UNKNOWN_NAMES + [
    ("-f", "{%s}" % name) + reader for name in MALFORMED_FILES for reader in FILE_READERS
], ids=lambda argv: "-".join(a.strip("{}-") for a in argv if not a.startswith("[")))
def test_unknown_names_and_malformed_files_exit_2_with_one_error_line(
        run, tmp_path, argv, mode):
    paths = {}
    for name, (text, _) in MALFORMED_FILES.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(text)
    if argv[0] == "-f":
        expected = MALFORMED_FILES[argv[1].strip("{}")][1]
    else:
        expected = f"unknown {'map' if argv[0] == 'check-map' else 'space'} 'nope'"
    code, out, err = run(*mode, *(arg.format(**paths) if arg.startswith("{") else arg
                                  for arg in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert expected in err


@pytest.mark.parametrize("argv", [("-h",), ("dual", "-h"), ("cross-validate", "--help")])
def test_help_prints_usage_and_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 0
    assert captured.out.startswith("usage: diffeolin") and captured.err == ""


BIG = "1" + "0" * 4300  # 4,301 digits: past Python's default limit on int conversion
EXPONENT = "1e-10000000"  # Fraction(EXPONENT) would build 10**10000000


@pytest.mark.parametrize("argv", [
    ("check-plot", "fine1", BIG),
    ("oracle", BIG + "*abs(x)"),
    ("oracle", "x^" + BIG),
    ("-f", "{expr}", "dual", "g"),
    ("-f", "{integer}", "dual", "f"),
    ("hat-dual", "kink2_1", "--iso", f"[[{BIG}, 0], [0, 1]]"),
    ("-f", "{exponent}", "check-map", "m"),
    ("cross-validate", "kink3_1", "0,1," + EXPONENT),
    ("hat-dual", "kink2_1", "--iso", f'[["{EXPONENT}", "0"], ["0", "1"]]'),
], ids=["check-plot-constant", "oracle-constant", "oracle-exponent", "generator-expression",
        "json-integer", "iso-integer", "map-exponent-string", "functional-exponent-string",
        "iso-exponent-string"])
def test_oversized_literals_and_exponent_strings_exit_2_at_once(run, tmp_path, argv):
    """An integer literal past Python's digit limit, in an expression, a
    space file or an --iso matrix, and a decimal-exponent string where a
    rational belongs, are input errors reported within a second."""
    fine = {"f": {"dim": 1, "diffeology": "fine"}}
    texts = {
        "expr": json.dumps({"spaces": {"g": {"dim": 1, "diffeology": {
            "generated": [[BIG + "*abs(x)"]]}}}}),
        "integer": ('{"spaces": %s, "maps": {"m": {"from": "f", "to": "f", "matrix": [[%s]]}}}'
                    % (json.dumps(fine), BIG)),
        "exponent": json.dumps({"spaces": fine, "maps": {"m": {
            "from": "f", "to": "f", "matrix": [[EXPONENT]]}}}),
    }
    paths = {}
    for name, text in texts.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(text)
    start = time.perf_counter()
    code, out, err = run(*(arg.format(**paths) if arg.startswith("{") else arg for arg in argv))
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("mode", [(), ("--json",)], ids=["human", "json"])
def test_an_iso_text_past_128_kib_exits_2_before_parsing(run, mode):
    """An --iso text may be as long as one argument Linux passes, 131,072
    characters; one more is an input error, reported at once.  The padding
    is JSON whitespace, so the text parses to the identity either way."""
    iso = '[["1", "0"], ["0", "1"]]'
    at_bound = iso + " " * (cli.MAX_ISO_CHARS - len(iso))
    assert cli.MAX_ISO_CHARS == len(at_bound) == 131_072
    code, out, _ = run(*mode, "hat-dual", "kink2_1", "--iso", at_bound)
    assert code == 0 and out
    start = time.perf_counter()
    code, out, err = run(*mode, "hat-dual", "kink2_1", "--iso", at_bound + " ")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == "error: --iso has 131073 characters, over the limit of 131072\n"


DEEP = "[" * 100_000  # nesting past Python's recursion limit


@pytest.mark.parametrize("argv", [
    ("oracle", "\u00b2"),
    ("oracle", "\u0663*abs(x)"),
    ("oracle", "x^\u00b2"),
    ("check-plot", "kink2_1", "1/\u0663*abs(x)", "0"),
    ("cross-validate", "kink3_1", "0,1,\u0663"),
    ("hat-dual", "kink2_1", "--iso", '[["\u0661", "0"], ["0", "1"]]'),
    ("-f", "{generator}", "dual", "g"),
    ("-f", "{matrix}", "check-map", "m"),
    ("-f", "{deep}", "dual", "f"),
    ("hat-dual", "kink2_1", "--iso", DEEP),
], ids=["superscript-two", "arabic-indic-three", "superscript-exponent",
        "arabic-indic-denominator", "arabic-indic-functional", "arabic-indic-iso",
        "superscript-generator", "arabic-indic-map-entry", "deep-space-file", "deep-iso"])
@pytest.mark.parametrize("mode", [(), ("--json",)], ids=["human", "json"])
def test_non_ascii_digits_and_deep_nesting_exit_2_with_one_error_line(run, tmp_path, argv, mode):
    """Integers are ASCII digits only: a character that Unicode counts as a
    digit, such as a superscript or an Arabic-Indic digit, is an input
    error in an expression and in a rational.  JSON nested past the
    recursion limit, in a space file or an --iso matrix, is an input error
    too, not a RecursionError."""
    fine = {"f": {"dim": 1, "diffeology": "fine"}}
    texts = {
        "generator": json.dumps({"spaces": {"g": {"dim": 1, "diffeology": {
            "generated": [["\u00b2"]]}}}}),
        "matrix": json.dumps({"spaces": fine, "maps": {"m": {
            "from": "f", "to": "f", "matrix": [["\u0663"]]}}}),
        "deep": DEEP,
    }
    paths = {}
    for name, text in texts.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(text)
    code, out, err = run(*mode, *(arg.format(**paths) if arg.startswith("{") else arg
                                  for arg in argv))
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


def test_verify_json_times_each_check_to_the_microsecond(run, monkeypatch):
    # A check under 1 ms reads in steps of 1 us, not of 0.1 ms.
    results = [CheckResult("fast", True, "ok", 0.000123456789),
               CheckResult("slow", True, "ok", 1.2345678)]
    monkeypatch.setattr(cli, "run_checks", lambda spaces: results)
    code, out, _ = run("--json", "verify")
    assert code == 0
    assert [c["elapsed"] for c in json.loads(out)["result"]["checks"]] == [0.000123, 1.234568]


def test_verify_json_is_stable(run):
    code, out, _ = run("--json", "verify")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdicts"]["all_passed"] is True
    names = [c["name"] for c in doc["result"]["checks"]]
    assert "tensor-dual-multiplicativity" in names
