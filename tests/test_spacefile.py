"""Space-definition file loading and validation."""

from fractions import Fraction

import pytest

from diffeolin import SpaceFileError, Verdict, is_smooth_linear, load_space_document
from diffeolin.spaces import Coarse, Fine, Generated


def load(doc):
    return load_space_document(doc)


def test_load_all_descriptors():
    doc = {
        "spaces": {
            "f": {"dim": 2, "diffeology": "fine"},
            "c": {"dim": 3, "diffeology": "coarse"},
            "g": {"dim": 2, "diffeology": {"generated": [["abs(x)", "0"]]}},
        },
        "maps": {
            "h": {"from": "g", "to": "f", "matrix": [["0", "0"], ["0", "1"]]},
        },
    }
    sf = load(doc)
    assert isinstance(sf.space("f").diffeology, Fine)
    assert isinstance(sf.space("c").diffeology, Coarse)
    assert isinstance(sf.space("g").diffeology, Generated)
    assert is_smooth_linear(sf.map("h")) is Verdict.SMOOTH


def test_rationals_as_strings_or_ints():
    doc = {
        "spaces": {"f": {"dim": 1, "diffeology": "fine"}},
        "maps": {"m": {"from": "f", "to": "f", "matrix": [["-3/2"]]}},
    }
    sf = load(doc)
    assert str(sf.map("m").matrix[0][0]) == "-3/2"

    doc["maps"]["m"]["matrix"] = [[2]]
    assert load(doc).map("m").matrix[0][0] == 2


def test_floats_rejected():
    doc = {
        "spaces": {"f": {"dim": 1, "diffeology": "fine"}},
        "maps": {"m": {"from": "f", "to": "f", "matrix": [[0.5]]}},
    }
    with pytest.raises(SpaceFileError):
        load(doc)


@pytest.mark.parametrize("entry", [True, "0.5", "1e3", "1e-10000000", "1_000", " 1", "1/", "/2",
                                   "1/0"])
def test_rational_strings_follow_the_documented_grammar(entry):
    """Only integers and "p/q" strings are rationals: booleans, decimals,
    exponents, underscores and padding are rejected before any conversion."""
    doc = {
        "spaces": {"f": {"dim": 1, "diffeology": "fine"}},
        "maps": {"m": {"from": "f", "to": "f", "matrix": [[entry]]}},
    }
    with pytest.raises(SpaceFileError):
        load(doc)
    for good in ("7", "+2", "-3/4", "06/08"):
        doc["maps"]["m"]["matrix"] = [[good]]
        assert load(doc).map("m").matrix[0][0] == Fraction(good)


def test_unknown_space_reference():
    doc = {
        "spaces": {"f": {"dim": 1, "diffeology": "fine"}},
        "maps": {"m": {"from": "f", "to": "nope", "matrix": [[1]]}},
    }
    with pytest.raises(SpaceFileError):
        load(doc)
    # A name must be a string: a list or an object is not looked up at all.
    for name in (["f"], {"f": 1}):
        doc["maps"]["m"]["to"] = name
        with pytest.raises(SpaceFileError, match="'to' must be a space name"):
            load(doc)


def test_matrix_shape_validated():
    doc = {
        "spaces": {
            "a": {"dim": 2, "diffeology": "fine"},
            "b": {"dim": 1, "diffeology": "fine"},
        },
        "maps": {"m": {"from": "a", "to": "b", "matrix": [[1]]}},
    }
    with pytest.raises(SpaceFileError, match="each matrix row needs 2 entries"):
        load(doc)
    doc["maps"]["m"]["matrix"] = [[1, 0], [0, 1]]
    with pytest.raises(SpaceFileError, match="matrix needs 1 rows"):
        load(doc)


@pytest.mark.parametrize("doc, message", [
    ([], "top level must be an object"),
    ({"spaces": {"s": "fine"}}, "space 's' must be an object"),
    ({"spaces": {"f": {"dim": 1, "diffeology": "fine"}}, "maps": {"m": ["f", "f"]}},
     "map 'm' must be an object"),
    ({"spaces": {"g": {"dim": 1, "diffeology": {"generated": [[1]]}}}},
     "generator 0 of space 'g': expressions must be strings"),
])
def test_document_structure_validated(doc, message):
    """Each level of the document has the JSON type the format names."""
    with pytest.raises(SpaceFileError, match=message):
        load(doc)


def test_generator_arity_validated():
    doc = {"spaces": {"g": {"dim": 2, "diffeology": {"generated": [["abs(x)"]]}}}}
    with pytest.raises(SpaceFileError):
        load(doc)


def test_generator_expressions_validated():
    doc = {"spaces": {"g": {"dim": 1, "diffeology": {"generated": [["abs(y)"]]}}}}
    with pytest.raises(SpaceFileError) as err:
        load(doc)
    assert "position" in str(err.value)


def test_dim_must_be_positive_integer():
    for bad in (0, -1, "2", 2.0, True):
        with pytest.raises(SpaceFileError):
            load({"spaces": {"s": {"dim": bad, "diffeology": "fine"}}})


def test_bundled_file_loads(tmp_path):
    from diffeolin.cli import _default_space_file
    from diffeolin.spacefile import load_space_file

    sf = load_space_file(_default_space_file())
    assert "kink2_1" in sf.spaces
    assert "fine_to_coarse2" in sf.maps
