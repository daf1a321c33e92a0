"""Space-definition files.

JSON schema::

    {
      "spaces": {
        "name": {"dim": n, "diffeology": "fine" | "coarse"
                                        | {"generated": [[expr, ...], ...]}}
      },
      "maps": {
        "name": {"from": "space", "to": "space", "matrix": [["p/q", ...], ...]}
      }
    }

Each generator is a list of expression strings, one per coordinate.
Rationals are integers or "p/q" strings of ASCII digits; float literals and
decimal or exponent strings are rejected so that every loaded object is
exact.  A document nested past Python's recursion limit is invalid JSON.  A
space has at most ``MAX_DIM`` dimensions and ``MAX_GENERATORS``
generators, so that no file can make the engine hang.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction

from .exprparse import ParseError, parse_expr
from .hom import LinearMap
from .spaces import DiffSpace, Plot, make_coarse, make_fine, make_generated

MAX_DIM = 64
MAX_GENERATORS = 64
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


class SpaceFileError(ValueError):
    pass


@dataclass
class SpaceFile:
    spaces: dict[str, DiffSpace] = field(default_factory=dict)
    maps: dict[str, LinearMap] = field(default_factory=dict)

    def space(self, name: str) -> DiffSpace:
        if name not in self.spaces:
            raise SpaceFileError(f"unknown space {name!r}")
        return self.spaces[name]

    def map(self, name: str) -> LinearMap:
        if name not in self.maps:
            raise SpaceFileError(f"unknown map {name!r}")
        return self.maps[name]


def parse_rational(value) -> Fraction:
    if isinstance(value, bool):
        raise SpaceFileError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise SpaceFileError("float literals are not allowed; use \"p/q\" strings")
    if isinstance(value, str) and _RATIONAL.fullmatch(value):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise SpaceFileError(f"not a rational: {value!r}") from exc
    raise SpaceFileError(f"not a rational: {value!r}")


def _load_space(name: str, body) -> DiffSpace:
    if not isinstance(body, dict):
        raise SpaceFileError(f"space {name!r} must be an object")
    dim = body.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise SpaceFileError(f"space {name!r} needs a positive integer dim")
    if dim > MAX_DIM:
        raise SpaceFileError(f"space {name!r}: dim {dim} exceeds the limit of {MAX_DIM}")
    diffeology = body.get("diffeology")
    if diffeology == "fine":
        return make_fine(dim)
    if diffeology == "coarse":
        return make_coarse(dim)
    if isinstance(diffeology, dict) and set(diffeology) == {"generated"}:
        generators = diffeology["generated"]
        if not isinstance(generators, list) or len(generators) > MAX_GENERATORS:
            raise SpaceFileError(
                f"space {name!r}: generated needs a list of at most {MAX_GENERATORS} generators"
            )
        plots = []
        for k, coords in enumerate(generators):
            if not isinstance(coords, list) or len(coords) != dim:
                raise SpaceFileError(
                    f"generator {k} of space {name!r} needs {dim} coordinate expressions"
                )
            components = []
            for expr_text in coords:
                if not isinstance(expr_text, str):
                    raise SpaceFileError(
                        f"generator {k} of space {name!r}: expressions must be strings"
                    )
                try:
                    components.append(parse_expr(expr_text))
                except ParseError as exc:
                    raise SpaceFileError(
                        f"generator {k} of space {name!r}: {exc}"
                    ) from exc
            plots.append(Plot(components))
        return make_generated(dim, plots)
    raise SpaceFileError(
        f"space {name!r}: diffeology must be \"fine\", \"coarse\" or {{\"generated\": ...}}"
    )


def load_space_file(path: str) -> SpaceFile:
    with open(path) as fh:
        try:
            document = json.load(fh)
        # A JSONDecodeError, an int past Python's digit limit, or a
        # RecursionError from nesting past the recursion limit.
        except (ValueError, RecursionError) as exc:
            raise SpaceFileError(f"invalid JSON: {exc}") from exc
    return load_space_document(document)


def load_space_document(document) -> SpaceFile:
    if not isinstance(document, dict):
        raise SpaceFileError("top level must be an object")
    spaces, maps = document.get("spaces", {}), document.get("maps", {})
    for key, section in (("spaces", spaces), ("maps", maps)):
        if not isinstance(section, dict):
            raise SpaceFileError(f"{key!r} must be an object")
    out = SpaceFile()
    for name, body in spaces.items():
        out.spaces[name] = _load_space(name, body)
    for name, body in maps.items():
        if not isinstance(body, dict):
            raise SpaceFileError(f"map {name!r} must be an object")
        for key in ("from", "to"):
            if key not in body:
                raise SpaceFileError(f"map {name!r} is missing {key!r}")
            if not isinstance(body[key], str):
                raise SpaceFileError(f"map {name!r}: {key!r} must be a space name")
        domain, codomain = out.space(body["from"]), out.space(body["to"])
        rows = body.get("matrix")
        if not isinstance(rows, list) or len(rows) != codomain.dim:
            raise SpaceFileError(
                f"map {name!r}: matrix needs {codomain.dim} rows"
            )
        parsed = []
        for row in rows:
            if not isinstance(row, list) or len(row) != domain.dim:
                raise SpaceFileError(
                    f"map {name!r}: each matrix row needs {domain.dim} entries"
                )
            parsed.append(tuple(parse_rational(x) for x in row))
        out.maps[name] = LinearMap(domain, codomain, tuple(parsed))
    return out
