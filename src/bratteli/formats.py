"""Canonical JSON file formats and rational serialization.

Diagram files come in two shapes:

    {"format": "triangular", "k0": 1, "mvectors": [[1], [1, 1], ...]}
    {"format": "general", "unital": true, "u1": [1], "matrices": [[[...]], ...]}

plus a targets file for synthesis inputs:

    {"format": "targets", "points": [["1"], ["2/3", "1/3"], ...]}

Parsing is strict: unknown keys are rejected so a mistyped field cannot be
silently ignored.  Diagram emission is canonical (sorted keys, fixed
separators), and parse(emit(x)) is the identity on canonical form.
Rationals travel as "p/q" strings (or bare integer strings); a target
coordinate may also be a JSON integer, but never a float, boolean, null,
list or object.  `point_from_coords` reads the canonical coordinates of a
point (JSON integers, ASCII digit strings and "p/q" of two of them) as
integers and every other form through `fraction_from_str`.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm
from typing import Any, Union

from .diagram import BratteliPrefix, MultiplicityMatrix, TriangularSpec
from .errors import FormatError
from .simplex import SimplexPoint

Diagram = Union[TriangularSpec, BratteliPrefix]


def fraction_to_str(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def fraction_from_str(s) -> Fraction:
    if isinstance(s, bool) or not isinstance(s, (str, int)):
        raise FormatError(f"not a rational: {s!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"not a rational: {s!r}") from exc


def _pair(c) -> tuple[int, int]:
    """Numerator and positive denominator of one point coordinate.  A
    canonical coordinate (a JSON int, a string of ASCII digits, or two such
    strings around "/" with a non-zero denominator) is read as integers;
    any other goes through `fraction_from_str`, which accepts or rejects it
    and words the error."""
    if type(c) is int:
        return c, 1
    if type(c) is str and c.isascii():
        p, slash, q = c.partition("/")
        if p.isdigit() and (not slash or q.isdigit()):
            try:
                num, den = int(p), (int(q) if slash else 1)
            except ValueError:  # a digit string past the int string-conversion limit
                den = 0
            if den:
                return num, den
    x = fraction_from_str(c)
    return x.numerator, x.denominator


def point_from_coords(coords: list, index: int | None = None) -> SimplexPoint:
    """The simplex point with the given coordinates, as
    `SimplexPoint([fraction_from_str(c) for c in coords])` gives it, with
    the same errors, built over the lcm of the coordinates' denominators.
    As point `index` of a targets file it must have index + 1 coordinates,
    and a sign or sum error names the point.
    """
    pairs = [_pair(c) for c in coords]
    if index is not None and len(pairs) != index + 1:
        raise FormatError(f"point {index} must have {index + 1} coordinates")
    den = lcm(*(d for _, d in pairs))
    try:
        return SimplexPoint._from_ints([n * (den // d) for n, d in pairs], den)
    except ValueError as exc:
        if index is None:
            raise
        raise FormatError(f"point {index}: {exc}") from exc


def _require_keys(obj: dict, required: set[str], what: str) -> None:
    keys = set(obj)
    if keys != required:
        unknown = keys - required
        missing = required - keys
        parts = []
        if unknown:
            parts.append(f"unknown keys {sorted(unknown)}")
        if missing:
            parts.append(f"missing keys {sorted(missing)}")
        raise FormatError(f"{what}: " + ", ".join(parts))


def _int(v, what: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise FormatError(f"{what} must be an integer, got {v!r}")
    return v


def _decode(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid JSON: {exc}") from exc


def parse_diagram(text: str) -> Diagram:
    return _diagram_from_json(_decode(text))


def _diagram_from_json(obj: Any) -> Diagram:
    if not isinstance(obj, dict):
        raise FormatError("top-level value must be an object")
    fmt = obj.get("format")
    if fmt == "triangular":
        _require_keys(obj, {"format", "k0", "mvectors"}, "triangular diagram")
        k0 = _int(obj["k0"], "k0")
        mvs = obj["mvectors"]
        if not isinstance(mvs, list) or not all(isinstance(m, list) for m in mvs):
            raise FormatError("mvectors must be a list of lists")
        try:
            return TriangularSpec(k0, [[_int(e, "multiplicity") for e in m] for m in mvs])
        except ValueError as exc:
            raise FormatError(str(exc)) from exc
    if fmt == "general":
        _require_keys(obj, {"format", "unital", "u1", "matrices"}, "general diagram")
        if not isinstance(obj["unital"], bool):
            raise FormatError("unital must be a boolean")
        u1 = obj["u1"]
        mats = obj["matrices"]
        if not isinstance(u1, list) or not isinstance(mats, list):
            raise FormatError("u1 and matrices must be lists")
        if not all(isinstance(m, list) and all(isinstance(row, list) for row in m) for m in mats):
            raise FormatError("matrices must be a list of lists of lists")
        try:
            levels = [[_int(e, "size") for e in u1]]
            matrices = []
            for m in mats:
                mat = MultiplicityMatrix([[_int(e, "multiplicity") for e in row] for row in m])
                matrices.append(mat)
                # the schema carries only the first level; later ones are
                # the images under the (unital) steps
                levels.append(list(mat.apply(levels[-1])))
            return BratteliPrefix(levels, matrices, unital=obj["unital"])
        except ValueError as exc:
            raise FormatError(str(exc)) from exc
    raise FormatError(f"unknown format {fmt!r}")


def diagram_json(diagram: Diagram) -> dict[str, Any]:
    """The JSON object of a diagram file, as `emit_diagram` writes it."""
    if isinstance(diagram, TriangularSpec):
        return {"format": "triangular", "k0": diagram.k0, "mvectors": [list(m) for m in diagram.mvectors]}
    if isinstance(diagram, BratteliPrefix):
        return {
            "format": "general",
            "unital": diagram.unital,
            "u1": list(diagram.levels[0].entries),
            "matrices": [[list(r) for r in m.entries] for m in diagram.matrices],
        }
    raise FormatError(f"cannot emit {type(diagram).__name__}")


def emit_diagram(diagram: Diagram) -> str:
    return json.dumps(diagram_json(diagram), sort_keys=True, separators=(",", ":")) + "\n"


def parse_targets(text: str) -> list[SimplexPoint]:
    return _targets_from_json(_decode(text))


def parse_targets_or_diagram(text: str) -> list[SimplexPoint] | Diagram:
    """The points of a targets file, else the file's diagram (whose parser
    reports a file that is neither), from one decode."""
    obj = _decode(text)
    if isinstance(obj, dict) and obj.get("format") == "targets":
        return _targets_from_json(obj)
    return _diagram_from_json(obj)


def _targets_from_json(obj: Any) -> list[SimplexPoint]:
    if not isinstance(obj, dict) or obj.get("format") != "targets":
        raise FormatError("expected a targets object")
    _require_keys(obj, {"format", "points"}, "targets")
    pts = obj["points"]
    if not isinstance(pts, list):
        raise FormatError("points must be a list")
    out = []
    for n, p in enumerate(pts):
        if not isinstance(p, list):
            raise FormatError(f"point {n} must be a list")
        out.append(point_from_coords(p, n))
    return out

