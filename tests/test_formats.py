from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from bratteli import BratteliPrefix, FormatError, SimplexPoint, TriangularSpec
from bratteli.cli import _jsonable, run
from bratteli.formats import (
    emit_diagram,
    fraction_from_str,
    fraction_to_str,
    parse_diagram,
    parse_targets,
    point_from_coords,
)
from bratteli.fixtures import FIXTURE_NAMES, fixtures


class TestRationals:
    def test_roundtrip(self):
        for x in (F(0), F(3), F(-2, 7), F(22, 4)):
            assert fraction_from_str(fraction_to_str(x)) == x

    def test_integers_stay_bare(self):
        assert fraction_to_str(F(5)) == "5"
        assert fraction_to_str(F(5, 2)) == "5/2"

    def test_bad_input(self):
        with pytest.raises(FormatError):
            fraction_from_str("1/0")
        with pytest.raises(FormatError):
            fraction_from_str("a/b")

    @pytest.mark.parametrize("value", [None, True, False, 0.1, 1.0, [1], {"p": 1}, F(1, 2)])
    def test_only_strings_and_integers(self, value):
        with pytest.raises(FormatError, match=r"^not a rational: "):
            fraction_from_str(value)


class TestDiagramFiles:
    def test_triangular_roundtrip(self):
        spec = TriangularSpec(2, [(1,), (3, 0), (1, 2, 1)])
        assert parse_diagram(emit_diagram(spec)) == spec

    def test_general_roundtrip(self, ex57b):
        text = emit_diagram(ex57b)
        again = parse_diagram(text)
        assert again == ex57b
        assert emit_diagram(again) == text

    def test_general_derives_sizes_from_first_level(self):
        text = '{"format":"general","matrices":[[[1],[2]]],"u1":[1],"unital":true}'
        prefix = parse_diagram(text)
        assert [l.entries for l in prefix.levels] == [(1,), (1, 2)]

    def test_unknown_keys_rejected(self):
        with pytest.raises(FormatError):
            parse_diagram('{"format":"triangular","k0":1,"mvectors":[[1]],"extra":0}')
        with pytest.raises(FormatError):
            parse_diagram('{"format":"general","u1":[1],"matrices":[]}')

    def test_unknown_format_rejected(self):
        with pytest.raises(FormatError):
            parse_diagram('{"format":"circular"}')

    @pytest.mark.parametrize("matrices", [[5], [[5]], ["ab"], [{"a": [1]}], [[[1]], 2]])
    def test_general_matrices_must_nest_three_deep(self, matrices):
        text = json.dumps({"format": "general", "unital": True, "u1": [1], "matrices": matrices})
        with pytest.raises(FormatError, match=r"^matrices must be a list of lists of lists$"):
            parse_diagram(text)

    def test_non_integer_entries_rejected(self):
        with pytest.raises(FormatError):
            parse_diagram('{"format":"triangular","k0":1,"mvectors":[[1.5]]}')
        with pytest.raises(FormatError):
            parse_diagram('{"format":"triangular","k0":true,"mvectors":[[1]]}')


class TestTargetsFiles:
    def test_dimension_check(self):
        with pytest.raises(FormatError):
            parse_targets('{"format":"targets","points":[["1/2","1/2"]]}')

    def test_sum_check(self):
        with pytest.raises(FormatError):
            parse_targets('{"format":"targets","points":[["1/2"]]}')

    @pytest.mark.parametrize("coord", ["null", "true", "0.1", "[1]", '{"p":1}'])
    def test_coordinate_must_be_string_or_integer(self, coord):
        text = '{"format":"targets","points":[["1"],[%s,"9/10"]]}' % coord
        with pytest.raises(FormatError, match=r"^not a rational: "):
            parse_targets(text)

    def test_integer_coordinates_accepted(self):
        points = parse_targets('{"format":"targets","points":[[1],[0,"1"]]}')
        assert points == [SimplexPoint([F(1)]), SimplexPoint([F(0), F(1)])]


# --- the point reader and writer against the Fraction path -----------------


def reference_point(coords, index=None):
    """Oracle: the reader before integer pairs, one `Fraction` per
    coordinate, then the public constructor (as `_targets_from_json` read
    point `index`, or as `--point` read a point when index is None)."""
    values = [fraction_from_str(c) for c in coords]
    if index is not None and len(values) != index + 1:
        raise FormatError(f"point {index} must have {index + 1} coordinates")
    try:
        return SimplexPoint(values)
    except ValueError as exc:
        if index is None:
            raise
        raise FormatError(f"point {index}: {exc}") from exc


def read_outcome(read, coords, index):
    try:
        p = read(coords, index)
    except ValueError as exc:  # FormatError included
        return type(exc), str(exc)
    return type(p), p.nums, p.den


ODD_COORDS = [
    "2/4", "00", "007/014", "1/0", "0/0", "+1", "-1", "-1/2", " 1/2", "1/2 ", "0.5", "1e-3", "1_0", "1/1_0",
    "²", "١/٢", "٣", "", "/", "1/", "/2", "1//2", "1/2/3", "0x1", "½", True, False, None, 0.5, [1],
    -1, 0, 1, 2,
]
BIG = "1" * 4301  # past the default int string-conversion limit of 4300 digits


def _canonical_text(draw, x: F) -> str | int:
    """x written canonically: an int, ASCII digits, or an unreduced "p/q"
    with optional leading zeros."""
    k = draw(st.integers(1, 6))
    zeros = "0" * draw(st.integers(0, 2))
    if x.denominator == 1 and draw(st.booleans()):
        return x.numerator if draw(st.booleans()) else zeros + str(x.numerator)
    return f"{zeros}{x.numerator * k}/{x.denominator * k}"


@st.composite
def coordinate_lists(draw):
    """Coordinates of a point of the simplex, some rewritten in a
    non-canonical form, or arbitrary coordinates (mostly wrong sums)."""
    if draw(st.booleans()):
        weights = draw(st.lists(st.fractions(min_value=0, max_value=9, max_denominator=12), min_size=1, max_size=5))
        total = sum(weights)
        xs = [w / total for w in weights] if total else weights
        out = []
        for x in xs:
            form = draw(st.sampled_from(["canonical", "canonical", "spaced", "signed", "decimal", "odd"]))
            if form == "canonical":
                out.append(_canonical_text(draw, x))
            elif form == "spaced":
                out.append(f" {x.numerator}/{x.denominator} ")
            elif form == "signed":
                out.append(f"+{x.numerator}/{x.denominator}")
            elif form == "decimal" and 10**6 % x.denominator == 0:
                out.append(str(x.numerator * (10**6 // x.denominator) / 10**6))
            else:
                out.append(draw(st.sampled_from(ODD_COORDS)))
        return out
    atoms = st.sampled_from(ODD_COORDS) | st.integers(-3, 12) | st.text("0123456789/ .+-_e", max_size=6)
    return draw(st.lists(atoms, max_size=5))


class TestPointReader:
    """`point_from_coords` gives the point or the error of the Fraction path."""

    @settings(max_examples=600, deadline=None)
    @given(coordinate_lists(), st.none() | st.integers(0, 5))
    def test_matches_fraction_path(self, coords, index):
        assert read_outcome(point_from_coords, coords, index) == read_outcome(reference_point, coords, index)

    @pytest.mark.parametrize("coord", ODD_COORDS)
    @pytest.mark.parametrize("index", [None, 1])
    def test_listed_forms(self, coord, index):
        for coords in ([coord, "1/2"], ["1/2", coord], [coord]):
            assert read_outcome(point_from_coords, coords, index) == read_outcome(reference_point, coords, index)

    @pytest.mark.parametrize("coord", [BIG, "0" * 4301, "1/" + BIG, BIG + "/1"])
    def test_past_the_digit_limit(self, coord):
        for coords in ([coord, "0"], ["0", coord]):
            outcome = read_outcome(point_from_coords, coords, 1)
            assert outcome == read_outcome(reference_point, coords, 1)
            assert outcome[0] is FormatError

    def test_long_canonical_coordinates(self):
        q = 10**4000
        coords = [f"1/{q}", f"{q - 1}/{q}"]
        assert point_from_coords(coords) == SimplexPoint([F(1, q), F(q - 1, q)])

    def test_unreduced_and_integer_coordinates(self):
        p = point_from_coords(["2/4", 0, "0002/8", "1/4"])
        assert (p.nums, p.den) == ((2, 0, 1, 1), 4)


class TestPointWriter:
    """`_jsonable` writes a point from its integers, as `fraction_to_str` of
    each `Fraction` coordinate."""

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.fractions(min_value=0, max_value=10**9, max_denominator=10**6), min_size=1, max_size=8).filter(any))
    def test_matches_fraction_path(self, weights):
        p = SimplexPoint.normalized(weights)
        assert _jsonable(p) == [fraction_to_str(c) for c in p.coords]

    def test_vertices_and_zeros(self):
        assert _jsonable(SimplexPoint.vertex(3, 1)) == ["0", "1", "0"]
        assert _jsonable(SimplexPoint([F(1, 2), 0, F(1, 2)])) == ["1/2", "0", "1/2"]


# --- fuzz: malformed files fail with FormatError, and with one CLI line ----

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)

VALID_FILES = [
    {"format": "triangular", "k0": 1, "mvectors": [[1], [1, 1]]},
    {"format": "general", "unital": True, "u1": [1], "matrices": [[[1], [2]], [[1, 0], [0, 1], [0, 2]]]},
    {"format": "targets", "points": [["1"], ["2/3", "1/3"], [1, 0, "0"]]},
]


def _paths(value, path=()):
    """Every position in a JSON value, the root included."""
    yield path
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield from _paths(child, path + (key,))


def _replaced(value, path, new):
    copy = json.loads(json.dumps(value))
    parent = copy
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = new
    return copy


@st.composite
def one_field_replaced(draw):
    base = draw(st.sampled_from(VALID_FILES))
    path = draw(st.sampled_from(list(_paths(base))[1:]))
    return json.dumps(_replaced(base, path, draw(json_values)))


malformed_texts = json_values.map(json.dumps) | one_field_replaced()


def _cli(argv, stdin):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin)), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


class TestMalformedFiles:
    """Whatever JSON a file holds, the parsers return or raise FormatError,
    and the CLI turns a rejection into exit 1 and one `bratteli:` line."""

    @settings(max_examples=300, deadline=None)
    @given(malformed_texts)
    @example('{"format":"general","unital":true,"u1":[1],"matrices":[5]}')
    @example('{"format":"general","unital":true,"u1":[1],"matrices":[[5]]}')
    @example('{"format":"targets","points":[[null]]}')
    def test_parsers_fail_only_with_format_error(self, text):
        for parser, argv in (
            (parse_diagram, ["check-rfd", "-"]),
            (parse_targets, ["synthesize", "--targets", "-", "--levels", "0"]),
        ):
            try:
                parser(text)
            except FormatError:
                code, out, err = _cli(argv, text)
                assert (code, out) == (1, "")
                assert err.startswith("bratteli: ") and err.count("\n") == 1 and err.endswith("\n")


class TestFixtures:
    def test_all_fixtures_parse_validate_and_reemit(self):
        for name in FIXTURE_NAMES:
            text = fixtures(name)
            diagram = parse_diagram(text)
            assert emit_diagram(diagram) == text
            if isinstance(diagram, BratteliPrefix):
                assert diagram.validate().ok

    def test_fixture_emission_is_deterministic(self):
        for name in FIXTURE_NAMES:
            assert fixtures(name) == fixtures(name)

    def test_ex43_is_the_all_ones_family(self):
        spec = parse_diagram(fixtures("ex43"))
        assert isinstance(spec, TriangularSpec)
        assert spec.k0 == 1
        assert all(m == (1,) * (n + 1) for n, m in enumerate(spec.mvectors))

    def test_ex57b_matrix_shape(self, ex57b):
        for n, mat in enumerate(ex57b.matrices):
            assert mat.rows == n + 2 and mat.cols == n + 1
            assert mat.entries[n + 1] == (0,) * n + (2,)
