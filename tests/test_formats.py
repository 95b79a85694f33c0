from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from bratteli import BratteliPrefix, FormatError, SimplexPoint, TriangularSpec
from bratteli.cli import run
from bratteli.formats import (
    emit_diagram,
    fraction_from_str,
    fraction_to_str,
    parse_diagram,
    parse_targets,
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
