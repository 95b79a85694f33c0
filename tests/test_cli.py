from __future__ import annotations

import io
import itertools
import json
from fractions import Fraction

import pytest

from bratteli.cli import run
from bratteli.diagram import BratteliPrefix
from bratteli.dotexport import export_dot
from bratteli.fixtures import fixtures
from bratteli.formats import parse_diagram

from conftest import all_ones_spec, embed


@pytest.fixture
def ex43_file(tmp_path):
    path = tmp_path / "ex43.json"
    path.write_text(fixtures("ex43"))
    return str(path)


@pytest.fixture
def ex57b_file(tmp_path):
    path = tmp_path / "ex57B.json"
    path.write_text(fixtures("ex57B"))
    return str(path)


@pytest.fixture
def ex57a_right_file(tmp_path):
    path = tmp_path / "ex57A-right.json"
    path.write_text(fixtures("ex57A-right"))
    return str(path)


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_consistent_is_zero(self, capsys, ex43_file):
        code, out, _ = run_capture(capsys, ["check-rfd", "--ji", ex43_file])
        assert code == 0
        assert "Consistent" in out

    def test_violation_is_two(self, capsys, ex57a_right_file):
        code, out, _ = run_capture(capsys, ["check-rfd", "--ji", ex57a_right_file])
        assert code == 2
        assert "Violation" in out

    def test_usage_error_is_one(self, capsys):
        code, _, err = run_capture(capsys, ["check-rfd", "--bogus"])
        assert code == 1
        assert err

    def test_missing_file_is_one(self, capsys):
        code, _, err = run_capture(capsys, ["check-rfd", "/nonexistent.json"])
        assert code == 1
        assert err

    def test_unknown_fixture_is_one(self, capsys):
        code, _, err = run_capture(capsys, ["fixtures", "nope"])
        assert code == 1
        assert "unknown fixture" in err

    def test_not_compact_is_two(self, capsys, ex57b_file):
        code, out, _ = run_capture(
            capsys, ["ideals", "compact", ex57b_file, "--profile", "co-last-column"]
        )
        assert code == 2
        assert "not compact at depth" in out

    def test_compact_is_zero(self, capsys, ex57a_right_file):
        code, out, _ = run_capture(
            capsys, ["ideals", "compact", ex57a_right_file, "--seeds", "1:0"]
        )
        assert code == 0
        assert out.startswith("compact")

    @pytest.mark.parametrize("action", ["quotient", "compact"])
    def test_non_integer_profile_column_is_one(self, capsys, ex57b_file, action):
        code, out, err = run_capture(
            capsys, ["ideals", action, ex57b_file, "--profile", "co-column:abc"]
        )
        assert code == 1
        assert not out
        assert "--profile" in err and "'co-column:abc'" in err


class TestPipedZeta:
    def test_exact_rendered_string(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(fixtures("ex43")))
        code, out, _ = run_capture(capsys, ["traces", "zeta", "--level", "4", "-"])
        assert code == 0
        assert out.strip() == "(1/16,1/16,2/16,4/16,8/16)"


class TestJsonOutput:
    def test_check_rfd_json(self, capsys, ex43_file):
        code, out, _ = run_capture(capsys, ["check-rfd", "--ji", "--json", ex43_file])
        assert code == 0
        obj = json.loads(out)
        assert obj["consistent"] is True
        assert obj["r"][:4] == [1, 2, 3, 4]
        assert "caveat" in obj

    def test_zeta_json_uses_reduced_fractions(self, capsys, ex43_file):
        code, out, _ = run_capture(
            capsys, ["traces", "zeta", ex43_file, "--level", "4", "--json"]
        )
        obj = json.loads(out)
        assert obj["point"] == ["1/16", "1/16", "1/8", "1/4", "1/2"]

    def test_classify_json(self, capsys):
        code, out, _ = run_capture(
            capsys, ["classify", "--stationary", "geometric:1/2", "--json"]
        )
        obj = json.loads(out)
        assert obj["verdict"] == "non-bauer"
        assert obj["e_inf"][:3] == ["1/2", "1/4", "1/8"]

    def test_gaps_json(self, capsys, ex43_file):
        code, out, _ = run_capture(
            capsys,
            ["intertwine", "gaps", ex43_file, ex43_file, "--tail", "geometric:1/2", "--json"],
        )
        obj = json.loads(out)
        assert set(obj["gaps"]) == {"0"}
        assert obj["certificate"] is not None


class TestSynthesizePipeline:
    def test_emits_parseable_diagram(self, capsys, tmp_path):
        cert_path = tmp_path / "cert.json"
        code, out, _ = run_capture(
            capsys,
            [
                "synthesize",
                "--stationary",
                "geometric:1/2",
                "--levels",
                "6",
                "--exact",
                "--certificate",
                str(cert_path),
            ],
        )
        assert code == 0
        spec = parse_diagram(out)
        cert = json.loads(cert_path.read_text())
        assert len(cert["levels"]) == 7
        assert all(l["gap_l1"] == "0" for l in cert["levels"])
        # the emitted diagram feeds back into check-rfd
        diagram_path = tmp_path / "syn.json"
        diagram_path.write_text(out)
        code2, out2, _ = run_capture(capsys, ["check-rfd", "--ji", str(diagram_path)])
        assert code2 == 0

    def test_explicit_targets_file(self, capsys, tmp_path):
        targets = tmp_path / "targets.json"
        targets.write_text(
            '{"format":"targets","points":[["1"],["2/3","1/3"],["1/2","1/4","1/4"]]}'
        )
        code, out, _ = run_capture(
            capsys,
            ["synthesize", "--targets", str(targets), "--levels", "2", "--exact"],
        )
        assert code == 0
        parse_diagram(out)

    def test_fourteen_exact_levels(self, capsys):
        # the product scale used to stop this at the 4300-digit limit
        code, out, err = run_capture(
            capsys,
            ["synthesize", "--stationary", "geometric:1/2", "--levels", "14", "--exact", "--json"],
        )
        assert code == 0 and err == ""
        obj = json.loads(out)
        mvectors = obj["diagram"]["mvectors"]
        levels = obj["certificate"]["levels"]
        assert len(mvectors) == len(levels) == 15
        ks = [obj["diagram"]["k0"]]
        for n, (m, level) in enumerate(zip(mvectors, levels)):
            ks.append(sum(a * b for a, b in zip(m, ks)))
            assert level["mvector"] == m and level["k_next"] == ks[-1]
            realized = [Fraction(a * b, ks[-1]) for a, b in zip(m, ks)]
            target = [Fraction(1, 2**j) for j in range(n + 1)]
            assert realized == [t / sum(target) for t in target]
            assert [Fraction(c) for c in level["zeta"]] == realized
            assert level["gap_l1"] == level["gap_l2_squared"] == "0"

    @pytest.mark.parametrize(
        "argv",
        [
            ["synthesize", "--stationary", "geometric:1/2", "--levels", "6"],
            ["synthesize", "--stationary", "geometric:1/2", "--levels", "9", "--exact", "--json"],
            ["synthesize", "--stationary", "geometric:2/3", "--levels", "5", "--k0", "3", "--json"],
            ["synthesize", "--targets", "@targets", "--levels", "2", "--exact", "--certificate", "@cert"],
            ["synthesize", "--stationary", "geometric:1/2", "--levels", "3", "--k0", "0"],
            ["synthesize", "--stationary", "geometric:1/2", "--levels", "-1"],
            ["synthesize", "--levels", "2"],
        ],
    )
    def test_reduced_flag_has_no_effect(self, capsys, tmp_path, argv):
        targets = tmp_path / "targets.json"
        targets.write_text(
            '{"format":"targets","points":[["1"],["2/3","1/3"],["1/2","1/4","1/4"]]}'
        )

        def outcome(extra):
            cert = tmp_path / f"cert{len(extra)}.json"
            paths = {"@targets": str(targets), "@cert": str(cert)}
            result = run_capture(capsys, [paths.get(a, a) for a in argv] + extra)
            return result, cert.read_text() if cert.exists() else None

        assert outcome([]) == outcome(["--reduced"])


class TestQuotientAndK0:
    def test_quotient_pipes_into_export(self, capsys, ex57a_right_file, tmp_path):
        code, out, _ = run_capture(
            capsys, ["ideals", "quotient", ex57a_right_file, "--seeds", "1:0"]
        )
        assert code == 0
        q = parse_diagram(out)
        assert [l.entries for l in q.levels[:4]] == [(1,), (2,), (4,), (8,)]

    def test_k0_check_and_witness(self, capsys, ex43_file):
        code, out, _ = run_capture(capsys, ["k0", "check", ex43_file, "--x", "1,0,1,2,4,8"])
        assert code == 0 and "index 1" in out
        code, out, _ = run_capture(capsys, ["k0", "check", ex43_file, "--x", "1,0,1,2,4,9"])
        assert code == 2
        code, out, _ = run_capture(
            capsys, ["k0", "witness", ex43_file, "--indices", "0,1", "--depth", "5"]
        )
        assert code == 0
        assert "[1, 0, 1, 2, 4, 8]" in out

    def test_k0_positive_without_file(self, capsys):
        code, _, _ = run_capture(capsys, ["k0", "positive", "--x", "1,2,0"])
        assert code == 0
        code, _, _ = run_capture(capsys, ["k0", "positive", "--x", "1,-2"])
        assert code == 2


class TestMoreVerbs:
    def test_quotient_dot_side_output(self, capsys, ex57a_right_file, tmp_path):
        dot_path = tmp_path / "q.dot"
        code, out, _ = run_capture(
            capsys,
            ["ideals", "quotient", ex57a_right_file, "--seeds", "1:0", "--dot", str(dot_path)],
        )
        assert code == 0
        assert dot_path.read_text().startswith("digraph")

    def test_traces_push(self, capsys, ex43_file):
        code, out, _ = run_capture(
            capsys,
            ["traces", "push", ex43_file, "--point", "0,0,0,1", "--from-level", "3", "--to-level", "2"],
        )
        assert code == 0
        assert out.strip() == "(1/4,1/4,2/4)"

    def test_traces_push_zero_size_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "zero.json"
        path.write_text(
            '{"format":"general","unital":true,"u1":[0,1],"matrices":[[[1,0],[0,1]]]}'
        )
        code, out, err = run_capture(
            capsys,
            ["traces", "push", str(path), "--point", "1/2,1/2", "--from-level", "1", "--to-level", "0"],
        )
        assert code == 1
        assert out == ""
        assert err.strip() == "bratteli: nonpositive size at level 0: u_0(0) = 0"

    def test_traces_label_family(self, capsys, ex43_file):
        family = "1;1/2,1/2;1/4,1/4,2/4;1/8,1/8,2/8,4/8"
        code, out, _ = run_capture(
            capsys,
            ["traces", "label", ex43_file, "--family", family, "--depth", "6"],
        )
        assert code == 0
        assert "type-II1-candidate" in out

    def test_enumerate_respects_width_env(self, capsys, ex57b_file, monkeypatch):
        monkeypatch.setenv("BRATTELI_MAX_WIDTH", "3")
        code, _, err = run_capture(capsys, ["ideals", "enumerate", ex57b_file])
        assert code == 1
        assert "width cap" in err
        monkeypatch.setenv("BRATTELI_MAX_WIDTH", "20")
        code, out, _ = run_capture(
            capsys, ["ideals", "enumerate", ex57b_file, "--depth", "3", "--json"]
        )
        assert code == 0
        # top level index 3 -> four levels, last width 4 -> 2^4 profiles
        assert json.loads(out)["count"] == 16

    @pytest.mark.parametrize("value", ["abc", "-3"])
    def test_enumerate_rejects_malformed_width_env(self, capsys, ex57b_file, monkeypatch, value):
        monkeypatch.setenv("BRATTELI_MAX_WIDTH", value)
        code, out, err = run_capture(capsys, ["ideals", "enumerate", ex57b_file])
        assert code == 1
        assert out == ""
        assert "BRATTELI_MAX_WIDTH" in err and repr(value) in err

    def test_intertwine_estimate(self, capsys, ex43_file):
        code, out, _ = run_capture(
            capsys,
            [
                "intertwine", "estimate", ex43_file, ex43_file,
                "--level", "0", "--vertex", "0", "--depth", "2",
                "--tail", "geometric:1/2",
            ],
        )
        assert code == 0
        assert "error bound 0" in out or "error bound" in out

    def test_ji_evidence_exit_codes(self, capsys, ex43_file, ex57a_right_file):
        code, out, _ = run_capture(
            capsys, ["ideals", "ji-evidence", ex43_file, "--depth", "6"]
        )
        assert code == 0 and "stabilizes" in out
        code, out, _ = run_capture(capsys, ["ideals", "ji-evidence", ex57a_right_file])
        assert code == 2 and "FAILS" in out

    def test_limit_restrict_from_stationary_rule(self, capsys):
        code, out, _ = run_capture(
            capsys,
            ["traces", "limit-restrict", "--stationary", "geometric:1/2", "--level", "1"],
        )
        assert code == 0
        assert out.strip() == "(2/3,1/3)"


class TestIntertwineFiles:
    """`intertwine` reads each file by its "format": a bad targets file
    reports its own error, not a diagram parse error."""

    @pytest.fixture
    def bad_targets(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format":"targets","points":[["1"],["1/2","1/3"]]}')
        return str(path)

    @pytest.mark.parametrize("bad_first", [True, False])
    @pytest.mark.parametrize(
        "action, extra",
        [("gaps", []), ("estimate", ["--level", "0", "--vertex", "0", "--depth", "1"])],
    )
    def test_targets_error_reaches_user(self, capsys, ex43_file, bad_targets, action, extra, bad_first):
        files = [bad_targets, ex43_file] if bad_first else [ex43_file, bad_targets]
        code, out, err = run_capture(capsys, ["intertwine", action, *files, *extra])
        assert code == 1 and out == ""
        assert err == "bratteli: point 1: coordinates must sum to 1, got 5/6\n"

    def test_synthesize_reports_the_same_error(self, capsys, bad_targets):
        code, _, err = run_capture(capsys, ["synthesize", "--targets", bad_targets, "--levels", "1"])
        assert code == 1
        assert err == "bratteli: point 1: coordinates must sum to 1, got 5/6\n"

    def test_targets_against_diagram(self, capsys, tmp_path, ex43_file):
        path = tmp_path / "targets.json"
        path.write_text('{"format":"targets","points":[["1"],["1/2","1/2"],["1/4","1/4","1/2"]]}')
        code, out, _ = run_capture(capsys, ["intertwine", "gaps", str(path), ex43_file, "--json"])
        assert code == 0
        assert len(json.loads(out)["gaps"]) == 2

    def test_invalid_json_is_reported(self, capsys, tmp_path, ex43_file):
        path = tmp_path / "junk.json"
        path.write_text("{")
        code, _, err = run_capture(capsys, ["intertwine", "gaps", str(path), ex43_file])
        assert code == 1 and err.startswith("bratteli: not valid JSON:")


class TestOneDecodeOneEncode:
    """Each input file is decoded once, and a report's diagram goes into the
    report's JSON without a decode of its own rendering."""

    @pytest.fixture
    def decodes(self, monkeypatch):
        seen = []
        original = json.loads

        def counting(text, *args, **kwargs):
            seen.append(text)
            return original(text, *args, **kwargs)

        monkeypatch.setattr(json, "loads", counting)
        return seen

    def test_intertwine_gaps(self, capsys, tmp_path, ex43_file, decodes):
        targets = tmp_path / "targets.json"
        targets.write_text('{"format":"targets","points":[["1"],["1/2","1/2"],["1/4","1/4","1/2"]]}')
        code, out, _ = run_capture(capsys, ["intertwine", "gaps", ex43_file, str(targets)])
        assert code == 0 and out.startswith("gap_0 = ")
        assert len(decodes) == 2

    def test_synthesize_json(self, capsys, decodes):
        code, out, _ = run_capture(capsys, ["synthesize", "--stationary", "geometric:1/2", "--levels", "6", "--json"])
        assert code == 0 and out.startswith('{"certificate": ')
        assert decodes == []

    def test_quotient_json(self, capsys, ex57b_file, decodes):
        code, out, _ = run_capture(capsys, ["ideals", "quotient", ex57b_file, "--profile", "zero", "--json"])
        assert code == 0 and '"diagram": {"format": "general"' in out
        assert len(decodes) == 1


class TestDotExport:
    def test_counts_match_direct_tally(self, capsys):
        prefix = embed(all_ones_spec(2), 2)
        # oracle recount straight off the multiplicity data
        nodes = sum(prefix.width(n) for n in range(prefix.depth))
        edges = sum(1 for m in prefix.matrices for row in m.entries for e in row if e)
        assert (nodes, edges) == (6, 6)
        text = export_dot(prefix)
        assert text.count("[label=") - text.count("->") == nodes
        assert text.count("->") == edges

    def test_single_level_has_no_edges(self):
        prefix = embed(all_ones_spec(0), 0)
        text = export_dot(prefix)
        assert "->" not in text

    def test_deterministic(self, ex57b):
        assert export_dot(ex57b) == export_dot(ex57b)

    def test_cli_export(self, capsys, ex43_file, tmp_path):
        out_path = tmp_path / "d.dot"
        code, _, _ = run_capture(
            capsys, ["export", ex43_file, "--depth", "3", "-o", str(out_path)]
        )
        assert code == 0
        assert out_path.read_text().startswith("digraph")


def leveled_isomorphic(a: BratteliPrefix, b: BratteliPrefix) -> bool:
    """Brute-force levelwise-relabeling isomorphism for small prefixes."""
    if a.depth != b.depth:
        return False
    widths = [a.width(n) for n in range(a.depth)]
    if widths != [b.width(n) for n in range(b.depth)]:
        return False

    def extend(level: int, perms: list[tuple[int, ...]]) -> bool:
        if level == a.depth:
            return True
        for perm in itertools.permutations(range(widths[level])):
            if tuple(a.levels[level][perm[v]] for v in range(widths[level])) != b.levels[level].entries:
                continue
            if level > 0:
                prev = perms[-1]
                mat_a, mat_b = a.matrices[level - 1], b.matrices[level - 1]
                if any(
                    mat_a.entry(perm[i], prev[j]) != mat_b.entry(i, j)
                    for i in range(widths[level])
                    for j in range(widths[level - 1])
                ):
                    continue
            if extend(level + 1, perms + [perm]):
                return True
        return False

    return extend(0, [])


class TestTwoPresentations:
    def test_left_and_right_are_isomorphic(self, ex57a_left, ex57a_right):
        small_left = ex57a_left.truncate(5)
        small_right = ex57a_right.truncate(5)
        assert leveled_isomorphic(small_left, small_right)

    def test_oracle_rejects_different_diagrams(self, ex57a_left, ex57b):
        assert not leveled_isomorphic(ex57a_left.truncate(4), ex57b.truncate(4))
