"""The CLI's bytes, pinned three ways.

- The recorded corpus (`data/cli_corpus.json`, written by
  `record_cli_corpus.py`): every verb and action on every fixture, with and
  without --json, one op of each benchmark rung family, the leftover-file
  case, input errors and the paths those miss, each replayed for identical
  stdout, stderr, exit code and written files.
- Help, usage and argparse's error texts change between Python patch
  releases, so they are compared in the running interpreter: `run` against
  the same `run` with the parser of every verb.
- A work guard: a `check-rfd` run builds only its own subparser.
"""

from __future__ import annotations

import argparse
import io
import json
from pathlib import Path

import pytest

from bratteli import cli
from bratteli.cli import run
from bratteli.fixtures import fixtures

CORPUS = json.loads((Path(__file__).parent / "data" / "cli_corpus.json").read_text(encoding="utf-8"))


def _case_id(index: int, case: dict) -> str:
    return f"{index:03d}-" + "-".join(case["argv"][:2])


@pytest.mark.parametrize(
    "case", CORPUS["cases"], ids=[_case_id(i, c) for i, c in enumerate(CORPUS["cases"])]
)
def test_corpus_replays_byte_for_byte(case, capsys, monkeypatch, tmp_path):
    for name in case["files"]:
        (tmp_path / name).write_text(CORPUS["files"][name], encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    for key, value in case["env"].items():
        monkeypatch.setenv(key, value)
    monkeypatch.setattr("sys.stdin", io.StringIO(case["stdin"] or ""))
    code = run(case["argv"])
    out, err = capsys.readouterr()
    written = {
        name: (tmp_path / name).read_text(encoding="utf-8") if (tmp_path / name).exists() else None
        for name in case["writes"]
    }
    assert (code, out, err, written) == (case["code"], case["stdout"], case["stderr"], case["written"])


def _outcome(capsys, argv):
    try:
        code = run(argv)
    except SystemExit as exc:  # help exits through argparse
        code = ("exit", exc.code)
    out, err = capsys.readouterr()
    return code, out, err


ARGPARSE_ARGVS = [
    [],
    ["-h"],
    ["--help"],
    *([verb, "-h"] for verb in cli._VERBS),
    ["ideals", "close", "-h"],
    ["nope"],
    ["--json"],
    ["--json", "check-rfd", "ex43.json"],
    ["check-rfd"],
    ["ideals"],
    ["intertwine", "gaps", "ex43.json"],
    ["synthesize", "--stationary", "geometric:1/2"],
    ["classify"],
    ["ideals", "bogus", "ex43.json"],
    ["check-rfd", "ex43.json", "--mode", "sideways"],
    ["intertwine", "gaps", "ex43.json", "ex43.json", "--metric", "l3"],
    ["check-rfd", "ex43.json", "extra.json"],
    ["traces", "zeta", "--level", "4", "ex43.json", "extra.json"],
    ["k0", "check", "ex43.json", "--x", "1", "--bogus"],
    ["check-rfd", "ex43.json", "--depth"],
    ["check-rfd", "ex43.json", "--depth", "x"],
    ["check-rfd", "ex43.json", "--mo", "perm", "--de", "5"],
    ["traces", "zeta", "ex43.json", "--lev", "3"],
    ["traces", "push", "ex43.json", "--l", "3"],
    ["export", "ex43.json", "--js", "--dep", "2"],
    ["fixtures", "ex43", "--j"],
]


@pytest.mark.parametrize("argv", ARGPARSE_ARGVS, ids=[" ".join(a) or "(none)" for a in ARGPARSE_ARGVS])
def test_argparse_texts_match_the_full_parser(argv, capsys, monkeypatch, tmp_path):
    (tmp_path / "ex43.json").write_text(fixtures("ex43"), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    got = _outcome(capsys, argv)
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda names: build(cli._VERBS))
    assert got == _outcome(capsys, argv)


def test_check_rfd_builds_only_its_own_subparser(monkeypatch, tmp_path):
    (tmp_path / "ex43.json").write_text(fixtures("ex43"), encoding="utf-8")
    calls = []
    add = argparse.ArgumentParser.add_argument

    def counting(self, *args, **kwargs):
        calls.append(args)
        return add(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting)
    assert run(["check-rfd", str(tmp_path / "ex43.json")]) == 0
    # -h of the top-level parser and of check-rfd, then file, --ji,
    # --mode, --depth and --json
    assert len(calls) <= 7, calls
