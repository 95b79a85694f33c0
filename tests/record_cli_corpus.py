"""Record the CLI argv corpus that `test_cli_corpus.py` replays.

The corpus holds a table of input files and a list of cases.  Each case
holds an argv, the names of the files it reads (written to a fresh
directory and named relative to it), optional standard input and
environment, and what `bratteli.cli.run` produced: exit code, stdout,
stderr and the files it wrote.  The corpus pins the program's own bytes;
texts that argparse writes (help, usage and its error messages) vary
between Python patch releases and are checked differentially in the test
instead, so no case here may produce one.

Run from the repository root, on the commit whose bytes are to be pinned:

    PYTHONPATH=src python tests/record_cli_corpus.py

It also takes one op of each benchmark rung family from `bench/workloads.py`.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "tests" / "data" / "cli_corpus.json"
ARGPARSE_TEXTS = (
    "usage:",
    "argument ",
    "unrecognized arguments",
    "the following arguments are required",
    "invalid choice",
    "expected one argument",
    "ambiguous option",
)

sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from bratteli.cli import run  # noqa: E402
from bratteli.diagram import TriangularSpec  # noqa: E402
from bratteli.fixtures import FIXTURE_NAMES, fixture_diagram, fixtures  # noqa: E402

TARGETS = '{"format":"targets","points":[["1"],["2/3","1/3"],["1/2","1/4","1/4"]]}\n'
BAD_TARGETS = '{"format":"targets","points":[["1"],["1/2","1/3"]]}\n'
ZERO_SIZE = '{"format":"general","unital":true,"u1":[0,1],"matrices":[[[1,0],[0,1]]]}\n'
INVALID_PREFIX = '{"format":"general","unital":true,"u1":[1,1],"matrices":[[[1,0],[0,0]]]}\n'
UNKNOWN_KEY = '{"format":"triangular","k0":1,"mvectors":[[1]],"colour":"red"}\n'
UNKNOWN_AND_MISSING = '{"format":"general","u1":[1],"bogus":0}\n'
MISSING_POINTS = '{"format":"targets"}\n'
ZERO_DENOMINATOR = '{"format":"targets","points":[["1"],["1/0","1"]]}\n'
OFF_THE_LINES = '{"format":"general","unital":true,"u1":[1],"matrices":[[[1],[1],[1]]]}\n'
LOOSE_TARGETS = '{"format":"targets","points":[[1],["0.5"," 1/2"],["2/4","1/4","0.25"]]}\n'


def case(argv, files=None, stdin=None, env=None, writes=()):
    return {
        "argv": list(argv),
        "files": dict(files or {}),
        "stdin": stdin,
        "env": dict(env or {}),
        "writes": list(writes),
    }


def fixture_cases(name: str) -> list[dict]:
    d = fixture_diagram(name)
    f = f"{name}.json"
    files = {f: fixtures(name)}
    triangular = isinstance(d, TriangularSpec)
    width2 = 3 if triangular else d.width(2)
    point = ",".join(["1"] + ["0"] * (width2 - 1))
    argvs = [
        ["check-rfd", f],
        ["check-rfd", f, "--ji"],
        ["check-rfd", f, "--mode", "perm", "--depth", "9"],
        ["check-rfd", "--ji", "--mode", "perm", f, "--depth", "7"],
        ["ideals", "close", f, "--seeds", "1:0,2:1", "--depth", "6"],
        ["ideals", "quotient", f, "--seeds", "1:0", "--depth", "6"],
        ["ideals", "quotient", f, "--profile", "co-last-column", "--depth", "5"],
        ["ideals", "enumerate", f, "--depth", "3"],
        ["ideals", "primitive", f, "--depth", "8"],
        ["ideals", "compact", f, "--profile", "co-last-column", "--depth", "8"],
        ["ideals", "compact", f, "--seeds", "1:0", "--depth", "8"],
        ["ideals", "ji-evidence", f, "--depth", "8"],
        ["traces", "zeta", f, "--level", "4"],
        ["traces", "push", f, "--point", point, "--from-level", "2", "--to-level", "0"],
        ["traces", "limit-restrict", f, "--level", "3"],
        ["traces", "label", f, "--line", "1", "--depth", "6"],
        ["intertwine", "gaps", f, f, "--tail", "geometric:1/2"],
        ["intertwine", "estimate", f, f, "--level", "0", "--vertex", "0", "--depth", "2"],
        ["k0", "check", f, "--x", "1,0,1,2,4,8"],
        ["k0", "witness", f, "--indices", "0,1", "--depth", "5"],
        ["synthesize", "--stationary", f"equal-to-k:{f}", "--levels", "4"],
        ["classify", "--stationary", f"equal-to-k:{f}", "--depth", "8"],
        ["export", f, "--depth", "3"],
    ]
    out = []
    for argv in argvs:
        out.append(case(argv, files))
        out.append(case(argv + ["--json"], files))
    return out


def verb_cases() -> list[dict]:
    ex43 = {"ex43.json": fixtures("ex43")}
    ex57b = {"ex57B.json": fixtures("ex57B")}
    both = {**ex43, "targets.json": TARGETS}
    bad = {**ex43, "bad.json": BAD_TARGETS}
    plain = [
        case(["fixtures", "--list"]),
        case(["fixtures", "ex43"]),
        case(["fixtures", "ex57B"]),
        case(["fixtures", "nope"]),
        case(["fixtures"]),
        case(["k0", "positive", "--x", "1,2,0"]),
        case(["k0", "positive", "--x", "1,-2"]),
        case(["k0", "positive"]),
        case(["traces", "limit-restrict", "--stationary", "geometric:1/2", "--level", "3"]),
        case(["traces", "limit-restrict", "--t", "1,1/2,1/4", "--level", "2"]),
        case(["traces", "limit-restrict", "--level", "2"]),
        case(["traces", "limit-restrict", "--stationary", "list:1,2;geometric:1/3", "--level", "4"]),
        case(["traces", "limit-restrict", "--stationary", "list:1,2;bogus:1", "--level", "4"]),
        case(["traces", "limit-restrict", "--stationary", "list:1,2", "--level", "4"]),
        case(["traces", "limit-restrict", "--stationary", "ones", "--level", "2"]),
        case(["traces", "limit-restrict", "--stationary", "wavy", "--level", "2"]),
        case(["traces", "limit-restrict", "--stationary", "ones"]),
        case(["classify", "--stationary", "geometric:1/2"]),
        case(["classify", "--stationary", "ones", "--depth", "6"]),
        case(["classify", "--stationary", "list:1,1,1"]),
        case(["synthesize", "--stationary", "geometric:1/2", "--levels", "6"]),
        case(["synthesize", "--stationary", "geometric:1/2", "--levels", "6", "--exact"]),
        case(["synthesize", "--stationary", "geometric:2/3", "--levels", "4", "--k0", "3", "--reduced"]),
        case(["synthesize", "--targets", "targets.json", "--levels", "2", "--exact"], both),
        case(
            ["synthesize", "--stationary", "geometric:1/2", "--levels", "3", "--certificate", "cert.json"],
            writes=["cert.json"],
        ),
        case(["synthesize", "--targets", "bad.json", "--levels", "1"], bad),
        case(["synthesize", "--levels", "2"]),
        case(["synthesize", "--stationary", "geometric:1/2", "--levels", "3", "--k0", "0"]),
        case(["intertwine", "gaps", "targets.json", "ex43.json"], both),
        case(["intertwine", "gaps", "ex43.json", "targets.json", "--metric", "l2", "--tail", "zero"], both),
        case(["intertwine", "gaps", "ex43.json", "ex43.json", "--tail", "wavy"], ex43),
        case(["intertwine", "estimate", "bad.json", "ex43.json"], bad),
        case(["intertwine", "estimate", "ex43.json", "ex43.json", "--vertex", "1", "--depth", "3"], ex43),
        case(["k0", "check", "ex43.json", "--x", "1,0,1,2,4,9"], ex43),
        case(["k0", "check", "ex43.json"], ex43),
        case(["k0", "witness", "ex43.json", "--indices", "0,1"], ex43),
        case(["k0", "witness", "ex43.json", "--indices", "0,3", "--depth", "2"], ex43),
        case(["k0", "witness", "ex43.json", "--indices", "0", "--depth", "40"], ex43),
        case(["k0", "check", "--x", "1,1"]),
        case(["traces", "zeta", "ex43.json"], ex43),
        case(["traces", "zeta", "--level", "2"]),
        case(["traces", "push", "ex43.json", "--point", "1/2,1/2", "--from-level", "1"], ex43),
        case(["traces", "push", "zero.json", "--point", "1/2,1/2", "--from-level", "1", "--to-level", "0"],
             {"zero.json": ZERO_SIZE}),
        case(["traces", "label", "ex43.json", "--family", "1;1/2,1/2;1/4,1/4,2/4", "--depth", "6"], ex43),
        case(["traces", "label", "ex43.json", "--depth", "6"], ex43),
        case(["traces", "label", "ex57B.json", "--line", "1"], ex57b),
        # leftover-file reattachment and standard input
        case(["traces", "zeta", "--level", "4", "-"], stdin=fixtures("ex43")),
        case(["traces", "zeta", "--level", "4", "ex43.json"], ex43),
        case(["k0", "check", "--x", "1,0,1,2", "-"], stdin=fixtures("ex43")),
        case(["check-rfd", "--ji", "-"], stdin=fixtures("ex57B")),
        case(["ideals", "ji-evidence", "-", "--depth", "6"], stdin=fixtures("ex43")),
        # input errors
        case(["check-rfd", "missing.json"]),
        case(["check-rfd", "ex57B.json", "--depth", "99"], ex57b),
        case(["check-rfd", "ex57B.json", "--depth", "-1"], ex57b),
        case(["check-rfd", "ex43.json", "--depth", "99"], ex43),
        case(["check-rfd", "junk.json"], {"junk.json": "{"}),
        case(["ideals", "close", "ex57B.json", "--seeds", "1-0"], ex57b),
        case(["ideals", "close", "ex57B.json", "--seeds", "1:9"], ex57b),
        case(["ideals", "close", "ex57B.json"], ex57b),
        case(["ideals", "quotient", "ex57B.json"], ex57b),
        case(["ideals", "quotient", "ex57B.json", "--profile", "co-column:abc"], ex57b),
        case(["ideals", "compact", "ex57B.json", "--profile", "co-column:99"], ex57b),
        case(["ideals", "compact", "ex57B.json", "--profile", "co-column:2", "--depth", "4"], ex57b),
        case(["ideals", "compact", "ex57B.json", "--profile", "zero", "--depth", "4"], ex57b),
        case(["ideals", "compact", "ex57B.json", "--profile", "full", "--depth", "4"], ex57b),
        case(["ideals", "compact", "ex57B.json", "--profile", "half"], ex57b),
        case(
            ["ideals", "quotient", "ex57B.json", "--seeds", "1:0", "--depth", "4", "--dot", "q.dot"],
            ex57b,
            writes=["q.dot"],
        ),
        case(["export", "ex57B.json", "--depth", "2", "-o", "d.dot"], ex57b, writes=["d.dot"]),
        case(["ideals", "enumerate", "ex57B.json"], ex57b, env={"BRATTELI_MAX_WIDTH": "3"}),
        case(["ideals", "enumerate", "ex57B.json"], ex57b, env={"BRATTELI_MAX_WIDTH": "abc"}),
    ]
    # --json everywhere, including the verbs that ignore it
    return plain + [
        {**c, "argv": c["argv"] + ["--json"]} for c in plain if "--json" not in c["argv"]
    ]


def bench_cases() -> list[dict]:
    """The first (smallest) rung of each rung family, at variant 0."""
    import workloads

    out, seen = [], set()
    for workload in workloads.WORKLOADS.values():
        for index, rung in enumerate(workload.rungs):
            family = tuple(p for p in rung.key.split("/") if not p.isdigit())
            if family in seen:
                continue
            seen.add(family)
            op = workloads.variant_inputs(workload, index, 0)
            tag = f"{workload.name}{index}"
            names = {f"@{k}": f"{tag}-{k}.json" for k in op.files}
            names["@out"] = "out.json"
            argv = [names.get(a, a) for a in op.argv]
            files = {f"{tag}-{k}.json": v for k, v in op.files.items()}
            out.append(case(argv, files, writes=["out.json"] if "@out" in op.argv else ()))
    return out


def reach_cases() -> list[dict]:
    """Paths the cases above miss: an invalid general prefix, the key and
    rational errors of the file formats, a family off the stable lines, a
    zero weight head and the fixtures not built from the all-ones family.
    They come last, so the cases above keep their indices."""
    errors = [
        case(["check-rfd", "invalid.json"], {"invalid.json": INVALID_PREFIX}),
        case(["check-rfd", "unknown.json"], {"unknown.json": UNKNOWN_KEY}),
        case(["check-rfd", "keys.json"], {"keys.json": UNKNOWN_AND_MISSING}),
        case(["synthesize", "--targets", "nopoints.json", "--levels", "1"], {"nopoints.json": MISSING_POINTS}),
        case(["synthesize", "--targets", "zeroden.json", "--levels", "1"], {"zeroden.json": ZERO_DENOMINATOR}),
        case(["traces", "limit-restrict", "--t", "1,x", "--level", "1"]),
    ]
    answers = [
        case(["traces", "label", "offline.json", "--family", "1;0,0,1"], {"offline.json": OFF_THE_LINES}),
        case(["synthesize", "--stationary", "list:0,1", "--levels", "2"]),
    ]
    shown = [case(["fixtures", name]) for name in ("ex44", "ex57A-left", "ex57A-right")]
    return errors + answers + shown + [{**c, "argv": c["argv"] + ["--json"]} for c in answers]


def boundary_cases() -> list[dict]:
    """Appended after `reach_cases`, so every earlier case keeps its index: a
    stationary rule with both a head and a geometric tail, and points read
    from coordinates that are not canonical (a decimal, a leading space, an
    unreduced fraction), which take the `fraction_from_str` path."""
    loose = {"loose.json": LOOSE_TARGETS}
    return [
        case(["classify", "--stationary", "list:1,1;geometric:1/2"]),
        case(["classify", "--stationary", "list:1,1;geometric:1/2", "--json"]),
        case(["synthesize", "--targets", "loose.json", "--levels", "2", "--exact", "--json"], loose),
        case(["synthesize", "--targets", "loose.json", "--levels", "2", "--certificate", "out.json"], loose,
             writes=["out.json"]),
        case(["traces", "push", "ex43.json", "--point", "0.5,2/8,1/4", "--from-level", "2", "--to-level", "1",
              "--json"], {"ex43.json": fixtures("ex43")}),
    ]


def replay(c: dict, files: dict, workdir: Path) -> dict:
    """Run one case in `workdir`, given the file table; return its outcome
    fields."""
    for name in c["files"]:
        (workdir / name).write_text(files[name], encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    saved_env = {k: os.environ.get(k) for k in c["env"]}
    saved_stdin, cwd = sys.stdin, os.getcwd()
    os.environ.update(c["env"])
    sys.stdin = io.StringIO(c["stdin"] or "")
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(c["argv"])
        written = {}
        for name in c["writes"]:
            path = workdir / name
            written[name] = path.read_text(encoding="utf-8") if path.exists() else None
            if path.exists():
                path.unlink()
    finally:
        os.chdir(cwd)
        sys.stdin = saved_stdin
        for k, v in saved_env.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "written": written}


def main() -> None:
    cases = [c for name in FIXTURE_NAMES for c in fixture_cases(name)]
    cases += verb_cases() + bench_cases() + reach_cases() + boundary_cases()
    files = {}
    for c in cases:
        for name, text in c["files"].items():
            assert files.setdefault(name, text) == text, name
        c["files"] = sorted(c["files"])
        with tempfile.TemporaryDirectory() as tmp:
            c.update(replay(c, files, Path(tmp)))
        if any(t in c["stderr"] for t in ARGPARSE_TEXTS):
            raise SystemExit(f"argparse text in the corpus: {c['argv']}: {c['stderr']!r}")
    OUT.parent.mkdir(exist_ok=True)
    corpus = {"files": files, "cases": cases}
    OUT.write_text(json.dumps(corpus, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    codes = {k: sum(c["code"] == k for c in cases) for k in (0, 1, 2)}
    print(f"{len(cases)} cases, exit codes {codes}, {OUT.stat().st_size} bytes")


if __name__ == "__main__":
    main()
