"""The package surface that no CLI path reaches stays a short, named list.

A child process replays the CLI corpus (`data/cli_corpus.json`) and the
argvs of `test_cli_corpus.ARGPARSE_ARGVS` under `sys.setprofile`, hooked
before the package is imported so that import-time calls count, and lists
every function defined in `src/bratteli` that was never entered.  That list
must equal `LIBRARY_API`: the functions kept for library callers, each
pinned by tests of its own (README, "Library API").  A new function that no
verb reaches fails here until a corpus case reaches it or it joins the list.

Run as a script, it prints the list:

    PYTHONPATH=src python tests/test_library_api.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bratteli"

LIBRARY_API = [
    "cli.main",
    "diagram.MultiplicityMatrix.is_identity",
    "ideals.has_findim_quotient_line",
    "simplex.SimplexPoint.__getitem__",
    "simplex.SimplexPoint.__init__",
    "simplex.SimplexPoint.__iter__",
    "simplex.SimplexPoint.coords",
    "synthesis.TargetSequence.check_coherence",
    "synthesis.TargetSequence.incoherent_levels",
]


def defined_functions(package: Path) -> dict[tuple[str, int, str], str]:
    """Every function and method defined in the package's modules, keyed as
    its code object is (file, first line, name) and valued by its dotted
    name, module first.  A decorated function's code starts at its first
    decorator."""
    out = {}

    def walk(path: Path, node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[(str(path), first, child.name)] = prefix + child.name
                walk(path, child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                walk(path, child, prefix + child.name + ".")
            else:
                walk(path, child, prefix)

    for path in sorted(package.glob("*.py")):
        walk(path, ast.parse(path.read_text(encoding="utf-8")), path.stem + ".")
    return out


def never_entered() -> list[str]:
    """Replay the corpus and the argparse argvs under a profile hook; the
    dotted names of the package's functions that were never entered."""
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(hook)
    try:
        import record_cli_corpus
        from test_cli_corpus import ARGPARSE_ARGVS, CORPUS

        from bratteli.cli import run
        from bratteli.fixtures import fixtures

        for case in CORPUS["cases"]:
            with tempfile.TemporaryDirectory() as tmp:
                record_cli_corpus.replay(case, CORPUS["files"], Path(tmp))
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / "ex43.json").write_text(fixtures("ex43"), encoding="utf-8")
            cwd = os.getcwd()
            os.chdir(tmp)
            try:
                for argv in ARGPARSE_ARGVS:
                    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                        try:
                            run(argv)
                        except SystemExit:  # help exits through argparse
                            pass
            finally:
                os.chdir(cwd)
    finally:
        sys.setprofile(None)
    keys = {(str(Path(c.co_filename).resolve()), c.co_firstlineno, c.co_name) for c in entered}
    return sorted(name for key, name in defined_functions(PACKAGE).items() if key not in keys)


def test_unreached_functions_are_the_library_api():
    done = subprocess.run(
        [sys.executable, __file__], capture_output=True, text=True, timeout=120, check=False
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == sorted(LIBRARY_API)


if __name__ == "__main__":
    print(json.dumps(never_entered()))
