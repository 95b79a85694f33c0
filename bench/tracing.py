"""Spans around every call into the public functions of the package.

The package is never edited: `Tracer.install` replaces each public function
of the traced modules with a wrapper, in every `bratteli` module namespace
that binds it.  That matters because `cli` binds names by value
(`from .rfd import check_rfd`) and the modules call each other through
their own globals; patching only the defining module records nothing for
those calls.  Three methods are wrapped on their classes.

Each wrapper appends a span (name, start, end, parent span, op id) to
in-memory arrays; `write` saves them when the run ends.  Self time is a
span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time
from array import array
from collections import Counter

MODULES = ("cli", "formats", "diagram", "rfd", "ideals", "traces", "simplex", "intertwine", "synthesis", "k0")
METHODS = (
    ("diagram", "BratteliPrefix", "validate"),
    ("simplex", "StochasticAffineMap", "compose"),
    ("simplex", "StochasticAffineMap", "apply"),
)
_METHOD_SPANS = {f"{m}.{name}" for m, _, name in METHODS}
_RFD_CHECKS = ("rfd.check_rfd", "rfd.check_rfd_ji")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.op = array("q")
        self.errors: Counter[int] = Counter()
        self.op_id = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, span: str, fn):
        nid = self._ids.setdefault(span, len(self.names))
        if nid == len(self.names):
            self.names.append(span)
        start, end, parent, name, op = self.start, self.end, self.parent, self.name, self.op
        stack, errors, clock = self._stack, self.errors, time.perf_counter

        def traced(*args, **kwargs):
            i = len(start)
            parent.append(stack[-1] if stack else -1)
            name.append(nid)
            op.append(self.op_id)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[nid] += 1
                raise
            finally:
                end[i] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        """Wrap every public function and the listed methods; raises if a
        binding of a wrapped function is left in any module."""
        mods = {m: sys.modules[f"bratteli.{m}"] for m in MODULES}
        wrappers = {}
        for m, mod in mods.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                # `diagram.validate` is a module alias that only calls the
                # traced method of the same name
                if obj.__module__ == mod.__name__ and f"{m}.{attr}" not in _METHOD_SPANS:
                    wrappers[obj] = self._wrap(f"{m}.{attr}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "bratteli" and not modname.startswith("bratteli."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self._undo.append((mod, attr, obj))
        for m, cls_name, meth in METHODS:
            cls = getattr(mods[m], cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, self._wrap(f"{m}.{meth}", original))
            self._undo.append((cls, meth, original))
        leftover = [
            f"{modname}.{attr}"
            for modname, mod in sys.modules.items()
            if modname == "bratteli" or modname.startswith("bratteli.")
            for attr, obj in vars(mod).items()
            if inspect.isfunction(obj) and obj in wrappers
        ]
        if leftover:
            raise RuntimeError(f"untraced bindings remain: {leftover}")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_s, total_s, errors, and for the rfd
        checks the number of top-level calls (not nested in another check)."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        rfd_ids = {self._ids[s] for s in _RFD_CHECKS if s in self._ids}
        out = {s: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "errors": 0, "top": 0} for s in self.names}
        for i in range(n):
            row = out[self.names[self.name[i]]]
            row["calls"] += 1
            row["self_s"] += dur[i] - child[i]
            row["total_s"] += dur[i]
            p = self.parent[i]
            if p < 0 or self.name[p] not in rfd_ids:
                row["top"] += 1
        for nid, count in self.errors.items():
            out[self.names[nid]]["errors"] = count
        return out

    def write(self, path) -> None:
        """Save every span as tab-separated text: op (the caller's op id),
        span, parent, name, start, end (seconds on the perf_counter clock)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("op\tspan\tparent\tname\tstart\tend\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.op[i]}\t{i}\t{self.parent[i]}\t{self.names[self.name[i]]}\t"
                    f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n"
                )
