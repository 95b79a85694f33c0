"""Command-line interface.

One executable, batch-oriented, composable through pipes ("-" denotes
standard input).  Exit codes: 0 success / affirmative verdict, 2 negative
verdict (violation, non-compact, failed evidence, ...), 1 usage or input
error.  `--json` switches any command to a machine-readable report with
rationals serialized as "p/q".

Every verb is one row of the module-level table `_VERBS`: its help line, its
arguments as data, and per action a compute function and a text renderer.
A compute function loads its input, calls the library and returns the
report object and the exit code; the report may hold fractions, points,
profiles and diagrams, which `_jsonable` turns into JSON.  `run` builds the
subparser of the invoked verb only (all of them just for help, usage and
unknown-verb errors), then `_emit`, the one writer of stdout, prints the
report as JSON or through the renderer.  `export` and `fixtures` accept
`--json` and ignore it.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from math import gcd
from operator import itemgetter
from typing import NamedTuple

from . import fixtures as fixture_mod
from .diagram import BratteliPrefix, TriangularSpec, embed_triangular
from .dotexport import export_dot
from .errors import BratteliError
from .formats import (
    Diagram, diagram_json, emit_diagram, fraction_from_str, fraction_to_str, parse_diagram, parse_targets,
    parse_targets_or_diagram, point_from_coords,
)
from .ideals import (
    IdealProfile, close, enumerate_ideals, is_compact, just_infinite_evidence, primitive_profiles,
    profile_from_last_level, quotient,
)
from .intertwine import IntertwiningData, MapSequence, TailBound, gap_series, limit_vertex_estimate
from .k0 import K0Element, nondegeneracy_witness, positivity_check, recurrence_check
from .rfd import check_rfd, check_rfd_ji
from .simplex import SimplexPoint
from .synthesis import StationarySpec, TailRule, TargetSequence, classify_stationary, synthesize
from .traces import label_trace, level_maps, limit_trace_restriction, push_point, zeta

# `bratteli -h` shows the first two paragraphs (none under python -OO)
_DESCRIPTION = "\n\n".join((__doc__ or "").split("\n\n")[:2])


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage problems, not argparse's 2
        raise _UsageError(message)


# --- input --------------------------------------------------------------------


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_diagram(path: str) -> Diagram:
    return parse_diagram(_read_text(path))


def _as_prefix(diagram: Diagram, depth: int | None) -> BratteliPrefix:
    if isinstance(diagram, TriangularSpec):
        return embed_triangular(diagram, diagram.levels_defined if depth is None else depth)
    return diagram if depth is None else diagram.truncate(depth + 1)


def _require_triangular(diagram: Diagram) -> TriangularSpec:
    if not isinstance(diagram, TriangularSpec):
        raise BratteliError("this command needs a triangular-format diagram")
    return diagram


def _require(value, flag: str):
    if value is None:
        raise BratteliError(f"missing required option {flag}")
    return value


def _prefix(args) -> BratteliPrefix:
    """The file argument as a prefix, embedded or truncated to --depth."""
    return _as_prefix(_load_diagram(_require(args.file, "file")), args.depth)


def _triangular(args) -> TriangularSpec:
    return _require_triangular(_load_diagram(_require(args.file, "file")))


def _ints(text: str) -> list[int]:
    return [int(v) for v in text.split(",")]


def _parse_seeds(text: str) -> list[tuple[int, int]]:
    seeds = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            n, v = chunk.split(":")
            seeds.append((int(n), int(v)))
        except ValueError:
            raise BratteliError(f"bad seed {chunk!r}; expected level:vertex") from None
    return seeds


def _parse_profile(prefix: BratteliPrefix, args) -> IdealProfile:
    if args.seeds is not None:
        return close(prefix, _parse_seeds(args.seeds))
    name = args.profile
    if name is None:
        raise BratteliError("need --seeds or --profile")
    last = prefix.depth - 1
    width = prefix.width(last)
    if name == "co-last-column":
        return profile_from_last_level(prefix, range(width - 1))
    if name.startswith("co-column:"):
        try:
            j = int(name.split(":", 1)[1])
        except ValueError:
            raise BratteliError(f"bad --profile {name!r}; expected co-column:J, J an integer") from None
        if not 0 <= j < width:
            raise BratteliError(f"column {j} outside the last level")
        return profile_from_last_level(prefix, [v for v in range(width) if v != j])
    if name == "zero":
        return profile_from_last_level(prefix, [])
    if name == "full":
        return profile_from_last_level(prefix, range(width))
    raise BratteliError(f"unknown profile name {name!r}")


def _parse_stationary(rule: str) -> StationarySpec:
    kind, _, rest = rule.partition(":")
    if kind == "list":
        body, _, cont = rest.partition(";")
        head = [fraction_from_str(x) for x in body.split(",") if x.strip()]
        if not cont:
            return StationarySpec(head, TailRule.zero())
        ckind, _, cval = cont.partition(":")
        if ckind == "geometric":
            return StationarySpec(head, TailRule.geometric(fraction_from_str(cval)))
        if ckind == "zero":
            return StationarySpec(head, TailRule.zero())
        raise BratteliError(f"unknown tail rule {ckind!r}")
    if kind == "geometric":
        return StationarySpec((), TailRule.geometric(fraction_from_str(rest)))
    if kind == "ones":
        return StationarySpec((), TailRule.geometric(1))
    if kind == "equal-to-k":
        spec = _require_triangular(_load_diagram(rest))
        return StationarySpec((), TailRule.equal_to_k(spec))
    raise BratteliError(f"unknown stationary rule {rule!r}")


def _parse_point(text: str) -> SimplexPoint:
    return point_from_coords(text.split(","))


def _map_sequence_from_file(path: str) -> MapSequence:
    """The vertex-fixing maps of a targets file or the trace maps of a
    diagram file, chosen by the file's "format"."""
    source = parse_targets_or_diagram(_read_text(path))
    if isinstance(source, list):
        return TargetSequence.explicit(source).map_sequence(len(source) - 1)
    return MapSequence(level_maps(_as_prefix(source, None)))


def _intertwining(args) -> IntertwiningData:
    top = _map_sequence_from_file(args.file_a)
    bottom = _map_sequence_from_file(args.file_b)
    tail = None
    if args.tail is not None:
        kind, _, val = args.tail.partition(":")
        if kind == "geometric":
            tail = TailBound.geometric(fraction_from_str(val))
        elif kind == "zero":
            tail = TailBound.zero()
        else:
            raise BratteliError(f"unknown tail bound {args.tail!r}")
    return IntertwiningData(top, bottom, tail, args.metric)


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# --- compute: each returns (report, exit code) --------------------------------


def _check_rfd(args):
    result = (check_rfd_ji if args.ji else check_rfd)(_prefix(args), mode=args.mode)
    kind = "RFD-JI" if args.ji else "RFD"
    obj = {"command": "check-rfd", "kind": kind, "mode": args.mode, "consistent": result.consistent}
    if not result.consistent:
        obj.update(level=result.level, reason=result.reason)
        return obj, 2
    w = result.witness
    obj.update(r=list(w.r), kseq=w.kseq, permutations=w.permutations or None, caveat=result.caveat)
    return obj, 0


def _ideals_close(args):
    prefix = _prefix(args)
    if args.seeds is None:
        raise BratteliError("close needs --seeds")
    return {"command": "ideals/close", "profile": close(prefix, _parse_seeds(args.seeds))}, 0


def _ideals_quotient(args):
    prefix = _prefix(args)
    q = quotient(prefix, _parse_profile(prefix, args))
    if args.dot:
        _write(args.dot, export_dot(q, name="quotient"))
    return {"command": "ideals/quotient", "diagram": q}, 0


def _ideals_enumerate(args):
    profiles = enumerate_ideals(_prefix(args))
    return {"command": "ideals/enumerate", "count": len(profiles), "profiles": profiles}, 0


def _ideals_primitive(args):
    prefix = _prefix(args)
    result = check_rfd_ji(prefix, mode="strict")
    if not result.consistent:
        raise BratteliError(f"diagram is not RFD-JI consistent (level {result.level}: {result.reason})")
    prims = primitive_profiles(prefix, result.witness)
    return {
        "command": "ideals/primitive",
        "note": "the zero ideal is primitive as well",
        "profiles": [{"line": p.line, "k": p.k, "profile": p.profile} for p in prims],
    }, 0


def _ideals_compact(args):
    prefix = _prefix(args)
    verdict = is_compact(prefix, _parse_profile(prefix, args))
    return {"command": "ideals/compact", "compact": verdict, "depth": prefix.depth}, 0 if verdict else 2


def _ideals_ji_evidence(args):
    prefix = _prefix(args)
    result = check_rfd_ji(prefix, mode="strict")
    rfd = result if result.consistent else check_rfd(prefix, mode="strict")
    if not rfd.consistent:
        raise BratteliError(f"diagram is not RFD consistent (level {rfd.level}: {rfd.reason})")
    report = just_infinite_evidence(prefix, rfd.witness)
    return {
        "command": "ideals/ji-evidence",
        "depth": report.depth,
        "passed": report.passed,
        "failures": [{"level": s.level, "vertex": s.vertex} for s in report.failures],
    }, 0 if report.passed else 2


def _traces_zeta(args):
    point = zeta(_triangular(args), _require(args.level, "--level"))
    return {"command": "traces/zeta", "level": args.level, "point": point}, 0


def _traces_push(args):
    prefix = _prefix(args)
    point = _parse_point(_require(args.point, "--point"))
    point = push_point(prefix, point, _require(args.src, "--from-level"), _require(args.dst, "--to-level"))
    return {"command": "traces/push", "point": point}, 0


def _traces_limit_restrict(args):
    level = _require(args.level, "--level")
    if args.stationary:
        spec = _parse_stationary(args.stationary)
        weights = [spec.value(j) for j in range(level + 1)]
    elif args.t:
        weights = [fraction_from_str(x) for x in args.t.split(",")]
    elif args.file:
        spec = StationarySpec((), TailRule.equal_to_k(_triangular(args)))
        weights = [spec.value(j) for j in range(level + 1)]
    else:
        raise BratteliError("need --stationary, --t, or a triangular file")
    point = limit_trace_restriction(weights, level)
    return {"command": "traces/limit-restrict", "level": level, "point": point}, 0


def _traces_label(args):
    prefix = _prefix(args)
    result = check_rfd_ji(prefix, mode="strict")
    if not result.consistent:
        raise BratteliError("labeling needs an RFD-JI-consistent diagram")
    if args.line is None and args.family is None:
        raise BratteliError("need --line or --family")
    if args.line is not None:
        descriptor = args.line
    else:
        descriptor = [_parse_point(chunk) for chunk in args.family.split(";") if chunk.strip()]
    label = label_trace(prefix, result.witness, descriptor)
    return {"command": "traces/label", "kind": label.kind, "k": label.k}, 0


def _intertwine_gaps(args):
    series = gap_series(_intertwining(args))
    return {
        "command": "intertwine/gaps",
        "metric": series.metric,
        "gaps": series.gaps,
        "partial_sums": series.partial_sums or None,
        "certificate": series.certificate,
    }, 0


def _intertwine_estimate(args):
    est = limit_vertex_estimate(_intertwining(args), args.level, args.vertex, args.est_depth)
    return {
        "command": "intertwine/estimate",
        "point": est.point,
        "error_bound": est.error_bound,
        "certified": est.certified,
    }, 0


def _synthesize(args):
    if args.stationary:
        targets = _parse_stationary(args.stationary).targets()
    elif args.targets:
        targets = TargetSequence.explicit(parse_targets(_read_text(args.targets)))
    else:
        raise BratteliError("need --stationary or --targets")
    spec, cert = synthesize(targets, args.levels, k0=args.k0, exact=args.exact)
    levels = [
        dict(level=l.level, ell=l.ell, mvector=l.mvector, k_next=l.k_next, xi=l.xi, zeta=l.zeta,
             gap_l1=l.gap_l1, gap_l2_squared=l.gap_l2sq, epsilon=l.epsilon)
        for l in cert.levels
    ]
    if args.certificate:
        _write(args.certificate, _json_text({"levels": levels}))
    return {"command": "synthesize", "diagram": spec, "certificate": {"levels": levels}}, 0


def _classify(args):
    result = classify_stationary(_parse_stationary(args.stationary), depth=args.depth)
    return {
        "command": "classify",
        "verdict": result.verdict,
        "e_inf": result.e_inf or None,
        "total": result.total,
        "partial_sums": None,  # every tail rule is decided; the key stays in the schema
    }, 0


def _k0_check(args):
    start = recurrence_check(_triangular(args), _ints(_require(args.x, "--x")))
    return {"command": "k0/check", "holds_from": start}, 2 if start is None else 0


def _k0_witness(args):
    spec = _triangular(args)
    indices = _ints(_require(args.indices, "--indices"))
    wits = nondegeneracy_witness(spec, indices, _require(args.depth, "--depth"))
    witnesses = [{"index": w.index, "prefix": list(w.element.prefix)} for w in wits]
    return {"command": "k0/witness", "witnesses": witnesses}, 0


def _k0_positive(args):
    verdict = positivity_check(K0Element(_ints(_require(args.x, "--x"))))
    return {"command": "k0/positive", "positive": verdict}, 0 if verdict else 2


def _export(args):
    text = export_dot(_prefix(args))
    if args.output:
        _write(args.output, text)
        text = ""
    return {"text": text}, 0


def _fixtures(args):
    if args.list:
        return {"text": "\n".join(fixture_mod.FIXTURE_NAMES) + "\n"}, 0
    if not args.name:
        raise BratteliError("need a fixture name or --list")
    return {"text": fixture_mod.fixtures(args.name)}, 0


# --- render: each returns the exact stdout text -------------------------------


def _jsonable(value):
    """The JSON form of the domain values a report may hold."""
    if isinstance(value, Fraction):
        return fraction_to_str(value)
    if isinstance(value, SimplexPoint):  # fraction_to_str of each coordinate, from the integers
        den = value.den
        out = []
        for n in value.nums:
            g = gcd(n, den)
            out.append(str(n // g) if g == den else f"{n // g}/{den // g}")
        return out
    if isinstance(value, IdealProfile):
        return [list(level) for level in value.T]
    return diagram_json(value)  # raises FormatError for a value of no JSON form


def _json_text(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, default=_jsonable) + "\n"


def _lines(lines) -> str:
    return "".join(f"{line}\n" for line in lines)


def _point_str(point: SimplexPoint) -> str:
    return "(" + ",".join(point.common_denominator_strings()) + ")"


def _point_line(obj: dict) -> str:
    return _point_str(obj["point"]) + "\n"


def _diagram_text(obj: dict) -> str:
    return emit_diagram(obj["diagram"])


def _check_rfd_text(obj: dict) -> str:
    how = f"{obj['kind']}, {obj['mode']} mode"
    if obj["consistent"]:
        return f"Consistent ({how}): r = {obj['r']}\nnote: {obj['caveat']}\n"
    return f"Violation ({how}) at level {obj['level']}: {obj['reason']}\n"


def _close_text(obj: dict) -> str:
    return _lines(f"T_{n} = {set(t) if t else '{}'}" for n, t in enumerate(obj["profile"].T))


def _enumerate_text(obj: dict) -> str:
    profiles = obj["profiles"]  # never empty: the zero ideal is one
    head = f"{obj['count']} ideals at depth {profiles[0].depth}"
    return _lines([head] + [str([list(t) for t in p.T]) for p in profiles])


def _primitive_text(obj: dict) -> str:
    prims = obj["profiles"]
    head = f"{len(prims)} primitive kernel profiles (plus the zero ideal)"
    return _lines([head] + [f"line {p['line']}: quotient size {p['k']}" for p in prims])


def _compact_text(obj: dict) -> str:
    return ("" if obj["compact"] else "not ") + f"compact at depth {obj['depth']}\n"


def _evidence_text(obj: dict) -> str:
    if obj["passed"]:
        return f"evidence at depth {obj['depth']}: every seed quotient stabilizes\n"
    failing = ", ".join(f"({s['level']},{s['vertex']})" for s in obj["failures"])
    return f"evidence at depth {obj['depth']}: FAILS for seeds {failing}\n"


def _gaps_text(obj: dict) -> str:
    lines = [f"gap_{n} = {fraction_to_str(g)}" for n, g in enumerate(obj["gaps"])]
    if obj["certificate"] is None:
        return _lines(lines + ["no certificate (supply --tail for one)"])
    return _lines(lines + [f"certificate (partial sum + tail) = {fraction_to_str(obj['certificate'])}"])


def _estimate_text(obj: dict) -> str:
    note = "" if obj["certified"] else " (within prefix only; no tail bound)"
    return f"{_point_str(obj['point'])}  error bound {fraction_to_str(obj['error_bound'])}{note}\n"


def _classify_text(obj: dict) -> str:
    if not obj["e_inf"]:
        return obj["verdict"] + "\n"
    shown = ",".join(fraction_to_str(c) for c in obj["e_inf"][:8])
    return f"{obj['verdict']}; limit of extreme points has coefficients ({shown},...)\n"


def _label_text(obj: dict) -> str:
    return obj["kind"] + ("\n" if obj["k"] is None else f" (k = {obj['k']})\n")


def _k0_check_text(obj: dict) -> str:
    if obj["holds_from"] is None:
        return "recurrence never holds on this prefix\n"
    return f"recurrence holds from index {obj['holds_from']}\n"


def _witness_text(obj: dict) -> str:
    return _lines(f"index {w['index']}: {w['prefix']}" for w in obj["witnesses"])


def _emit(obj: dict, render) -> None:
    """The one writer of stdout."""
    sys.stdout.write(render(obj))


# --- the verb table -----------------------------------------------------------


class _Verb(NamedTuple):
    help: str
    args: tuple  # (flags, options) pairs for add_argument; every verb also gets --json
    actions: dict  # action name -> (compute, render); None names the one action of a plain verb
    json: bool = True  # False: --json is accepted and ignored


def _arg(*flags, **options):
    return flags, options


_FILE, _OPTIONAL_FILE, _DEPTH = _arg("file"), _arg("file", nargs="?"), _arg("--depth", type=int)
_TEXT = itemgetter("text")

_VERBS = {
    "check-rfd": _Verb(
        "block-structure consistency of a diagram",
        (_FILE, _arg("--ji", action="store_true", help="also require positivity blocks"),
         _arg("--mode", choices=["strict", "perm"], default="strict"), _DEPTH),
        {None: (_check_rfd, _check_rfd_text)},
    ),
    "ideals": _Verb(
        "ideal profiles, quotients, and evidence",
        (_FILE, _arg("--seeds", help='e.g. "1:0,2:3"'),
         _arg("--profile", help="co-last-column | co-column:J | zero | full"),
         _arg("--dot", help="write quotient diagram as DOT"), _DEPTH),
        {
            "close": (_ideals_close, _close_text),
            "quotient": (_ideals_quotient, _diagram_text),
            "enumerate": (_ideals_enumerate, _enumerate_text),
            "primitive": (_ideals_primitive, _primitive_text),
            "compact": (_ideals_compact, _compact_text),
            "ji-evidence": (_ideals_ji_evidence, _evidence_text),
        },
    ),
    "traces": _Verb(
        "trace-simplex points and labels",
        (_OPTIONAL_FILE, _arg("--level", type=int),
         _arg("--point", help='barycentric coordinates "a/b,c/d,..."'),
         _arg("--from-level", dest="src", type=int), _arg("--to-level", dest="dst", type=int),
         _arg("--stationary"), _arg("--t", help="explicit weights, comma separated"),
         _arg("--line", type=int), _arg("--family", help='points "1;1/2,1/2;..." level by level'), _DEPTH),
        {
            "zeta": (_traces_zeta, _point_line),
            "push": (_traces_push, _point_line),
            "limit-restrict": (_traces_limit_restrict, _point_line),
            "label": (_traces_label, _label_text),
        },
    ),
    "intertwine": _Verb(
        "gap series and limit estimates",
        (_arg("file_a"), _arg("file_b"), _arg("--tail", help="geometric:p/q or zero"),
         _arg("--metric", choices=["l1", "l2"], default="l1"), _arg("--level", type=int, default=0),
         _arg("--vertex", type=int, default=0), _arg("--depth", dest="est_depth", type=int, default=0)),
        {"gaps": (_intertwine_gaps, _gaps_text), "estimate": (_intertwine_estimate, _estimate_text)},
    ),
    "synthesize": _Verb(
        "build a diagram realizing targets",
        (_arg("--stationary", help='e.g. "geometric:1/2"'), _arg("--targets", help="targets JSON file"),
         _arg("--levels", type=int, required=True), _arg("--exact", action="store_true"),
         _arg("--reduced", action="store_true", help="no effect: synthesis always uses the minimal scale"),
         _arg("--k0", type=int, default=1), _arg("--certificate", help="write certificate JSON here")),
        {None: (_synthesize, _diagram_text)},
    ),
    "classify": _Verb(
        "limit-simplex shape of stationary weights",
        (_arg("--stationary", required=True), _arg("--depth", type=int, default=32)),
        {None: (_classify, _classify_text)},
    ),
    "k0": _Verb(
        "dimension-group prefix computations",
        (_OPTIONAL_FILE, _arg("--x", help="integer sequence, comma separated"),
         _arg("--indices", help="coordinate set, comma separated"), _DEPTH),
        {
            "check": (_k0_check, _k0_check_text),
            "witness": (_k0_witness, _witness_text),
            "positive": (_k0_positive, lambda obj: "positive\n" if obj["positive"] else "not positive\n"),
        },
    ),
    "export": _Verb(
        "DOT rendering of a diagram",
        (_FILE, _arg("-o", "--output"), _DEPTH),
        {None: (_export, _TEXT)},
        json=False,
    ),
    "fixtures": _Verb(
        "built-in example diagrams",
        (_arg("name", nargs="?"), _arg("--list", action="store_true")),
        {None: (_fixtures, _TEXT)},
        json=False,
    ),
}


def _build_parser(names) -> _Parser:
    parser = _Parser(prog="bratteli", description=_DESCRIPTION)
    sub = parser.add_subparsers(dest="verb")
    for name in names:
        verb = _VERBS[name]
        p = sub.add_parser(name, help=verb.help)
        if None not in verb.actions:
            p.add_argument("action", choices=list(verb.actions))
        for flags, options in verb.args:
            p.add_argument(*flags, **options)
        p.add_argument("--json", action="store_true")
    return parser


def run(argv) -> int:
    argv = list(argv)
    # Only the invoked verb's subparser is built; help, usage and
    # unknown-verb errors need all of them.
    parser = _build_parser(argv[:1] if argv and argv[0] in _VERBS else _VERBS)
    try:
        args, extras = parser.parse_known_args(argv)
        # argparse cannot place an optional positional after flag arguments
        # ("traces zeta --level 4 -"), so reattach a single leftover here.
        if extras:
            leftover_file = (
                len(extras) == 1
                and (extras[0] == "-" or not extras[0].startswith("-"))
                and getattr(args, "file", "missing") is None
            )
            if leftover_file:
                args.file = extras[0]
            else:
                raise _UsageError(f"unrecognized arguments: {' '.join(extras)}")
        if not args.verb:
            parser.print_usage(sys.stderr)
            return 1
        verb = _VERBS[args.verb]
        compute, render = verb.actions[getattr(args, "action", None)]
        obj, code = compute(args)
        _emit(obj, _json_text if args.json and verb.json else render)
        return code
    except (_UsageError, ValueError, OSError) as exc:  # ValueError includes every BratteliError
        print(f"bratteli: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
