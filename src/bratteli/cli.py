"""Command-line interface.

One executable, batch-oriented, composable through pipes ("-" denotes
standard input).  Exit codes: 0 success / affirmative verdict, 2 negative
verdict (violation, non-compact, failed evidence, ...), 1 usage or input
error.  `--json` switches any command to a machine-readable report with
rationals serialized as "p/q".
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import fixtures as fixture_mod
from .diagram import BratteliPrefix, TriangularSpec, embed_triangular
from .dotexport import export_dot
from .errors import BratteliError
from .formats import (
    Diagram,
    emit_diagram,
    fraction_from_str,
    fraction_to_str,
    parse_diagram,
    parse_targets,
)
from .ideals import (
    IdealProfile,
    close,
    enumerate_ideals,
    is_compact,
    just_infinite_evidence,
    primitive_profiles,
    profile_from_last_level,
    quotient,
)
from .intertwine import IntertwiningData, MapSequence, TailBound, gap_series, limit_vertex_estimate
from .k0 import K0Element, nondegeneracy_witness, positivity_check, recurrence_check
from .rfd import check_rfd, check_rfd_ji
from .simplex import SimplexPoint
from .synthesis import (
    StationarySpec,
    TailRule,
    TargetSequence,
    classify_stationary,
    synthesize,
)
from .traces import label_trace, level_maps, limit_trace_restriction, push_point, zeta


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage problems, not argparse's 2
        raise _UsageError(message)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_diagram(path: str) -> Diagram:
    return parse_diagram(_read_text(path))


def _as_prefix(diagram: Diagram, depth: int | None) -> BratteliPrefix:
    if isinstance(diagram, TriangularSpec):
        top = diagram.levels_defined if depth is None else depth
        return embed_triangular(diagram, top)
    prefix = diagram
    if depth is not None:
        prefix = prefix.truncate(depth + 1)
    return prefix


def _require_triangular(diagram: Diagram) -> TriangularSpec:
    if not isinstance(diagram, TriangularSpec):
        raise BratteliError("this command needs a triangular-format diagram")
    return diagram


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
    head: list[Fraction] = []
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


def _point_str(point: SimplexPoint) -> str:
    return "(" + ",".join(point.common_denominator_strings()) + ")"


def _point_json(point: SimplexPoint) -> list[str]:
    return [fraction_to_str(c) for c in point.coords]


def _profile_json(profile: IdealProfile) -> list[list[int]]:
    return [list(level) for level in profile.T]


def _emit(args, obj: dict, human: str) -> None:
    if args.json:
        print(json.dumps(obj, sort_keys=True))
    elif human:
        print(human)


def _require(value, flag: str):
    if value is None:
        raise BratteliError(f"missing required option {flag}")
    return value


def _parse_point(text: str) -> SimplexPoint:
    return SimplexPoint([fraction_from_str(c) for c in text.split(",")])


def _parse_family(text: str) -> list[SimplexPoint]:
    return [_parse_point(chunk) for chunk in text.split(";") if chunk.strip()]


def _map_sequence_from_file(path: str, metric: str) -> MapSequence:
    """The vertex-fixing maps of a targets file or the trace maps of a
    diagram file, chosen by the file's "format"."""
    text = _read_text(path)
    try:
        obj = json.loads(text)
    except json.JSONDecodeError:
        obj = None  # parse_diagram reports it
    if isinstance(obj, dict) and obj.get("format") == "targets":
        points = parse_targets(text)
        return TargetSequence.explicit(points).map_sequence(len(points) - 1, metric)
    prefix = _as_prefix(parse_diagram(text), None)
    return MapSequence(level_maps(prefix), metric)


def _parse_tail(text: str | None) -> TailBound | None:
    if text is None:
        return None
    kind, _, val = text.partition(":")
    if kind == "geometric":
        return TailBound.geometric(fraction_from_str(val))
    if kind == "zero":
        return TailBound.zero()
    raise BratteliError(f"unknown tail bound {text!r}")


# --- subcommand handlers ------------------------------------------------------


def _cmd_check_rfd(args) -> int:
    prefix = _as_prefix(_load_diagram(args.file), args.depth)
    checker = check_rfd_ji if args.ji else check_rfd
    result = checker(prefix, mode=args.mode)
    kind = "RFD-JI" if args.ji else "RFD"
    if result.consistent:
        w = result.witness
        obj = {
            "command": "check-rfd",
            "kind": kind,
            "mode": args.mode,
            "consistent": True,
            "r": list(w.r),
            "kseq": list(w.kseq),
            "permutations": [list(p) for p in w.permutations] if w.permutations else None,
            "caveat": result.caveat,
        }
        _emit(args, obj, f"Consistent ({kind}, {args.mode} mode): r = {list(w.r)}\nnote: {result.caveat}")
        return 0
    obj = {
        "command": "check-rfd",
        "kind": kind,
        "mode": args.mode,
        "consistent": False,
        "level": result.level,
        "reason": result.reason,
    }
    _emit(args, obj, f"Violation ({kind}, {args.mode} mode) at level {result.level}: {result.reason}")
    return 2


def _cmd_ideals(args) -> int:
    prefix = _as_prefix(_load_diagram(args.file), args.depth)
    depth = prefix.depth
    if args.action == "close":
        if args.seeds is None:
            raise BratteliError("close needs --seeds")
        profile = close(prefix, _parse_seeds(args.seeds))
        _emit(
            args,
            {"command": "ideals/close", "profile": _profile_json(profile)},
            "\n".join(f"T_{n} = {set(t) if t else '{}'}" for n, t in enumerate(profile.T)),
        )
        return 0
    if args.action == "quotient":
        profile = _parse_profile(prefix, args)
        q = quotient(prefix, profile)
        if args.dot:
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(export_dot(q, name="quotient"))
        if args.json:
            _emit(args, {"command": "ideals/quotient", "diagram": json.loads(emit_diagram(q))}, "")
        else:
            sys.stdout.write(emit_diagram(q))
        return 0
    if args.action == "enumerate":
        profiles = enumerate_ideals(prefix)
        obj = {
            "command": "ideals/enumerate",
            "count": len(profiles),
            "profiles": [_profile_json(p) for p in profiles],
        }
        human = [f"{len(profiles)} ideals at depth {depth}"]
        human += [str([list(t) for t in p.T]) for p in profiles]
        _emit(args, obj, "\n".join(human))
        return 0
    if args.action == "primitive":
        result = check_rfd_ji(prefix, mode="strict")
        if not result.consistent:
            raise BratteliError(
                f"diagram is not RFD-JI consistent (level {result.level}: {result.reason})"
            )
        prims = primitive_profiles(prefix, result.witness)
        obj = {
            "command": "ideals/primitive",
            "note": "the zero ideal is primitive as well",
            "profiles": [
                {"line": p.line, "k": p.k, "profile": _profile_json(p.profile)} for p in prims
            ],
        }
        human = [f"{len(prims)} primitive kernel profiles (plus the zero ideal)"]
        human += [f"line {p.line}: quotient size {p.k}" for p in prims]
        _emit(args, obj, "\n".join(human))
        return 0
    if args.action == "compact":
        profile = _parse_profile(prefix, args)
        verdict = is_compact(prefix, profile)
        word = "compact" if verdict else "not compact"
        _emit(
            args,
            {"command": "ideals/compact", "compact": verdict, "depth": depth},
            f"{word} at depth {depth}",
        )
        return 0 if verdict else 2
    if args.action == "ji-evidence":
        result = check_rfd_ji(prefix, mode="strict")
        rfd = result if result.consistent else check_rfd(prefix, mode="strict")
        if not rfd.consistent:
            raise BratteliError(
                f"diagram is not RFD consistent (level {rfd.level}: {rfd.reason})"
            )
        report = just_infinite_evidence(prefix, rfd.witness)
        obj = {
            "command": "ideals/ji-evidence",
            "depth": report.depth,
            "passed": report.passed,
            "failures": [
                {"level": s.level, "vertex": s.vertex} for s in report.failures
            ],
        }
        if report.passed:
            _emit(args, obj, f"evidence at depth {report.depth}: every seed quotient stabilizes")
            return 0
        failing = ", ".join(f"({s.level},{s.vertex})" for s in report.failures)
        _emit(args, obj, f"evidence at depth {report.depth}: FAILS for seeds {failing}")
        return 2
    raise BratteliError(f"unknown ideals action {args.action!r}")


def _cmd_traces(args) -> int:
    if args.action == "zeta":
        spec = _require_triangular(_load_diagram(_require(args.file, "file")))
        point = zeta(spec, _require(args.level, "--level"))
        _emit(
            args,
            {"command": "traces/zeta", "level": args.level, "point": _point_json(point)},
            _point_str(point),
        )
        return 0
    if args.action == "push":
        prefix = _as_prefix(_load_diagram(_require(args.file, "file")), args.depth)
        point = push_point(
            prefix,
            _parse_point(_require(args.point, "--point")),
            _require(args.src, "--from-level"),
            _require(args.dst, "--to-level"),
        )
        _emit(
            args,
            {"command": "traces/push", "point": _point_json(point)},
            _point_str(point),
        )
        return 0
    if args.action == "limit-restrict":
        _require(args.level, "--level")
        if args.stationary:
            spec = _parse_stationary(args.stationary)
            weights = [spec.value(j) for j in range(args.level + 1)]
        elif args.t:
            weights = [fraction_from_str(x) for x in args.t.split(",")]
        elif args.file:
            tri = _require_triangular(_load_diagram(args.file))
            spec = StationarySpec((), TailRule.equal_to_k(tri))
            weights = [spec.value(j) for j in range(args.level + 1)]
        else:
            raise BratteliError("need --stationary, --t, or a triangular file")
        point = limit_trace_restriction(weights, _require(args.level, "--level"))
        _emit(
            args,
            {"command": "traces/limit-restrict", "level": args.level, "point": _point_json(point)},
            _point_str(point),
        )
        return 0
    if args.action == "label":
        prefix = _as_prefix(_load_diagram(_require(args.file, "file")), args.depth)
        result = check_rfd_ji(prefix, mode="strict")
        if not result.consistent:
            raise BratteliError("labeling needs an RFD-JI-consistent diagram")
        if args.line is None and args.family is None:
            raise BratteliError("need --line or --family")
        descriptor = args.line if args.line is not None else _parse_family(args.family)
        label = label_trace(prefix, result.witness, descriptor)
        obj = {"command": "traces/label", "kind": label.kind, "k": label.k}
        human = label.kind if label.k is None else f"{label.kind} (k = {label.k})"
        _emit(args, obj, human)
        return 0
    raise BratteliError(f"unknown traces action {args.action!r}")


def _cmd_intertwine(args) -> int:
    top = _map_sequence_from_file(args.file_a, args.metric)
    bottom = _map_sequence_from_file(args.file_b, args.metric)
    data = IntertwiningData(top, bottom, tail=_parse_tail(args.tail))
    if args.action == "gaps":
        series = gap_series(data)
        obj = {
            "command": "intertwine/gaps",
            "metric": series.metric,
            "gaps": [fraction_to_str(g) for g in series.gaps],
            "partial_sums": [fraction_to_str(s) for s in series.partial_sums]
            if series.partial_sums
            else None,
            "certificate": fraction_to_str(series.certificate)
            if series.certificate is not None
            else None,
        }
        lines = [
            f"gap_{n} = {fraction_to_str(g)}" for n, g in enumerate(series.gaps)
        ]
        if series.certificate is not None:
            lines.append(f"certificate (partial sum + tail) = {fraction_to_str(series.certificate)}")
        else:
            lines.append("no certificate (supply --tail for one)")
        _emit(args, obj, "\n".join(lines))
        return 0
    if args.action == "estimate":
        est = limit_vertex_estimate(data, args.level, args.vertex, args.est_depth)
        obj = {
            "command": "intertwine/estimate",
            "point": _point_json(est.point),
            "error_bound": fraction_to_str(est.error_bound),
            "certified": est.certified,
        }
        _emit(
            args,
            obj,
            f"{_point_str(est.point)}  error bound {fraction_to_str(est.error_bound)}"
            + ("" if est.certified else " (within prefix only; no tail bound)"),
        )
        return 0
    raise BratteliError(f"unknown intertwine action {args.action!r}")


def _cmd_synthesize(args) -> int:
    if args.stationary:
        targets = _parse_stationary(args.stationary).targets()
    elif args.targets:
        targets = TargetSequence.explicit(parse_targets(_read_text(args.targets)))
    else:
        raise BratteliError("need --stationary or --targets")
    spec, cert = synthesize(targets, args.levels, k0=args.k0, exact=args.exact)
    cert_obj = {
        "levels": [
            {
                "level": l.level,
                "ell": list(l.ell),
                "mvector": list(l.mvector),
                "k_next": l.k_next,
                "xi": _point_json(l.xi),
                "zeta": _point_json(l.zeta),
                "gap_l1": fraction_to_str(l.gap_l1),
                "gap_l2_squared": fraction_to_str(l.gap_l2sq),
                "epsilon": fraction_to_str(l.epsilon),
            }
            for l in cert.levels
        ]
    }
    if args.certificate:
        with open(args.certificate, "w", encoding="utf-8") as fh:
            json.dump(cert_obj, fh, sort_keys=True)
            fh.write("\n")
    if args.json:
        print(
            json.dumps(
                {
                    "command": "synthesize",
                    "diagram": json.loads(emit_diagram(spec)),
                    "certificate": cert_obj,
                },
                sort_keys=True,
            )
        )
    else:
        sys.stdout.write(emit_diagram(spec))
    return 0


def _cmd_classify(args) -> int:
    spec = _parse_stationary(args.stationary)
    result = classify_stationary(spec, depth=args.depth)
    obj = {
        "command": "classify",
        "verdict": result.verdict,
        "e_inf": [fraction_to_str(c) for c in result.e_inf] if result.e_inf else None,
        "total": fraction_to_str(result.total) if result.total is not None else None,
        "partial_sums": [fraction_to_str(s) for s in result.partial_sums]
        if result.partial_sums
        else None,
    }
    human = result.verdict
    if result.e_inf:
        shown = ",".join(fraction_to_str(c) for c in result.e_inf[:8])
        human += f"; limit of extreme points has coefficients ({shown},...)"
    _emit(args, obj, human)
    return 0


def _cmd_k0(args) -> int:
    if args.action == "check":
        spec = _require_triangular(_load_diagram(_require(args.file, "file")))
        xs = [int(v) for v in _require(args.x, "--x").split(",")]
        start = recurrence_check(spec, xs)
        obj = {"command": "k0/check", "holds_from": start}
        if start is None:
            _emit(args, obj, "recurrence never holds on this prefix")
            return 2
        _emit(args, obj, f"recurrence holds from index {start}")
        return 0
    if args.action == "witness":
        spec = _require_triangular(_load_diagram(_require(args.file, "file")))
        indices = [int(v) for v in _require(args.indices, "--indices").split(",")]
        wits = nondegeneracy_witness(spec, indices, _require(args.depth, "--depth"))
        obj = {
            "command": "k0/witness",
            "witnesses": [
                {"index": w.index, "prefix": list(w.element.prefix)} for w in wits
            ],
        }
        human = "\n".join(f"index {w.index}: {list(w.element.prefix)}" for w in wits)
        _emit(args, obj, human)
        return 0
    if args.action == "positive":
        xs = [int(v) for v in _require(args.x, "--x").split(",")]
        verdict = positivity_check(K0Element(xs))
        _emit(
            args,
            {"command": "k0/positive", "positive": verdict},
            "positive" if verdict else "not positive",
        )
        return 0 if verdict else 2
    raise BratteliError(f"unknown k0 action {args.action!r}")


def _cmd_export(args) -> int:
    prefix = _as_prefix(_load_diagram(args.file), args.depth)
    text = export_dot(prefix)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_fixtures(args) -> int:
    if args.list:
        print("\n".join(fixture_mod.FIXTURE_NAMES))
        return 0
    if not args.name:
        raise BratteliError("need a fixture name or --list")
    sys.stdout.write(fixture_mod.fixtures(args.name))
    return 0


# --- argument wiring ----------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="bratteli", description=__doc__)
    sub = parser.add_subparsers(dest="verb")

    p = sub.add_parser("check-rfd", help="block-structure consistency of a diagram")
    p.add_argument("file")
    p.add_argument("--ji", action="store_true", help="also require positivity blocks")
    p.add_argument("--mode", choices=["strict", "perm"], default="strict")
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check_rfd)

    p = sub.add_parser("ideals", help="ideal profiles, quotients, and evidence")
    p.add_argument("action", choices=["close", "quotient", "enumerate", "primitive", "compact", "ji-evidence"])
    p.add_argument("file")
    p.add_argument("--seeds", default=None, help='e.g. "1:0,2:3"')
    p.add_argument("--profile", default=None, help="co-last-column | co-column:J | zero | full")
    p.add_argument("--dot", default=None, help="write quotient diagram as DOT")
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_ideals)

    p = sub.add_parser("traces", help="trace-simplex points and labels")
    p.add_argument("action", choices=["zeta", "push", "limit-restrict", "label"])
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("--level", type=int, default=None)
    p.add_argument("--point", default=None, help='barycentric coordinates "a/b,c/d,..."')
    p.add_argument("--from-level", dest="src", type=int, default=None)
    p.add_argument("--to-level", dest="dst", type=int, default=None)
    p.add_argument("--stationary", default=None)
    p.add_argument("--t", default=None, help="explicit weights, comma separated")
    p.add_argument("--line", type=int, default=None)
    p.add_argument("--family", default=None, help='points "1;1/2,1/2;..." level by level')
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_traces)

    p = sub.add_parser("intertwine", help="gap series and limit estimates")
    p.add_argument("action", choices=["gaps", "estimate"])
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--tail", default=None, help="geometric:p/q or zero")
    p.add_argument("--metric", choices=["l1", "l2"], default="l1")
    p.add_argument("--level", type=int, default=0)
    p.add_argument("--vertex", type=int, default=0)
    p.add_argument("--depth", dest="est_depth", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_intertwine)

    p = sub.add_parser("synthesize", help="build a diagram realizing targets")
    p.add_argument("--stationary", default=None, help='e.g. "geometric:1/2"')
    p.add_argument("--targets", default=None, help="targets JSON file")
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--exact", action="store_true")
    p.add_argument(
        "--reduced",
        action="store_true",
        help="no effect: synthesis always uses the minimal scale",
    )
    p.add_argument("--k0", type=int, default=1)
    p.add_argument("--certificate", default=None, help="write certificate JSON here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser("classify", help="limit-simplex shape of stationary weights")
    p.add_argument("--stationary", required=True)
    p.add_argument("--depth", type=int, default=32)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("k0", help="dimension-group prefix computations")
    p.add_argument("action", choices=["check", "witness", "positive"])
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("--x", default=None, help="integer sequence, comma separated")
    p.add_argument("--indices", default=None, help="coordinate set, comma separated")
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_k0)

    p = sub.add_parser("export", help="DOT rendering of a diagram")
    p.add_argument("file")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("fixtures", help="built-in example diagrams")
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--list", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_fixtures)

    return parser


def run(argv) -> int:
    parser = _build_parser()
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
        if not getattr(args, "verb", None):
            parser.print_usage(sys.stderr)
            return 1
        return args.func(args)
    except _UsageError as exc:
        print(f"bratteli: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:  # includes every BratteliError
        print(f"bratteli: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
