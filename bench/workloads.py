"""The three workloads: ladders of `bratteli` verb invocations.

A workload is a fixed list of rungs.  A rung is one verb with fixed flags on
one input family at one size; a pass runs every rung once, in a seeded
order.  Each rung has POOL input variants.  A run starts every rung at a
seeded variant and takes the next one on each pass, so no input repeats
within a run and a cache across calls cannot show a gain.

Variants differ in content that leaves the work unchanged: the first size
(sizes scale, verdicts and search paths do not), the order of target
coordinates, the choice among symmetric vertices.  So the seed changes the
inputs but not the cost of a pass.

Outputs that ROADMAP aim 2 freezes (verdicts, exit codes, reasons,
witnesses, profiles, canonical JSON) are compared with golden digests
recorded at the seed commit; see record_golden.py.  Synthesis output may
legitimately change, so it is re-derived by checks.synthesis_error instead.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import checks
import inputs

POOL = 48


@dataclass
class Op:
    """One verb invocation.  In `argv`, "@name" stands for the path of
    `files[name]`; "@out" names a file the op writes."""

    argv: list[str]
    files: dict[str, str] = field(default_factory=dict)
    # independent check on (exit code, stdout, files the op wrote)
    check: Callable[[int, str, dict], str | None] | None = None
    # compare (exit code, stdout) with the digest recorded at the seed commit
    frozen: bool = True


@dataclass(frozen=True)
class Rung:
    key: str
    build: Callable[[int, int, random.Random], Op]  # (salt, variant, rng) -> Op


@dataclass(frozen=True)
class Workload:
    name: str
    rungs: tuple[Rung, ...]
    # spans the traced run must record, or it fails as incomplete
    required_spans: tuple[str, ...]


def digest(code: int, stdout: str) -> str:
    return hashlib.sha256(f"{code}\n{stdout}".encode()).hexdigest()[:16]


def variant_inputs(workload: Workload, index: int, variant: int) -> Op:
    """The op of rung `index` at pool variant `variant`.

    `salt` is unique per (rung, variant) and sets a first size or k0, so
    two ops never read the same file content."""
    rung = workload.rungs[index]
    salt = 1 + variant * len(workload.rungs) + index
    return rung.build(salt, variant, random.Random(f"{rung.key}#{variant}"))


def plan(workload: Workload, seed: int):
    """Pass by pass, the (rung index, variant) pairs a run with this seed
    executes: every rung starts at a seeded variant and moves one per pass,
    in a seeded order.  POOL passes at most."""
    rng = random.Random(seed)
    offsets = [rng.randrange(POOL) for _ in workload.rungs]
    for p in range(POOL):
        order = list(range(len(workload.rungs)))
        rng.shuffle(order)
        yield [(i, (offsets[i] + p) % POOL) for i in order]


def _json_flag(json_out: bool) -> list[str]:
    return ["--json"] if json_out else []


# --- structure ----------------------------------------------------------------


def _family(name: str, depth: int, salt: int, rng) -> inputs.Diagram:
    if name == "ones":
        return inputs.ones(depth, salt)
    if name == "positive":
        return inputs.positive(depth, salt, rng)
    if name == "zeros":
        return inputs.zeros(depth, salt, rng)
    return inputs.FAMILIES[name](depth, salt)


_R_TEXT = re.compile(r"r = (\[[0-9, ]*\])")


def _rfd_check(diagram, ji: bool, perm: bool, json_out: bool):
    def check(code, out, _files):
        if code == 2:
            return None  # a violation: the reason and level are frozen
        if code != 0:
            return f"exit code {code}"
        if json_out:
            obj = checks.loads(out)
            return checks.rfd_witness_error(
                diagram, obj["r"], obj["kseq"], obj["permutations"], ji
            )
        if perm:
            return None  # the text report carries no slot orders
        match = _R_TEXT.search(out)
        if match is None:
            return "no witness in the report"
        return checks.rfd_witness_error(diagram, json.loads(match.group(1)), ji=ji)

    return check


def check_rfd(family: str, depth: int, ji=False, perm=False, json_out=True) -> Rung:
    key = f"check-rfd/{family}/{depth}" + ("/ji" if ji else "") + ("/perm" if perm else "")
    key += "/json" if json_out else ""

    def build(salt, variant, rng):
        d = _family(family, depth, salt, rng)
        argv = ["check-rfd", "@in"] + (["--ji"] if ji else [])
        argv += (["--mode", "perm"] if perm else []) + _json_flag(json_out)
        return Op(argv, {"in": d.text}, _rfd_check(d, ji, perm, json_out))

    return Rung(key, build)


# The RFD search is about 90% of the work here, so a faster search shows on
# this workload first.
STRUCTURE = Workload(
    "structure",
    (
        # strict RFD on the triangular families: the large rungs
        *(check_rfd("ones", d, json_out=d % 2 == 0) for d in (8, 14, 20, 26, 32, 38)),
        *(check_rfd("positive", d) for d in (10, 18, 28, 36)),
        *(check_rfd("zeros", d, json_out=d != 22) for d in (12, 22, 34)),
        # RFD-JI: passes on ones/positive, fails early on zeros after the
        # full search plus the RFD re-run that picks the reason
        *(check_rfd("ones", d, ji=True) for d in (24, 42, 60)),
        *(check_rfd("positive", d, ji=True, json_out=d != 30) for d in (16, 24, 30, 52)),
        *(check_rfd("zeros", d, ji=True) for d in (10, 20, 28, 34)),
        # permutation mode, up to the width-12 cap
        *(check_rfd("ones", d, perm=True) for d in (5, 8, 11)),
        check_rfd("ones", 11, ji=True, perm=True),
        *(check_rfd("positive", d, perm=True, json_out=False) for d in (7, 10)),
        *(check_rfd("ex57A-left", d, perm=True) for d in (6, 11)),
        check_rfd("ex57A-left", 11, ji=True, perm=True),
        check_rfd("ex57A-right", 11, perm=True),
        check_rfd("ex57A-right", 11, ji=True, perm=True),
        check_rfd("ex57B", 11, perm=True, json_out=False),
        # strict mode on the general families
        *(check_rfd("ex57A-left", d, json_out=d == 30) for d in (10, 30)),
        *(check_rfd("ex57A-right", d) for d in (8, 20, 32)),
        check_rfd("ex57A-right", 20, ji=True),
        *(check_rfd("ex57B", d, json_out=d == 12) for d in (12, 26)),
        check_rfd("ex57B", 26, ji=True),
    ),
    (
        "cli.run",
        "formats.parse_diagram",
        "diagram.validate",
        "diagram.embed_triangular",
        "rfd.check_rfd",
        "rfd.check_rfd_ji",
    ),
)


# --- ideals -------------------------------------------------------------------


def ji_evidence(family: str, depth: int, json_out=False) -> Rung:
    def build(salt, variant, rng):
        d = inputs.FAMILIES[family](depth, salt)
        return Op(["ideals", "ji-evidence", "@in"] + _json_flag(json_out), {"in": d.text})

    return Rung(f"ideals-ji-evidence/{family}/{depth}" + ("/json" if json_out else ""), build)


def _enumerate_check(diagram):
    def check(code, out, _files):
        if code != 0:
            return f"exit code {code}"
        got = [tuple(tuple(level) for level in p) for p in checks.loads(out)["profiles"]]
        if got != checks.brute_force_ideals(diagram):
            return "profiles differ from the subset brute force"
        return None

    return check


def enumerate_ideals(family: str, depth: int, json_out=True) -> Rung:
    """Triangular prefix with `depth` matrices: last width depth + 1.
    Rungs small enough for the subset brute force are checked by it."""

    def build(salt, variant, rng):
        d = _family(family, depth, salt, rng)
        small = json_out and sum(len(level) for level in d.levels) <= 10
        return Op(
            ["ideals", "enumerate", "@in"] + _json_flag(json_out),
            {"in": d.text},
            _enumerate_check(d) if small else None,
        )

    return Rung(f"ideals-enumerate/{family}/{depth}" + ("/json" if json_out else ""), build)


def _profile_check(diagram):
    def check(code, out, _files):
        if code != 0:
            return f"exit code {code}"
        return checks.profile_error(diagram, checks.loads(out)["profile"])

    return check


def _old_line_seed(depth: int, rng) -> str:
    """A seed on an old line of the middle level.  On the all-ones family
    the old lines are symmetric, so every choice costs the same."""
    n = depth // 2
    return f"{n}:{rng.randrange(n)}"


def ideals_action(action: str, depth: int, json_out=True) -> Rung:
    """close / quotient / compact / primitive on an all-ones prefix."""

    def build(salt, variant, rng):
        d = inputs.ones(depth, salt)
        argv = ["ideals", action, "@in"]
        check = None
        if action in ("close", "quotient"):
            argv += ["--seeds", _old_line_seed(depth, rng)]
            if action == "close" and json_out:
                check = _profile_check(d)
        elif action == "compact":
            # alternate a seeded generator with the fixed co-last-column
            # profile; a seeded column would change the search length
            if depth % 4 == 0:
                argv += ["--seeds", _old_line_seed(depth, rng)]
            else:
                argv += ["--profile", "co-last-column"]
        return Op(argv + _json_flag(json_out), {"in": d.text}, check)

    return Rung(f"ideals-{action}/ones/{depth}" + ("/json" if json_out else ""), build)


# Thousands of small validations and closures per op: diagram.validate is
# about 55% and the ideal engine about 40% of the work; rfd only fetches
# witnesses.
IDEALS = Workload(
    "ideals",
    (
        *(ji_evidence("ex57A-right", d, json_out=d == 13) for d in (5, 9, 13, 17, 20)),
        *(ji_evidence("ex57B", d, json_out=d == 11) for d in (7, 11, 15, 18)),
        *(enumerate_ideals("ones", d) for d in (3, 5, 7, 9, 10)),
        *(enumerate_ideals("positive", d, json_out=d != 6) for d in (4, 6)),
        *(enumerate_ideals("zeros", d) for d in (2, 3, 4)),
        *(ideals_action("close", d, json_out=d != 24) for d in (12, 24, 36, 48)),
        *(ideals_action("quotient", d, json_out=d != 16) for d in (8, 16, 28, 40)),
        *(ideals_action("compact", d, json_out=d != 10) for d in (10, 16, 22, 28, 34)),
        *(ideals_action("primitive", d, json_out=d != 12) for d in (6, 12, 18)),
    ),
    (
        "cli.run",
        "formats.parse_diagram",
        "diagram.validate",
        "diagram.embed_triangular",
        "ideals.close",
        "ideals.quotient",
        "ideals.enumerate_ideals",
        "ideals.just_infinite_evidence",
        "ideals.is_compact",
        "ideals.primitive_profiles",
        "ideals.profile_from_last_level",
        "ideals.profile_is_valid",
        "rfd.check_rfd",
        "rfd.check_rfd_ji",
        "rfd.validate_witness",
    ),
)


# --- towers -------------------------------------------------------------------


def _synth_check(points, exact, json_out):
    def check(code, out, files):
        if code != 0:
            return f"exit code {code}"
        if json_out:
            obj = checks.loads(out)
            return checks.synthesis_error(obj["diagram"], obj["certificate"], points, exact=exact)
        return checks.synthesis_error(
            checks.loads(out), checks.loads(files["out"]), points, exact=exact
        )

    return check


def synthesize(mode: str, ratio: Fraction, levels: int, json_out=True) -> Rung:
    """Synthesis from seeded targets: the geometric head of each level with
    its coordinates in a seeded order.  mode: approximate | exact | reduced."""

    def build(salt, variant, rng):
        points = inputs.permuted_geometric_points(ratio, levels, rng, last=variant)
        argv = ["synthesize", "--targets", "@targets", "--levels", str(levels)]
        argv += {"approximate": [], "exact": ["--exact"], "reduced": ["--exact", "--reduced"]}[mode]
        argv += _json_flag(json_out) if json_out else ["--certificate", "@out"]
        return Op(
            argv,
            {"targets": inputs.targets_text(points)},
            _synth_check(points, mode != "approximate", json_out),
            frozen=False,
        )

    key = f"synthesize/{mode}/{ratio}/{levels}" + ("/json" if json_out else "")
    return Rung(key, build)


def _point_arg(rng, dim: int) -> str:
    weights = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(dim)]
    return ",".join(inputs.fraction_text(w) for w in inputs.normalized(weights))


def traces_push(depth: int, json_out=True) -> Rung:
    def build(salt, variant, rng):
        d = inputs.positive(depth, salt, rng)
        argv = ["traces", "push", "@in", "--point", _point_arg(rng, depth + 1)]
        argv += ["--from-level", str(depth), "--to-level", "0"] + _json_flag(json_out)
        return Op(argv, {"in": d.text})

    return Rung(f"traces-push/positive/{depth}" + ("/json" if json_out else ""), build)


def traces_zeta(depth: int) -> Rung:
    def build(salt, variant, rng):
        d = inputs.positive(depth, salt, rng)
        return Op(["traces", "zeta", "@in", "--level", str(depth - 1), "--json"], {"in": d.text})

    return Rung(f"traces-zeta/positive/{depth}", build)


def intertwine(action: str, depth: int, ratio: Fraction, json_out=True) -> Rung:
    """An all-ones tower, but for m^(0) = (salt), against seeded geometric
    targets.  The salt changes every trace map, so no two ops share one."""

    def build(salt, variant, rng):
        tower = inputs.triangular(1, [(salt,)] + [(1,) * (n + 1) for n in range(1, depth)])
        points = inputs.permuted_geometric_points(ratio, depth, rng)
        argv = ["intertwine", action, "@a", "@b", "--tail", "geometric:1/2"]
        if action == "estimate":
            argv += ["--level", "0", "--vertex", str(rng.randrange(depth)), "--depth", str(depth - 1)]
        return Op(argv + _json_flag(json_out), {"a": tower.text, "b": inputs.targets_text(points)})

    return Rung(f"intertwine-{action}/ones/{ratio}/{depth}" + ("/json" if json_out else ""), build)


def k0_action(action: str, depth: int) -> Rung:
    def build(salt, variant, rng):
        d = inputs.positive(depth, salt, rng)
        argv = ["k0", action, "@in", "--json"]
        if action == "check":
            # a seeded head continued by the recurrence, so it holds from
            # the end of the head at the latest
            cut = rng.randrange(1, depth // 2)
            xs = [salt + j for j in range(cut)]
            for n in range(cut - 1, depth):
                m = d.matrices[n][-1]
                xs.append(sum(e * x for e, x in zip(m, xs)))
            argv += ["--x", ",".join(map(str, xs))]
        else:
            idx = sorted(rng.sample(range(depth // 2), 3))
            argv += ["--indices", ",".join(map(str, idx)), "--depth", str(depth)]
        return Op(argv, {"in": d.text})

    return Rung(f"k0-{action}/positive/{depth}", build)


HALF, TWO_THIRDS = Fraction(1, 2), Fraction(2, 3)

# The synthesis denominator scan, Fraction matrix compose/apply and big
# integers; traces, simplex and intertwine are weighted to about 30% of the
# work so that they stay measured once the scan is fast.
TOWERS = Workload(
    "towers",
    (
        *(synthesize("approximate", HALF, n) for n in (4, 6, 8, 10)),
        *(synthesize("approximate", TWO_THIRDS, n, json_out=n != 9) for n in (5, 7, 9, 11)),
        *(synthesize("exact", HALF, n, json_out=n != 10) for n in (7, 10, 13)),
        *(synthesize("reduced", TWO_THIRDS, n) for n in (24, 40, 48)),
        *(traces_push(d, json_out=d != 24) for d in (8, 16, 24, 32, 40)),
        *(traces_zeta(d) for d in (10, 30)),
        *(intertwine("gaps", d, HALF, json_out=d != 16) for d in (8, 16, 24, 32)),
        intertwine("gaps", 12, TWO_THIRDS),
        *(intertwine("estimate", d, HALF, json_out=d != 20) for d in (10, 20, 30)),
        *(k0_action("check", d) for d in (10, 20, 40)),
        *(k0_action("witness", d) for d in (10, 20, 40)),
    ),
    (
        "cli.run",
        "formats.parse_diagram",
        "formats.parse_targets",
        "synthesis.synthesize",
        "synthesis.approximate_on_simplex",
        "traces.induced_trace_map",
        "traces.level_maps",
        "traces.push_point",
        "traces.zeta",
        "simplex.compose",
        "simplex.apply",
        "intertwine.map_distance",
        "intertwine.gap_series",
        "intertwine.compose_range",
        "intertwine.limit_vertex_estimate",
        "k0.recurrence_check",
        "k0.nondegeneracy_witness",
    ),
)

WORKLOADS = {w.name: w for w in (STRUCTURE, IDEALS, TOWERS)}


# --- known defects ------------------------------------------------------------


def _zeta_bytes(level: int) -> str:
    """`traces zeta --json` on an all-ones tower, derived by hand: the new
    vertex of level n+1 sees the sizes (1, 1, 2, ..., 2^(n-1)) / 2^n, for
    any k0."""
    ks = [1] + [2 ** max(j - 1, 0) for j in range(1, level + 1)]
    point = [inputs.fraction_text(Fraction(k, 2**level)) for k in ks]
    return json.dumps({"command": "traces/zeta", "level": level, "point": point}, sort_keys=True) + "\n"


def defect_probes() -> list[tuple[str, Op]]:
    """Ops that should succeed but, at the seed commit, stop at the 4300-digit
    integer string limit.  They run outside the timed loop of `towers`, so
    the timed ops stay ones that succeed, and their outcome is reported."""
    levels = 14
    points = [inputs.normalized(inputs.geometric_weights(HALF, n)) for n in range(levels + 1)]
    synth = Op(
        ["synthesize", "--stationary", "geometric:1/2", "--levels", str(levels), "--exact", "--json"],
        check=_synth_check(points, True, True),
        frozen=False,
    )
    # k0 = 10^4400 written as digits, so no int is converted to make it
    huge = '{"format":"triangular","k0":1' + "0" * 4400 + ',"mvectors":[[1],[1,1],[1,1,1],[1,1,1,1]]}\n'
    expected = _zeta_bytes(3)

    def zeta_check(code, out, _files):
        if code != 0:
            return f"exit code {code}"
        return None if out == expected else "zeta point differs from the hand derivation"

    parse = Op(["traces", "zeta", "@in", "--level", "3", "--json"], {"in": huge}, zeta_check, frozen=False)
    return [("synthesize-exact-14-levels", synth), ("parse-4400-digit-k0", parse)]
