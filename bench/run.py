"""Benchmark of the `bratteli` CLI verbs.

    python3 bench/run.py --workload structure --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

Run from the root of a checkout; the package is imported from ./src.  One
op is one `bratteli.cli.run(argv)` call in this process with stdout and
stderr captured: argument parsing, file parse, validation, compute and
emission.  One closed-loop client runs one op at a time.  Interpreter
start-up is measured apart, as `setup_s`.  Every op's output is checked
outside the timed region (see workloads.py); a mismatch fails the op.

With --trace 0 the run measures whole passes until the ops' busy time
reaches --seconds and prints the end-to-end metrics.  Op times are scaled
to a fixed reference speed of the machine, sampled before, during and
after every op (see `SpeedProbe`); raw wall times are printed next to
them.  Start-up times, sampled between passes, are scaled the same way.
With --trace 1 it measures for half that untraced, then runs one pass with
every public function of the package wrapped (tracing.py) and prints
per-layer figures for that pass.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from fractions import Fraction

import checks
import workloads
from tracing import MODULES, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build"

MIN_OPS = 100  # so that ten samples lie beyond the 90th percentile
# start-up samples per run, taken SETUP_PER_PASS after each pass so that
# they span the run like the ops do; the rest after the last pass
SETUP_SAMPLES = 20
SETUP_PER_PASS = 3
# reference_work's time at the reference speed, and how often the speed
# is sampled during an op
CAL_REF_S = 0.0005
PROBE_EVERY_S = 0.005
FIXTURE_LIST = "ex43\nex44\nex57A-left\nex57A-right\nex57B\n"

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for m in MODULES:
        units.update({f"{m}.self_s": "s", f"{m}.calls": "count", f"{m}.errors": "count", f"{m}.share": "ratio"})
    units.update(
        {
            "formats.parse_diagram.calls": "count",
            "formats.out_bytes": "bytes",
            "diagram.validate.calls": "count",
            "diagram.validate.self_s": "s",
            "diagram.embed_triangular.self_s": "s",
            "rfd.check_rfd.calls": "count",
            "rfd.check_rfd_ji.calls": "count",
            "rfd.useful_ratio": "ratio",
            "ideals.close.calls": "count",
            "ideals.close.self_s": "s",
            "ideals.quotient.calls": "count",
            "ideals.quotient.self_s": "s",
            "ideals.enumerate_ideals.self_s": "s",
            "ideals.just_infinite_evidence.self_s": "s",
            "synthesis.approximate_on_simplex.calls": "count",
            "synthesis.approximate_on_simplex.self_s": "s",
            "synthesis.k_bits_max": "bits",
            "traces.induced_trace_map.calls": "count",
            "simplex.compose.calls": "count",
            "simplex.apply.calls": "count",
            "intertwine.map_distance.calls": "count",
            "known_defects.fails": "count",
            "trace.overhead": "ratio",
        }
    )
    return units


def reference_work() -> int:
    """Fixed pure-Python work of the kinds the package does: Fraction sums,
    scans of nested tuples, set building.  Scaled times compare across
    commits only while this stays the same."""
    acc = Fraction(0)
    for i in range(1, 60):
        acc += Fraction(i, i + 3)
    rows = tuple(tuple((i * j) % 7 for j in range(24)) for i in range(24))
    hits = sum(
        1
        for i in range(24)
        for j in range(24)
        if rows[i][j] and all(rows[k][j] != 0 for k in range(i))
    )
    seen = {(i * 31) % 257 for i in range(600)}
    return acc.denominator + hits + len(seen)


def calibration() -> float:
    """One timing of reference_work.  A best of several would favour the
    fast state of a machine whose speed switches within milliseconds."""
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def scaled(latency: float, cals: list[float]) -> float:
    """`latency` at the reference speed, given calibrations spread evenly
    over the op: the mean speed over the op is the mean of CAL_REF_S / c."""
    return latency * statistics.fmean(CAL_REF_S / c for c in cals)


class SpeedProbe:
    """Samples the machine's speed around and during one op.

    On a shared host the CPU speed switches between states that last from a
    few milliseconds to several seconds, and an op slows with it, in CPU
    time as well as wall time.  One calibration before and one after the op
    give its speed at both ends.  With `during`, an interval timer also
    runs `calibration` every PROBE_EVERY_S of the op, so that a long op is
    scaled by the speed over its whole length; the timer handler's own time
    is taken out of the op's latency."""

    def __init__(self, during: bool) -> None:
        self.during = during
        self.cals: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.cals.append(calibration())
        self.spent += time.perf_counter() - t0

    def time(self, fn):
        """Run fn(); return its result and its latency net of the probe."""
        self.cals, self.spent = [calibration()], 0.0
        if self.during:
            old = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            if self.during:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, old)
            t1 = time.perf_counter()
        self.cals.append(calibration())
        return result, t1 - t0 - self.spent


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _k_bits(op_argv: list[str], out: str) -> int:
    """Largest integer bit length in a synthesize output."""
    if op_argv[0] != "synthesize" or "--json" not in op_argv:
        return 0
    obj = checks.loads(out)
    ints = [e for m in obj["diagram"]["mvectors"] for e in m]
    ints += [rec["k_next"] for rec in obj["certificate"]["levels"]]
    return max(abs(i).bit_length() for i in ints)


class Runner:
    def __init__(self, workload, seed: int, cli, probe_during: bool = True) -> None:
        self.w = workload
        self.cli = cli
        self.probe = SpeedProbe(probe_during)
        self.passes = workloads.plan(workload, seed)
        self.pass_no = 0
        golden = BENCH / "golden" / f"{workload.name}.json"
        self.golden = json.loads(golden.read_text())["digests"] if golden.exists() else {}
        self.dir = WORK / f"work-{workload.name}-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.failures: list[str] = []
        self.out_bytes = 0
        self.k_bits = 0

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def _materialize(self, op, tag: str):
        paths = {}
        for name, text in op.files.items():
            paths[name] = self.dir / f"{tag}-{name}.json"
            paths[name].write_text(text, encoding="utf-8")
        paths["out"] = self.dir / f"{tag}-out.json"
        argv = [str(paths[a[1:]]) if a.startswith("@") else a for a in op.argv]
        return argv, paths

    def execute(self, argv: list[str]):
        out, err = io.StringIO(), io.StringIO()

        def op():
            try:
                return self.cli.run(argv)
            except Exception:
                err.write(traceback.format_exc())
                return None

        # a fresh process starts with no garbage; without this an op pays
        # for collections that the ops before it made due
        gc.collect()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code, latency = self.probe.time(op)
        return code, out.getvalue(), err.getvalue(), latency

    def verify(self, key: str, variant: int, op, code, out: str, err: str, paths) -> str | None:
        """None when the op's output is right, else why not."""
        if code is None:
            return "raised: " + err.strip().splitlines()[-1]
        if op.frozen:
            expected = self.golden.get(key)
            if expected is None:
                return "no golden digest recorded"
            if workloads.digest(code, out) != expected[variant]:
                return f"exit {code} / output differs from the seed commit; stderr: {err.strip()[:200]}"
        if op.check is not None:
            written = {"out": paths["out"].read_text(encoding="utf-8")} if paths["out"].exists() else {}
            try:
                return op.check(code, out, written)
            except Exception as exc:  # malformed output is a wrong output
                return f"check raised {type(exc).__name__}: {exc}"
        return None

    def one_pass(self, tracer=None):
        """Run every rung once, in the planned order; yield (latency, ok,
        scaled latency).  With a tracer, spans carry the rung's index in
        the ladder."""
        for index, variant in next(self.passes):
            rung = self.w.rungs[index]
            op = workloads.variant_inputs(self.w, index, variant)
            argv, paths = self._materialize(op, f"p{self.pass_no}-r{index}")
            if tracer:
                tracer.op_id = index
            code, out, err, latency = self.execute(argv)
            at_ref = scaled(latency, self.probe.cals)
            if tracer:
                tracer.op_id = -1
            problem = self.verify(rung.key, variant, op, code, out, err, paths)
            for p in paths.values():
                p.unlink(missing_ok=True)
            if problem is None:
                self.out_bytes += len(out.encode())
                self.k_bits = max(self.k_bits, _k_bits(argv, out))
            else:
                self.failures.append(f"{rung.key}#{variant}: {problem}")
            yield latency, problem is None, at_ref
        self.pass_no += 1

    def measure(self, seconds: float, min_ops: int = MIN_OPS, tracer=None, after_pass=None) -> "Sample":
        """Whole passes until busy time reaches `seconds` and `min_ops` ops
        ran, or the input pool is used up.  `after_pass` runs between
        passes, outside the timed ops."""
        sample = Sample()
        while (sum(sample.raw) < seconds or len(sample.raw) < min_ops) and self.pass_no < workloads.POOL:
            sample.passes.append(len(sample.raw))
            for latency, good, at_ref in self.one_pass(tracer):
                sample.raw.append(latency)
                sample.ok.append(good)
                sample.times.append(at_ref)
            if after_pass:
                after_pass()
        return sample


class Sample:
    """Raw and scaled op latencies and success flags, in run order."""

    def __init__(self) -> None:
        self.raw: list[float] = []
        self.times: list[float] = []  # at the reference speed
        self.ok: list[bool] = []
        self.passes: list[int] = []  # index of each pass's first op

    def metrics(self, times: list[float] | None = None) -> dict[str, float]:
        """End-to-end op metrics, at the reference speed unless other
        `times` are given.  A failed op counts as missing every latency
        limit."""
        times = self.times if times is None else times
        ranked = [t if good else math.inf for t, good in zip(times, self.ok)]
        return {
            "ops_per_s": sum(self.ok) / sum(times),
            "op_p50_s": percentile(ranked, 0.50),
            "op_p90_s": percentile(ranked, 0.90),
        }

    def pass_seconds(self) -> list[float]:
        """Scaled busy time of each pass."""
        bounds = self.passes + [len(self.times)]
        return [sum(self.times[a:b]) for a, b in zip(bounds, bounds[1:])]


def measure_setup(times: list[float], walls: list[float], repeats: int) -> str | None:
    """Append to `times` the start-up times, at the reference speed, of
    `repeats` fresh interpreters importing bratteli.cli and running
    `fixtures --list`, and to `walls` their raw latencies; say what went
    wrong if one failed.

    The child runs on this process's CPU, so the probe samples the speed
    the child gets; its samples preempt the child, and their time is taken
    out like an op's."""
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = "import sys\nfrom bratteli.cli import run\nsys.exit(run(['fixtures', '--list']))"
    problem = None
    probe = SpeedProbe(during=True)
    for _ in range(repeats):
        proc, latency = probe.time(
            lambda: subprocess.run(
                [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True, timeout=60
            )
        )
        times.append(scaled(latency, probe.cals))
        walls.append(latency)
        if proc.returncode != 0 or proc.stdout != FIXTURE_LIST:
            problem = f"setup op: exit {proc.returncode}, stdout {proc.stdout!r}"
    return problem


def run_probes(runner) -> tuple[int, list[str]]:
    """Known-defect probes: count those that fail; a wrong answer is a
    correctness failure."""
    fails, wrong = 0, []
    for name, op in workloads.defect_probes():
        argv, paths = runner._materialize(op, f"probe-{name}")
        code, out, err, _ = runner.execute(argv)
        problem = runner.verify(name, 0, op, code, out, err, paths)
        for p in paths.values():
            p.unlink(missing_ok=True)
        if problem is None:
            print(f"known defect fixed: {name} now succeeds", file=sys.stderr)
            continue
        fails += 1
        cause = err.strip().splitlines()[-1] if err.strip() else problem
        print(f"known defect: {name}: {cause}", file=sys.stderr)
        if code == 0:
            wrong.append(f"{name}: {problem}")
    return fails, wrong


def layer_metrics(summary: dict, overhead: float, runner, probe_fails: int):
    def get(span, field):
        return summary.get(span, {}).get(field, 0)

    per_module = {m: {"self_s": 0.0, "calls": 0, "errors": 0} for m in MODULES}
    for span, row in summary.items():
        mod = per_module[span.split(".", 1)[0]]
        for k in mod:
            mod[k] += row[k]
    total = sum(m["self_s"] for m in per_module.values()) or 1.0
    values = {}
    for m, row in per_module.items():
        values.update(
            {f"{m}.self_s": row["self_s"], f"{m}.calls": row["calls"], f"{m}.errors": row["errors"], f"{m}.share": row["self_s"] / total}
        )
    checks_all = get("rfd.check_rfd", "calls") + get("rfd.check_rfd_ji", "calls")
    checks_top = get("rfd.check_rfd", "top") + get("rfd.check_rfd_ji", "top")
    values.update(
        {
            "formats.parse_diagram.calls": get("formats.parse_diagram", "calls"),
            "formats.out_bytes": runner.out_bytes,
            "diagram.validate.calls": get("diagram.validate", "calls"),
            "diagram.validate.self_s": get("diagram.validate", "self_s"),
            "diagram.embed_triangular.self_s": get("diagram.embed_triangular", "self_s"),
            "rfd.check_rfd.calls": get("rfd.check_rfd", "calls"),
            "rfd.check_rfd_ji.calls": get("rfd.check_rfd_ji", "calls"),
            # 1 when no check ran: nothing was wasted
            "rfd.useful_ratio": checks_top / checks_all if checks_all else 1.0,
            "ideals.close.calls": get("ideals.close", "calls"),
            "ideals.close.self_s": get("ideals.close", "self_s"),
            "ideals.quotient.calls": get("ideals.quotient", "calls"),
            "ideals.quotient.self_s": get("ideals.quotient", "self_s"),
            "ideals.enumerate_ideals.self_s": get("ideals.enumerate_ideals", "self_s"),
            "ideals.just_infinite_evidence.self_s": get("ideals.just_infinite_evidence", "self_s"),
            "synthesis.approximate_on_simplex.calls": get("synthesis.approximate_on_simplex", "calls"),
            "synthesis.approximate_on_simplex.self_s": get("synthesis.approximate_on_simplex", "self_s"),
            "synthesis.k_bits_max": runner.k_bits,
            "traces.induced_trace_map.calls": get("traces.induced_trace_map", "calls"),
            "simplex.compose.calls": get("simplex.compose", "calls"),
            "simplex.apply.calls": get("simplex.apply", "calls"),
            "intertwine.map_distance.calls": get("intertwine.map_distance", "calls"),
            "known_defects.fails": probe_fails,
            "trace.overhead": overhead,
        }
    )
    return values


def print_shares(workload: str, values: dict, ops: int) -> None:
    meta = json.loads((BENCH / "meta.json").read_text())
    print(f"self time per module on {workload} (one traced pass, {ops} ops):")
    for m in sorted(MODULES, key=lambda m: -values[f"{m}.share"]):
        print(
            f"  {m:<11} {values[f'{m}.self_s']:9.4f} s  {100 * values[f'{m}.share']:5.1f}%  "
            f"calls {values[f'{m}.calls']:>8}  errors {values[f'{m}.errors']:>5}"
        )
    print(f"  trace.overhead {values['trace.overhead']:.3f} (untraced ops/s / traced ops/s)")
    for rule in meta["interactions"]:
        print(f"  prediction: {', '.join(rule['layer'])} -> {', '.join(rule['moves'])} on "
              f"{', '.join(rule['workloads'])}; flat on {', '.join(rule['flat_on']) or '-'}")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from bratteli import cli

    # One CPU for the ops, the calibrations and the start-up children, so
    # that a calibration samples the CPU the work runs on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    w = workloads.WORKLOADS[name]
    runner = Runner(w, seed, cli, probe_during=not trace)
    correct, notes = True, []
    try:
        if not trace:
            setup: list[float] = []
            setup_walls: list[float] = []
            problems = [measure_setup([], [], 1)]  # fills the bytecode cache

            def sample_setup():
                repeats = min(SETUP_PER_PASS, SETUP_SAMPLES - len(setup))
                problems.append(measure_setup(setup, setup_walls, repeats))

            sample = runner.measure(seconds, after_pass=sample_setup)
            problems.append(measure_setup(setup, setup_walls, SETUP_SAMPLES - len(setup)))
            notes = [p for p in problems if p]
            correct = not notes
            attempted, ok = len(sample.raw), sum(sample.ok)
            metrics = {
                "setup_s": statistics.median(setup),
                **sample.metrics(),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END
            raw = sample.metrics(sample.raw)
            print(f"{name}: seed {seed}, {attempted} ops in {len(sample.passes)} passes of "
                  f"{len(w.rungs)} rungs, {sum(sample.raw):.2f} s busy; scaled s per pass: "
                  f"{', '.join(f'{b:.2f}' for b in sample.pass_seconds())}")
            print(f"  {'fail_frac':<12} {(attempted - ok) / attempted:.4f} ratio (n={attempted})")
            for k, v in metrics.items():
                n = f"n={len(setup)}" if k == "setup_s" else f"n={attempted}"
                print(f"  {k:<12} {v:.6g} {units[k]} ({n})")
            print(f"  raw wall times: setup_s {statistics.median(setup_walls):.6g}, ops_per_s "
                  f"{raw['ops_per_s']:.6g}, op_p50_s {raw['op_p50_s']:.6g}, op_p90_s "
                  f"{raw['op_p90_s']:.6g}; raw / scaled busy time {sum(sample.raw) / sum(sample.times):.4f}")
        else:
            untraced = runner.measure(seconds / 2)
            tracer = Tracer()
            tracer.install()
            runner.out_bytes = runner.k_bits = 0
            try:
                traced = runner.measure(0, min_ops=1, tracer=tracer)
            finally:
                tracer.uninstall()
            attempted = len(untraced.raw) + len(traced.raw)
            ok = sum(untraced.ok) + sum(traced.ok)
            probe_fails = 0
            if name == "towers":
                probe_fails, wrong = run_probes(runner)
                if wrong:
                    correct, notes = False, wrong
            summary = tracer.summary()
            missing = [s for s in w.required_spans if summary.get(s, {}).get("calls", 0) == 0]
            if missing:
                correct = False
                notes.append(f"traced run incomplete: no spans for {', '.join(missing)}")
            tracer.write(WORK / "spans" / f"{name}-seed{seed}.tsv.gz")
            # one warm untraced pass against the traced pass: same rungs
            overhead = traced.pass_seconds()[0] / untraced.pass_seconds()[-1]
            metrics = layer_metrics(summary, overhead, runner, probe_fails)
            units = per_layer_units()
            print_shares(name, metrics, len(traced.raw))
        if runner.failures:
            correct = False
            for f in runner.failures[:20]:
                print(f"FAILED {f}", file=sys.stderr)
        for note in notes:
            print(note, file=sys.stderr)
        return {
            "correct": correct,
            "attempted": attempted,
            "failed": attempted - ok,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        }
    finally:
        runner.close()


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process, then one table."""
    rows, status = [], 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = 1
            continue
        rows.append((name, json.loads(proc.stdout.strip().splitlines()[-1])))
    for name, res in rows:
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        status |= not res["correct"]
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="structure | ideals | towers | all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bratteli" / "cli.py").is_file():
        print(f"bench: no package source at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
