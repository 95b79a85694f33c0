"""Tests of the benchmark itself.

    python3 -m unittest discover -s bench/tests

Run from the root of a checkout.  Most tests build inputs only; the
validator tests run a few small ops through the package.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import re
import signal
import sys
import time
import unittest
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def pass_inputs(workload, seed: int, passes: int) -> list[tuple[str, ...]]:
    """Argv and file contents of the first passes of a run."""
    out = []
    for plan in itertools.islice(workloads.plan(workload, seed), passes):
        for index, variant in plan:
            op = workloads.variant_inputs(workload, index, variant)
            out.append(tuple(op.argv) + tuple(sorted(op.files.items())))
    return out


def run_op(op) -> tuple[int, str]:
    from bratteli import cli

    runner = run.Runner(workloads.STRUCTURE, 0, cli)
    argv, _ = runner._materialize(op, "t")
    code, out, _, _ = runner.execute(argv)
    runner.close()
    return code, out


class InputTests(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for w in workloads.WORKLOADS.values():
            first = pass_inputs(w, 7, 2)
            self.assertEqual(first, pass_inputs(w, 7, 2), w.name)
            self.assertNotEqual(first, pass_inputs(w, 8, 2), w.name)

    def test_no_input_repeats_within_a_run(self):
        for w in workloads.WORKLOADS.values():
            ops = pass_inputs(w, 3, 8)
            self.assertEqual(len(ops), len(set(ops)), w.name)

    def test_every_pool_variant_of_a_rung_is_a_distinct_input(self):
        for w in workloads.WORKLOADS.values():
            for index, rung in enumerate(w.rungs):
                ops = [workloads.variant_inputs(w, index, v) for v in range(workloads.POOL)]
                keys = {tuple(op.argv) + tuple(sorted(op.files.items())) for op in ops}
                self.assertEqual(len(keys), workloads.POOL, rung.key)

    def test_quantile_ranks_fall_inside_a_rung(self):
        # with N = 10k + 5 ops per pass the 50th and 90th percentile ranks
        # sit in the middle of one rung's copies, not on a boundary
        for w in workloads.WORKLOADS.values():
            self.assertEqual(len(w.rungs) % 10, 5, w.name)

    def test_rebuilt_families_match_the_fixtures(self):
        from bratteli.fixtures import fixtures

        for name, build in inputs.FAMILIES.items():
            self.assertEqual(build(13, 1).text, fixtures(name), name)
        self.assertEqual(inputs.ones(16, 1).text, fixtures("ex43"))


class ValidatorTests(unittest.TestCase):
    def test_rfd_checker_rejects_a_tampered_witness(self):
        d = inputs.ones(6, 3)
        code, out = run_op(workloads.Op(["check-rfd", "@in", "--json"], {"in": d.text}))
        obj = json.loads(out)
        self.assertEqual(code, 0)
        self.assertIsNone(checks.rfd_witness_error(d, obj["r"], obj["kseq"]))
        r = list(obj["r"])
        r[2] += 1
        self.assertIsNotNone(checks.rfd_witness_error(d, r, obj["kseq"]))
        self.assertIsNotNone(checks.rfd_witness_error(d, obj["r"], obj["kseq"][:-1] + [7]))
        self.assertIsNotNone(checks.rfd_witness_error(inputs.zeros(6, 1, random.Random(1)), obj["r"], ji=True))

    def test_profile_checks_reject_a_tampered_profile(self):
        d = inputs.ones(5, 2)
        code, out = run_op(workloads.Op(["ideals", "close", "@in", "--seeds", "2:1", "--json"], {"in": d.text}))
        profile = json.loads(out)["profile"]
        self.assertIsNone(checks.profile_error(d, profile))
        profile[4] = profile[4][:-1]
        self.assertIsNotNone(checks.profile_error(d, profile))
        small = inputs.ones(2, 1)
        check = workloads._enumerate_check(small)
        code, out = run_op(workloads.Op(["ideals", "enumerate", "@in", "--json"], {"in": small.text}))
        self.assertIsNone(check(code, out, {}))
        obj = json.loads(out)
        obj["profiles"] = obj["profiles"][1:]
        self.assertIsNotNone(check(code, json.dumps(obj), {}))

    def test_synthesis_checker_rejects_a_tampered_certificate(self):
        points = inputs.permuted_geometric_points(Fraction(1, 2), 5, random.Random(2))
        op = workloads.Op(
            ["synthesize", "--targets", "@t", "--levels", "5", "--json"], {"t": inputs.targets_text(points)}
        )
        code, out = run_op(op)
        obj = json.loads(out)
        self.assertIsNone(checks.synthesis_error(obj["diagram"], obj["certificate"], points))
        for field, level, value in (("k_next", 3, 17), ("zeta", 2, ["1/3", "1/3", "1/3"]), ("gap_l1", 4, "1/1000")):
            bad = json.loads(out)
            bad["certificate"]["levels"][level][field] = value
            self.assertIsNotNone(checks.synthesis_error(bad["diagram"], bad["certificate"], points), field)
        bad = json.loads(out)
        bad["diagram"]["mvectors"][3][0] += 1
        self.assertIsNotNone(checks.synthesis_error(bad["diagram"], bad["certificate"], points))
        self.assertIsNotNone(checks.synthesis_error(obj["diagram"], obj["certificate"], points, exact=True))

    def test_big_integers_parse_past_the_digit_limit(self):
        text = "1" + "0" * 9000
        self.assertEqual(checks.big_int(text), 10**9000)
        self.assertEqual(checks.loads('{"k": %s}' % text)["k"], 10**9000)
        self.assertEqual(checks.big_fraction(f"3/{text}"), Fraction(3, 10**9000))


class MetricTests(unittest.TestCase):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    meta = json.loads((BENCH / "meta.json").read_text())

    def test_metric_names_and_units(self):
        declared = {m["name"]: m["unit"] for m in self.spec["end_to_end"] + self.spec["per_layer"]}
        for name, unit in declared.items():
            self.assertRegex(name, NAME)
            self.assertTrue(unit)
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["per_layer"]}, run.per_layer_units())
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(workloads.WORKLOADS))

    def test_interaction_map_names_only_declared_metrics_and_workloads(self):
        e2e = {m["name"] for m in self.spec["end_to_end"]}
        layer = {m["name"] for m in self.spec["per_layer"]}
        names = {w["name"] for w in self.spec["workloads"]}
        self.assertIsNone(self.meta["claim"])
        for rule in self.meta["interactions"]:
            self.assertLessEqual(set(rule["layer"]), layer, rule)
            self.assertLessEqual(set(rule["moves"]), e2e, rule)
            self.assertLessEqual(set(rule["workloads"]) | set(rule["flat_on"]), names, rule)

    def test_recorded_ladders_and_goldens_match_the_workloads(self):
        for w in workloads.WORKLOADS.values():
            self.assertEqual(self.meta["ladders"][w.name], [r.key for r in w.rungs])
            golden = json.loads((BENCH / "golden" / f"{w.name}.json").read_text())
            self.assertEqual(golden["pool"], workloads.POOL)
            frozen = {r.key for i, r in enumerate(w.rungs) if workloads.variant_inputs(w, i, 0).frozen}
            self.assertEqual(set(golden["digests"]), frozen)
            self.assertTrue(all(len(v) == workloads.POOL for v in golden["digests"].values()))


class ScalingTests(unittest.TestCase):
    def test_times_scale_with_the_mean_speed_over_the_op(self):
        ref = run.CAL_REF_S
        self.assertEqual(run.scaled(0.2, [ref, ref]), 0.2)
        # a machine running at half speed doubles both op and calibration
        self.assertEqual(run.scaled(0.2, [2 * ref] * 5), 0.1)
        # half the op at full speed, half at half speed: 3/4 of the time
        self.assertAlmostEqual(run.scaled(0.2, [ref, ref, 2 * ref, 2 * ref]), 0.15)

    def test_probe_samples_during_the_op_and_leaves_its_own_time_out(self):
        probe = run.SpeedProbe(during=True)
        _, latency = probe.time(lambda: time.sleep(0.2))
        # before, after, and about one sample per PROBE_EVERY_S in between
        self.assertGreaterEqual(len(probe.cals), 2 + 4)
        self.assertAlmostEqual(latency, 0.2, delta=0.05)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        quiet = run.SpeedProbe(during=False)
        quiet.time(lambda: time.sleep(0.1))
        self.assertEqual(len(quiet.cals), 2)

    def test_nearest_rank_percentiles(self):
        values = list(range(1, 101))
        self.assertEqual(run.percentile(values, 0.5), 50)
        self.assertEqual(run.percentile(values, 0.9), 90)
        # failed ops count as +inf, so enough failures reach the percentile
        self.assertEqual(run.percentile(values[:8] + [math.inf] * 2, 0.9), math.inf)


class TracingTests(unittest.TestCase):
    def test_every_binding_is_wrapped_and_restored(self):
        from bratteli import cli, ideals, rfd
        from bratteli.diagram import BratteliPrefix

        before = (cli.check_rfd, ideals.validate_witness, BratteliPrefix.validate)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIsNot(cli.check_rfd, before[0])
            self.assertIs(cli.check_rfd, rfd.check_rfd)
            self.assertIsNot(ideals.validate_witness, before[1])
            self.assertIsNot(BratteliPrefix.validate, before[2])
            code, _ = run_op(
                workloads.Op(["check-rfd", "@in", "--ji"], {"in": inputs.zeros(5, 1, random.Random(4)).text})
            )
        finally:
            tracer.uninstall()
        self.assertEqual(code, 2)
        self.assertEqual((cli.check_rfd, ideals.validate_witness, BratteliPrefix.validate), before)
        summary = tracer.summary()
        self.assertEqual(summary["rfd.check_rfd_ji"]["calls"], 1)
        # the reason picker re-runs check_rfd inside check_rfd_ji
        self.assertEqual(summary["rfd.check_rfd"]["calls"], 1)
        self.assertEqual(summary["rfd.check_rfd"]["top"], 0)
        self.assertGreater(summary["diagram.validate"]["calls"], 0)
        total = sum(row["self_s"] for row in summary.values())
        self.assertAlmostEqual(total, summary["cli.run"]["total_s"], places=6)


if __name__ == "__main__":
    unittest.main()
