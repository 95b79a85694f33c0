"""Record the golden digests of frozen outputs.

    python3 bench/record_golden.py --workload structure

Runs every pool variant of every rung once, in this process, and writes
bench/golden/<workload>.json: for each rung key, one digest of
(exit code, stdout) per variant.  Ops with an independent check must pass
it here too.  Run this only at a commit whose outputs are the reference;
the committed files were recorded at the commit that added the benchmark.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
import workloads


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args()
    sys.path.insert(0, str(run.SRC))
    from bratteli import cli

    w = workloads.WORKLOADS[args.workload]
    runner = run.Runner(w, 0, cli)
    digests, problems = {}, []
    try:
        for index, rung in enumerate(w.rungs):
            row = []
            for variant in range(workloads.POOL):
                op = workloads.variant_inputs(w, index, variant)
                argv, paths = runner._materialize(op, f"r{index}")
                code, out, err, _ = runner.execute(argv)
                check_op = workloads.Op(op.argv, op.files, op.check, frozen=False)
                problem = runner.verify(rung.key, variant, check_op, code, out, err, paths)
                if problem:
                    problems.append(f"{rung.key}#{variant}: {problem}")
                row.append(workloads.digest(code, out) if code is not None else None)
            if workloads.variant_inputs(w, index, 0).frozen:
                digests[rung.key] = row
            print(f"{rung.key}: {len(row)} variants", file=sys.stderr)
    finally:
        runner.close()
    if problems:
        print("\n".join(problems[:20]), file=sys.stderr)
        return 1
    path = run.BENCH / "golden" / f"{w.name}.json"
    path.write_text(json.dumps({"pool": workloads.POOL, "digests": digests}, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
