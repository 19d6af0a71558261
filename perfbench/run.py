"""The repo benchmark: run one workload and print its result as JSON.

Usage (from the repository root)::

    python3 perfbench/run.py --workload rank_scale --seed 1 --seconds 10 --trace 0

Workloads: ``rank_scale`` and ``ingest_live`` (see
``perfbench/README.md``).  With ``--trace 0`` the
last line of standard output holds every end-to-end metric; with
``--trace 1`` it holds every per-layer metric from a traced run.  The
exit code is 0 when every correctness gate passed, 1 when one failed or
the run could not complete, and 2 when the program's source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("rank_scale", "ingest_live")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one workload of the repo benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one quick round on tiny corpora (the benchmark's own tests)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: the program's source is missing ({SRC}/repro)", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads
    from harness import BenchError

    scratch = os.path.join(ROOT, ".perfbench")
    workdir = os.path.join(scratch, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    run = workloads.Run(workdir, os.path.join(scratch, "inputs", f"seed-{args.seed}"),
                        args.seed, args.seconds, bool(args.trace),
                        workloads.SMOKE if args.smoke else workloads.FULL)
    try:
        workloads.WORKLOADS[args.workload](run)
        if run.traced:
            workloads.zero_missing(run)
            spans = run.path("spans.json")
            if os.path.exists(spans):
                shutil.copy(spans, os.path.join(scratch, f"spans-{args.workload}.json"))
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wanted = workloads.PER_LAYER if run.traced else workloads.END_TO_END
    missing = sorted(set(wanted) - set(run.result.metrics))
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    for problem in run.result.problems:
        print(f"gate: {problem}", file=sys.stderr)
    correct = run.result.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, run.result.attempted),
        "failed": run.result.failed,
        "metrics": {
            name: {"value": run.result.metrics[name][0], "unit": unit}
            for name, unit in wanted.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
