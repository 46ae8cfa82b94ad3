"""The repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: reproduce_fast, predict_small, campaign_montecarlo (see
perfbench/README.md).  With ``--trace 0`` it
prints every end-to-end metric, with ``--trace 1`` every per-layer
metric, as a table and then, as the last line of standard output, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Output
problems are listed on standard error.  It exits non-zero, printing no
result, when the program's source is not beside it.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from common import BenchmarkError, import_repro


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A launcher may start us with SIGINT ignored, which the server
    # processes would inherit; they stop cleanly only on SIGINT.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        import_repro()
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    outcome = WORKLOADS[args.workload](args.seconds, args.seed,
                                       bool(args.trace))
    for name, (value, unit, note) in outcome.metrics.items():
        print(f"{name:42s} {value:14.6g} {unit:8s} {note}")
    for line in outcome.report:
        print(line)
    for problem in outcome.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in outcome.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
