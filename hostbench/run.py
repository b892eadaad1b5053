"""Host-time benchmark of the BLOB engine: one workload, one seed.

    python3 hostbench/run.py --workload blobs_over_pool --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the engine is imported from ``src/``
(nothing is installed or built).  One single-threaded, closed-loop
client drives the engine.  Every result is checked against what the
benchmark wrote, and the last line printed is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``, each metric with
its unit.

``--trace 0`` repeats set-up plus the measured phase (a "round") until
the calls into the engine have taken ``--seconds`` of host time, and at
least three times, and reports the end-to-end metrics.  Each round draws
its own input stream from the seed, so latency percentiles pool
independent samples.  ``--trace 1`` runs the first stream untraced and
then traced, reports the per-layer metrics, and writes the spans to
``hostbench/out/``.

``correct`` is false when an operation returned bytes other than those
last written, or, with ``--trace 1``, when a count or virtual-time value
differs between the two runs of one stream.  An operation that raises is
counted in ``failed``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
MIN_ROUNDS = 3
#: No new round starts after this many wall seconds, so a run ends in
#: well under three minutes on a slower host.
WALL_BUDGET_S = 100.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"hostbench: no engine sources under {ROOT / 'src'}; run it "
              "from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from measure import (ReferenceKernel, end_to_end, mismatches, per_layer,
                         report_failures, run_round, write_spans)
    from metrics import result_line
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    kernel = ReferenceKernel()
    started = perf_counter()
    if args.trace:
        plain = run_round(workload, args.seed, kernel=kernel)
        traced = run_round(workload, args.seed, kernel=kernel, trace=True)
        rounds = [plain, traced]
        values = per_layer(plain, traced)
        write_spans(traced.tracer, args.workload)
        problems = mismatches(plain, traced)
    else:
        rounds = []
        while len(rounds) < MIN_ROUNDS \
                or sum(r.raw_host_s for r in rounds) < args.seconds:
            wall = perf_counter() - started
            if rounds and wall * (len(rounds) + 1) / len(rounds) \
                    > WALL_BUDGET_S:
                break
            rounds.append(run_round(workload, args.seed, len(rounds),
                                    kernel=kernel))
        values = end_to_end(rounds)
        problems = []
    for line in problems:
        print(f"not repeatable: {line}", file=sys.stderr)
    report_failures(rounds)
    wrong = sum(r.counts["wrong"] for r in rounds)
    print(result_line(correct=not problems and not wrong,
                      attempted=sum(r.counts["ops"] for r in rounds),
                      failed=sum(r.counts["failed"] for r in rounds),
                      values=values))
    return 0


if __name__ == "__main__":
    sys.exit(main())
