#!/usr/bin/env python3
"""Differential sweep across automaton sizes.

For each size, generates seeded random trim automata and replays the
whole oracle battery (fast vs naive check, witness replay, order-type
invariants, rank spot checks), printing one summary row per size.
Exits nonzero if any size produced a failure.

    python3 scripts/fuzz_sweep.py --seeds 2000 --max-states 8
"""

import argparse
import sys
import time

from ordfa.oracle import fuzz


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=1000, help="automata per size")
    ap.add_argument("--max-states", type=int, default=8)
    args = ap.parse_args()
    if args.seeds < 0:
        ap.error(f"--seeds must be at least 0, got {args.seeds}")
    if args.max_states < 2:
        ap.error(f"--max-states must be at least 2, got {args.max_states}")

    print("states\ttotal\twell_ordered\tfailures\tseconds")
    bad = 0
    for states in range(2, args.max_states + 1):
        t0 = time.perf_counter()
        report = fuzz(args.seeds, states)
        elapsed = time.perf_counter() - t0
        bad += report.failures
        print(
            f"{states}\t{report.total}\t{report.well_ordered}\t"
            f"{report.failures}\t{elapsed:.2f}"
        )
        if report.failures:
            print(f"  first failing seed: {report.first_failure_key}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
