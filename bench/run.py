"""The lluad benchmark: one command, three workloads.

    python3 bench/run.py --workload stub-zipf --seed 1 --seconds 20 --trace 0

Builds the workload's inputs from `--seed`, sets the program up
(timed, several times), measures for `--seconds` seconds in whole
rounds, checks every output against oracles made apart from the
program, and prints each metric by name with its unit.  The last line
of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
the run wraps each layer's public functions, and the metrics are the
per-layer ones (the spans go to `bench/out/`).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from common import OUT, ProgramMissing, load_program

WORKLOADS = ("stub-zipf", "list-sync", "vote-round")
E2E = ("setup_s", "peak_rss_mb", "ops_per_s", "fast_p50_ms", "fast_tail_ms", "slow_p50_ms")


def _module(workload: str):
    if workload == "stub-zipf":
        import stub_zipf as module
    elif workload == "list-sync":
        import list_sync as module
    else:
        import vote_round as module
    return module


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        load_program()
    except ProgramMissing as exc:
        print(f"cannot benchmark: {exc}", file=sys.stderr)
        return 2

    from layers import PER_LAYER
    from tracing import Tracer

    tracer = Tracer() if args.trace else None
    started = time.perf_counter()
    try:
        result = _module(args.workload).run(args.seed, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.unwrap_all()

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}: {time.perf_counter() - started:.1f} s in all")
    for name, (value, unit) in result.named.items():
        print(f"  {name:<16} {value:>14.6g} {unit}")
    for note in result.notes:
        print(f"  note: {note}")
    print(f"  attempted {result.attempted}, failed {result.failed}, "
          f"correct {str(result.correct).lower()}")

    if args.trace:
        names = PER_LAYER
        source = result.layers
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.tsv")
    else:
        names = [(name, None) for name in E2E]
        source = result.e2e
    metrics = {}
    for name, _ in names:
        value, unit = source[name]
        metrics[name] = {"value": value, "unit": unit}
        if args.trace:
            print(f"  {name:<40} {value:>14.6g} {unit}")

    summary = {
        "correct": bool(result.correct),
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"named": {k: v[0] for k, v in result.named.items()}, **summary}, fh, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    # skip tearing down the interpreter's heap: daemon threads have
    # nothing left to do and freeing every object takes seconds
    os._exit(code)
