"""Run one benchmark workload and print its result as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload smallbank --seed 1 --seconds 10 \
        --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload with spans around each layer's entry points and prints the
per-layer metrics.  The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The exit code is non-zero, with no result line, when the program under
test is missing, a client hits an exception that is not a
concurrency-control abort, or an output check fails.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("smallbank", "reporting", "smallbank-durable",
             "smallbank-sharded")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program() -> None:
    """Put the checkout's ``src`` first on the path; refuse to run
    without it rather than measure some other copy of the engine."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"error: no program to measure: {SRC}/repro "
                         "is missing")
    sys.path[:0] = [SRC, HERE]
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported repro from {repro.__file__}, "
                         f"not from {SRC}")


def check_declared(metrics: dict, trace: bool) -> None:
    """The printed metric names must be the ones BENCHMARK.json lists."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as handle:
        spec = json.load(handle)
    declared = [m["name"] for m in spec["per_layer" if trace
                                        else "end_to_end"]]
    if sorted(declared) != sorted(metrics):
        raise SystemExit(f"error: metrics {sorted(metrics)} do not match "
                         f"BENCHMARK.json {sorted(declared)}")


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    load_program()
    from ssibench import durable, harness, reporting, sharded, smallbank

    runner = {
        "smallbank": smallbank.run,
        "reporting": reporting.run,
        "smallbank-durable": durable.run,
        "smallbank-sharded": sharded.run,
    }[args.workload]
    try:
        result = runner(args.seed, args.seconds, bool(args.trace))
    except (harness.CheckFailed, harness.Fault) as error:
        print(f"error: {type(error).__name__}: {error}", file=sys.stderr)
        return 1
    except Exception:  # a fault in the program under test
        traceback.print_exc()
        return 1
    check_declared(result["metrics"], bool(args.trace))
    print(result["detail"], file=sys.stderr)
    print(json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
