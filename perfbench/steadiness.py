"""Steadiness check: do two sets of runs of the same code agree?

Runs every workload ``--runs`` times in each of two sets (each run with
its own seed), one whole set after the other, and prints for each
workload × end-to-end metric pair each set's median and quartiles, its
spread (interquartile distance over the median) and whether the two
sets agree within the bounds in ``BENCHMARK.json``:

* each set's spread is within the metric's bound, except for
  ``setup_s``: one build runs at one of two speeds that the shared host
  switches between every few seconds, so whole runs land on one mode
  or the other;
* the two sets' medians differ, in either direction, by at most the
  bound, as a share of the first set's median;
* the share of failed transactions is identical in both sets.

It also prints the spread over all runs of both sets together.  Exits
non-zero when any pair disagrees.  Usage, from the checkout root::

    python3 perfbench/steadiness.py --runs 5
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed "
                         f"({proc.returncode}):\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - started
    # run.py's summary line: sample counts and tail latencies
    result["detail"] = proc.stderr.strip().splitlines()[-1]
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, _q2, q3 = quartiles(values)
    return (q3 - q1) / statistics.median(values)


def main(argv: list[str]) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5,
                        help="runs per workload in each set")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--json", help="also write every result here")
    args = parser.parse_args(argv)

    results: dict[str, list[list[dict]]] = {w: [] for w in args.workloads}
    seed = args.first_seed
    for set_index in range(2):
        for workload in args.workloads:
            batch = []
            for _ in range(args.runs):
                batch.append(run_once(workload, seed, args.seconds))
                print(f"set {set_index} {workload} seed {seed}: "
                      f"{batch[-1]['wall_s']:.1f}s", file=sys.stderr)
                seed += 1
            results[workload].append(batch)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(results, handle, indent=1)

    ok = True
    print(f"{'workload':18} {'metric':14} {'set':>3} {'median':>10} "
          f"{'q1':>10} {'q3':>10} {'spread':>7} {'bound':>6} verdict")
    for workload, sets in results.items():
        shares = {
            (sum(r["failed"] for r in batch),
             sum(r["attempted"] for r in batch))
            for batch in sets
        }
        share_ok = len({f / a for f, a in shares}) == 1
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for set_index, batch in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in batch]
                q1, q2, q3 = quartiles(values)
                width = spread(values)
                medians.append(q2)
                good = name == "setup_s" or width <= bound
                ok &= good
                print(f"{workload:18} {name:14} {set_index:>3} {q2:>10.4g} "
                      f"{q1:>10.4g} {q3:>10.4g} {width:>7.3f} {bound:>6} "
                      f"{'ok' if good else 'SPREAD'}")
            pooled = [r["metrics"][name]["value"]
                      for batch in sets for r in batch]
            drift = (medians[1] - medians[0]) / medians[0]
            good = abs(drift) <= bound
            ok &= good
            print(f"{workload:18} {name:14} {'all':>3} "
                  f"{statistics.median(pooled):>10.4g} {'':>10} {'':>10} "
                  f"{spread(pooled):>7.3f} {bound:>6} "
                  f"second set moved by {drift:+.3f}: "
                  f"{'ok' if good else 'DRIFT'}")
        ok &= share_ok
        print(f"{workload:18} failed share identical across sets: "
              f"{'ok' if share_ok else 'NO'} {sorted(shares)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
