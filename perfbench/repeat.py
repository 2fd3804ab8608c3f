#!/usr/bin/env python3
"""Repeat one workload over several seeds; print each metric's median,
quartiles and spread.

Usage (from the repository root)::

    python3 perfbench/repeat.py --workload bulk-dna --runs 10 --seconds 20

Runs ``perfbench/run.py`` once per seed (``--first-seed``, +1, ...),
one after another, and reports for every metric the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the
spread ``(q3 - q1) / median`` -- the figure a metric's bound in
``BENCHMARK.json`` is compared against.  ``--json`` writes every run's
raw result too.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", help="write every run's result here")
    args = ap.parse_args(argv)

    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              cwd=os.path.dirname(HERE))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        res["seed"] = seed
        results.append(res)
        print(f"seed {seed}: correct={res['correct']} "
              f"attempted={res['attempted']} failed={res['failed']}",
              flush=True)

    names = sorted({k for r in results for k in r["metrics"]})
    print(f"{'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>7s}  unit")
    for name in names:
        vals = [r["metrics"][name]["value"] for r in results
                if name in r["metrics"]]
        unit = next(r["metrics"][name]["unit"] for r in results
                    if name in r["metrics"])
        med = statistics.median(vals)
        q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                     else (vals[0], None, vals[0]))
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:32s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:7.3f}  {unit}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(results, fh, indent=1)
    ok = all(r["correct"] for r in results)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
