#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload bulk-dna --seed 1 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the
same workload with timing wrappers around each layer's public
functions and prints the per-layer metrics instead.  The last line of
standard output is always ``{"correct", "attempted", "failed",
"metrics"}``.  See ``perfbench/README.md``.
"""

import time

T_START = time.perf_counter()   # setup_s counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch (JIT cache, temp files, index) and trace output, both inside
#: the checkout.
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")
OUT = os.path.join(ROOT, ".perfbench_out")
#: Set-ups per run: this process plus SETUP_PROBES fresh processes.
SETUP_PROBES = 2


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("bulk-dna", "screen-protein", "serve-mixed",
                             "search-index"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up and exit (used internally to "
                         "repeat the set-up in fresh processes)")
    return ap.parse_args(argv)


def private_dirs(args) -> str:
    """A fresh per-process scratch dir holding the JIT cache and temp
    files, so every process compiles its cells cold."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"perfbench: no repro package under {SRC}; run from a "
                 "checkout of the repository")
    path = os.path.join(SCRATCH, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    for sub in ("jit", "tmp", "work"):
        os.makedirs(os.path.join(path, sub), mode=0o700)
    os.environ["REPRO_JIT_CACHE"] = os.path.join(path, "jit")
    os.environ["TMPDIR"] = os.path.join(path, "tmp")
    return path


def setup_probe(args) -> float:
    """Set-up time of the same workload in a fresh process."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def main(argv=None) -> int:
    args = parse_args(argv)
    scratch = private_dirs(args)
    sys.path[:0] = [SRC, ROOT]
    try:
        return run(args, scratch)
    finally:
        stop_resource_tracker()
        shutil.rmtree(scratch, ignore_errors=True)


def stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's resource-tracker helper (the
    shard pool's shared-memory transport starts it), so no process this
    run started outlives it."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def run(args, scratch: str) -> int:
    import repro  # noqa: F401  (import cost is part of set-up)
    from perfbench import calib, layers, workloads
    from perfbench.tracing import Tracer

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(layers.targets())
        tracer.enabled = True       # record JIT spans during set-up
    wl = workloads.make(args.workload, args.seed,
                        os.path.join(scratch, "work"))
    wl.setup()
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        close(wl)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    calib_rate = 0.0
    if tracer is not None:
        tracer.enabled = False
        calib_rate = calib.peak_word_ops_per_s()
    try:
        wl.measure(args.seconds, tracer)
    finally:
        close(wl)
    attempted, failed = wl.check()
    if tracer is not None:
        metrics = wl.layer_metrics(tracer, calib_rate)
        jit = [s for s in tracer.spans if s.layer == "jit"]
        selfs = tracer.self_times(jit)
        metrics["jit.compile_ms"] = (sum(selfs.values()) * 1e3, "ms")
        metrics["jit.compiles"] = (
            sum(1 for s in jit if s.name == "cc.compile_step"), "count")
        metrics["calib.peak_gops_per_s"] = (calib_rate / 1e9, "Gop/s")
        tracer.uninstall()
        tracer.dump(os.path.join(
            OUT, f"trace-{args.workload}-seed{args.seed}.jsonl"))
        metrics = declared(metrics, "per_layer")
    else:
        setups = [setup_s] + [setup_probe(args)
                              for _ in range(SETUP_PROBES)]
        metrics = wl.metrics()
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics["success_rate"] = ((attempted - failed) / attempted,
                                   "ratio")
        metrics = declared(metrics, "end_to_end")
        # The figures before normalising stay visible, on stderr.
        raw = wl.raw_metrics()
        print("perfbench: before normalising: "
              + ", ".join(f"{k} {v:.6g}" for k, (v, _) in raw.items()),
              file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(metrics.items())},
    }))
    return 0


def declared(metrics: dict, kind: str) -> dict:
    """The metrics ``BENCHMARK.json`` lists under ``kind``, in its
    units.  A per-layer metric of a layer the workload does not reach
    is 0; every end-to-end metric must have been measured."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)[kind]}
    missing = sorted(set(units) - set(metrics))
    if kind == "end_to_end" and missing:
        raise RuntimeError(f"end-to-end metrics not measured: {missing}")
    out = {}
    for name, unit in units.items():
        value, got = metrics.get(name, (0.0, unit))
        if got != unit:
            raise RuntimeError(f"{name}: unit {got}, declared {unit}")
        out[name] = (value, unit)
    return out


def close(wl) -> None:
    if hasattr(wl, "close"):
        wl.close()


if __name__ == "__main__":
    sys.exit(main())
