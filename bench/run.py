"""Benchmark entry point: one workload, one seed, one JSON line of results.

    python3 bench/run.py --workload tabulate|link|verify --seed N --seconds S --trace 0|1

Run from the root of a checkout; ngfiber is imported from ./src.  The run

1. writes the seeded operation list to .bench_out/<run>/ops.json;
2. times set-up (import ngfiber.cli plus one warm-up call of each operation
   kind) in SETUP_PROBES fresh interpreters;
3. starts the measured worker, which sets up once more, runs whole passes
   over the list for S seconds and reports per-operation latencies and its
   peak resident set;
4. checks the outputs (bench/check.py) in this process, apart from the
   measured one;
5. prints {"correct", "attempted", "failed", "metrics"} as its last line:
   the end-to-end metrics with --trace 0, the per-layer metrics of a traced
   run with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

from check import Checker
from workloads import WORKLOADS, make_ops

HERE = os.path.dirname(os.path.abspath(__file__))

SETUP_PROBES = 4
# op_ms_tail: the per-operation median with ten operations above it.  Taken over
# all samples instead, the 11th largest falls on the heaviest operation or the
# next one depending on how many passes fit in the run (10 or 11 on tabulate),
# and moves threefold with it.
TAIL_BEYOND = 10

PER_LAYER = {
    "states.build_state.ms": "ms/pass",
    "states.build_state.terms": "count/pass",
    "states.self_ms": "ms/pass",
    "bath.gibbs_weights.ms": "ms/pass",
    "bath.gibbs_weights.levels": "count/pass",
    "bath.dissipation_rate_quadrature.ms": "ms/pass",
    "bath.dissipation_rate_quadrature.calls": "count/pass",
    "bath.dissipation_rate_closed.calls": "count/pass",
    "bath.self_ms": "ms/pass",
    "channel.self_ms": "ms/pass",
    "channel.calls": "count/pass",
    "channel.thermal_cells": "count/pass",
    "negativity.self_ms": "ms/pass",
    "negativity.calls": "count/pass",
    "negativity.eig_dim3": "count/pass",
    "fock.partial_transpose.ms": "ms/pass",
    "fock.expm_hermitian.ms": "ms/pass",
    "fock.expm_hermitian.calls": "count/pass",
    "fock.expm_hermitian.dim3": "count/pass",
    "fock.self_ms": "ms/pass",
    "bangbang.build_hamiltonian.ms": "ms/pass",
    "bangbang.build_hamiltonian.calls": "count/pass",
    "bangbang.propagate.self_ms": "ms/pass",
    "bangbang.joint_phase_shifter.ms": "ms/pass",
    "bangbang.segments": "count/pass",
    "bangbang.self_ms": "ms/pass",
    "design.ms": "ms/pass",
    "config.self_ms": "ms/pass",
    "validate.self_ms": "ms/pass",
    "cli.self_ms": "ms/pass",
    "cli.bytes_written": "B/pass",
    "remainder_ms": "ms/pass",
    "op_ms_total": "ms/pass",
    "traced.ops_per_s": "1/s",
}


# One BLAS thread and one malloc arena: a second BLAS thread waits on whatever
# else shares the other CPU, and a sweep's worker thread would otherwise get an
# arena of its own, which moves the peak resident set from run to run.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "MALLOC_ARENA_MAX": "1"}


def _worker(args, rundir, extra, timeout):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--rundir", rundir] + extra
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=timeout, check=False,
                          env={**os.environ, **WORKER_ENV})
    if proc.returncode != 0:
        raise SystemExit(f"worker {' '.join(extra)} exited with {proc.returncode}")
    return proc.stdout.decode()


def end_to_end(result, setups):
    """Latencies and throughput count completed operations only."""
    per_op = [1e3 * statistics.median(lat) for i, lat in enumerate(result["latencies"])
              if str(i) not in result["errors"]]
    ranked = sorted(per_op)
    completed = len(result["latencies"]) - result["failed"] / result["passes"]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (completed / statistics.median(result["pass_walls"]), "1/s"),
        "op_ms_p50": (statistics.median(per_op), "ms"),
        "op_ms_tail": (ranked[len(ranked) - 1 - TAIL_BEYOND], "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def per_layer(result):
    layers = dict(result["layers"])
    layers["design.ms"] = layers.pop("design.self_ms", 0.0)
    return {name: (float(layers.get(name, 0.0)), unit) for name, unit in PER_LAYER.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join("src", "ngfiber", "__init__.py")):
        sys.stderr.write("bench/run.py: no src/ngfiber here; run it from the repository root\n")
        return 2

    ops = make_ops(args.workload, args.seed)
    rundir = os.path.join(".bench_out", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(rundir)
    try:
        with open(os.path.join(rundir, "ops.json"), "w", encoding="utf-8") as fh:
            json.dump(ops, fh)
        setups = [json.loads(_worker(args, rundir, ["--setup-only"], 60))["setup_s"]
                  for _ in range(SETUP_PROBES)]
        _worker(args, rundir, ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                args.seconds + 120)
        with open(os.path.join(rundir, "result.json"), encoding="utf-8") as fh:
            result = json.load(fh)
        setups.append(result["setup_s"])

        walls = " ".join(f"{w:.3f}" for w in result["pass_walls"])
        sys.stderr.write(f"{args.workload} seed {args.seed}: {len(walls.split())} passes of "
                         f"{len(ops)} operations, seconds per pass: {walls}\n")
        for i, msg in sorted(result["errors"].items(), key=lambda kv: int(kv[0])):
            sys.stderr.write(f"failed op {i}: {msg}\n")
        failures = Checker(ops, result, rundir).run()
        for msg in failures:
            sys.stderr.write(f"check failed: {msg}\n")
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    metrics = per_layer(result) if args.trace else end_to_end(result, setups)
    print(json.dumps({
        "correct": not failures,
        "attempted": result["passes"] * len(ops),
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
