"""The measured process of one benchmark run.

    python3 bench/worker.py --workload W --rundir D --seconds S --trace 0|1
    python3 bench/worker.py --workload W --rundir D --setup-only

Run from the checkout root by bench/run.py, which writes D/ops.json first.
The worker caps its own address space, imports ngfiber from src/, makes one
warm-up call of each operation kind (that is the set-up time), then runs
whole passes over the operation list for S seconds: it starts no pass that
would, at the median pass time so far, end after S seconds.  It
writes D/result.json and, for the output checks, D/arrays.npz.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

ADDRESS_SPACE_CAP = 3 << 30  # bytes; the heaviest pass today peaks near 0.62 GB resident


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--rundir", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    # a memory blow-up then raises MemoryError inside one operation instead of
    # drawing the kernel's out-of-memory killer
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))
    sys.path.insert(0, os.path.abspath("src"))

    import workloads

    warmups = workloads.warmup_ops(args.workload)
    warmdir = os.path.join(args.rundir, f"warmup-{os.getpid()}")
    os.makedirs(warmdir)
    _write_configs(warmups, warmdir)

    start = time.perf_counter()
    import ngfiber.cli  # noqa: F401  (the import is part of set-up)
    import ops as ops_mod

    for op in warmups:
        ops_mod.run_op(op, warmdir)
    setup_s = time.perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import numpy as np

    with open(os.path.join(args.rundir, "ops.json"), encoding="utf-8") as fh:
        ops = json.load(fh)
    outdir = os.path.join(args.rundir, "out")
    os.makedirs(outdir)
    _write_configs(ops, outdir)

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    latencies = [[] for _ in ops]
    hashes = [set() for _ in ops]
    errors = {}
    failed = 0
    first = {}
    bytes_written = 0
    pass_walls = []
    begin = time.perf_counter()
    # whole passes only: stop before a pass that would end after --seconds
    while not pass_walls or (time.perf_counter() - begin
                             + statistics.median(pass_walls) <= args.seconds):
        t_pass = time.perf_counter()
        for i, op in enumerate(ops):
            if tracer:
                tracer.begin_op()
            t0 = time.perf_counter()
            try:
                res = ops_mod.run_op(op, outdir)
            except Exception as exc:  # noqa: BLE001  (a failed operation is counted, not fatal)
                res = None
                failed += 1
                errors.setdefault(i, f"{type(exc).__name__}: {exc}"[:300])
            latencies[i].append(time.perf_counter() - t0)
            if tracer:
                tracer.end_op()
            if res is None:
                continue
            if op.get("cli"):
                hashes[i].add(res["sha256"])
                bytes_written += res["bytes"]
            if not pass_walls:
                first[i] = res
        pass_walls.append(time.perf_counter() - t_pass)

    passes = len(pass_walls)
    result = {
        "setup_s": setup_s,
        "passes": passes,
        "pass_walls": pass_walls,
        "latencies": latencies,
        "failed": failed,
        "errors": {str(k): v for k, v in errors.items()},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cli": {str(i): {"exit": r["exit"], "distinct_outputs": len(hashes[i])}
                for i, r in first.items() if ops[i].get("cli")},
        "values": {str(i): r["negativity"] for i, r in first.items() if "negativity" in r},
    }
    if tracer:
        layers = tracer.summary(passes)
        layers["cli.bytes_written"] = bytes_written / passes
        layers["traced.ops_per_s"] = (len(ops) - failed / passes) / statistics.median(pass_walls)
        result["layers"] = layers
    arrays = {}
    for i, r in first.items():
        for key in ("rho", "psi"):
            if key in r:
                arrays[f"{key}-{i}"] = r[key]
    np.savez(os.path.join(args.rundir, "arrays.npz"), **arrays)
    with open(os.path.join(args.rundir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _write_configs(ops, outdir):
    for op in ops:
        if "config" in op:
            with open(os.path.join(outdir, f"sweep-{op['id']}.cfg"), "w", encoding="utf-8") as fh:
                fh.write(op["config"])


if __name__ == "__main__":
    sys.exit(main())
