"""Repeat bench/run.py over seeds and summarize, as in bench/README.md.

    python3 bench/reference.py [--seeds 1-10] [--trace 0|1]

Runs every workload once per seed, one run at a time, from the repository
root, for the run length in BENCHMARK.json.  For each metric it prints the
median, the quartiles and the spread (quartile distance over the median);
with --trace 1 it also prints each layer's self time as a share of the
traced operation time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from workloads import WORKLOADS

SHARES = ("states.self_ms", "bath.self_ms", "channel.self_ms", "negativity.self_ms",
          "fock.self_ms", "bangbang.self_ms", "design.ms", "config.self_ms",
          "validate.self_ms", "cli.self_ms", "remainder_ms")


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0", choices=("0", "1"))
    args = ap.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        seconds = str(json.load(fh)["run_seconds"])

    for workload in WORKLOADS:
        runs = []
        for seed in _seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", seconds, "--trace", args.trace],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, check=False)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        print(f"{workload}: {len(runs)} runs, correct {all(r['correct'] for r in runs)}, "
              f"failed/attempted {[(r['failed'], r['attempted']) for r in runs]}")
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {name:42s} {med:14.4f} {first['unit']:10s} "
                  f"q1 {q1:.4f} q3 {q3:.4f} spread {spread:.3f}")
        if args.trace == "1":
            total = statistics.median(r["metrics"]["op_ms_total"]["value"] for r in runs)
            shares = {k: statistics.median(r["metrics"][k]["value"] for r in runs) / total
                      for k in SHARES}
            print("  shares of traced operation time: "
                  + ", ".join(f"{k} {v:.1%}" for k, v in shares.items() if v >= 0.0005))


if __name__ == "__main__":
    main()
