"""Exact-repeat test for the benchmark's per-layer counts.

    python3 perfbench/check_counts.py [--seed 7] [--workload scan-small ...]

Runs the traced benchmark twice per workload with the same seed and checks
that every count (``*.calls``, ``*_calls``, ``linalg.eig_dim3``) and every
computed byte total (``assembly.dense_bytes``, ``cli.bytes_written``) is
identical between the two runs, so that later changes can cite them as
counts.  Exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import ROOT, WORKLOAD_NAMES  # noqa: E402


def traced_counts(workload: str, seed: int) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    return {name: entry["value"] for name, entry in result["metrics"].items()
            if entry["unit"] in ("count", "B")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES)
    args = parser.parse_args(argv)
    status = 0
    for workload in args.workload or WORKLOAD_NAMES:
        first = traced_counts(workload, args.seed)
        second = traced_counts(workload, args.seed)
        differ = {k: (first[k], second.get(k)) for k in first if first[k] != second.get(k)}
        if differ or first.keys() != second.keys():
            status = 1
            print(f"{workload}: counts differ between runs: {differ}")
        else:
            print(f"{workload}: {len(first)} counts identical: "
                  + ", ".join(f"{k}={v}" for k, v in first.items()))
    return status


if __name__ == "__main__":
    sys.exit(main())
