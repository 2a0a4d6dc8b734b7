"""One-off, ungated measurement: one seed of configs/full_scale_gaussian.yaml.

    python3 perfbench/full_scale_once.py [--seed N]

Simulates every configured policy (oracle-ts included) on one seed of the
full-scale population shape with one BLAS thread and prints the ledger
rows, the simulate time and the process's peak RSS as one JSON line.  It
runs for about a minute; the benchmark itself never calls it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from hierbandit import bench

    config = bench.ExperimentConfig.from_file(
        os.path.join(ROOT, "configs", "full_scale_gaussian.yaml"))
    config = dataclasses.replace(config, seeds=(args.seed,), parallelism=1)
    start = time.perf_counter()
    ledger = bench.simulate_ledger(config)
    simulate_s = time.perf_counter() - start
    print(json.dumps({
        "config": "configs/full_scale_gaussian.yaml", "seed": args.seed,
        "policies": [a.name for a in config.run_specs()],
        "rows": len(ledger), "simulate_s": simulate_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
