"""One benchmark sample in a fresh process.

Invoked by run.py as ``python3 perfbench/worker.py '<json spec>'`` with the
BLAS thread count fixed in the environment.  Prints one JSON object as the
last line of standard output.

Untraced mode times, in order:
  reference_s  a fixed pure-Python loop, run before the package is
            imported so the program cannot change it; run.py scales the
            times by it to the host speed of the moment;
  setup_s   import of the package, loading the config and building every
            (algorithm, seed) pair's population, reward table, priors and
            policy (posterior-routes: building the histories);
  (untimed) a warm-up on a tiny config with the same policies and
            artifacts (posterior-routes: one query of every kind);
  wall_s    one whole bench.run_experiment call, artifacts included
            (posterior-routes: one pass of the query mix);
then reads peak RSS and, when asked, runs the correctness checks.
Traced mode hands over to traced.py.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import time


# The reference loop's iterations, and its time at the reference speed.
REFERENCE_ITERATIONS = 1_100_000
REFERENCE_S = 0.25


def reference_loop(n: int) -> tuple:
    """Interpreter work that touches neither the package nor numpy."""
    acc, x, table = 0, 0.5, {}
    for i in range(n):
        acc = (acc * 31 + i) % 1000003
        table[i & 255] = acc
        x = x * 0.999 + (acc & 7) * 1e-3
    return acc, x


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def untraced_run(spec: dict, t0: float) -> dict:
    import harness
    import workloads as wl
    from hierbandit import bench

    workload = spec["workload"]
    config = bench.ExperimentConfig.from_file(spec["config"])
    harness.set_up_pairs(config)
    setup_s = time.perf_counter() - t0

    bench.run_experiment(bench.ExperimentConfig.from_file(spec["warmup"]),
                         os.path.join(spec["out"], "warmup"))
    rows = wl.expected_rows(workload)
    out = os.path.join(spec["out"], "run")
    gc.collect()
    start = time.perf_counter()
    try:
        paths = bench.run_experiment(config, out)
        failed = 0
    except harness.FAILURES as exc:
        paths, failed = None, rows
        print("run_experiment failed: %s" % exc, file=sys.stderr)
    wall_s = time.perf_counter() - start
    result = {"ops": rows, "failed": failed, "wall_s": wall_s,
              "setup_s": setup_s, "peak_rss_mb": _peak_rss_mb(),
              "ledger_sha256": None, "checks": {}}
    if paths is None:
        return result
    result["ledger_sha256"] = harness.sha256_file(paths["ledger"])
    if spec["check"]:
        ledger = harness.read_ledger(paths["ledger"])
        if len(ledger) != rows:
            error = "ledger has %d rows, expected %d" % (len(ledger), rows)
        else:
            error = harness.replay_error(config, ledger)
        result["checks"]["replay"] = error
        result["failed"] += error is not None
    return result


def untraced_posterior(spec: dict, t0: float) -> dict:
    import harness

    histories = harness.build_histories(spec["seed"])
    setup_s = time.perf_counter() - t0

    queries = harness.posterior_queries(histories)
    harness.warm_up_queries(queries)
    gc.collect()
    results, failed = [], 0
    start = time.perf_counter()
    for _, fn in queries:
        res, bad = harness.run_query(fn)
        results.append(res)
        failed += bad
    wall_s = time.perf_counter() - start
    rss = _peak_rss_mb()
    bad_routes, worst = harness.route_disagreements([k for k, _ in queries],
                                                    results)
    return {"ops": len(queries), "failed": failed + bad_routes,
            "wall_s": wall_s, "setup_s": setup_s, "peak_rss_mb": rss,
            "ledger_sha256": None,
            "checks": {"routes": None if bad_routes == 0 else
                       "%d dense/blocked disagreements, worst %.3g"
                       % (bad_routes, worst)},
            "route_max_diff": worst}


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    if not spec["trace"]:
        start = time.perf_counter()
        reference_loop(REFERENCE_ITERATIONS)
        reference_s = time.perf_counter() - start
    t0 = time.perf_counter()
    import harness  # imports hierbandit: part of the set-up cost
    import workloads as wl

    if spec["trace"]:
        import traced
        result = traced.run(spec)
    else:
        if spec["workload"] == wl.POSTERIOR:
            result = untraced_posterior(spec, t0)
        else:
            result = untraced_run(spec, t0)
        result["reference_s"] = reference_s
    result["env"] = harness.environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
