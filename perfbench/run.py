"""hierbandit benchmark: entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads: gauss-concurrent,
bern-sequential, ledger-heavy, posterior-routes (see workloads.py and
README.md).

--trace 0 starts untraced worker processes one after another, each a fresh
interpreter with one BLAS thread, as many as are expected to end within S
seconds (at least three).  Each worker measures set-up, warms up untimed, then times one
whole bench.run_experiment call (posterior-routes: one pass of its query
mix).  ops_per_s is the operations of all workers over their summed timed
seconds; setup_s and peak_rss_mb are medians over the workers.  Both times
are scaled to one fixed host speed by a reference loop that every worker
times before it imports the package (see measure()).  The first
worker also replays its ledger through metrics.verify_replay, and every
worker's ledger.csv must have the same bytes.

--trace 1 starts one traced worker per workload and prints the per-layer
metrics, so every traced run yields the whole per-layer table; S is not
used.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 when every correctness
check passed, 1 when one failed, 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import workloads as wl
from worker import REFERENCE_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "_out")
RECORDED_SHA = os.path.join(HERE, "ledger_sha256.json")

# The same on every commit measured.
BLAS_THREADS = "1"
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                "NUMEXPR_NUM_THREADS")
MIN_SAMPLES = 3
# Never start an untraced worker expected to end later than this.
WALL_LIMIT_S = 140.0
WORKER_TIMEOUT_S = 120.0

END_TO_END_UNITS = {"ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def _worker_env() -> dict:
    env = dict(os.environ)
    for var in _THREAD_VARS:
        env[var] = BLAS_THREADS
    return env


def run_worker(spec: dict) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_worker_env(),
                              capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchmarkError("worker timed out after %gs: %s %s"
                             % (WORKER_TIMEOUT_S, spec["workload"],
                                "traced" if spec["trace"] else "untraced"))
    if proc.returncode != 0:
        raise BenchmarkError("worker failed (exit %d):\n%s"
                             % (proc.returncode, proc.stderr[-4000:]))
    if proc.stderr.strip():
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _write_json(path: str, obj) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _worker_spec(workload: str, seed: int, trace: bool, check: bool) -> dict:
    out = os.path.join(OUT, "trace" if trace else "run", workload)
    spec = {"root": ROOT, "workload": workload, "seed": seed, "trace": trace,
            "check": check, "out": out}
    if workload in wl.RUN_WORKLOADS:
        spec["config"] = os.path.join(out, "config.json")
        spec["warmup"] = os.path.join(out, "warmup.json")
        _write_json(spec["config"], wl.experiment_config(workload, seed))
        _write_json(spec["warmup"], wl.warmup_config(workload))
    return spec


def _commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(worker_env: dict) -> dict:
    env = dict(worker_env)
    env.update(nproc=os.cpu_count(), blas_threads=int(BLAS_THREADS),
               commit=_commit())
    return env


def _quartiles(values: list) -> str:
    if len(values) < 2:
        return "n=%d" % len(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return "quartiles %.6g..%.6g, n=%d" % (q1, q3, len(values))


def measure(workload: str, seed: int, seconds: float) -> dict:
    samples = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        samples.append(run_worker(_worker_spec(workload, seed, False,
                                               check=not samples)))
        # Start another worker only if it is expected to end in time.
        predicted = time.monotonic() - start + (time.monotonic() - began)
        if predicted > WALL_LIMIT_S or (len(samples) >= MIN_SAMPLES
                                        and predicted > seconds):
            break

    checks = dict(samples[0]["checks"])
    shas = {s["ledger_sha256"] for s in samples}
    if workload in wl.RUN_WORKLOADS and (len(shas) != 1 or None in shas):
        checks["rerun-bytes"] = "ledger.csv bytes differ between runs: %s" % sorted(map(str, shas))
    notes = []
    if workload in wl.RUN_WORKLOADS and len(shas) == 1 and os.path.exists(RECORDED_SHA):
        with open(RECORDED_SHA, "r", encoding="utf-8") as fh:
            recorded = json.load(fh).get(workload, {}).get(str(seed))
        sha = next(iter(shas))
        if recorded is not None and recorded != sha:
            notes.append("ledger-sha256: %s seed %d ledger.csv differs from the "
                         "recorded %s (got %s)" % (workload, seed, recorded, sha))

    # The host is shared, and its speed drifts by tens of percent over
    # seconds and minutes, alike for all code.  Each worker times a fixed
    # reference loop first; the times are scaled by the run's mean
    # reference time against REFERENCE_S, which gives them at one fixed
    # host speed.  A slower program still reads slower by the same share.
    scale = statistics.fmean(s["reference_s"] for s in samples) / REFERENCE_S
    timed = [s for s in samples if not s["failed"]]
    raw = {
        "ops_per_s": [s["ops"] / s["wall_s"] for s in timed],
        "setup_s": [s["setup_s"] for s in samples],
        "peak_rss_mb": [s["peak_rss_mb"] for s in samples],
    }
    metrics = {"setup_s": statistics.median(raw["setup_s"]) / scale,
               "peak_rss_mb": statistics.median(raw["peak_rss_mb"])}
    if timed:
        # Every timed second weighs the same, unlike in a median of rates.
        metrics["ops_per_s"] = (sum(s["ops"] for s in timed)
                                / sum(s["wall_s"] for s in timed) * scale)
    attempted = sum(s["ops"] for s in samples)
    failed = sum(s["failed"] for s in samples) + ("rerun-bytes" in checks)
    failures = {k: v for k, v in checks.items() if v}

    print("workload %s, seed %d: %d worker runs, %.1f s"
          % (workload, seed, len(samples), time.monotonic() - start))
    print("  host speed   reference loop %.4g s on average, %.4g s nominal: "
          "times scaled by 1/%.4f" % (scale * REFERENCE_S, REFERENCE_S, scale))
    print("  %-12s samples %s" % ("", " ".join("%.4g" % s["reference_s"]
                                               for s in samples)))
    how = {"ops_per_s": "all workers, scaled", "setup_s": "median, scaled",
           "peak_rss_mb": "median"}
    for name in END_TO_END_UNITS:
        if name in metrics:
            print("  %-12s %.6g %s  (%s; unscaled per worker %s)"
                  % (name, metrics[name], END_TO_END_UNITS[name], how[name],
                     _quartiles(raw[name])))
            print("  %-12s samples %s" % ("", " ".join("%.6g" % v for v in raw[name])))
    print("  %-12s %.6g  (%d failed of %d operations)"
          % ("fail_frac", failed / attempted, failed, attempted))
    if "route_max_diff" in samples[0]:
        print("  dense/blocked max |diff| %.3g (tolerance %g)"
              % (samples[0]["route_max_diff"], wl.ROUTE_TOLERANCE))
    if len(shas) == 1 and None not in shas:
        print("  ledger.csv sha256 %s" % next(iter(shas)))
    for note in notes:
        print("  note: " + note)
    return {"checks": failures, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                        for name, value in metrics.items()},
            "env": samples[0]["env"]}


def trace(seed: int) -> dict:
    merged: dict = {}
    checks: dict = {}
    attempted = failed = 0
    env = None
    for workload in wl.WORKLOADS:
        res = run_worker(_worker_spec(workload, seed, True, check=True))
        env = res["env"]
        attempted += res["ops"]
        failed += res["failed"]
        checks.update({"%s:%s" % (workload, k): v for k, v in res["checks"].items() if v})
        merged.update(res["metrics"])
        print("traced %s: %.3f s traced, %.3f s untraced, %d spans"
              % (workload, res["traced_s"], res["untraced_s"], res["spans"]))
    print("per-layer metrics (seed %d):" % seed)
    for name in sorted(merged):
        value, unit, n = merged[name]
        print("  %-48s %.6g %s%s" % (name, value, unit,
                                     "" if n is None else "  (n=%d)" % n))
    metrics = {name: {"value": v[0], "unit": v[1]} for name, v in merged.items()}
    return {"checks": checks, "attempted": attempted, "failed": failed,
            "metrics": metrics, "env": env}


def _declared_names(trace_mode: bool) -> set | None:
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"] for m in spec["per_layer" if trace_mode else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "hierbandit", "__init__.py")):
        print("benchmark: no hierbandit sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2

    try:
        if args.trace:
            res = trace(args.seed)
        else:
            res = measure(args.workload, args.seed, args.seconds)
    except BenchmarkError as exc:
        print("benchmark: %s" % exc, file=sys.stderr)
        return 2

    declared = _declared_names(bool(args.trace))
    if declared is not None and declared != set(res["metrics"]):
        missing = sorted(declared - set(res["metrics"]))
        extra = sorted(set(res["metrics"]) - declared)
        res["checks"]["metric-names"] = "missing %s, undeclared %s" % (missing, extra)

    env = environment(res["env"])
    print("env: %s" % json.dumps(env, sort_keys=True))
    _write_json(os.path.join(OUT, "env.json"), env)
    for name, message in sorted(res["checks"].items()):
        print("CHECK FAILED %s: %s" % (name, message))
    correct = not res["checks"] and res["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": res["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
