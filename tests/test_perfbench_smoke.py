"""The benchmark in perfbench/ calls the package through public functions
(set-up of every pair, a traced copy of the simulation loop, run_pair, the
ledger read-back and replay); on each run workload's tiny warm-up config
those calls must still work and agree with run_experiment, and the posterior-routes query mix must run
without a failed query with its dense and blocked routes in agreement, so
an API change that breaks the benchmark fails here rather than as a failed
benchmark run."""

import sys
from pathlib import Path

import pytest

from hierbandit import bench

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import harness  # noqa: E402
import traced  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", sorted(workloads.RUN_WORKLOADS))
def test_perfbench_run_workload_calls(tmp_path, workload):
    config = bench.ExperimentConfig.from_dict(workloads.warmup_config(workload))
    harness.set_up_pairs(config)
    tracer = traced.Tracer()
    _, paths, columns, _ = traced.traced_experiment(
        config, str(tmp_path / "traced"), tracer)
    assert traced.Summary(tracer).nesting_error() is None
    plain = bench.run_experiment(config, str(tmp_path / "plain"))
    assert Path(paths["ledger"]).read_bytes() \
        == Path(plain["ledger"]).read_bytes()
    # the untraced benchmark's correctness check: ledger.csv parsed back
    # row by row, then replayed against fresh reward tables
    ledger = harness.read_ledger(plain["ledger"])
    n_rows = len(Path(plain["ledger"]).read_text().splitlines()) - 1
    assert n_rows > 0 and len(ledger) == n_rows
    assert harness.replay_error(config, ledger) is None
    for algorithm in config.run_specs():
        for seed in config.seeds:
            assert harness.columns_equal(
                columns[(algorithm.name, seed)],
                bench.run_pair(config, algorithm, seed))


def test_perfbench_posterior_routes_agree():
    histories = harness.build_histories(0)
    queries = harness.posterior_queries(histories)
    keys = [key for key, _ in queries]
    runs = [harness.run_query(fn) for _, fn in queries]
    assert sum(failed for _, failed in runs) == 0
    count, worst = harness.route_disagreements(
        keys, [result for result, _ in runs])
    assert count == 0
    assert worst < workloads.ROUTE_TOLERANCE
