"""Regret ledger, aggregation views, and oracle-adjusted curves."""

import os
import tracemalloc

import numpy as np
import pytest

from hierbandit.bench import (ExperimentConfig, compute_curves,
                              simulate_ledger, write_summary_csv)
from hierbandit.core import TaskInstance
from hierbandit.errors import ConfigError
from hierbandit.metrics import (ORACLE_NAME, VIEWS, RegretLedger,
                                bayes_regret_curve,
                                cumulative_regret_by_seed,
                                instantaneous_regret, multi_task_regret_curve,
                                series_from_cells, verify_replay)
from oracles import ledger_series_oracle, seed_totals_oracle


def _task(means):
    means = np.asarray(means, dtype=float)
    return TaskInstance(0, np.zeros(1), means)


def test_instantaneous_regret_trivials():
    assert instantaneous_regret(_task([0.2, 0.9, 0.1]), 1) == 0.0
    assert instantaneous_regret(_task([1.0, 0.0]), 1) == 1.0
    assert instantaneous_regret(_task([1.0, 0.0]), 0) == 0.0


def _fill_run(ledger, algorithm, seed, regrets, n_tasks, horizon):
    """regrets indexed [task][round]; concurrent insertion order."""
    for rnd in range(1, horizon + 1):
        for tid in range(n_tasks):
            ledger.add(algorithm, seed, tid, rnd, 0, 0.0,
                       regrets[tid][rnd - 1])


def test_ledger_resum_matches_cumulative():
    rng = np.random.default_rng(0)
    ledger = RegretLedger()
    regrets = {}
    for seed in (0, 1, 2):
        regrets[seed] = rng.uniform(0.0, 1.0, size=(3, 4))
        _fill_run(ledger, "alg", seed, regrets[seed], 3, 4)
    got = cumulative_regret_by_seed(ledger, "alg")
    for seed in (0, 1, 2):
        np.testing.assert_allclose(got[seed], regrets[seed].sum())
    rows = list(ledger.rows())
    assert len(rows) == 36
    np.testing.assert_allclose(sum(r[-1] for r in rows),
                               sum(got.values()))


def test_extend_run_rejects_unequal_columns():
    ledger = RegretLedger()
    ledger.add("alg", 0, 0, 1, 0, 0.0, 0.5)
    with pytest.raises(ConfigError):
        ledger.extend_run("alg", 1, [0, 1], [1, 1], [0], [0.0, 0.0],
                          [0.1, 0.2])
    with pytest.raises(ConfigError):
        ledger.extend_run("alg", 1, [0, 1], [1, 1], [0, 1], [0.0, 0.0],
                          [0.1, 0.2, 0.3])
    assert list(ledger.rows()) == [("alg", 0, 0, 1, 0, 0.0, 0.5)]


def test_mixed_add_and_extend_run_keep_insertion_order():
    # Whole runs entered through add or extend_run, algorithms interleaved
    # and seeds out of order, with a read between two runs.  Rows keep
    # their insertion order, and curves and totals carry the bits of the
    # same runs entered in sorted order.
    rng = np.random.default_rng(7)

    def run(algorithm, seed):
        return [(algorithm, seed, i % 3, i // 3 + 1, int(rng.integers(2)),
                 float(rng.standard_normal()), float(rng.uniform()))
                for i in range(6)]

    pieces = [("add", run("a", 2)), ("extend", run("b", 0)),
              ("extend", run("a", 0)), ("add", run("b", 1)), ("read", None),
              ("add", run("a", 1)), ("extend", run("b", 2))]
    ledger = RegretLedger()
    expected = []
    for how, rows in pieces:
        if how == "read":
            assert len(ledger) == len(expected)
            continue
        expected += rows
        if how == "add":
            for row in rows:
                ledger.add(*row)
        else:
            ledger.extend_run(rows[0][0], rows[0][1],
                              *[list(c) for c in zip(*rows)][2:])
    assert list(ledger.rows()) == expected
    assert len(ledger) == len(expected)
    assert ledger.algorithms() == ("a", "b")
    in_order = RegretLedger()
    for _, rows in sorted((rows[0][:2], rows) for how, rows in pieces
                          if how != "read"):
        in_order.extend_run(rows[0][0], rows[0][1],
                            *[list(c) for c in zip(*rows)][2:])
    for algorithm in ("a", "b"):
        want = {}
        for alg, seed, *_, gap in expected:
            if alg == algorithm:
                want.setdefault(seed, []).append(gap)
        totals = cumulative_regret_by_seed(ledger, algorithm)
        assert list(totals.items()) == \
            [(seed, float(np.sum(gaps))) for seed, gaps in sorted(want.items())]
        assert totals == cumulative_regret_by_seed(in_order, algorithm)
        for view in VIEWS:
            got = bayes_regret_curve(ledger, algorithm, view)
            ref = bayes_regret_curve(in_order, algorithm, view)
            np.testing.assert_array_equal(got.mean, ref.mean)
            np.testing.assert_array_equal(got.se, ref.se)


def test_ledger_refuses_a_second_block_of_a_run():
    ledger = RegretLedger()
    ledger.extend_run("alg", 0, [0], [1], [0], [0.0], [0.5])
    with pytest.raises(ConfigError, match="already holds"):
        ledger.extend_run("alg", 0, [1], [1], [0], [0.0], [0.5])
    assert list(ledger.rows()) == [("alg", 0, 0, 1, 0, 0.0, 0.5)]
    # rows added one by one: a run that comes back after other rows
    interleaved = RegretLedger()
    for seed in (0, 1, 0):
        interleaved.add("alg", seed, 0, 1, 0, 0.0, 0.5)
    pending = list(interleaved._pending)
    for _ in range(2):
        # the refused fold stores no stretch and keeps every buffered row,
        # so the next read refuses it again
        with pytest.raises(ConfigError, match=r"already holds the run of "
                           r"\(alg, seed 0\)"):
            len(interleaved)
        assert interleaved._runs == {} and interleaved._pending == pending
    # or after the ledger was read
    read = RegretLedger()
    read.add("alg", 0, 0, 1, 0, 0.0, 0.5)
    assert len(read) == 1
    read.add("alg", 1, 0, 1, 0, 0.0, 0.5)
    read.add("alg", 0, 0, 2, 0, 0.0, 0.5)
    for _ in range(2):
        with pytest.raises(ConfigError, match="already holds"):
            list(read.rows())
        assert list(read._runs) == [("alg", 0)] and len(read._pending) == 2


def test_series_refuses_seeds_with_different_index_sets():
    cells = {0: (np.array([1, 2]), np.array([0.5, 0.25]), np.array([1, 1])),
             1: (np.array([1, 3]), np.array([0.5, 0.25]), np.array([1, 1])),
             2: (np.array([1]), np.array([0.5]), np.array([1]))}
    for seeds in ((0, 1), (0, 2)):
        for view in VIEWS:
            with pytest.raises(ConfigError, match="different index sets"):
                series_from_cells({s: cells[s] for s in seeds}, "alg", view)
    # a seed whose run is one round short, in both views
    ledger = RegretLedger()
    _fill_run(ledger, "alg", 0, np.ones((2, 2)), 2, 2)
    _fill_run(ledger, "alg", 1, np.ones((2, 1)), 2, 1)
    _fill_run(ledger, "alg", 2, np.ones((1, 2)), 1, 2)
    for view in VIEWS:
        with pytest.raises(ConfigError, match="different index sets"):
            bayes_regret_curve(ledger, "alg", view)


def test_curves_refuse_a_negative_index():
    # The cells of a view are indexed by the round, or the task id + 1.
    for view, row in (("per_round_concurrent", (0, -1)),
                      ("per_task_sequential", (-2, 1))):
        ledger = RegretLedger()
        for seed in (0, 1):
            ledger.add("alg", seed, *row, 0, 0.0, 0.5)
        with pytest.raises(ConfigError, match="%s index -1 is negative"
                           % view):
            bayes_regret_curve(ledger, "alg", view)


def test_sequential_view_sums_per_task():
    ledger = RegretLedger()
    for seed in (0, 1):
        ledger.add("alg", seed, 0, 1, 0, 0.0, 0.5)
        ledger.add("alg", seed, 0, 2, 0, 0.0, 0.3)
    curve = bayes_regret_curve(ledger, "alg", "per_task_sequential")
    np.testing.assert_array_equal(curve.index, [1])
    np.testing.assert_allclose(curve.mean, [0.8])
    np.testing.assert_allclose(curve.se, [0.0])
    assert curve.n_seeds == 2


def test_concurrent_view_loop_oracle():
    rng = np.random.default_rng(1)
    n_tasks, horizon, seeds = 4, 5, 3
    ledger = RegretLedger()
    regrets = {s: rng.uniform(0.0, 2.0, size=(n_tasks, horizon))
               for s in range(seeds)}
    for s in range(seeds):
        _fill_run(ledger, "alg", s, regrets[s], n_tasks, horizon)
    curve = bayes_regret_curve(ledger, "alg", "per_round_concurrent")
    np.testing.assert_array_equal(curve.index, np.arange(1, horizon + 1))
    per_seed = np.stack([regrets[s].mean(axis=0) for s in range(seeds)])
    np.testing.assert_allclose(curve.mean, per_seed.mean(axis=0))
    np.testing.assert_allclose(
        curve.se, per_seed.std(axis=0, ddof=1) / np.sqrt(seeds))


def test_curve_invariant_to_entry_order():
    # The same whole runs entered in another run order give the same bits.
    rng = np.random.default_rng(2)
    runs = [[("alg", s, tid, rnd, 0, 0.0, float(rng.uniform()))
             for rnd in (1, 2, 3) for tid in range(3)] for s in range(4)]
    ledger_a = RegretLedger()
    for run in runs:
        for e in run:
            ledger_a.add(*e)
    ledger_b = RegretLedger()
    for j in (2, 0, 3, 1):
        for e in runs[j]:
            ledger_b.add(*e)
    for view in ("per_round_concurrent", "per_task_sequential"):
        ca = bayes_regret_curve(ledger_a, "alg", view)
        cb = bayes_regret_curve(ledger_b, "alg", view)
        np.testing.assert_array_equal(ca.mean, cb.mean)
        np.testing.assert_array_equal(ca.se, cb.se)


def test_cumulative_is_nondecreasing():
    rng = np.random.default_rng(3)
    ledger = RegretLedger()
    for s in range(2):
        _fill_run(ledger, "alg", s, rng.uniform(0.0, 1.0, size=(2, 6)), 2, 6)
    curve = bayes_regret_curve(ledger, "alg", "per_round_concurrent")
    cum = curve.cumulative()
    np.testing.assert_allclose(cum, np.cumsum(curve.mean))
    assert np.all(np.diff(cum) >= 0.0)


def test_mtr_oracle_is_identically_zero():
    rng = np.random.default_rng(4)
    ledger = RegretLedger()
    for s in range(3):
        _fill_run(ledger, "oracle-ts", s, rng.uniform(size=(2, 4)), 2, 4)
    curve = multi_task_regret_curve(ledger, "oracle-ts")
    np.testing.assert_array_equal(curve.mean, np.zeros(2))
    np.testing.assert_array_equal(curve.se, np.zeros(2))


def test_mtr_paired_se_not_worse_than_unpaired():
    # Seed-level shared noise: paired differencing cancels it, so the MTR
    # standard error must come out no larger than the unpaired combination.
    rng = np.random.default_rng(5)
    ledger = RegretLedger()
    for s in range(12):
        base = rng.uniform(0.5, 3.0, size=(3, 4))
        _fill_run(ledger, "alg", s, base + rng.normal(0, 0.05, base.shape),
                  3, 4)
        _fill_run(ledger, "oracle-ts", s,
                  0.5 * base + rng.normal(0, 0.05, base.shape), 3, 4)
    paired = multi_task_regret_curve(ledger, "alg")
    ca = bayes_regret_curve(ledger, "alg", "per_task_sequential")
    co = bayes_regret_curve(ledger, "oracle-ts", "per_task_sequential")
    unpaired = np.sqrt(ca.se ** 2 + co.se ** 2)
    assert np.all(paired.se <= unpaired + 1e-12)


def test_curve_validation_errors():
    ledger = RegretLedger()
    _fill_run(ledger, "alg", 0, np.ones((2, 2)), 2, 2)
    with pytest.raises(ConfigError):
        bayes_regret_curve(ledger, "alg", "per_round_concurrent")  # 1 seed
    with pytest.raises(ConfigError):
        bayes_regret_curve(ledger, "missing", "per_round_concurrent")
    with pytest.raises(ConfigError):
        bayes_regret_curve(ledger, "alg", "per_round")  # unknown view
    _fill_run(ledger, "alg", 1, np.ones((2, 2)), 2, 2)
    with pytest.raises(ConfigError):
        multi_task_regret_curve(ledger, "alg")  # no oracle rows at all
    ledger.add("oracle-ts", 0, 0, 1, 0, 0.0, 0.1)
    ledger.add("oracle-ts", 5, 0, 1, 0, 0.0, 0.1)
    with pytest.raises(ConfigError):
        multi_task_regret_curve(ledger, "alg")  # index sets differ


def test_mtr_needs_common_seeds():
    ledger = RegretLedger()
    _fill_run(ledger, "alg", 0, np.ones((1, 2)), 1, 2)
    _fill_run(ledger, "alg", 1, np.ones((1, 2)), 1, 2)
    _fill_run(ledger, "oracle-ts", 7, np.ones((1, 2)), 1, 2)
    _fill_run(ledger, "oracle-ts", 8, np.ones((1, 2)), 1, 2)
    with pytest.raises(ConfigError):
        multi_task_regret_curve(ledger, "alg")


def test_aligned_mtr_nonnegative_in_expectation():
    # Forced alignment pulls cost regret relative to the vanilla oracle, so
    # the aligned variant's total oracle-adjusted regret stays >= 0 when
    # averaged over seeds.
    config = ExperimentConfig.from_dict({
        "population": {"n_tasks": 8, "horizon": 12, "n_arms": 2, "dim": 3},
        "schedule": "sequential",
        "algorithms": ["hier-ts-aligned", "oracle-ts"],
        "seeds": 20,
    })
    ledger = simulate_ledger(config)
    curve = multi_task_regret_curve(ledger, "hier-ts-aligned")
    assert float(curve.mean.sum()) >= 0.0


def test_verify_replay_accepts_honest_and_rejects_tampered():
    rng = np.random.default_rng(6)
    tasks = [TaskInstance(i, np.zeros(1), rng.uniform(size=2))
             for i in range(2)]

    class _Pop:
        def __init__(self):
            self.tasks = tasks

    pop = _Pop()
    rewards = {(0, tid, rnd, arm): float(rng.standard_normal())
               for tid in range(2) for rnd in (1, 2) for arm in range(2)}

    def build(tamper_reward=False, tamper_regret=False):
        ledger = RegretLedger()
        for tid in range(2):
            for rnd in (1, 2):
                arm = (tid + rnd) % 2
                r = rewards[(0, tid, rnd, arm)]
                g = instantaneous_regret(tasks[tid], arm)
                if tamper_reward and tid == 1 and rnd == 2:
                    r += 1e-6
                if tamper_regret and tid == 1 and rnd == 2:
                    g += 1e-6
                ledger.add("alg", 0, tid, rnd, arm, r, g)
        return ledger

    def reward_for(seed, tid, rnd, arm):
        return rewards[(seed, tid, rnd, arm)]

    verify_replay(build(), lambda s: pop, reward_for)
    with pytest.raises(ConfigError):
        verify_replay(build(tamper_reward=True), lambda s: pop, reward_for)
    with pytest.raises(ConfigError):
        verify_replay(build(tamper_regret=True), lambda s: pop, reward_for)
    # Rows that agree with what NumPy's wrap-around reads for task -1 and
    # arm -1, and rows past the end, must fail as out of range.
    for tid, arm in ((-1, 0), (0, -1), (2, 0), (0, 2)):
        gap = instantaneous_regret(tasks[tid], arm) if tid < 2 and arm < 2 \
            else 0.0
        row = RegretLedger()
        row.add("alg", 0, tid, 1, arm, 0.0, gap)
        with pytest.raises(ConfigError, match="out of range"):
            verify_replay(row, lambda s: pop, lambda *key: 0.0)


# Engine-built ledgers for the aggregation oracle: each reward model and
# schedule, seeds listed out of order, oracle-ts added for the mtr_ views.
_ENGINE_CONFIGS = {
    "gaussian-concurrent": {
        "population": {"n_tasks": 5, "horizon": 6, "n_arms": 3, "dim": 4},
        "schedule": "concurrent",
        "algorithms": ["individual-ts", "pooled-ts", "hier-ts"],
        "seeds": [3, 1, 2]},
    "bernoulli-sequential": {
        "population": {"n_tasks": 4, "horizon": 5, "n_arms": 3, "dim": 4,
                       "reward_kind": "bernoulli"},
        "schedule": "sequential",
        "algorithms": ["individual-ts", "pooled-ts"],
        "seeds": [4, 0, 7, 2]},
}


def _oracle_curves(rows, names):
    """(algorithm, view) -> (index, mean, se) from the concatenating
    aggregation, mtr_ views paired on common seeds, as compute_curves
    lays them out."""
    series = {(name, view): ledger_series_oracle(rows, name, view)
              for name in names for view in VIEWS}
    matrices = {key: (index, matrix)
                for key, (_, index, matrix) in series.items()}
    for name in names:
        if name == ORACLE_NAME:
            continue
        for view in VIEWS:
            seeds_a, index, mat_a = series[(name, view)]
            seeds_o, _, mat_o = series[(ORACLE_NAME, view)]
            _, rows_a, rows_o = np.intersect1d(seeds_a, seeds_o,
                                               return_indices=True)
            matrices[(name, "mtr_" + view)] = (index,
                                               mat_a[rows_a] - mat_o[rows_o])
    return {key: (index, matrix.mean(axis=0),
                  matrix.std(axis=0, ddof=1) / np.sqrt(matrix.shape[0]))
            for key, (index, matrix) in matrices.items()}


def _assert_matches_concatenating_oracle(ledger, config):
    """compute_curves (both views and mtr_) and the per-seed totals behind
    summary.csv, bit-equal to the concatenating aggregation over the
    ledger's rows in insertion order."""
    rows = list(ledger.rows())
    names = [a.name for a in config.run_specs()]
    want = _oracle_curves(rows, names)
    got = compute_curves(ledger, config)
    assert sorted(got) == sorted(want)
    for key, (index, mean, se) in want.items():
        for a, b in zip((got[key].index, got[key].mean, got[key].se),
                        (index, mean, se)):
            assert a.dtype == b.dtype and np.array_equal(a, b), key
    for name in names:
        totals = cumulative_regret_by_seed(ledger, name)
        want_totals = seed_totals_oracle(rows, name)
        assert list(totals.items()) == list(want_totals.items()), name


@pytest.mark.parametrize("case", sorted(_ENGINE_CONFIGS))
def test_run_by_run_aggregation_matches_concatenating_oracle(case):
    config = ExperimentConfig.from_dict(_ENGINE_CONFIGS[case])
    _assert_matches_concatenating_oracle(simulate_ledger(config), config)


def _synthetic_run(rng, n_tasks=200, horizon=200):
    """Concurrent-order columns of one run of n_tasks x horizon rows."""
    n = n_tasks * horizon
    return (np.tile(np.arange(n_tasks), horizon),
            np.repeat(np.arange(1, horizon + 1), n_tasks),
            rng.integers(8, size=n), rng.standard_normal(n),
            rng.uniform(size=n))


def test_curves_and_summary_memory_does_not_grow_with_runs(tmp_path):
    # Runs of 40k rows (200 tasks x 200 rounds, the largest run of any
    # shipped config or benchmark workload), two policies with the mtr_
    # views, at 2 and 6 seeds (3x the runs).  Aggregating one seed's run at
    # a time, curves and summary peak at about 2.3 MB either way; the
    # concatenating aggregation peaked at 8.4 and 25.2 MB.
    peaks = []
    for n_seeds in (2, 6):
        config = ExperimentConfig.from_dict({
            "population": {"n_tasks": 200, "horizon": 200, "n_arms": 8,
                           "dim": 15},
            "schedule": "concurrent", "algorithms": ["individual-ts"],
            "seeds": n_seeds})
        ledger = RegretLedger()
        rng = np.random.default_rng(n_seeds)
        for algorithm in config.run_specs():
            for seed in config.seeds:
                ledger.extend_run(algorithm.name, seed, *_synthetic_run(rng))
        tracemalloc.start()
        try:
            compute_curves(ledger, config)
            write_summary_csv(ledger, config,
                              os.path.join(str(tmp_path), "summary.csv"))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 3_500_000, peaks
    assert peaks[1] < 1.1 * peaks[0], peaks
