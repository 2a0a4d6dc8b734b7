"""Regret accounting: per-interaction ledger and aggregated curves.

Instantaneous regret of pulling arm a on task i is
max_a' r_{i,a'} - r_{i,a}, measured against the true arm means (never the
noisy reward).  Bayes regret aggregates it over tasks, rounds, and seeds;
the multi-task adjusted curve subtracts the oracle reference seed by seed so
shared population and reward noise cancel.

Two aggregation views:
  per_round_concurrent:  index = round (1-based); per seed the mean of the
                         round's instantaneous regret over tasks.
  per_task_sequential:   index = task position (1-based); per seed the sum
                         of the task's instantaneous regret over its rounds.
Curves report the across-seed mean and standard error at each index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TaskInstance
from .errors import ConfigError

VIEWS = ("per_round_concurrent", "per_task_sequential")
ORACLE_NAME = "oracle-ts"


def instantaneous_regret(task: TaskInstance, arm: int) -> float:
    means = task.true_means
    return float(means.max() - means[arm])


class RegretLedger:
    """Columnar store of every interaction of every (algorithm, seed) run.

    Columns: algorithm, seed, task_id, round (1-based within task), arm,
    reward, inst_regret.  Rows are kept in insertion order, which for runs
    appended via extend_run is the schedule order.
    """

    COLUMNS = ("algorithm", "seed", "task_id", "round", "arm", "reward",
               "inst_regret")

    def __init__(self):
        self._algorithm: list[str] = []
        self._seed: list[int] = []
        self._task_id: list[int] = []
        self._round: list[int] = []
        self._arm: list[int] = []
        self._reward: list[float] = []
        self._inst_regret: list[float] = []

    def __len__(self) -> int:
        return len(self._algorithm)

    def add(self, algorithm: str, seed: int, task_id: int, round_within: int,
            arm: int, reward: float, inst_regret: float) -> None:
        self._algorithm.append(algorithm)
        self._seed.append(int(seed))
        self._task_id.append(int(task_id))
        self._round.append(int(round_within))
        self._arm.append(int(arm))
        self._reward.append(float(reward))
        self._inst_regret.append(float(inst_regret))

    def extend_run(self, algorithm: str, seed: int, task_ids, rounds, arms,
                   rewards, inst_regrets) -> None:
        n = len(task_ids)
        if not (len(rounds) == len(arms) == len(rewards) == len(inst_regrets) == n):
            raise ConfigError("ledger run columns must have equal length")
        self._algorithm.extend([algorithm] * n)
        self._seed.extend([int(seed)] * n)
        self._task_id.extend(int(t) for t in task_ids)
        self._round.extend(int(r) for r in rounds)
        self._arm.extend(int(a) for a in arms)
        self._reward.extend(float(r) for r in rewards)
        self._inst_regret.extend(float(g) for g in inst_regrets)

    def algorithms(self) -> tuple[str, ...]:
        seen: list[str] = []
        for a in self._algorithm:
            if a not in seen:
                seen.append(a)
        return tuple(seen)

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "algorithm": np.array(self._algorithm, dtype=object),
            "seed": np.array(self._seed, dtype=np.int64),
            "task_id": np.array(self._task_id, dtype=np.int64),
            "round": np.array(self._round, dtype=np.int64),
            "arm": np.array(self._arm, dtype=np.int64),
            "reward": np.array(self._reward, dtype=float),
            "inst_regret": np.array(self._inst_regret, dtype=float),
        }

    def rows(self):
        """Row tuples in insertion order (CSV writing)."""
        return zip(self._algorithm, self._seed, self._task_id, self._round,
                   self._arm, self._reward, self._inst_regret)


@dataclass(frozen=True)
class Curve:
    """Across-seed summary of a per-seed series."""

    index: np.ndarray
    mean: np.ndarray
    se: np.ndarray
    n_seeds: int

    def cumulative(self) -> np.ndarray:
        return np.cumsum(self.mean)


def _per_seed_series(ledger: RegretLedger, algorithm: str, view: str
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(seeds, index, matrix): one matrix row per seed, in ascending seed
    order, and one column per index point."""
    if view not in VIEWS:
        raise ConfigError("view must be one of %s" % (VIEWS,))
    cols = ledger.columns()
    mask = cols["algorithm"] == algorithm
    if not mask.any():
        raise ConfigError("no ledger rows for algorithm %r" % algorithm)
    seeds, rows = np.unique(cols["seed"][mask], return_inverse=True)
    if seeds.shape[0] < 2:
        raise ConfigError(
            "curves need at least 2 seeds, got %d for %r"
            % (seeds.shape[0], algorithm))
    if view == "per_round_concurrent":
        key = cols["round"][mask]
    else:
        key = cols["task_id"][mask] + 1  # 1-based task position
    index, cols_ix = np.unique(key, return_inverse=True)
    matrix = np.zeros((seeds.shape[0], index.shape[0]))
    counts = np.zeros_like(matrix)
    np.add.at(matrix, (rows, cols_ix), cols["inst_regret"][mask])
    np.add.at(counts, (rows, cols_ix), 1.0)
    if view == "per_round_concurrent":
        if np.any(counts == 0):
            raise ConfigError("missing (seed, round) cells for %r" % algorithm)
        matrix = matrix / counts
    return seeds, index, matrix


def _summarize(index: np.ndarray, matrix: np.ndarray) -> Curve:
    n_seeds = matrix.shape[0]
    mean = matrix.mean(axis=0)
    se = matrix.std(axis=0, ddof=1) / np.sqrt(n_seeds)
    return Curve(index=index, mean=mean, se=se, n_seeds=n_seeds)


def bayes_regret_curve(ledger: RegretLedger, algorithm: str, view: str) -> Curve:
    """Across-seed regret curve for one algorithm under the given view."""
    _, index, matrix = _per_seed_series(ledger, algorithm, view)
    return _summarize(index, matrix)


def multi_task_regret_curve(ledger: RegretLedger, algorithm: str,
                            view: str = "per_task_sequential",
                            oracle_name: str = ORACLE_NAME) -> Curve:
    """Oracle-adjusted regret: the per-seed difference between the
    algorithm's series and the oracle reference's, summarized across the
    seeds the two have in common (paired; shared noise cancels)."""
    seeds_a, idx_a, mat_a = _per_seed_series(ledger, algorithm, view)
    seeds_o, idx_o, mat_o = _per_seed_series(ledger, oracle_name, view)
    if idx_a.shape != idx_o.shape or np.any(idx_a != idx_o):
        raise ConfigError("algorithm and oracle cover different index sets")
    common, rows_a, rows_o = np.intersect1d(seeds_a, seeds_o,
                                            return_indices=True)
    if common.shape[0] < 2:
        raise ConfigError("paired curves need >= 2 common seeds")
    return _summarize(idx_a, mat_a[rows_a] - mat_o[rows_o])


def cumulative_regret_by_seed(ledger: RegretLedger, algorithm: str) -> dict[int, float]:
    """Total regret per seed (paired comparisons across algorithms)."""
    cols = ledger.columns()
    mask = cols["algorithm"] == algorithm
    if not mask.any():
        raise ConfigError("no ledger rows for algorithm %r" % algorithm)
    out: dict[int, float] = {}
    for s in sorted(set(cols["seed"][mask].tolist())):
        out[int(s)] = float(cols["inst_regret"][mask & (cols["seed"] == s)].sum())
    return out


def paired_t_statistic(diffs: np.ndarray) -> tuple[float, float]:
    """(t, one-sided p) for H0: mean(diffs) >= 0 vs mean < 0, via the
    Student t distribution with len(diffs) - 1 degrees of freedom."""
    from scipy import stats

    diffs = np.asarray(diffs, dtype=float)
    n = diffs.shape[0]
    if n < 2:
        raise ConfigError("paired t-test needs >= 2 differences")
    sd = diffs.std(ddof=1)
    if sd == 0.0:
        t = -np.inf if diffs.mean() < 0 else np.inf
        return float(t), 0.0 if diffs.mean() < 0 else 1.0
    t = diffs.mean() / (sd / np.sqrt(n))
    p = float(stats.t.cdf(t, df=n - 1))
    return float(t), p


def verify_replay(ledger: RegretLedger, population_for_seed, reward_for) -> None:
    """Consistency check: every ledger reward must equal the deterministic
    reward table entry for its (seed, task, round, arm), and every
    inst_regret must match the population's true means.  population_for_seed
    maps seed -> Population, reward_for maps (seed, task, round, arm) ->
    float."""
    for alg, seed, task_id, rnd, arm, reward, gap in ledger.rows():
        pop = population_for_seed(seed)
        expected = reward_for(seed, task_id, rnd, arm)
        if reward != expected:
            raise ConfigError(
                "ledger reward mismatch at (%s, seed %d, task %d, round %d)"
                % (alg, seed, task_id, rnd))
        want = instantaneous_regret(pop.tasks[task_id], arm)
        if abs(gap - want) > 1e-12:
            raise ConfigError(
                "ledger regret mismatch at (%s, seed %d, task %d, round %d)"
                % (alg, seed, task_id, rnd))
