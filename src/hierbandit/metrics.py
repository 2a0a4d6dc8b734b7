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

The ledger holds one block of numpy columns per (algorithm, seed) run.
Curves and per-seed totals aggregate one algorithm's rows in insertion order
(np.add.at into a seed x index matrix, a boolean-mask sum per seed), the one
path for whole runs and for the partial or shuffled ledgers add builds.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby, repeat
from operator import itemgetter

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
    reward, inst_regret.  The store is a list of blocks, one per run: the
    run's algorithm and seed and one numpy array per remaining column.
    extend_run appends one block; add buffers single rows and, on the next
    read, folds each stretch of consecutive rows with the same (algorithm,
    seed) into one block.  Rows are kept in insertion order, which for runs
    appended via extend_run is the schedule order.
    """

    COLUMNS = ("algorithm", "seed", "task_id", "round", "arm", "reward",
               "inst_regret")
    _DTYPES = (np.int64, np.int64, np.int64, float, float)

    def __init__(self):
        self._blocks: list[tuple[str, int, tuple[np.ndarray, ...]]] = []
        self._pending: list[tuple] = []

    def __len__(self) -> int:
        return sum(cols[0].shape[0] for _, _, cols in self._read())

    def add(self, algorithm: str, seed: int, task_id: int, round_within: int,
            arm: int, reward: float, inst_regret: float) -> None:
        self._pending.append((algorithm, seed, task_id, round_within, arm,
                              reward, inst_regret))

    def extend_run(self, algorithm: str, seed: int, task_ids, rounds, arms,
                   rewards, inst_regrets) -> None:
        self._read()  # rows buffered by add keep their place before this run
        self._append(algorithm, seed,
                     (task_ids, rounds, arms, rewards, inst_regrets))

    def _append(self, algorithm: str, seed: int, columns) -> None:
        cols = tuple(np.asarray(c, dtype=t)
                     for c, t in zip(columns, self._DTYPES))
        n = cols[0].shape[0]
        if any(c.shape != (n,) for c in cols):
            raise ConfigError("ledger run columns must have equal length")
        if n:
            self._blocks.append((algorithm, int(seed), cols))

    def _read(self) -> list[tuple[str, int, tuple[np.ndarray, ...]]]:
        """The blocks, after folding the rows buffered by add."""
        if self._pending:
            pending, self._pending = self._pending, []
            for (algorithm, seed), rows in groupby(pending, itemgetter(0, 1)):
                self._append(algorithm, seed, list(zip(*rows))[2:])
        return self._blocks

    def algorithms(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(alg for alg, _, _ in self._read()))

    def columns(self, algorithm: str) -> dict[str, np.ndarray]:
        """seed, task_id, round, arm, reward and inst_regret of one
        algorithm's rows, in insertion order."""
        blocks = [(seed, cols) for alg, seed, cols in self._read()
                  if alg == algorithm]
        if not blocks:
            raise ConfigError("no ledger rows for algorithm %r" % algorithm)
        out = {"seed": np.concatenate([np.full(cols[0].shape[0], seed)
                                       for seed, cols in blocks])}
        for j, name in enumerate(self.COLUMNS[2:]):
            out[name] = np.concatenate([cols[j] for _, cols in blocks])
        return out

    def rows(self):
        """Row tuples in insertion order (CSV writing), converted one block
        (one run) at a time, so a caller that streams them holds one block's
        rows as Python objects whatever the number of blocks."""
        for algorithm, seed, cols in self._read():
            yield from zip(repeat(algorithm), repeat(seed),
                           *(c.tolist() for c in cols))


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
    cols = ledger.columns(algorithm)
    seeds, rows = np.unique(cols["seed"], return_inverse=True)
    if seeds.shape[0] < 2:
        raise ConfigError(
            "curves need at least 2 seeds, got %d for %r"
            % (seeds.shape[0], algorithm))
    if view == "per_round_concurrent":
        key = cols["round"]
    else:
        key = cols["task_id"] + 1  # 1-based task position
    index, cols_ix = np.unique(key, return_inverse=True)
    matrix = np.zeros((seeds.shape[0], index.shape[0]))
    counts = np.zeros_like(matrix)
    np.add.at(matrix, (rows, cols_ix), cols["inst_regret"])
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
    cols = ledger.columns(algorithm)
    seeds, regret = cols["seed"], cols["inst_regret"]
    return {int(s): float(regret[seeds == s].sum()) for s in np.unique(seeds)}


def verify_replay(ledger: RegretLedger, population_for_seed, reward_for) -> None:
    """Consistency check: every ledger reward must equal the deterministic
    reward table entry for its (seed, task, round, arm), and every
    inst_regret must match the population's true means; a task id or arm
    outside the population fails too.  population_for_seed maps seed ->
    Population, reward_for maps (seed, task, round, arm) -> float."""
    for alg, seed, task_id, rnd, arm, reward, gap in ledger.rows():
        pop = population_for_seed(seed)
        if not (0 <= task_id < len(pop.tasks)
                and 0 <= arm < len(pop.tasks[task_id].true_means)):
            raise ConfigError(
                "ledger task %d, arm %d out of range at (%s, seed %d, "
                "round %d)" % (task_id, arm, alg, seed, rnd))
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
