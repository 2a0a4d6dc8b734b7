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

A curve is built in two steps.  A CellFold reduces one run's rows to its
index cells (np.add.at over the cells in row order), one block of rows at
a time; series_from_cells assembles the cells of an algorithm's seeds, in
ascending seed order, into the seed x index matrix.  run_total is one
run's total regret.  The streamed experiment (bench.run_experiment) folds
each block of a run as it is played.  The ledger holds exactly one block
of numpy columns per (algorithm, seed) run and refuses a second, and its
curves and totals fold one run's block at a time (seed_cells over
RegretLedger.seed_runs), so the streamed and the ledger-built artifacts
have the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby, repeat
from operator import itemgetter

import numpy as np

from . import core
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
    reward, inst_regret.  The store holds exactly one block per run, keyed
    by (algorithm, seed) in insertion order: one numpy array per remaining
    column.  extend_run stores one run's block; add buffers single rows and,
    on the next read, folds each stretch of consecutive rows with the same
    (algorithm, seed) into one block.  A run the ledger already holds a
    block for is refused with ConfigError, whether by a second extend_run or
    by add-ed rows that reappear after other rows (or after a read), so each
    run's rows are contiguous, in the order they were given.  A refused fold
    stores none of its stretches and keeps every buffered row.  A block keeps
    the arrays it is given when they already have its dtypes, so the runs
    of one seed share the schedule's read-only task_id and round columns.
    rows() converts at most core.ROW_CHUNK rows to Python objects at a time.
    """

    COLUMNS = ("algorithm", "seed", "task_id", "round", "arm", "reward",
               "inst_regret")
    _DTYPES = (np.int64, np.int64, np.int64, float, float)

    def __init__(self):
        self._runs: dict[tuple[str, int], tuple[np.ndarray, ...]] = {}
        self._pending: list[tuple] = []

    def __len__(self) -> int:
        return sum(cols[0].shape[0] for cols in self._read().values())

    def add(self, algorithm: str, seed: int, task_id: int, round_within: int,
            arm: int, reward: float, inst_regret: float) -> None:
        self._pending.append((algorithm, seed, task_id, round_within, arm,
                              reward, inst_regret))

    def extend_run(self, algorithm: str, seed: int, task_ids, rounds, arms,
                   rewards, inst_regrets) -> None:
        self._read()  # rows buffered by add keep their place before this run
        self._store([((algorithm, seed),
                      (task_ids, rounds, arms, rewards, inst_regrets))])

    def _store(self, runs) -> None:
        """Store runs, ((algorithm, seed), columns) pairs, all or none:
        every key is checked against the stored runs and the other runs, and
        every block is built, before any is stored."""
        blocks = {}
        for (algorithm, seed), columns in runs:
            key = (algorithm, int(seed))
            if key in self._runs or key in blocks:
                raise ConfigError("ledger already holds the run of "
                                  "(%s, seed %d)" % key)
            # astype(copy=False), not asarray(dtype=): an array unpickled
            # from a worker carries an equal but distinct dtype object, which
            # asarray copies over
            cols = tuple(np.asarray(c).astype(t, copy=False)
                         for c, t in zip(columns, self._DTYPES))
            n = cols[0].shape[0]
            if any(c.shape != (n,) for c in cols):
                raise ConfigError("ledger run columns must have equal length")
            if n:
                blocks[key] = cols
        self._runs.update(blocks)

    def _read(self) -> dict[tuple[str, int], tuple[np.ndarray, ...]]:
        """The runs' blocks, after folding the rows buffered by add.  A
        refused fold leaves the ledger as it was, its rows still buffered."""
        if self._pending:
            self._store((key, list(zip(*rows))[2:]) for key, rows
                        in groupby(self._pending, itemgetter(0, 1)))
            self._pending = []
        return self._runs

    def algorithms(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(alg for alg, _ in self._read()))

    def seed_runs(self, algorithm: str):
        """(seed, (task_id, round, arm, reward, inst_regret)) for each run
        of one algorithm, in ascending seed order, the run's block as
        stored.  Yields one seed at a time."""
        seeds = sorted(seed for alg, seed in self._read() if alg == algorithm)
        if not seeds:
            raise ConfigError("no ledger rows for algorithm %r" % algorithm)
        for seed in seeds:
            yield seed, self._runs[algorithm, seed]

    def runs(self):
        """((algorithm, seed), (task_id, round, arm, reward, inst_regret))
        for each run in insertion order, the run's block as stored."""
        return self._read().items()

    def rows(self):
        """Row tuples (algorithm, seed, task_id, round, arm, reward,
        inst_regret) in insertion order, converted at most core.ROW_CHUNK
        rows at a time, so a caller that streams them holds one chunk's rows
        as Python objects whatever the number of rows."""
        chunk = core.ROW_CHUNK
        for (algorithm, seed), cols in self.runs():
            for start in range(0, cols[0].shape[0], chunk):
                yield from zip(repeat(algorithm), repeat(seed),
                               *(c[start:start + chunk].tolist()
                                 for c in cols))


@dataclass(frozen=True)
class Curve:
    """Across-seed summary of a per-seed series."""

    index: np.ndarray
    mean: np.ndarray
    se: np.ndarray
    n_seeds: int

    def cumulative(self) -> np.ndarray:
        return np.cumsum(self.mean)


def _keys(cols, view: str) -> np.ndarray:
    """Each row's index key under view: the round, or the 1-based task
    position."""
    return cols[1] if view == VIEWS[0] else cols[0] + 1


class CellFold:
    """One view's cells of a run, folded one block of its rows at a time:
    for each key below size, the regret summed from 0.0 in row order with
    np.add.at, and the row count.  The keys are the rounds, or the 1-based
    task positions.  A run folded in blocks has the bits of the run folded
    whole."""

    def __init__(self, view: str, size: int):
        if view not in VIEWS:
            raise ConfigError("view must be one of %s" % (VIEWS,))
        self.view = view
        self.sums = np.zeros(size)
        self.counts = np.zeros(size, dtype=np.int64)

    def fold(self, cols) -> None:
        """Add a block's columns (task_id, round, arm, reward, inst_regret)."""
        keys = _keys(cols, self.view)
        self.counts += np.bincount(keys, minlength=self.counts.shape[0])
        np.add.at(self.sums, keys, cols[4])

    def cells(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The keys seen, in ascending order, with their sums and counts."""
        keys = np.flatnonzero(self.counts)
        return keys, self.sums[keys], self.counts[keys]


def seed_cells(cols, view: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One seed's cells of a view from its run's columns (task_id, round,
    arm, reward, inst_regret): the index keys, each key's regret summed from
    0.0 in row order, and each key's row count, by one CellFold.  A
    negative index is a ConfigError."""
    keys = _keys(cols, view)
    if keys.size and keys.min() < 0:
        raise ConfigError("%s index %d is negative" % (view, keys.min()))
    fold = CellFold(view, int(keys.max()) + 1 if keys.size else 0)
    fold.fold(cols)
    return fold.cells()


def series_from_cells(cells: dict, algorithm: str, view: str
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(seeds, index, matrix) from seed -> seed_cells: one matrix row per
    seed, in ascending seed order, and one column per index point.  Every
    seed must cover the same index set."""
    if len(cells) < 2:
        raise ConfigError("curves need at least 2 seeds, got %d for %r"
                          % (len(cells), algorithm))
    seeds = sorted(cells)
    index = cells[seeds[0]][0]
    if any(not np.array_equal(cells[s][0], index) for s in seeds):
        raise ConfigError("seeds of %r cover different index sets"
                          % algorithm)
    matrix = np.stack([cells[s][1] for s in seeds])
    if view == VIEWS[0]:
        matrix = matrix / np.stack([cells[s][2] for s in seeds])
    return np.array(seeds, dtype=np.int64), index, matrix


def per_seed_series(ledger: RegretLedger, algorithm: str, view: str
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """series_from_cells over the ledger's runs of one algorithm, each
    seed's cells summed over its run's one block in row order."""
    return series_from_cells({seed: seed_cells(cols, view) for seed, cols
                              in ledger.seed_runs(algorithm)},
                             algorithm, view)


def summarize(series: tuple[np.ndarray, np.ndarray, np.ndarray]) -> Curve:
    """The across-seed curve of a (seeds, index, matrix) series."""
    _, index, matrix = series
    n_seeds = matrix.shape[0]
    mean = matrix.mean(axis=0)
    se = matrix.std(axis=0, ddof=1) / np.sqrt(n_seeds)
    return Curve(index=index, mean=mean, se=se, n_seeds=n_seeds)


def paired_curve(series: tuple[np.ndarray, np.ndarray, np.ndarray],
                 oracle: tuple[np.ndarray, np.ndarray, np.ndarray]) -> Curve:
    """The curve of the per-seed difference between an algorithm's series
    and the oracle reference's, over the seeds the two have in common."""
    (seeds_a, idx_a, mat_a), (seeds_o, idx_o, mat_o) = series, oracle
    if idx_a.shape != idx_o.shape or np.any(idx_a != idx_o):
        raise ConfigError("algorithm and oracle cover different index sets")
    common, rows_a, rows_o = np.intersect1d(seeds_a, seeds_o,
                                            return_indices=True)
    if common.shape[0] < 2:
        raise ConfigError("paired curves need >= 2 common seeds")
    return summarize((common, idx_a, mat_a[rows_a] - mat_o[rows_o]))


def bayes_regret_curve(ledger: RegretLedger, algorithm: str, view: str) -> Curve:
    """Across-seed regret curve for one algorithm under the given view."""
    return summarize(per_seed_series(ledger, algorithm, view))


def multi_task_regret_curve(ledger: RegretLedger, algorithm: str,
                            view: str = "per_task_sequential",
                            oracle_name: str = ORACLE_NAME) -> Curve:
    """Oracle-adjusted regret: the per-seed difference between the
    algorithm's series and the oracle reference's, summarized across the
    seeds the two have in common (paired; shared noise cancels)."""
    return paired_curve(per_seed_series(ledger, algorithm, view),
                        per_seed_series(ledger, oracle_name, view))


def run_total(regrets) -> float:
    """Total regret of one run from its inst_regret column, summed whole
    (numpy's pairwise sum, whose bits depend on the whole column)."""
    return float(regrets.sum())


def cumulative_regret_by_seed(ledger: RegretLedger, algorithm: str) -> dict[int, float]:
    """Total regret per seed (paired comparisons across algorithms), in
    ascending seed order."""
    return {seed: run_total(cols[4])
            for seed, cols in ledger.seed_runs(algorithm)}


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
