"""Benchmark harness: config-driven regret experiments with full artifacts.

A YAML config describes one experiment: a population family, an interaction
schedule, a list of algorithms, and the seeds to run.  run_experiment plays
every (algorithm, seed) pair against common populations and common reward
noise, then writes to the output directory:

    ledger.csv     every interaction
                   (algorithm, seed, task_id, round, arm, reward, inst_regret)
    curves.csv     aggregated curves (algorithm, view, index, mean, se)
    summary.csv    cumulative regret and ratios per algorithm
    manifest.json  normalized config + seeds + versions; rerunning from the
                   manifest reproduces ledger.csv byte for byte
    *.svg          regret curves per view (when plots is enabled)

Each file is streamed to a temp file in the output directory and renamed
into place, and none contains anything time- or host-dependent.  The run
streams seed by seed: each seed's runs' ledger rows go to spill files in
the output directory, formatted by a forked writer process in a serial run
(one of at least _WRITER_MIN_ROWS rows), to which the blocks cross one pipe
as pickles, and by each pool worker in a parallel one, and are joined into
ledger.csv once every seed is done.
"""

from __future__ import annotations

import fcntl
import json
import os
import pickle
import shutil
import struct
from contextlib import ExitStack, contextmanager, nullcontext
from dataclasses import dataclass, fields
from functools import partial
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np
import yaml

from . import core
from ._version import __version__
from .agents import AgentContext, Policy, check_algorithm, make_policy
from .core import check_count, check_flag
from .envs import (InteractionSchedule, Population, PopulationSpec,
                   RewardTable, agent_rng, atomic_file, atomic_write_text,
                   generate_population, make_schedule)
from .errors import ConfigError
from .metrics import (ORACLE_NAME, VIEWS, CellFold, Curve, RegretLedger,
                      cumulative_regret_by_seed, paired_curve,
                      per_seed_series, run_total, series_from_cells,
                      summarize)
from .priors import derive_baseline_priors
from .svgplot import Series, write_line_plot

SCHEMA_VERSION = 1
OUTPUT_ENV_VAR = "HIERBANDIT_OUT"
DEFAULT_OUTPUT_DIR = "out"

_POPULATION_KEYS = frozenset(
    f.name for f in fields(PopulationSpec) if f.name != "seed")
_TOP_KEYS = frozenset({
    "population", "schedule", "algorithms", "seeds", "emit_mtr", "plots",
    "parallelism", "output_dir"})
_ALGORITHM_KEYS = frozenset({"name", "options", "label"})
_MANIFEST_KEYS = frozenset({"schema_version", "package_version", "config",
                            "seeds"})


def _require_mapping(obj, context: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError("%s must be a mapping, got %s"
                          % (context, type(obj).__name__))
    return obj


def _check_keys(mapping: dict, allowed: frozenset, context: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError("unknown %s key(s): %s (allowed: %s)"
                          % (context, ", ".join(sorted(map(str, unknown))),
                             ", ".join(sorted(allowed))))


@dataclass(frozen=True)
class AlgorithmSpec:
    """One algorithm entry: registry name, options, display label."""

    name: str
    options: tuple[tuple[str, object], ...] = ()
    label: str | None = None

    @property
    def display(self) -> str:
        return self.label if self.label else self.name

    def options_dict(self) -> dict:
        return dict(self.options)

    @classmethod
    def from_entry(cls, entry) -> "AlgorithmSpec":
        if isinstance(entry, str):
            return cls(name=entry)
        entry = _require_mapping(entry, "algorithm entry")
        _check_keys(entry, _ALGORITHM_KEYS, "algorithm entry")
        if "name" not in entry:
            raise ConfigError("algorithm entry needs a name")
        options = entry.get("options") or {}
        options = _require_mapping(options, "algorithm options")
        label = entry.get("label")
        if label is not None and not isinstance(label, str):
            raise ConfigError("algorithm label must be a string")
        return cls(name=str(entry["name"]),
                   options=tuple(sorted(options.items())),
                   label=label)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description (independent of any one seed)."""

    population: tuple[tuple[str, object], ...]
    schedule_kind: str
    algorithms: tuple[AlgorithmSpec, ...]
    seeds: tuple[int, ...]
    emit_mtr: bool = True
    plots: bool = False
    parallelism: int = 1
    output_dir: str | None = None

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        raw = _require_mapping(raw, "experiment config")
        _check_keys(raw, _TOP_KEYS, "experiment config")
        for key in ("population", "schedule", "algorithms", "seeds"):
            if key not in raw:
                raise ConfigError("experiment config needs %r" % key)

        pop = _require_mapping(raw["population"], "population section")
        _check_keys(pop, _POPULATION_KEYS, "population section")
        try:
            reward_kind = PopulationSpec(seed=0, **pop).reward_kind
        except TypeError as exc:
            raise ConfigError("bad population section: %s" % exc) from None

        kind = raw["schedule"]
        if kind not in ("sequential", "concurrent"):
            raise ConfigError(
                "schedule must be 'sequential' or 'concurrent', got %r" % kind)

        entries = raw["algorithms"]
        if not isinstance(entries, (list, tuple)) or not entries:
            raise ConfigError("algorithms must be a non-empty list")
        algorithms = tuple(AlgorithmSpec.from_entry(e) for e in entries)
        names = [a.name for a in algorithms]
        if len(set(names)) != len(names):
            raise ConfigError("algorithm names must be unique; got %s" % names)
        for a in algorithms:
            check_algorithm(reward_kind, a.name, a.options_dict(), kind)

        seeds_raw = raw["seeds"]
        if isinstance(seeds_raw, int) and not isinstance(seeds_raw, bool):
            seeds_raw = range(seeds_raw)
        if not isinstance(seeds_raw, (list, tuple, range)):
            raise ConfigError("seeds must be an int or a list of ints")
        seeds = tuple(int(check_count("seed", s, 0)) for s in seeds_raw)
        if len(seeds) < 2:
            raise ConfigError("need at least 2 seeds for curve output")
        if len(set(seeds)) != len(seeds):
            raise ConfigError("seeds must be distinct")

        parallelism = check_count("parallelism", raw.get("parallelism", 1), 1)
        emit_mtr = check_flag("emit_mtr", raw.get("emit_mtr", True))
        plots = check_flag("plots", raw.get("plots", False))
        output_dir = raw.get("output_dir")
        if output_dir is not None and not isinstance(output_dir, str):
            raise ConfigError("output_dir must be a string")
        return cls(population=tuple(sorted(pop.items())),
                   schedule_kind=kind, algorithms=algorithms, seeds=seeds,
                   emit_mtr=emit_mtr, plots=plots, parallelism=parallelism,
                   output_dir=output_dir)

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = yaml.safe_load(fh)
            except yaml.YAMLError as exc:  # its message spans several lines
                raise ConfigError("config file %s is not valid YAML: %s" % (
                    path, " ".join(str(exc).split()))) from None
        raw = _require_mapping(raw, "config file %s" % path)
        if "config" in raw and "schema_version" in raw:
            # A manifest written by a previous run; its seeds are a list.
            _check_keys(raw, _MANIFEST_KEYS, "manifest")
            config = _require_mapping(raw["config"], "manifest config")
            if not isinstance(raw.get("seeds"), list):
                raise ConfigError("manifest seeds must be a list of ints")
            return cls.from_dict({**config, "seeds": raw["seeds"]})
        return cls.from_dict(raw)

    def population_dict(self) -> dict:
        return dict(self.population)

    def spec_for_seed(self, seed: int) -> PopulationSpec:
        return PopulationSpec(seed=int(seed), **self.population_dict())

    def run_specs(self) -> tuple[AlgorithmSpec, ...]:
        """Algorithms to simulate: configured ones plus the oracle reference
        when adjusted curves are requested and it is not already listed."""
        algorithms = list(self.algorithms)
        if self.emit_mtr and all(a.name != ORACLE_NAME for a in algorithms):
            algorithms.append(AlgorithmSpec(name=ORACLE_NAME))
        return tuple(algorithms)

    def to_manifest_dict(self) -> dict:
        config = {
            "population": self.population_dict(),
            "schedule": self.schedule_kind,
            "algorithms": [
                {"name": a.name, "options": a.options_dict(),
                 "label": a.display}
                for a in self.algorithms],
            "seeds": list(self.seeds),
            "emit_mtr": self.emit_mtr,
            "plots": self.plots,
            "parallelism": self.parallelism,
            "output_dir": self.output_dir,
        }
        return {"schema_version": SCHEMA_VERSION,
                "package_version": __version__,
                "config": config,
                "seeds": list(self.seeds)}


def resolve_output_dir(explicit: str | None, config: ExperimentConfig) -> str:
    """--out flag beats the HIERBANDIT_OUT variable beats the config's
    output_dir beats ./out."""
    if explicit:
        return explicit
    env = os.environ.get(OUTPUT_ENV_VAR)
    if env:
        return env
    if config.output_dir:
        return config.output_dir
    return DEFAULT_OUTPUT_DIR


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def play_blocks(population: Population, table: RewardTable, policy: Policy,
                schedule: InteractionSchedule):
    """Drive one policy through one schedule, yielding the ledger columns
    (task_ids, rounds, arms, rewards, inst_regrets) in interaction order,
    in consecutive blocks of at most core.ROW_CHUNK rows.  The schedule is
    played one segment at a time: each round of a concurrent schedule, then
    end_of_round; each task of a sequential one, then end_of_task; the
    whole stream of a custom one, with no hook.  This is the one place that
    bounds work: each segment is cut into pieces of at most core.ROW_CHUNK
    rows, a piece's payoff rows are read once, by table.arm_rewards,
    policy.play plays it, and each reward is gathered from its row at the
    arm play returned.  The hook fires after the segment's last piece.  A
    block is whole pieces, so it ends where the next piece would not fit;
    its task_ids and rounds are views of the schedule's read-only columns."""
    task_ids, rounds = schedule.columns()
    n = task_ids.shape[0]
    if schedule.kind == "concurrent":
        size, hook = schedule.n_tasks, lambda tid: policy.end_of_round()
    elif schedule.kind == "sequential":
        size, hook = schedule.horizon, policy.end_of_task
    else:
        size, hook = n, lambda tid: None
    chunk = core.ROW_CHUNK
    block = 0  # the first row of the block being filled
    arms = np.empty(chunk, dtype=np.int64)
    rewards = np.empty(chunk)

    def filled(hi):
        ids = task_ids[block:hi]
        played = arms[:hi - block]
        return (ids, rounds[block:hi], played, rewards[:hi - block],
                population.best_means[ids] - population.means[ids, played])

    for start in range(0, n, size or 1):
        end = start + size
        for lo in range(start, end, chunk):
            hi = min(lo + chunk, end)
            if hi - block > chunk:
                yield filled(lo)
                block = lo
                arms = np.empty(chunk, dtype=np.int64)
                rewards = np.empty(chunk)
            ids = task_ids[lo:hi]
            payoffs = table.arm_rewards(ids, rounds[lo:hi])
            played = arms[lo - block:hi - block]
            played[:] = policy.play(ids, payoffs)
            rewards[lo - block:hi - block] = payoffs[np.arange(hi - lo),
                                                     played]
        hook(int(task_ids[end - 1]))
    if n:
        yield filled(n)


def simulate_run(population: Population, table: RewardTable, policy: Policy,
                 schedule: InteractionSchedule
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                            np.ndarray]:
    """The whole of one run: play_blocks' columns joined, with the
    schedule's own read-only task_ids and rounds."""
    task_ids, rounds = schedule.columns()
    n = task_ids.shape[0]
    arms = np.empty(n, dtype=np.int64)
    rewards = np.empty(n)
    gaps = np.empty(n)
    lo = 0
    for _, _, *cols in play_blocks(population, table, policy, schedule):
        hi = lo + cols[0].shape[0]
        arms[lo:hi], rewards[lo:hi], gaps[lo:hi] = cols
        lo = hi
    return task_ids, rounds, arms, rewards, gaps


make_population = generate_population  # the name perfbench/ imports


def _seed_runs(config: ExperimentConfig, seed: int,
               algorithms: tuple[AlgorithmSpec, ...] | None = None):
    """Build the seed's population, reward table, baseline priors and
    schedule once, then, for each of algorithms (config.run_specs() by
    default) in order, its policy; yields (algorithm, run), where run is
    the arguments (population, table, policy, schedule) of simulate_run and
    play_blocks, so the caller plays each run as it comes."""
    spec = config.spec_for_seed(seed)
    population = generate_population(spec)
    table = RewardTable(population)
    priors = derive_baseline_priors(spec, population.theta)
    schedule = make_schedule(config.schedule_kind, spec.n_tasks, spec.horizon)
    for algorithm in algorithms or config.run_specs():
        ctx = AgentContext(population=population, priors=priors,
                           rng=agent_rng(seed, algorithm.name),
                           schedule_kind=config.schedule_kind)
        policy = make_policy(algorithm.name, ctx, algorithm.options_dict())
        yield algorithm, (population, table, policy, schedule)


def run_seed(config: ExperimentConfig, seed: int,
             algorithms: tuple[AlgorithmSpec, ...] | None = None
             ) -> list[tuple[np.ndarray, ...]]:
    """Play each of algorithms (config.run_specs() by default) on the
    seed's inputs, built once (process-safe); returns their columns."""
    return [simulate_run(*run)
            for _, run in _seed_runs(config, seed, algorithms)]


def run_pair(config: ExperimentConfig, algorithm: AlgorithmSpec, seed: int
             ) -> tuple[np.ndarray, ...]:
    """Simulate one (algorithm, seed) pair from scratch (process-safe)."""
    return run_seed(config, seed, (algorithm,))[0]


def _map_seeds(config: ExperimentConfig, work) -> list:
    """[work(seed) for seed in config.seeds], serially or as one task per
    seed of a pool of config.parallelism processes.  If a seed raises in
    the pool, map cancels the seeds not yet started, and leaving the pool
    waits for the running ones before the exception propagates."""
    if config.parallelism == 1:
        return [work(seed) for seed in config.seeds]
    # Imported here so that a serial run never loads multiprocessing.
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=config.parallelism) as pool:
        return list(pool.map(work, config.seeds))


def simulate_ledger(config: ExperimentConfig) -> RegretLedger:
    """All (algorithm, seed) runs merged into one ledger, deterministically
    ordered by the config's algorithm order then seed order regardless of
    parallelism.  A seed is the unit of work: run_seed, serially or as one
    task of a process pool when parallelism > 1."""
    results = _map_seeds(config, partial(run_seed, config))
    ledger = RegretLedger()
    for algorithm, runs in zip(config.run_specs(), zip(*results)):
        for seed, cols in zip(config.seeds, runs):
            ledger.extend_run(algorithm.name, seed, *cols)
    return ledger


class RunResult(NamedTuple):
    """What a streamed run keeps of one (algorithm, seed) run: its curve
    cells (view -> (keys, sums, counts), as metrics.seed_cells gives them),
    its total regret and its MCMC warnings."""

    cells: dict
    total: float
    warnings: tuple[str, ...]


def _spill_path(prefix: str, index: int, seed: int) -> str:
    return "%s.%d.%d" % (prefix, index, seed)


def _stream_run(spill, path: str, algorithm: str, seed: int,
                population: Population, table: RewardTable, policy: Policy,
                schedule: InteractionSchedule) -> RunResult:
    """Play one run block by block (play_blocks) and consume each block as
    it comes: its ledger columns go to spill(path, algorithm, seed), the
    run's spill file writer (_spill_lines here, or the forked writer's
    pipe); its curve cells are folded into the run's CellFold of each
    view, whose keys are the rounds 1..horizon and the task positions
    1..n_tasks; and its regrets are copied into the run's one regret
    column, kept for run_total.  Nothing of the run outlives the call but
    its RunResult."""
    folds = [CellFold(view, size + 1) for view, size
             in zip(VIEWS, (schedule.horizon, schedule.n_tasks))]
    regrets = np.empty(len(schedule))
    end = 0
    with spill(path, algorithm, seed) as write:
        for cols in play_blocks(population, table, policy, schedule):
            write(cols)
            for fold in folds:
                fold.fold(cols)
            regrets[end:end + cols[4].shape[0]] = cols[4]
            end += cols[4].shape[0]
    return RunResult({fold.view: fold.cells() for fold in folds},
                     run_total(regrets[:end]),
                     tuple(getattr(policy, "mcmc_warnings", ())))


def stream_seed(config: ExperimentConfig, spill, spill_prefix: str,
                seed: int) -> list[RunResult]:
    """A seed's unit of work in run_experiment (process-safe with
    _spill_lines as spill): each algorithm's run, streamed by _stream_run
    through spill into its spill file (_spill_path(spill_prefix, algorithm
    index, seed)), kept as its RunResult only."""
    return [_stream_run(spill, _spill_path(spill_prefix, index, seed),
                        algorithm.name, seed, *run)
            for index, (algorithm, run) in enumerate(_seed_runs(config,
                                                                seed))]


@contextmanager
def _spill_lines(path: str, algorithm: str, seed: int):
    """One run's spill file, formatted in this process: yields
    write(cols), which appends a block's ledger lines through _run_lines,
    the line writer write_ledger_csv uses too, with one regret memo for
    the run."""
    memo = _RegretText()
    with open(path, "w", encoding="utf-8") as fh:
        yield lambda cols: fh.writelines(_run_lines(algorithm, seed, cols,
                                                    memo))


# With the default 64 KiB pipe, player and writer kept waiting on each
# other; 1 MiB is the largest size an unprivileged Linux process may set.
_PIPE_BYTES = 1 << 20
# A serial run of fewer ledger rows formats its own spills.  On a 2-vCPU
# host the writer (its fork, its reap and the player's copy-on-write
# faults) made a 4,800-row run about 8 ms slower and a 35,000-row run about
# 22 ms faster, so it breaks even near 12,000 rows.
_WRITER_MIN_ROWS = 16384


@contextmanager
def _forked_spills():
    """The ledger writer of a serial run, as a context manager whose value
    is stream_seed's spill: a process forked with os.fork, which formats
    the runs' spill files while this process plays.  Each run's (path,
    algorithm, seed) and then each of its blocks' columns cross one pipe as
    pickles, and the writer turns them into the spill file through
    _spill_lines, as a pool worker does in its own process.  Only this
    process writes the pipe, so the writer unpickles nothing from outside.
    The writer calls no BLAS and takes no lock, so the threads a fork
    leaves behind cannot stall it.  Leaving the block closes the pipe,
    waits for the writer to drain it and reaps it; a writer failure is then
    raised as the writer raised it, unless the block is raising already.
    A broken pipe means that the writer has left, so its error is raised
    in place of the BrokenPipeError."""
    read, write = os.pipe()
    err_read, err_write = os.pipe()
    try:
        fcntl.fcntl(write, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
    except (AttributeError, OSError):  # not Linux, or above its limit
        pass  # the pipe keeps its default size
    cpu = _current_cpu()
    try:
        pid = os.fork()
    except BaseException:
        for fd in (read, write, err_read, err_write):
            os.close(fd)
        raise
    if pid == 0:
        _writer_process(read, (write, err_read), err_write, cpu)
    os.close(read)
    os.close(err_write)
    pipe = open(write, "wb")  # its write retries a short one

    def send(message) -> None:
        # pickle.dump(message, pipe) raised the player's peak RSS by
        # 0.7-0.8 MB on the ledger-heavy benchmark.
        pipe.write(pickle.dumps(message, pickle.HIGHEST_PROTOCOL))
        pipe.flush()

    @contextmanager
    def run(path: str, algorithm: str, seed: int):
        send((path, algorithm, seed))
        yield send

    broken = None
    try:
        yield run
    except BrokenPipeError as exc:
        broken = exc
    finally:
        try:
            # Every message was flushed; a broken pipe's unsent bytes are
            # dropped, where pipe.close() would try them again and raise.
            pipe.raw.close()
            with open(err_read, "rb") as fh:
                report = fh.read()
        finally:
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if report:
        raise pickle.loads(report)
    if status:
        raise RuntimeError("ledger writer exited with status %d" % status)
    if broken is not None:
        raise broken


def _current_cpu() -> int | None:
    """The CPU this process is running on, from /proc (Linux), or None."""
    try:
        with open("/proc/self/stat", "rb") as fh:
            return int(fh.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


def _writer_process(read: int, inherited: tuple[int, ...], err: int,
                    parent_cpu: int | None):
    """The forked writer's whole life: write each run that _forked_spills
    sends on the pipe read into its spill file through _spill_lines, until
    the pipe closes; report a failure on err; and leave through os._exit,
    so that nothing of the parent's stack, atexit hooks or buffers runs
    here.  The pipe is closed before a failure is reported, so the
    parent's next write fails at once instead of waiting on a full pipe.

    The writer keeps off parent_cpu when it may run elsewhere: a pipe
    write wakes its reader on the CPU the reader last ran on, and a forked
    child may start on its parent's, where each wake-up then stopped the
    player until the writer had formatted the block (a 19 KB write took
    0.8 ms instead of 10-14 us on a 2-vCPU host)."""
    status = 1
    try:
        for fd in inherited:
            os.close(fd)
        if parent_cpu is not None:
            others = os.sched_getaffinity(0) - {parent_cpu}
            if others:
                os.sched_setaffinity(0, others)
        with open(read, "rb") as src, ExitStack() as run:
            while True:
                try:
                    message = pickle.load(src)
                except EOFError:  # the parent closed the pipe
                    break
                if isinstance(message[0], str):  # (path, algorithm, seed)
                    run.close()
                    write = run.enter_context(_spill_lines(*message))
                else:  # a block's columns
                    write(message)
        status = 0
    except BaseException as exc:
        try:
            report = pickle.dumps(exc)
            pickle.loads(report)
        except Exception:
            report = pickle.dumps(RuntimeError("ledger writer: %s: %s"
                                               % (type(exc).__name__, exc)))
        with open(err, "wb") as fh:
            fh.write(report)
    finally:
        os._exit(status)


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

_LEDGER_HEADER = ",".join(RegretLedger.COLUMNS) + "\n"
# Rows joined into one string per write; larger blocks raise the writer's
# peak memory more than they save.
_WRITE_BLOCK = 512
# A run played by the engine has at most n_tasks x K distinct regrets; past
# this many, a run's regrets are formatted row by row instead of memoized.
_REGRET_MEMO_MAX = 4096
_pack_int64 = struct.Struct("=q").pack
_unpack_float64 = struct.Struct("=d").unpack


class _RegretText(dict):
    """One run's memo of inst_regret texts: a value's int64 bit pattern ->
    its "%.17g\n".  Keyed on the bits, so -0.0 and 0.0 keep their own
    texts, and so do NaNs of different payloads."""

    __slots__ = ()

    def __missing__(self, bits: int) -> str:
        text = "%.17g\n" % _unpack_float64(_pack_int64(bits))[0]
        if len(self) < _REGRET_MEMO_MAX:
            self[bits] = text
        return text


def _run_lines(algorithm: str, seed: int, cols, memo: _RegretText):
    """ledger.csv text of a run's columns (task_id, round, arm, reward,
    inst_regret), or of one block of them, one string per _WRITE_BLOCK
    rows, floats in repr-exact %.17g.  The algorithm and seed are folded
    into the row format; each distinct inst_regret is formatted once per
    memo, one per run; rewards are formatted row by row."""
    fmt = (("%s,%d," % (algorithm, seed)).replace("%", "%%")
           + "%d,%d,%d,%.17g,%s")
    task_ids, rounds, arms, rewards, regrets = cols
    bits = np.asarray(regrets, dtype=np.float64).view(np.int64)
    for lo in range(0, bits.shape[0], _WRITE_BLOCK):
        hi = lo + _WRITE_BLOCK
        yield "".join(map(fmt.__mod__, zip(
            task_ids[lo:hi].tolist(), rounds[lo:hi].tolist(),
            arms[lo:hi].tolist(), rewards[lo:hi].tolist(),
            map(memo.__getitem__, bits[lo:hi].tolist()))))


def write_ledger_csv(ledger: RegretLedger, path: str) -> None:
    """Stream the ledger to path: the header, then each run in insertion
    order through _run_lines, the line writer of run_experiment's spill
    files (each distinct regret of a run formatted once, rows written in
    blocks), so memory does not grow with the number of runs."""
    atomic_write_text(path, chain([_LEDGER_HEADER], chain.from_iterable(
        _run_lines(algorithm, seed, cols, _RegretText())
        for (algorithm, seed), cols in ledger.runs())))


def _curves(config: ExperimentConfig, series) -> dict[tuple[str, str], Curve]:
    """(algorithm, view) -> curve for both base views, plus oracle-adjusted
    views (prefixed mtr_) when enabled; series(name, view) is the
    algorithm's (seeds, index, matrix) under the view."""
    curves: dict[tuple[str, str], Curve] = {}
    run_names = [a.name for a in config.run_specs()]
    for name in run_names:
        for view in VIEWS:
            curves[(name, view)] = summarize(series(name, view))
    if config.emit_mtr:
        for name in run_names:
            if name == ORACLE_NAME:
                continue
            for view in VIEWS:
                curves[(name, "mtr_" + view)] = paired_curve(
                    series(name, view), series(ORACLE_NAME, view))
    return curves


def compute_curves(ledger: RegretLedger, config: ExperimentConfig
                   ) -> dict[tuple[str, str], Curve]:
    """(algorithm, view) -> curve for both base views, plus oracle-adjusted
    views (prefixed mtr_) when enabled."""
    return _curves(config, partial(per_seed_series, ledger))


def write_curves_csv(curves: dict[tuple[str, str], Curve], path: str) -> None:
    lines = ["algorithm,view,index,mean,se\n"]
    for (name, view), curve in curves.items():
        lines.extend(map("%s,%s,%d,%.17g,%.17g\n".__mod__,
                         zip(repeat(name), repeat(view), curve.index.tolist(),
                             curve.mean.tolist(), curve.se.tolist())))
    atomic_write_text(path, lines)


def _write_summary(config: ExperimentConfig, totals: dict, path: str) -> None:
    """summary.csv from totals: algorithm name -> {seed: total regret}."""
    run_names = [a.name for a in config.run_specs()]
    means = {}
    ses = {}
    for name in run_names:
        values = np.array([totals[name][s] for s in config.seeds])
        means[name] = float(values.mean())
        ses[name] = float(values.std(ddof=1) / np.sqrt(values.shape[0]))
    lines = ["algorithm,cum_regret_mean,cum_regret_se,"
             "ratio_vs_individual_ts,ratio_vs_oracle_ts"]
    for name in run_names:
        cells = [name, "%.17g" % means[name], "%.17g" % ses[name]]
        for ref in ("individual-ts", ORACLE_NAME):
            if ref in means and means[ref] != 0.0:
                cells.append("%.17g" % (means[name] / means[ref]))
            else:
                cells.append("")
        lines.append(",".join(cells))
    atomic_write_text(path, ["\n".join(lines) + "\n"])


def write_summary_csv(ledger: RegretLedger, config: ExperimentConfig,
                      path: str) -> None:
    _write_summary(config, {a.name: cumulative_regret_by_seed(ledger, a.name)
                            for a in config.run_specs()}, path)


def write_manifest(config: ExperimentConfig, path: str) -> None:
    text = json.dumps(config.to_manifest_dict(), indent=2, sort_keys=True)
    atomic_write_text(path, [text, "\n"])


def _label_for(config: ExperimentConfig, name: str) -> str:
    for a in config.run_specs():
        if a.name == name:
            return a.display
    return name


def write_plots(curves: dict[tuple[str, str], Curve],
                config: ExperimentConfig, out_dir: str) -> list[str]:
    written = []
    views = sorted({view for _, view in curves})
    for view in views:
        series = []
        for (name, v), curve in curves.items():
            if v != view:
                continue
            series.append(Series(label=_label_for(config, name),
                                 x=curve.index.astype(float),
                                 y=curve.cumulative()))
        if not series:
            continue
        x_label = "round" if "per_round" in view else "task position"
        path = os.path.join(out_dir, "regret_%s.svg" % view)
        write_line_plot(path, series, title="cumulative regret (%s)" % view,
                        x_label=x_label, y_label="cumulative regret")
        written.append(path)
    return written


def run_experiment(config: ExperimentConfig, output_dir: str | None = None,
                   on_warnings=None) -> dict[str, str]:
    """Run every (algorithm, seed) pair and write all artifacts; returns a
    name -> path map of what was written.

    Seeds are streamed: each is one stream_seed unit of work, serially or
    in the process pool, which leaves its runs' ledger rows in spill files
    in the output directory and returns their curve cells, totals and MCMC
    warnings.  A serial run of at least _WRITER_MIN_ROWS ledger rows forks
    one ledger writer (_forked_spills) before the first seed, which formats
    the spills from the blocks it is sent as pickles while the seeds play;
    a smaller serial run and the pool workers format their own.  So memory holds one seed's runs per worker,
    whatever the number of seeds.  The spills are then joined into
    ledger.csv in ledger order (algorithms, then config.seeds) and
    removed; they are removed as well if anything raises, once the writer
    has been reaped, and the old artifacts stay in place.
    on_warnings(algorithm, seed, messages), when given, is called for each
    run whose MCMC chain warned, in ledger order."""
    out = resolve_output_dir(output_dir, config)
    os.makedirs(out, exist_ok=True)
    paths = {
        "ledger": os.path.join(out, "ledger.csv"),
        "curves": os.path.join(out, "curves.csv"),
        "summary": os.path.join(out, "summary.csv"),
        "manifest": os.path.join(out, "manifest.json"),
    }
    names = [a.name for a in config.run_specs()]
    prefix = os.path.join(out, ".ledger.csv.spill.%d" % os.getpid())
    spills = [_spill_path(prefix, index, seed)
              for index in range(len(names)) for seed in config.seeds]
    spec = config.spec_for_seed(config.seeds[0])
    # A pool worker formats its own spills: its core is busy already.
    fork = (config.parallelism == 1 and len(spills) * spec.n_tasks
            * spec.horizon >= _WRITER_MIN_ROWS)
    try:
        with (_forked_spills() if fork
              else nullcontext(_spill_lines)) as spill:
            per_seed = _map_seeds(config, partial(stream_seed, config,
                                                  spill, prefix))
        with atomic_file(paths["ledger"], "wb") as fh:
            fh.write(_LEDGER_HEADER.encode())
            for spill in spills:
                with open(spill, "rb") as src:
                    shutil.copyfileobj(src, fh)
    finally:
        for spill in spills:
            if os.path.exists(spill):
                os.remove(spill)
    runs = {name: dict(zip(config.seeds, results))
            for name, results in zip(names, zip(*per_seed))}
    curves = _curves(config, lambda name, view: series_from_cells(
        {seed: run.cells[view] for seed, run in runs[name].items()},
        name, view))
    write_curves_csv(curves, paths["curves"])
    _write_summary(config, {name: {seed: run.total for seed, run
                                   in by_seed.items()}
                            for name, by_seed in runs.items()},
                   paths["summary"])
    write_manifest(config, paths["manifest"])
    if config.plots:
        for p in write_plots(curves, config, out):
            paths[os.path.basename(p)] = p
    if on_warnings is not None:
        for name, by_seed in runs.items():
            for seed, run in by_seed.items():
                if run.warnings:
                    on_warnings(name, seed, run.warnings)
    return paths
