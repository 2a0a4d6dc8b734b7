"""Synthetic task populations, interaction schedules, and reward draws.

A population is sampled top-down from the hierarchy: one shared coefficient
vector theta, then per-task metadata and arm means.  All randomness flows
from a single integer seed through named SeedSequence spawn keys so that
populations, reward noise, and per-agent streams are independent and
reproducible:

    spawn_key (0,)          population draw (theta, metadata, effects)
    spawn_key (1,)          common reward-noise table shared by all agents
    spawn_key (2, crc32(name))  each agent's private stream
    spawn_key (3,)          Monte Carlo work while deriving baseline priors
"""

from __future__ import annotations

import os
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .bernoulli import clipped_logistic
from .core import (FeatureMap, HierarchyConfig, TaskInstance, check_count,
                   check_real)
from .errors import ConfigError, ScheduleError

SCHEDULE_KINDS = ("sequential", "concurrent", "custom")
REWARD_KINDS = ("gaussian", "bernoulli")

_POPULATION_KEY = (0,)
_NOISE_KEY = (1,)
_AGENT_KEY = 2
_PRIOR_KEY = (3,)


def population_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=_POPULATION_KEY))


def noise_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=_NOISE_KEY))


def agent_rng(seed: int, algorithm_name: str) -> np.random.Generator:
    tag = zlib.crc32(algorithm_name.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_AGENT_KEY, tag)))


def prior_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=_PRIOR_KEY))


@dataclass(frozen=True)
class PopulationSpec:
    """Parameters of a synthetic population draw.

    dim counts all coefficients; the feature map uses n_arms indicator
    columns plus a per-arm slice of the task metadata, so each task carries
    n_arms * (dim - n_arms) metadata entries.  theta_scale is the per-
    coordinate prior variance of theta (default 1/dim).  sigma1_sq is the
    task-effect variance for Gaussian rewards; psi the Beta precision for
    Bernoulli rewards.  misspec_lambda blends the linear mean with a cosine
    warp (1.0 = exactly linear; see generate_population), Gaussian rewards
    only.
    """

    n_tasks: int
    horizon: int
    n_arms: int
    dim: int
    reward_kind: str = "gaussian"
    sigma_noise: float = 1.0
    sigma1_sq: float = 0.5
    psi: float = 1.0
    theta_scale: float | None = None
    misspec_lambda: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for name in ("n_tasks", "horizon", "n_arms", "dim"):
            check_count(name, getattr(self, name), 1)
        check_count("seed", self.seed, 0)
        for name in ("sigma_noise", "sigma1_sq", "psi", "misspec_lambda"):
            check_real(name, getattr(self, name))
        check_real("theta_scale", self.theta_scale, allow_none=True)
        if self.dim < self.n_arms:
            raise ConfigError("dim must be >= n_arms (indicator block)")
        if self.reward_kind not in REWARD_KINDS:
            raise ConfigError("reward_kind must be one of %s" % (REWARD_KINDS,))
        if self.reward_kind == "gaussian" and not self.sigma_noise > 0:
            raise ConfigError("sigma_noise must be > 0")
        if self.sigma1_sq < 0:
            raise ConfigError("sigma1_sq must be >= 0")
        if self.psi <= 0:
            raise ConfigError("psi must be > 0")
        if not 0.0 <= self.misspec_lambda <= 1.0:
            raise ConfigError("misspec_lambda must lie in [0, 1]")
        if self.reward_kind != "gaussian" and self.misspec_lambda != 1.0:
            raise ConfigError("misspec_lambda applies to gaussian rewards only")
        if self.theta_scale is not None and not self.theta_scale > 0:
            raise ConfigError("theta_scale must be > 0")

    @property
    def p(self) -> int:
        """Metadata length per task: n_arms * (dim - n_arms)."""
        return self.n_arms * (self.dim - self.n_arms)

    @property
    def scale(self) -> float:
        return self.theta_scale if self.theta_scale is not None else 1.0 / self.dim

    def hierarchy_config(self) -> HierarchyConfig:
        d, k = self.dim, self.n_arms
        if self.reward_kind == "gaussian":
            return HierarchyConfig(
                mu_theta=np.zeros(d),
                sigma_theta=self.scale * np.eye(d),
                sigma_delta=self.sigma1_sq * np.eye(k),
                sigma_noise=self.sigma_noise)
        return HierarchyConfig(
            mu_theta=np.zeros(d),
            sigma_theta=self.scale * np.eye(d),
            psi=self.psi)


@dataclass(frozen=True)
class Population:
    """One sampled population: read-only true coefficients theta, tasks,
    feature map, and the tasks' read-only (n_tasks, n_arms) arm means."""

    spec: PopulationSpec
    theta: np.ndarray
    tasks: tuple[TaskInstance, ...]
    feature_map: FeatureMap
    means: np.ndarray

    @property
    def best_means(self) -> np.ndarray:
        return self.means.max(axis=1)


def _draw_task_frames(spec: PopulationSpec, rng: np.random.Generator
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(theta, metadata (N, p), linear means (N, K)); the draw order does
    not depend on misspec_lambda, so lambda = 1 is the plain population."""
    d, k, n = spec.dim, spec.n_arms, spec.n_tasks
    theta = rng.standard_normal(d) * np.sqrt(spec.scale)
    metadata = rng.standard_normal((n, spec.p))
    fm = FeatureMap.indicator_with_metadata(k, d)
    linear = np.stack([fm.task_features(metadata[i]) @ theta for i in range(n)])
    return theta, metadata, linear


def _blend(linear: np.ndarray, lam: float) -> np.ndarray:
    """(1 - lam) cos(c m)/c + lam m with c scaling the largest |m| to pi/2.

    c is computed once from the whole population so every task is warped by
    the same map.  lam = 1 short-circuits to the linear means unchanged.
    """
    if lam == 1.0:
        return linear
    peak = float(np.abs(linear).max())
    c = (np.pi / 2.0) / peak if peak > 0 else 1.0
    return (1.0 - lam) * np.cos(c * linear) / c + lam * linear


def generate_population(spec: PopulationSpec) -> Population:
    """Sample a population from the hierarchy exactly as specified.

    Task i's arm centers are the linear means Phi_i theta warped by
    lam = spec.misspec_lambda (Gaussian rewards only):

        center_{i,a} = (1 - lam) cos(c (Phi_i theta)_a) / c + lam (Phi_i theta)_a

    with c chosen so the largest |linear mean| maps to pi/2; lam = 1 keeps
    them linear.
    """
    rng = population_rng(spec.seed)
    theta, metadata, linear = _draw_task_frames(spec, rng)
    n, k = spec.n_tasks, spec.n_arms
    centers = _blend(linear, spec.misspec_lambda)
    if spec.reward_kind == "gaussian":
        effects = rng.standard_normal((n, k)) * np.sqrt(spec.sigma1_sq)
        means = centers + effects
    else:
        probs = clipped_logistic(centers)
        means = rng.beta(probs / spec.psi, (1.0 - probs) / spec.psi)
    theta.setflags(write=False)
    means.setflags(write=False)
    tasks = tuple(TaskInstance(task_id=i, metadata=metadata[i],
                               true_means=means[i]) for i in range(n))
    fm = FeatureMap.indicator_with_metadata(
        k, spec.dim, task_metadata={i: metadata[i] for i in range(n)})
    return Population(spec=spec, theta=theta, tasks=tasks, feature_map=fm,
                      means=means)


class RewardTable:
    """Pre-drawn reward noise shared by every algorithm on one seed.

    A (n_tasks, horizon, n_arms) tensor of standard normals (Gaussian) or
    uniforms (Bernoulli) drawn once from the seed's noise stream; the reward
    any algorithm sees for (task, round, arm) is then a pure function of the
    tuple, so algorithms face identical luck and regret differences are
    paired.  The noise is read-only, as every algorithm reads one table.
    """

    def __init__(self, population: Population):
        spec = population.spec
        rng = noise_rng(spec.seed)
        shape = (spec.n_tasks, spec.horizon, spec.n_arms)
        if spec.reward_kind == "gaussian":
            self._noise = rng.standard_normal(shape)
        else:
            self._noise = rng.uniform(size=shape)
        self._noise.setflags(write=False)
        self._spec = spec
        self._means = population.means

    def reward(self, task_id: int, round_within_task: int, arm: int) -> float:
        """Reward for pulling arm at the task's 1-based round; a task id,
        round or arm out of range is a ScheduleError."""
        spec = self._spec
        t = round_within_task - 1
        if not 0 <= t < spec.horizon:
            raise ScheduleError("round %d outside horizon %d"
                                % (round_within_task, spec.horizon))
        if not 0 <= task_id < spec.n_tasks:
            raise ScheduleError("task %d outside [0, %d)"
                                % (task_id, spec.n_tasks))
        if not 0 <= arm < spec.n_arms:
            raise ScheduleError("arm %d outside [0, %d)" % (arm, spec.n_arms))
        mean = float(self._means[task_id, arm])
        z = self._noise[task_id, t, arm]
        if spec.reward_kind == "gaussian":
            return mean + spec.sigma_noise * float(z)
        return float(z < mean)

    def arm_rewards(self, task_ids: np.ndarray,
                    round_within_task) -> np.ndarray:
        """(n, n_arms): reward() of every arm at each (task, round) element,
        by the same IEEE operations; the round is an int or an array
        broadcast against the ids.  A task id or round out of range is a
        ScheduleError.  The simulation loop reads a schedule segment's
        payoffs through it."""
        spec = self._spec
        rounds = np.asarray(round_within_task)
        outside = rounds[(rounds < 1) | (rounds > spec.horizon)]
        if outside.size:
            raise ScheduleError("round %d outside horizon %d"
                                % (outside.flat[0], spec.horizon))
        task_ids = np.asarray(task_ids)
        outside = task_ids[(task_ids < 0) | (task_ids >= spec.n_tasks)]
        if outside.size:
            raise ScheduleError("task %d outside [0, %d)"
                                % (outside.flat[0], spec.n_tasks))
        mean, z = self._means[task_ids], self._noise[task_ids, rounds - 1]
        if spec.reward_kind == "gaussian":
            return mean + spec.sigma_noise * z
        return (z < mean).astype(float)


@dataclass(frozen=True)
class InteractionSchedule:
    """Order in which (task, round-within-task) pairs are played.

    sequential: task 0 for all horizon rounds, then task 1, and so on.
    concurrent: round 1 of every task, then round 2 of every task, ...
    custom: a caller-supplied task_id stream in which every task id in
    [0, n_tasks) appears exactly horizon times.  Only a custom schedule
    keeps its stream; the other two kinds are defined by their sizes.

    columns() builds its two read-only arrays once, so every run of a seed
    played on one schedule, and each run's ledger block, shares them.
    """

    kind: str
    n_tasks: int
    horizon: int
    stream: tuple[int, ...] | None = None

    def __len__(self) -> int:
        return self.n_tasks * self.horizon

    def columns(self) -> tuple[np.ndarray, np.ndarray]:
        """(task_ids, rounds): each interaction's task and 1-based round
        within it, in play order; read-only int64, the same on every call."""
        return self._columns

    @cached_property
    def _columns(self) -> tuple[np.ndarray, np.ndarray]:
        tasks = np.arange(self.n_tasks, dtype=np.int64)
        rounds = np.arange(1, self.horizon + 1, dtype=np.int64)
        if self.kind == "sequential":
            task_ids = np.repeat(tasks, self.horizon)
            rounds = np.tile(rounds, self.n_tasks)
        elif self.kind == "concurrent":
            task_ids = np.tile(tasks, self.horizon)
            rounds = np.repeat(rounds, self.n_tasks)
        else:
            # an occurrence's round is one plus its rank among its task's
            # occurrences, read off a stable argsort of the stream
            task_ids = np.array(self.stream, dtype=np.int64)
            order = np.argsort(task_ids, kind="stable")
            grouped = task_ids[order]
            rounds = np.empty_like(task_ids)
            rounds[order] = np.arange(1, grouped.size + 1) \
                - np.searchsorted(grouped, grouped)
        task_ids.setflags(write=False)
        rounds.setflags(write=False)
        return task_ids, rounds


def make_schedule(kind: str, n_tasks: int, horizon: int,
                  stream: Iterable[int] | None = None) -> InteractionSchedule:
    if kind not in SCHEDULE_KINDS:
        raise ScheduleError("schedule kind must be one of %s" % (SCHEDULE_KINDS,))
    if kind == "custom":
        if stream is None:
            raise ScheduleError("custom schedule needs a task stream")
        stream = tuple(stream)
        counts = np.zeros(n_tasks, dtype=np.int64)
        for tid in stream:
            if isinstance(tid, bool) or not isinstance(tid, (int, np.integer)) \
                    or not 0 <= tid < n_tasks:
                raise ScheduleError("custom schedule task ids must be integers"
                                    " in [0, %d), got %r" % (n_tasks, tid))
            counts[tid] += 1
        stream = tuple(map(int, stream))
        if not np.all(counts == horizon):
            bad = int(np.nonzero(counts != horizon)[0][0])
            raise ScheduleError(
                "custom schedule must visit every task exactly %d times; "
                "task %d appears %d times" % (horizon, bad, int(counts[bad])))
    elif stream is not None:
        raise ScheduleError("only custom schedules accept a stream")
    return InteractionSchedule(kind=kind, n_tasks=n_tasks, horizon=horizon,
                               stream=stream)


def population_to_csv(population: Population, path: str) -> None:
    """Write the population to CSV: a parameter-name row, a parameter-value
    row, a column-header row, then one row per task with its metadata and
    true arm means.  Floats use repr-exact %.17g; the write is atomic."""
    spec = population.spec
    params = [("n_tasks", spec.n_tasks), ("horizon", spec.horizon),
              ("n_arms", spec.n_arms), ("dim", spec.dim),
              ("reward_kind", spec.reward_kind),
              ("sigma_noise", spec.sigma_noise), ("sigma1_sq", spec.sigma1_sq),
              ("psi", spec.psi), ("theta_scale", spec.scale),
              ("misspec_lambda", spec.misspec_lambda), ("seed", spec.seed)]
    header = ["task_id"] + ["x%d" % j for j in range(spec.p)] \
        + ["r%d" % a for a in range(spec.n_arms)]
    lines = [",".join(name for name, _ in params),
             ",".join("%.17g" % value if isinstance(value, float)
                      else str(value) for _, value in params),
             ",".join(header)]
    for task in population.tasks:
        cells = [str(task.task_id)]
        cells += ["%.17g" % v for v in task.metadata]
        cells += ["%.17g" % v for v in task.true_means]
        lines.append(",".join(cells))
    atomic_write_text(path, ["\n".join(lines) + "\n"])


@contextmanager
def atomic_file(path: str, mode: str = "w"):
    """Open a temp file in path's directory for writing and yield it.  When
    the block returns, the file is renamed onto path.  If anything raises
    first (a chunk, the disk, an interrupt), the temp file is removed, path
    keeps its old bytes and the exception propagates."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, ".%s.tmp.%d" % (os.path.basename(path), os.getpid()))
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def atomic_write_text(path: str, chunks) -> None:
    """Write text chunks to path through atomic_file, as the iterable
    yields them."""
    with atomic_file(path) as fh:
        fh.writelines(chunks)
