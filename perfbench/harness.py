"""Calls into hierbandit shared by the untraced and the traced benchmark runs:
set-up of every (algorithm, seed) pair, the posterior-routes histories and
query mix, and the correctness checks.  Uses only the package's public
functions."""

from __future__ import annotations

import hashlib
import platform
import sys
from functools import partial

import numpy as np
import scipy

from hierbandit import bench, metrics
from hierbandit.agents import AgentContext, make_policy
from hierbandit.core import HierarchyConfig, History, InteractionRecord
from hierbandit.envs import (PopulationSpec, RewardTable, agent_rng,
                             generate_population)
from hierbandit.errors import ConfigError, NumericalError
from hierbandit.gaussian import (posterior_r_naive, posterior_r_woodbury,
                                 posterior_theta)
from hierbandit.priors import derive_baseline_priors, fit_variance_components

import workloads as wl

# An operation that raises one of these counts as failed.
FAILURES = (NumericalError, ConfigError)


def set_up_pairs(config: bench.ExperimentConfig) -> None:
    """Build what run_pair builds before its first interaction, for every
    (algorithm, seed) pair."""
    for algorithm in config.run_specs():
        for seed in config.seeds:
            spec = config.spec_for_seed(seed)
            population = bench.make_population(spec)
            RewardTable(population)
            priors = derive_baseline_priors(spec, population.theta)
            ctx = AgentContext(population=population, priors=priors,
                               rng=agent_rng(seed, algorithm.name),
                               schedule_kind=config.schedule_kind)
            make_policy(algorithm.name, ctx, algorithm.options_dict())


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(partial(fh.read, 1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def read_ledger(path: str) -> metrics.RegretLedger:
    """Parse ledger.csv back into a RegretLedger (%.17g floats round-trip)."""
    ledger = metrics.RegretLedger()
    with open(path, "r", encoding="utf-8") as fh:
        fh.readline()
        for line in fh:
            alg, seed, tid, rnd, arm, reward, gap = line.rstrip("\n").split(",")
            ledger.add(alg, int(seed), int(tid), int(rnd), int(arm),
                       float(reward), float(gap))
    return ledger


def replay_error(config: bench.ExperimentConfig,
                 ledger: metrics.RegretLedger) -> str | None:
    """Run metrics.verify_replay against freshly built populations and
    reward tables; returns the mismatch message, or None."""
    populations: dict[int, object] = {}
    tables: dict[int, RewardTable] = {}

    def population_for_seed(seed: int):
        if seed not in populations:
            populations[seed] = bench.make_population(config.spec_for_seed(seed))
            tables[seed] = RewardTable(populations[seed])
        return populations[seed]

    def reward_for(seed: int, task_id: int, rnd: int, arm: int) -> float:
        population_for_seed(seed)
        return tables[seed].reward(task_id, rnd, arm)

    try:
        metrics.verify_replay(ledger, population_for_seed, reward_for)
    except ConfigError as exc:
        return str(exc)
    return None


def columns_equal(a, b) -> bool:
    """Exact equality of two (task_ids, rounds, arms, rewards, gaps) tuples."""
    return len(a) == len(b) and all(list(x) == list(y) for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# posterior-routes
# ---------------------------------------------------------------------------

def build_histories(seed: int) -> dict:
    """history name -> (feature map, History, {"diag": cfg, "full": cfg}).

    Rewards come from a seeded population's reward table; arms are drawn
    uniformly by a generator seeded from the workload seed.  The full
    Sigma_delta variant keeps the diagonal and adds an equal correlation
    between arms, so its blocks take the dense route.
    """
    shape = wl.POSTERIOR_SHAPE
    k = shape["n_arms"]
    out = {}
    for j, (name, (n_tasks, rounds)) in enumerate(wl.POSTERIOR_HISTORIES.items()):
        spec = PopulationSpec(n_tasks=n_tasks, horizon=rounds,
                              seed=seed * len(wl.POSTERIOR_HISTORIES) + j,
                              **shape)
        population = generate_population(spec)
        table = RewardTable(population)
        rng = np.random.default_rng([seed, j])
        h = History()
        for rnd in range(1, rounds + 1):
            for tid in range(n_tasks):
                arm = int(rng.integers(k))
                h.append(InteractionRecord(task_id=tid, action=arm,
                                           reward=table.reward(tid, rnd, arm),
                                           round_within_task=rnd))
        diag = spec.hierarchy_config()
        full_delta = 0.5 * shape["sigma1_sq"] * (np.eye(k) + np.ones((k, k)))
        full = HierarchyConfig(mu_theta=diag.mu_theta,
                               sigma_theta=diag.sigma_theta,
                               sigma_delta=full_delta,
                               sigma_noise=diag.sigma_noise)
        out[name] = (population.feature_map, h, {"diag": diag, "full": full})
    return out


def posterior_queries(histories: dict) -> list:
    """[(key, thunk)] in mix order; key = (call, variant, history, target)."""
    queries = []
    for call, variant, hname, count in wl.POSTERIOR_MIX:
        fm, h, cfgs = histories[hname]
        cfg = cfgs[variant]
        for target in range(count):
            if call == "woodbury":
                fn = partial(posterior_r_woodbury, cfg, fm, h, target,
                             fm.metadata_for(target))
            elif call == "naive":
                fn = partial(posterior_r_naive, cfg, fm, h, target,
                             fm.metadata_for(target))
            elif call == "theta":
                fn = partial(posterior_theta, cfg, fm, h)
            else:
                fn = partial(fit_variance_components, fm, h,
                             wl.FIT_SIGMA_NOISE_GRID, wl.FIT_SIGMA1_SQ_GRID,
                             cfg.mu_theta, cfg.sigma_theta)
            queries.append(((call, variant, hname, target), fn))
    return queries


def warm_up_queries(queries: list) -> None:
    """Run the first query of every mix entry once, untimed."""
    seen = set()
    for (call, variant, hname, _), fn in queries:
        if (call, variant, hname) not in seen:
            seen.add((call, variant, hname))
            run_query(fn)


def run_query(fn):
    """(result, failed) for one posterior query."""
    try:
        return fn(), 0
    except FAILURES:
        return None, 1


def route_disagreements(keys: list, results: list) -> tuple[int, float]:
    """(count, worst) of naive queries whose dense result differs from the
    blocked result for the same (variant, history, target) by more than the
    tolerance; a missing result counts as a disagreement."""
    by_key = dict(zip(keys, results))
    count, worst = 0, 0.0
    for (call, variant, hname, target), dense in by_key.items():
        if call != "naive":
            continue
        blocked = by_key.get(("woodbury", variant, hname, target))
        if dense is None or blocked is None:
            count += 1
            continue
        diff = max(float(np.max(np.abs(dense.mean - blocked.mean))),
                   float(np.max(np.abs(dense.cov - blocked.cov))))
        worst = max(worst, diff)
        if not diff < wl.ROUTE_TOLERANCE:
            count += 1
    return count, worst


def environment() -> dict:
    """Interpreter and numeric-library record of the worker process."""
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (deps.get("name"), deps.get("version"))
    except (KeyError, TypeError, ValueError):
        pass
    return {"python": platform.python_version(),
            "implementation": sys.implementation.name,
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": blas, "machine": platform.machine()}
