"""Workload definitions for the hierbandit benchmark (standard library only).

Three run workloads are experiment configs played through
``bench.run_experiment``; ``posterior-routes`` is a fixed mix of posterior
queries on two synthetic histories.  Every input derives from the workload
seed: on a run workload the seed expands to the experiment's seed list, on
``posterior-routes`` it seeds the populations and the arm choices of the
histories.
"""

from __future__ import annotations

GAUSS_POLICIES = ("hier-ts", "hier-ts-batch", "oracle-ts", "individual-ts",
                  "pooled-ts", "linear-ts", "meta-ts")
BERN_POLICIES = ("hier-ts", "oracle-ts", "individual-ts", "pooled-ts",
                 "meta-ts")

# Policies whose schedule-boundary hooks do work; their hook spans are
# reported as boundary_ms.
BOUNDARY_POLICIES = {"gaussian": ("hier-ts-batch", "meta-ts"),
                     "bernoulli": ("hier-ts", "meta-ts")}

_OPTIONS = {"hier-ts-batch": {"refresh_every": 10}}

RUN_WORKLOADS = {
    "gauss-concurrent": {
        "population": {"n_tasks": 50, "horizon": 50, "n_arms": 8, "dim": 15,
                       "sigma_noise": 1.0, "sigma1_sq": 0.5},
        "schedule": "concurrent", "algorithms": GAUSS_POLICIES,
        "n_seeds": 2, "emit_mtr": True, "plots": True},
    "bern-sequential": {
        "population": {"n_tasks": 24, "horizon": 20, "n_arms": 4, "dim": 6,
                       "reward_kind": "bernoulli"},
        "schedule": "sequential", "algorithms": BERN_POLICIES,
        "n_seeds": 2, "emit_mtr": True, "plots": False},
    "ledger-heavy": {
        "population": {"n_tasks": 200, "horizon": 200, "n_arms": 8, "dim": 15,
                       "sigma_noise": 1.0, "sigma1_sq": 0.5},
        "schedule": "concurrent", "algorithms": ("individual-ts", "pooled-ts"),
        "n_seeds": 3, "emit_mtr": False, "plots": False},
}

POSTERIOR = "posterior-routes"
WORKLOADS = tuple(RUN_WORKLOADS) + (POSTERIOR,)

# posterior-routes: histories as (n_tasks, rounds) at K=8, d=15, and the
# query mix as (call, sigma_delta variant, history, number of calls).
# Woodbury and naive calls target tasks 0, 1, ...; the naive targets are a
# subset of the Woodbury ones so the two routes can be compared.
POSTERIOR_SHAPE = {"n_arms": 8, "dim": 15, "sigma_noise": 1.0,
                   "sigma1_sq": 0.5}
POSTERIOR_HISTORIES = {"n200": (20, 10), "n2000": (100, 20)}
POSTERIOR_MIX = (
    ("woodbury", "diag", "n200", 20),
    ("woodbury", "full", "n200", 20),
    ("naive", "diag", "n200", 2),
    ("naive", "full", "n200", 2),
    ("theta", "diag", "n200", 1),
    ("fit", "diag", "n200", 1),
    ("woodbury", "diag", "n2000", 30),
    ("woodbury", "full", "n2000", 30),
    ("naive", "diag", "n2000", 1),
    ("naive", "full", "n2000", 1),
    ("theta", "diag", "n2000", 1),
    ("fit", "diag", "n2000", 1),
)
FIT_SIGMA_NOISE_GRID = (0.5, 0.75, 1.0, 1.25, 1.5)
FIT_SIGMA1_SQ_GRID = (0.1, 0.25, 0.5, 0.75, 1.0)
# Dense and blocked routes must agree to this absolute tolerance, the one
# the posterior validation suite uses.
ROUTE_TOLERANCE = 1e-8


def seed_list(workload: str, seed: int) -> list[int]:
    """Experiment seeds for one workload seed: consecutive, disjoint blocks."""
    n = RUN_WORKLOADS[workload]["n_seeds"]
    return [seed * n + i for i in range(n)]


def experiment_config(workload: str, seed: int) -> dict:
    """The experiment config (the mapping a YAML config file holds)."""
    w = RUN_WORKLOADS[workload]
    return {
        "population": dict(w["population"]),
        "schedule": w["schedule"],
        "algorithms": [{"name": name, "options": dict(_OPTIONS.get(name, {}))}
                       for name in w["algorithms"]],
        "seeds": seed_list(workload, seed),
        "emit_mtr": w["emit_mtr"],
        "plots": w["plots"],
    }


def warmup_config(workload: str) -> dict:
    """A tiny config with the same policies and artifacts, run untimed
    before timing so lazy set-up in the libraries is paid outside it."""
    cfg = experiment_config(workload, 0)
    cfg["population"].update(n_tasks=3, horizon=4)
    return cfg


def expected_rows(workload: str) -> int:
    """Ledger rows of one run: tasks x rounds x simulated policies x seeds.
    Every configured list already holds oracle-ts when emit_mtr is on."""
    w = RUN_WORKLOADS[workload]
    pop = w["population"]
    return pop["n_tasks"] * pop["horizon"] * len(w["algorithms"]) * w["n_seeds"]
