"""Traced benchmark run: spans around the calls into each hierbandit module.

Spans are recorded only here, around public calls; nothing inside the
package is instrumented.  A span has a name (its first dotted component is
the layer), a start, an end, a parent span and an interaction id shared by
the spans of one interaction.  Spans stay in memory and are written out as
one .npz file when the run ends.

A run workload is traced with a copy of bench.run_experiment whose
simulation loop is a copy of bench.simulate_run with spans around act,
table.reward, update and the boundary hooks.  Its ledger is checked against
an untraced run_experiment on the same config (identical ledger.csv bytes)
and one pair against bench.run_pair.  posterior-routes gets one span per
query.  Direct timings of the Gaussian conditional update, the coefficient
accumulator, sample_mvn and the MCMC sampler run on the traced runs'
end-of-run counts and histories.
"""

from __future__ import annotations

import gc
import os
import time
from array import array
from contextlib import contextmanager

import numpy as np

import harness
import workloads as wl
from hierbandit import bench
from hierbandit._linalg import sample_mvn
from hierbandit.agents import AgentContext, make_policy
from hierbandit.bernoulli import sample_theta_mcmc
from hierbandit.core import History, InteractionRecord
from hierbandit.envs import RewardTable, agent_rng, make_schedule
from hierbandit.gaussian import ThetaStatAccumulator, conditional_stats_update
from hierbandit.metrics import RegretLedger
from hierbandit.priors import derive_baseline_priors

_ns = time.perf_counter_ns

# Direct-call repetitions per task (conditional update, sample_mvn).
PROBE_REPS = 20
# HierTSBernoulli's default chain length, used for the direct MCMC timing.
MCMC_SAMPLES, MCMC_BURN_IN = 400, 200

# Layers whose self time is reported as a share of the traced wall time.
RUN_LAYERS = ("agents", "envs", "priors", "metrics", "bench", "svgplot")
POSTERIOR_LAYERS = ("gaussian", "priors")


class Tracer:
    """Append-only span store in flat arrays."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.iid = array("q")

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def record(self, nid: int, start: int, end: int, parent: int,
               iid: int = -1) -> int:
        self.name.append(nid)
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.iid.append(iid)
        return len(self.start) - 1

    def open(self, name: str, parent: int = -1) -> int:
        return self.record(self.name_id(name), _ns(), 0, parent)

    def close(self, idx: int) -> None:
        self.end[idx] = _ns()

    @contextmanager
    def span(self, name: str, parent: int = -1):
        idx = self.open(name, parent)
        try:
            yield idx
        finally:
            self.close(idx)

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(path, names=np.array(self.names), name=np.asarray(self.name),
                 start=np.asarray(self.start), end=np.asarray(self.end),
                 parent=np.asarray(self.parent), iid=np.asarray(self.iid))


class Summary:
    """Durations and self times (duration minus direct children) of a trace."""

    def __init__(self, tr: Tracer):
        self.names = list(tr.names)
        self.name = np.asarray(tr.name)
        self.parent = np.asarray(tr.parent)
        self.iid = np.asarray(tr.iid)
        self.dur = np.asarray(tr.end) - np.asarray(tr.start)
        has_parent = self.parent >= 0
        children = np.bincount(self.parent[has_parent],
                               weights=self.dur[has_parent],
                               minlength=self.dur.shape[0])
        self.self_ns = self.dur - children

    def nesting_error(self) -> str | None:
        """Every span must be closed and hold its children inside it; then
        the self times of all spans add up to the root's duration."""
        bad = int(np.sum(self.dur < 0) + np.sum(self.self_ns < 0))
        return None if bad == 0 else "%d spans unclosed or overlapping" % bad

    def where(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(0, dtype=np.int64)
        return np.nonzero(self.name == self.names.index(name))[0]

    def layer_self_ns(self) -> dict[str, float]:
        """Self time per layer.  A trace holds one root span, so these sum
        to the root's duration."""
        per_name = np.bincount(self.name, weights=self.self_ns,
                               minlength=len(self.names))
        out: dict[str, float] = {}
        for name, total in zip(self.names, per_name):
            layer = name.split(".")[0]
            out[layer] = out.get(layer, 0.0) + float(total)
        return out


def _metric(out: dict, name: str, value, unit: str, n=None) -> None:
    out[name] = [float(value), unit, None if n is None else int(n)]


def _pct(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q))


# ---------------------------------------------------------------------------
# traced copy of bench.run_experiment
# ---------------------------------------------------------------------------

def _traced_pair(config, algorithm, seed, tr: Tracer, pair: int,
                 next_iid: int):
    """run_pair + simulate_run with spans; returns (columns, next_iid)."""
    with tr.span("envs.population", pair):
        spec = config.spec_for_seed(seed)
        population = bench.make_population(spec)
    with tr.span("envs.reward_table", pair):
        table = RewardTable(population)
    with tr.span("priors.derive", pair):
        priors = derive_baseline_priors(spec, population.theta)
    with tr.span("agents.init", pair):
        ctx = AgentContext(population=population, priors=priors,
                           rng=agent_rng(seed, algorithm.name),
                           schedule_kind=config.schedule_kind)
        policy = make_policy(algorithm.name, ctx, algorithm.options_dict())
    with tr.span("envs.schedule", pair):
        schedule = make_schedule(config.schedule_kind, spec.n_tasks,
                                 spec.horizon)

    best = population.best_means
    means = np.stack([t.true_means for t in population.tasks])
    task_ids: list[int] = []
    rounds: list[int] = []
    arms: list[int] = []
    rewards: list[float] = []
    gaps: list[float] = []
    record = tr.record
    act_id = tr.name_id("agents.act")
    reward_id = tr.name_id("envs.reward")
    update_id = tr.name_id("agents.update")
    iid = next_iid

    def play(tid: int, rnd: int) -> None:
        nonlocal iid
        iid += 1
        t0 = _ns()
        arm = policy.act(tid)
        t1 = _ns()
        reward = table.reward(tid, rnd, arm)
        t2 = _ns()
        policy.update(tid, arm, reward)
        t3 = _ns()
        record(act_id, t0, t1, pair, iid)
        record(reward_id, t1, t2, pair, iid)
        record(update_id, t2, t3, pair, iid)
        task_ids.append(tid)
        rounds.append(rnd)
        arms.append(arm)
        rewards.append(reward)
        gaps.append(float(best[tid] - means[tid, arm]))

    if schedule.kind == "concurrent":
        hook_id = tr.name_id("agents.end_of_round")
        for rnd in range(1, spec.horizon + 1):
            for tid in range(spec.n_tasks):
                play(tid, rnd)
            t0 = _ns()
            policy.end_of_round()
            record(hook_id, t0, _ns(), pair)
    elif schedule.kind == "sequential":
        hook_id = tr.name_id("agents.end_of_task")
        for tid in range(spec.n_tasks):
            for rnd in range(1, spec.horizon + 1):
                play(tid, rnd)
            t0 = _ns()
            policy.end_of_task(tid)
            record(hook_id, t0, _ns(), pair)
    else:
        raise ValueError("unsupported schedule kind %r" % schedule.kind)
    return (task_ids, rounds, arms, rewards, gaps), iid


def traced_experiment(config, out_dir: str, tr: Tracer):
    """Returns (root span, paths, {(name, seed): columns},
    {pair span: policy name})."""
    root = tr.open("bench.run_experiment")
    sim = tr.open("bench.simulate", root)
    results = []
    pair_policy: dict[int, str] = {}
    iid = 0
    for algorithm in config.run_specs():
        for seed in config.seeds:
            pair = tr.open("bench.pair", sim)
            pair_policy[pair] = algorithm.name
            cols, iid = _traced_pair(config, algorithm, seed, tr, pair, iid)
            tr.close(pair)
            results.append((algorithm.name, seed, cols))
    ledger = RegretLedger()
    for name, seed, cols in results:
        with tr.span("metrics.ledger_extend", sim):
            ledger.extend_run(name, seed, *cols)
    tr.close(sim)

    os.makedirs(out_dir, exist_ok=True)
    paths = {name: os.path.join(out_dir, name + ext) for name, ext in
             (("ledger", ".csv"), ("curves", ".csv"), ("summary", ".csv"),
              ("manifest", ".json"))}
    with tr.span("metrics.curves", root):
        curves = bench.compute_curves(ledger, config)
    with tr.span("bench.write_ledger", root):
        bench.write_ledger_csv(ledger, paths["ledger"])
    with tr.span("bench.write_curves", root):
        bench.write_curves_csv(curves, paths["curves"])
    with tr.span("metrics.summary", root):
        bench.write_summary_csv(ledger, config, paths["summary"])
    with tr.span("bench.write_manifest", root):
        bench.write_manifest(config, paths["manifest"])
    if config.plots:
        with tr.span("svgplot.write_plots", root):
            bench.write_plots(curves, config, out_dir)
    tr.close(root)
    return root, paths, {(n, s): c for n, s, c in results}, pair_policy


# ---------------------------------------------------------------------------
# per-layer metrics of a traced run workload
# ---------------------------------------------------------------------------

def _agent_metrics(out: dict, sm: Summary, pair_policy: dict, kind: str,
                   policies: tuple) -> None:
    pair_ix = np.array(sorted(pair_policy))
    policy_of_pair = np.array([pair_policy[p] for p in pair_ix])

    def policy_of(spans: np.ndarray) -> np.ndarray:
        return policy_of_pair[np.searchsorted(pair_ix, sm.parent[spans])]

    act, upd = sm.where("agents.act"), sm.where("agents.update")
    if not np.array_equal(sm.iid[act], sm.iid[upd]):
        raise RuntimeError("act and update spans are not paired")
    step_us = (sm.dur[act] + sm.dur[upd]) / 1e3
    step_policy = policy_of(act)
    init = sm.where("agents.init")
    init_policy = policy_of(init)
    hooks = np.concatenate([sm.where("agents.end_of_round"),
                            sm.where("agents.end_of_task")])
    hook_policy = policy_of(hooks)
    for name in policies:
        prefix = "agents.%s.%s." % (kind, name)
        steps = step_us[step_policy == name]
        _metric(out, prefix + "step_us_p50", _pct(steps, 50), "us", steps.size)
        _metric(out, prefix + "step_us_p99", _pct(steps, 99), "us", steps.size)
        _metric(out, prefix + "calls", steps.size, "count")
        inits = sm.dur[init[init_policy == name]] / 1e6
        _metric(out, prefix + "init_ms", np.median(inits), "ms", inits.size)
        if name in wl.BOUNDARY_POLICIES[kind]:
            b = sm.dur[hooks[hook_policy == name]] / 1e6
            _metric(out, prefix + "boundary_ms_p50", _pct(b, 50), "ms", b.size)
            _metric(out, prefix + "boundary_ms_p99", _pct(b, 99), "ms", b.size)


def _pipeline_metrics(out: dict, sm: Summary, root: int, workload: str,
                      paths: dict, rows: int) -> None:
    w = "." + workload
    interactions = sm.where("agents.act").size
    loop_ns = sum(float(sm.self_ns[sm.where(n)].sum())
                  for n in ("bench.simulate", "bench.pair"))
    _metric(out, "bench.loop_self_us" + w, loop_ns / interactions / 1e3, "us",
            interactions)
    reward = sm.dur[sm.where("envs.reward")] / 1e3
    _metric(out, "envs.reward_us" + w, np.median(reward), "us", reward.size)
    pop = sm.dur[sm.where("envs.population")] / 1e6
    _metric(out, "envs.population_ms" + w, np.median(pop), "ms", pop.size)
    for metric, span in (("metrics.ledger_extend_s", "metrics.ledger_extend"),
                         ("metrics.curves_s", "metrics.curves"),
                         ("metrics.summary_s", "metrics.summary"),
                         ("bench.write_ledger_s", "bench.write_ledger")):
        _metric(out, metric + w, sm.dur[sm.where(span)].sum() / 1e9, "s")
    _metric(out, "metrics.ledger_rows" + w, rows, "count")
    _metric(out, "bench.ledger_bytes" + w, os.path.getsize(paths["ledger"]),
            "B")
    plots = sm.where("svgplot.write_plots")
    if plots.size:
        _metric(out, "svgplot.write_plots_ms", sm.dur[plots].sum() / 1e6, "ms")
    wall = float(sm.dur[root])
    layers = sm.layer_self_ns()
    for layer in RUN_LAYERS:
        if layer in layers:
            _metric(out, "layer_share.%s%s" % (layer, w), layers[layer] / wall,
                    "frac")


# ---------------------------------------------------------------------------
# direct calls on end-of-run state
# ---------------------------------------------------------------------------

def _gaussian_probes(out: dict, config, columns: dict, seed: int) -> None:
    """Conditional update, sample_mvn and accumulator adds on the last
    seed's hier-ts counts and sums."""
    run_seed = config.seeds[-1]
    task_ids, _, arms, rewards, _ = columns[("hier-ts", run_seed)]
    spec = config.spec_for_seed(run_seed)
    population = bench.make_population(spec)
    cfg, fm = spec.hierarchy_config(), population.feature_map
    n, k = spec.n_tasks, spec.n_arms
    counts, sums = np.zeros((n, k)), np.zeros((n, k))
    np.add.at(counts, (task_ids, arms), 1.0)
    np.add.at(sums, (task_ids, arms), rewards)
    prior_means = [fm.task_features(fm.metadata_for(t)) @ population.theta
                   for t in range(n)]
    rng = np.random.default_rng(seed)

    cond_ns, mvn_ns, beliefs = [], [], []
    for _ in range(PROBE_REPS):
        for t in range(n):
            t0 = _ns()
            belief = conditional_stats_update(prior_means[t], cfg.sigma_delta,
                                              cfg.sigma_noise, counts[t],
                                              sums[t])
            cond_ns.append(_ns() - t0)
            beliefs.append(belief)
    for mean, cov in beliefs:
        t0 = _ns()
        sample_mvn(mean, cov, rng)
        mvn_ns.append(_ns() - t0)
    acc = ThetaStatAccumulator(cfg, fm, range(n))
    acc_ns = []
    for tid, arm, reward in zip(task_ids, arms, rewards):
        t0 = _ns()
        acc.add(tid, arm, reward)
        acc_ns.append(_ns() - t0)
    for metric, samples in (("gaussian.conditional_update_us", cond_ns),
                            ("linalg.sample_mvn_us", mvn_ns),
                            ("gaussian.theta_acc_add_us", acc_ns)):
        _metric(out, metric, np.median(samples) / 1e3, "us", len(samples))


def _bernoulli_probes(out: dict, config, columns: dict, seed: int,
                      refreshes: int) -> None:
    """sample_theta_mcmc at the agent's default length on the first seed's
    hier-ts history, cut after a third, two thirds and all of its tasks."""
    run_seed = config.seeds[0]
    task_ids, rounds, arms, rewards, _ = columns[("hier-ts", run_seed)]
    spec = config.spec_for_seed(run_seed)
    population = bench.make_population(spec)
    cfg, fm = spec.hierarchy_config(), population.feature_map
    records = [InteractionRecord(task_id=t, action=a, reward=r,
                                 round_within_task=rnd)
               for t, rnd, a, r in zip(task_ids, rounds, arms, rewards)]
    rng = np.random.default_rng(seed)
    sweep_us, rates, warnings = [], [], 0
    for cut in (spec.n_tasks // 3, 2 * spec.n_tasks // 3, spec.n_tasks):
        h = History(r for r in records if r.task_id < cut)
        t0 = _ns()
        chain = sample_theta_mcmc(cfg, fm, h, rng, n_samples=MCMC_SAMPLES,
                                  burn_in=MCMC_BURN_IN)
        sweep_us.append((_ns() - t0) / 1e3 / (MCMC_SAMPLES + MCMC_BURN_IN))
        rates.append(chain.acceptance_rate)
        warnings += len(chain.warnings)
    _metric(out, "bernoulli.mcmc_sweep_us", np.median(sweep_us), "us",
            len(sweep_us))
    _metric(out, "bernoulli.mcmc_accept_rate", np.mean(rates), "frac",
            len(rates))
    _metric(out, "bernoulli.mcmc_warnings", warnings, "count")
    _metric(out, "bernoulli.mcmc_refreshes", refreshes, "count")


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def _timed_experiment(config, out_dir: str) -> tuple[float, dict]:
    gc.collect()
    start = time.perf_counter()
    paths = bench.run_experiment(config, out_dir)
    return time.perf_counter() - start, paths


def _timed_queries(queries: list) -> float:
    gc.collect()
    start = time.perf_counter()
    for _, fn in queries:
        harness.run_query(fn)
    return time.perf_counter() - start


def trace_run_workload(spec: dict) -> dict:
    workload, out_dir = spec["workload"], spec["out"]
    config = bench.ExperimentConfig.from_file(spec["config"])
    bench.run_experiment(bench.ExperimentConfig.from_file(spec["warmup"]),
                         os.path.join(out_dir, "warmup"))
    first_s, plain = _timed_experiment(config, os.path.join(out_dir, "run"))

    tr = Tracer()
    gc.collect()
    root, paths, columns, pair_policy = traced_experiment(
        config, os.path.join(out_dir, "traced"), tr)
    second_s, _ = _timed_experiment(config, os.path.join(out_dir, "run"))
    untraced_s = min(first_s, second_s)
    tr.write(os.path.join(out_dir, "spans.npz"))
    sm = Summary(tr)
    traced_s = sm.dur[root] / 1e9
    rows = wl.expected_rows(workload)

    checks = {"spans": sm.nesting_error()}
    if harness.sha256_file(paths["ledger"]) != harness.sha256_file(plain["ledger"]):
        checks["traced-ledger"] = "traced ledger.csv differs from run_experiment's"
    last = config.run_specs()[-1]
    expected = bench.run_pair(config, last, config.seeds[0])
    if not harness.columns_equal(columns[(last.name, config.seeds[0])], expected):
        checks["run-pair"] = ("traced columns differ from run_pair for (%s, %d)"
                              % (last.name, config.seeds[0]))

    out: dict = {}
    kind = config.spec_for_seed(config.seeds[0]).reward_kind
    if workload == "gauss-concurrent":
        _agent_metrics(out, sm, pair_policy, kind, wl.GAUSS_POLICIES)
        _gaussian_probes(out, config, columns, spec["seed"])
    elif workload == "bern-sequential":
        _agent_metrics(out, sm, pair_policy, kind, wl.BERN_POLICIES)
        hooks = sm.where("agents.end_of_task")
        refreshes = sum(pair_policy[p] == "hier-ts" for p in sm.parent[hooks])
        _bernoulli_probes(out, config, columns, spec["seed"], refreshes)
        derive = sm.dur[sm.where("priors.derive")] / 1e6
        _metric(out, "priors.derive_ms", np.median(derive), "ms", derive.size)
    _pipeline_metrics(out, sm, root, workload, paths, rows)
    _metric(out, "trace.overhead." + workload, traced_s / untraced_s - 1.0,
            "frac")
    return {"ops": rows, "failed": sum(1 for v in checks.values() if v),
            "metrics": out,
            "checks": checks, "traced_s": traced_s, "untraced_s": untraced_s,
            "spans": len(tr.start)}


def trace_posterior(spec: dict) -> dict:
    histories = harness.build_histories(spec["seed"])
    queries = harness.posterior_queries(histories)
    keys = [k for k, _ in queries]
    harness.warm_up_queries(queries)
    first_s = _timed_queries(queries)

    tr = Tracer()
    gc.collect()
    results, failed = [], 0
    root = tr.open("bench.posterior_mix")
    for (call, variant, hname, _), fn in queries:
        if call in ("woodbury", "naive"):
            name = "gaussian.%s.%s.%s" % (call, variant, hname)
        elif call == "theta":
            name = "gaussian.posterior_theta." + hname
        else:
            name = "priors.fit_variance." + hname
        with tr.span(name, root):
            res, bad = harness.run_query(fn)
        results.append(res)
        failed += bad
    tr.close(root)
    untraced_s = min(first_s, _timed_queries(queries))
    tr.write(os.path.join(spec["out"], "spans.npz"))
    sm = Summary(tr)
    traced_s = sm.dur[root] / 1e9

    out: dict = {}
    for variant in ("diag", "full"):
        for hname in wl.POSTERIOR_HISTORIES:
            d = sm.dur[sm.where("gaussian.woodbury.%s.%s" % (variant, hname))]
            _metric(out, "gaussian.woodbury_ms.%s.%s" % (variant, hname),
                    np.median(d) / 1e6, "ms", d.size)
    for hname in wl.POSTERIOR_HISTORIES:
        d = np.concatenate([sm.dur[sm.where("gaussian.naive.%s.%s" % (v, hname))]
                            for v in ("diag", "full")])
        _metric(out, "gaussian.naive_ms." + hname, np.median(d) / 1e6, "ms",
                d.size)
    for metric, span in (("gaussian.posterior_theta_ms.n2000",
                          "gaussian.posterior_theta.n2000"),
                         ("priors.fit_variance_ms.n2000",
                          "priors.fit_variance.n2000")):
        d = sm.dur[sm.where(span)]
        _metric(out, metric, np.median(d) / 1e6, "ms", d.size)
    w = "." + wl.POSTERIOR
    layers = sm.layer_self_ns()
    wall = float(sm.dur[root])
    for layer in POSTERIOR_LAYERS:
        _metric(out, "layer_share.%s%s" % (layer, w), layers.get(layer, 0.0) / wall,
                "frac")
    _metric(out, "trace.overhead" + w, traced_s / untraced_s - 1.0, "frac")

    bad_routes, worst = harness.route_disagreements(keys, results)
    checks = {"spans": sm.nesting_error()}
    if bad_routes:
        checks["routes"] = ("%d dense/blocked disagreements, worst %.3g"
                            % (bad_routes, worst))
    return {"ops": len(queries), "failed": failed + bad_routes, "metrics": out,
            "checks": checks, "traced_s": traced_s, "untraced_s": untraced_s,
            "spans": len(tr.start)}


def run(spec: dict) -> dict:
    if spec["workload"] == wl.POSTERIOR:
        return trace_posterior(spec)
    return trace_run_workload(spec)
