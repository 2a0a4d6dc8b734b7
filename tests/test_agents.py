"""Policy behavior: sampling paths, reductions, schedules, and the registry."""

import math
from types import MethodType, SimpleNamespace

import numpy as np
import pytest

import hierbandit.agents
from hierbandit.agents import (AgentContext, AlignedHierTS, HierTS,
                               HierTSBatched, IndividualTS, LinearTS, MetaTS,
                               OracleTS, OracleTSBernoulli, Policy, PooledTS,
                               _pick, algorithm_names, make_policy)
from hierbandit.bernoulli import bblm_prior_for_task
from hierbandit.core import (FeatureMap, HierarchyConfig, History,
                             InteractionRecord)
from hierbandit.envs import PopulationSpec, RewardTable, generate_population
from hierbandit._linalg import sample_mvn
from hierbandit.errors import ConfigError, NumericalError, ScheduleError
from hierbandit.gaussian import (ThetaStatAccumulator,
                                 conditional_stats_update, posterior_r_naive)
from hierbandit.priors import derive_baseline_priors

from oracles import (bblm_counts_log_marginal_oracle,
                     quadrature_density_oracle, scalar_conjugate_oracle,
                     theta_mcmc_history_oracle, tv_distance_from_samples)


def _ctx(spec, seed=0, schedule_kind="concurrent"):
    pop = generate_population(spec)
    pri = derive_baseline_priors(spec, pop.theta, n_mc=4000)
    return pop, AgentContext(pop, pri, np.random.default_rng(seed),
                             schedule_kind)


def _stub_ctx(cfg, fm, n_tasks, rng, schedule_kind="sequential"):
    """Context around a hand-built hierarchy, for prior-shape examples the
    population generator cannot express (it always centers theta at zero)."""
    spec = SimpleNamespace(hierarchy_config=lambda: cfg, n_tasks=n_tasks,
                           n_arms=fm.n_arms, reward_kind="gaussian")
    pop = SimpleNamespace(spec=spec, feature_map=fm, theta=None)
    return AgentContext(pop, None, rng, schedule_kind)


def test_pick_ties_to_lowest_index():
    assert _pick(np.array([0.3, 0.7, 0.7])) == 1
    assert _pick(np.array([1.0, 1.0, 1.0])) == 0


def test_pick_row_wise_ties():
    scores = np.array([[0.3, 0.7, 0.7], [1.0, 1.0, 1.0], [2.0, 0.0, 2.0],
                       [0.0, 1.0, 50.0]])
    assert _pick(scores).tolist() == [1, 0, 0, 2]
    rows = np.random.default_rng(0).normal(0.0, 100.0, size=(50, 4))
    assert _pick(rows).tolist() == [int(_pick(r)) for r in rows]


def test_act_degenerate_prior_is_deterministic():
    # Prior arm means (1, 0) with (numerically) zero prior covariance on
    # both levels: the sampled means collapse onto the prior and the argmax
    # always lands on arm 0.
    fm = FeatureMap.indicator_with_metadata(
        n_arms=2, dim=2, task_metadata={0: np.zeros(0)})
    cfg = HierarchyConfig(mu_theta=np.array([1.0, 0.0]),
                          sigma_theta=1e-8 * np.eye(2),
                          sigma_delta=np.zeros((2, 2)), sigma_noise=1.0)
    agent = HierTS(_stub_ctx(cfg, fm, 1, np.random.default_rng(0)))
    assert all(agent.act(0) == 0 for _ in range(200))


def test_act_symmetric_prior_balanced():
    spec = PopulationSpec(n_tasks=1, horizon=4, n_arms=2, dim=2, seed=1)
    _, ctx = _ctx(spec, seed=2)
    agent = make_policy("hier-ts", ctx)
    n = 10_000
    pulls = sum(agent.act(0) for _ in range(n))
    se = 0.5 / math.sqrt(n)
    assert abs(pulls / n - 0.5) <= 4.0 * se


def test_act_deterministic_given_seed_and_history():
    spec = PopulationSpec(n_tasks=2, horizon=6, n_arms=3, dim=4, seed=3)
    actions = []
    for _ in range(2):
        _, ctx = _ctx(spec, seed=4)
        agent = make_policy("hier-ts", ctx)
        seq = []
        rng = np.random.default_rng(5)
        for t in range(6):
            for i in range(2):
                a = agent.act(i)
                agent.update(i, a, float(rng.standard_normal()))
                seq.append(a)
        actions.append(seq)
    assert actions[0] == actions[1]


def test_batched_refresh_one_matches_plain():
    spec = PopulationSpec(n_tasks=3, horizon=8, n_arms=2, dim=3, seed=6)
    pop = generate_population(spec)
    pri = derive_baseline_priors(spec, pop.theta)
    plain = HierTS(AgentContext(pop, pri, np.random.default_rng(7), "concurrent"))
    batched = HierTSBatched(
        AgentContext(pop, pri, np.random.default_rng(7), "concurrent"),
        refresh_every=1)
    rng = np.random.default_rng(8)
    for t in range(8):
        for i in range(3):
            r = float(rng.standard_normal())
            a1, a2 = plain.act(i), batched.act(i)
            assert a1 == a2
            plain.update(i, a1, r)
            batched.update(i, a2, r)


def test_batched_refresh_one_mixture_moments():
    # The per-step sampling distribution is the theta-mixture of
    # conditionals; its marginal mean must agree with the exact posterior.
    spec = PopulationSpec(n_tasks=3, horizon=6, n_arms=2, dim=3, seed=11)
    pop = generate_population(spec)
    pri = derive_baseline_priors(spec, pop.theta)
    ctx = AgentContext(pop, pri, np.random.default_rng(5), "concurrent")
    agent = HierTSBatched(ctx, refresh_every=1)
    rng = np.random.default_rng(9)
    from hierbandit.core import History, InteractionRecord
    h = History()
    for t in range(6):
        for i in range(3):
            a = agent.act(i)
            r = float(pop.tasks[i].true_means[a] + rng.standard_normal())
            agent.update(i, a, r)
            h.append(InteractionRecord(i, a, r, t + 1))
    n = 20_000
    draws = np.empty((n, spec.n_arms))
    for s in range(n):
        draws[s] = agent._conditional_draw(
            0, agent.acc.features[0] @ agent._theta_draw())
    exact = posterior_r_naive(spec.hierarchy_config(), pop.feature_map, h, 0,
                              pop.tasks[0].metadata)
    se = draws.std(axis=0, ddof=1) / math.sqrt(n)
    assert np.all(np.abs(draws.mean(axis=0) - exact.mean) <= 3.0 * se)


def test_batched_never_refresh_reduces_to_oracle():
    spec = PopulationSpec(n_tasks=3, horizon=10, n_arms=2, dim=3, seed=12)
    pop = generate_population(spec)
    pri = derive_baseline_priors(spec, pop.theta)
    rng_a = np.random.default_rng(13)
    batched = HierTSBatched(
        AgentContext(pop, pri, rng_a, "concurrent"), refresh_every=10 ** 9)
    theta0 = batched._current_theta()
    rng_b = np.random.default_rng(0)
    rng_b.bit_generator.state = rng_a.bit_generator.state
    oracle = OracleTS(AgentContext(pop, pri, rng_b, "concurrent"),
                      theta=theta0)
    rng = np.random.default_rng(14)
    for t in range(10):
        for i in range(3):
            r = float(rng.standard_normal())
            a1, a2 = batched.act(i), oracle.act(i)
            assert a1 == a2
            batched.update(i, a1, r)
            oracle.update(i, a2, r)
        batched.end_of_round()
        oracle.end_of_round()


def test_batched_bernoulli_beta_mechanism():
    spec = PopulationSpec(n_tasks=2, horizon=4, n_arms=3, dim=3,
                          reward_kind="bernoulli", psi=1.0, seed=15)
    _, ctx = _ctx(spec, seed=16)
    agent = make_policy("hier-ts", ctx, {"sweeps": 4, "burn_in": 2})
    agent.update(0, 1, 1.0)
    agent.update(0, 1, 0.0)
    agent.update(0, 2, 1.0)
    probe = np.random.default_rng(0)
    probe.bit_generator.state = agent.rng.bit_generator.state
    want = _pick(probe.beta(agent.alpha1[0] + agent.sums[0],
                            agent.alpha2[0]
                            + (agent.counts[0] - agent.sums[0])))
    assert agent.act(0) == want


class _HistoryHierTSBernoulli:
    """Bernoulli hier-ts as it runs on a History: one warm chain advanced by
    the frozen History-based sampler at every task end (burn_in sweeps from
    mu_theta the first time, then sweeps adapting sweeps from the carried
    theta, log step and sweep count) and Beta priors rebuilt arm by arm."""

    def __init__(self, ctx, burn_in, sweeps):
        self.cfg, self.fm, self.rng = ctx.cfg, ctx.fm, ctx.rng
        self.psi = ctx.population.spec.psi
        self.burn_in, self.sweeps = burn_in, sweeps
        self.chain = (None, None, 0)  # theta, log step, sweeps so far
        self.history = History()
        self.wins = np.zeros((ctx.n_tasks, ctx.n_arms))
        self.losses = np.zeros((ctx.n_tasks, ctx.n_arms))
        self.alpha1 = np.zeros((ctx.n_tasks, ctx.n_arms))
        self.alpha2 = np.zeros((ctx.n_tasks, ctx.n_arms))
        self._set_theta(self.cfg.mu_theta
                        + np.sqrt(np.diag(self.cfg.sigma_theta))
                        * self.rng.standard_normal(self.cfg.dim))

    def _set_theta(self, theta):
        for i in range(self.wins.shape[0]):
            for a, prior in enumerate(bblm_prior_for_task(
                    theta, self.fm, self.fm.metadata_for(i), self.psi)):
                self.alpha1[i, a] = prior.alpha1
                self.alpha2[i, a] = prior.alpha2

    def act(self, task_id):
        return _pick(self.rng.beta(self.alpha1[task_id] + self.wins[task_id],
                                   self.alpha2[task_id]
                                   + self.losses[task_id]))

    def update(self, task_id, arm, reward):
        if reward >= 0.5:
            self.wins[task_id, arm] += 1.0
        else:
            self.losses[task_id, arm] += 1.0
        rnd = len(self.history.task_records(task_id)) + 1
        self.history.append(InteractionRecord(task_id, arm, reward, rnd))

    def end_of_task(self, task_id):
        _warm_oracle_refresh(self, self.rng)
        self._set_theta(self.chain[0])


def _warm_oracle_refresh(ref, rng):
    """One warm refresh of ref.chain by the History oracle on ref.history;
    returns the acceptance rate of its `sweeps` sweeps."""
    theta, log_step, done = ref.chain
    burn_in = ref.burn_in if done == 0 else 0
    samples, rate, _, log_step = theta_mcmc_history_oracle(
        ref.cfg.mu_theta, ref.cfg.sigma_theta, ref.cfg.psi, ref.fm,
        ref.history, rng, n_samples=ref.sweeps, burn_in=burn_in, start=theta,
        log_step=log_step, sweep_offset=done, adapt_kept=True)
    ref.chain = (samples[-1], log_step, done + burn_in + ref.sweeps)
    return rate


def _play_sequential(agent, pop, horizon, seed):
    """Arms chosen over a sequential schedule against a fixed reward table."""
    u = np.random.default_rng(seed).random((len(pop.tasks), horizon))
    arms = []
    for task in pop.tasks:
        for t in range(horizon):
            arm = agent.act(task.task_id)
            arms.append(arm)
            agent.update(task.task_id, arm,
                         float(u[task.task_id, t] < task.true_means[arm]))
        agent.end_of_task(task.task_id)
    return arms


def test_bernoulli_hier_ts_matches_history_sampler_agent():
    spec = PopulationSpec(n_tasks=6, horizon=8, n_arms=4, dim=6,
                          reward_kind="bernoulli", psi=0.8, seed=61)
    pop, ctx = _ctx(spec, seed=62, schedule_kind="sequential")
    _, ref_ctx = _ctx(spec, seed=62, schedule_kind="sequential")
    agent = make_policy("hier-ts", ctx, {"sweeps": 30, "burn_in": 60})
    ref = _HistoryHierTSBernoulli(ref_ctx, burn_in=60, sweeps=30)
    assert _play_sequential(agent, pop, 8, 63) \
        == _play_sequential(ref, pop, 8, 63)
    assert agent.rng.bit_generator.state == ref.rng.bit_generator.state
    np.testing.assert_array_equal(agent.alpha1, ref.alpha1)
    np.testing.assert_array_equal(agent.alpha2, ref.alpha2)
    np.testing.assert_array_equal(agent.chain.theta, ref.chain[0])
    assert agent.chain.log_step == ref.chain[1]
    assert agent.chain.n_sweeps == ref.chain[2] == 60 + 6 * 30


def test_bernoulli_hier_ts_records_chain_diagnostics():
    spec = PopulationSpec(n_tasks=6, horizon=5, n_arms=3, dim=4,
                          reward_kind="bernoulli", seed=65)
    pop, ctx = _ctx(spec, seed=66, schedule_kind="sequential")
    agent = make_policy("hier-ts", ctx, {"sweeps": 2, "burn_in": 0})
    # the window is tested on the acceptance of two refreshes pooled
    agent.warn_sweeps = 4
    ref = SimpleNamespace(cfg=ctx.cfg, fm=ctx.fm, history=History(),
                          burn_in=0, sweeps=2, chain=(None, None, 0))
    rates, warnings, pool = [], [], []
    for task in pop.tasks:
        for rnd in range(1, spec.horizon + 1):
            arm = agent.act(task.task_id)
            agent.update(task.task_id, arm, float(arm == 0))
            ref.history.append(InteractionRecord(task.task_id, arm,
                                                 float(arm == 0), rnd))
        probe = np.random.default_rng()
        probe.bit_generator.state = agent.rng.bit_generator.state
        rate = _warm_oracle_refresh(ref, probe)
        rates.append(rate)
        pool.append(rate)
        if len(pool) == 2:
            pooled = sum(pool) / 2
            pool = []
            if not 0.05 <= pooled <= 0.95:
                warnings.append("post-burn-in acceptance rate %.3f outside "
                                "[0.05, 0.95]; treat the chain as suspect"
                                % pooled)
        agent.end_of_task(task.task_id)
        assert agent.rng.bit_generator.state == probe.bit_generator.state
    assert agent.acceptance_rates == rates
    assert agent.mcmc_warnings == warnings
    assert warnings, "the short chains should trip the acceptance window"
    # single refreshes outside the window that the pooled test forgives
    assert len(warnings) < sum(not 0.05 <= r <= 0.95 for r in rates)


@pytest.mark.parametrize("options", [
    {"burn_in": -5}, {"burn_in": True}, {"burn_in": 2.0},
    {"sweeps": 0}, {"sweeps": False}, {"sweeps": 20.0},
    {"refresh_every": 0}, {"refresh_every": True}, {"refresh_every": 4.5},
    {"n_samples": 400}])
def test_bernoulli_hier_ts_rejects_bad_chain_options(options):
    # Caught when the agent is built, not inside its first refresh.
    spec = PopulationSpec(n_tasks=2, horizon=3, n_arms=2, dim=2,
                          reward_kind="bernoulli", seed=56)
    _, ctx = _ctx(spec, seed=57)
    with pytest.raises(ConfigError):
        make_policy("hier-ts", ctx, options)


def _warm_chain_draws(n_replicates, seed):
    """Criterion 04's d=1 instance (six tasks, one arm, eight pulls each,
    theta = 0.6) fed to default Bernoulli hier-ts agents one task per
    refresh.  Returns the per-task counts and the chain's theta after each
    refresh, (n_replicates, n_tasks), one independent agent per row."""
    spec = PopulationSpec(n_tasks=6, horizon=8, n_arms=1, dim=1,
                          reward_kind="bernoulli", psi=1.0, seed=seed)
    pop = generate_population(spec)
    rng = np.random.default_rng(404)
    mu = 1.0 / (1.0 + np.exp(-0.6))
    counts = []
    for _ in range(spec.n_tasks):
        r = rng.beta(mu / spec.psi, (1.0 - mu) / spec.psi)
        wins = float((rng.random(spec.horizon) < r).sum())
        counts.append((wins, spec.horizon - wins))
    draws = np.zeros((n_replicates, spec.n_tasks))
    for rep in range(n_replicates):
        agent = make_policy("hier-ts", AgentContext(
            pop, None, np.random.default_rng([seed, rep]), "sequential"))
        for tid, (wins, losses) in enumerate(counts):
            agent.counts[tid, 0], agent.sums[tid, 0] = wins + losses, wins
            agent.end_of_task(tid)
            draws[rep, tid] = agent.chain.theta[0]
    return counts, draws


def test_bernoulli_hier_ts_warm_chain_tracks_posterior():
    # The warm chain's theta after each refresh, across independent agents,
    # must follow the quadrature posterior of the counts seen so far (the
    # i.i.d. noise floor of this TV at 2,000 draws is about 0.02).
    counts, draws = _warm_chain_draws(2000, seed=406)
    grid = np.linspace(-4.0, 4.0, 1201)
    for last in range(len(counts)):
        seen = counts[:last + 1]

        def log_density(point):
            return -0.5 * point ** 2 + bblm_counts_log_marginal_oracle(
                np.array([point]), [np.ones(1)] * len(seen),
                [s for s, _ in seen], [f for _, f in seen], 1.0)

        density = quadrature_density_oracle(grid, log_density)
        tv = tv_distance_from_samples(draws[:, last], grid, density)
        assert tv < 0.05, "refresh %d: TV %.4f" % (last, tv)


def test_bernoulli_beta_priors_match_per_arm_rebuild():
    spec = PopulationSpec(n_tasks=7, horizon=3, n_arms=3, dim=5,
                          reward_kind="bernoulli", psi=0.6, seed=66)
    pop, ctx = _ctx(spec, seed=67)
    hier = make_policy("hier-ts", ctx)
    oracle = make_policy("oracle-ts", ctx)
    fm = ctx.fm
    rng = np.random.default_rng(68)
    for theta, agent in ((pop.theta, oracle), (None, hier), (None, hier)):
        if theta is None:
            theta = 3.0 * rng.standard_normal(spec.dim)
            agent._set_theta(theta)
        for i in range(spec.n_tasks):
            priors = bblm_prior_for_task(theta, fm, fm.metadata_for(i),
                                         spec.psi)
            np.testing.assert_array_equal(
                agent.alpha1[i], [b.alpha1 for b in priors])
            np.testing.assert_array_equal(
                agent.alpha2[i], [b.alpha2 for b in priors])
    with pytest.raises(ConfigError):
        hier._set_theta(np.full(spec.dim, np.nan))
    with pytest.raises(ConfigError):
        OracleTSBernoulli(ctx, theta=np.full(spec.dim, np.nan))


def test_aligned_forced_round_robin():
    spec = PopulationSpec(n_tasks=2, horizon=7, n_arms=3, dim=4, seed=17)
    _, ctx = _ctx(spec, seed=18, schedule_kind="sequential")
    agent = make_policy("hier-ts-aligned", ctx)
    for expect in range(3):
        a = agent.act(0)
        assert a == expect
        agent.update(0, a, 100.0 * (expect == 1))  # rewards must not matter


def test_aligned_requires_sequential_schedule():
    spec = PopulationSpec(n_tasks=2, horizon=4, n_arms=2, dim=2, seed=19)
    _, ctx = _ctx(spec, seed=20)
    with pytest.raises(ScheduleError):
        make_policy("hier-ts-aligned", ctx)


def test_aligned_first_task_draw_from_pure_prior():
    spec = PopulationSpec(n_tasks=2, horizon=6, n_arms=2, dim=3, seed=21)
    pop = generate_population(spec)
    pri = derive_baseline_priors(spec, pop.theta)
    cfg = spec.hierarchy_config()
    agent = AlignedHierTS(
        AgentContext(pop, pri, np.random.default_rng(22), "sequential"))
    rng = np.random.default_rng(23)
    for expect in range(2):
        a = agent.act(0)
        agent.update(0, a, float(rng.standard_normal()))
    probe = np.random.default_rng(0)
    probe.bit_generator.state = agent.rng.bit_generator.state
    agent.act(0)  # round n_arms + 1 fixes the task prior
    # Replay the draw: with no finished tasks the posterior is the prior, so
    # theta^e ~ N(mu_theta, Sigma_theta) via the same inverse-Cholesky path.
    lower = np.linalg.cholesky(np.linalg.inv(cfg.sigma_theta))
    z = probe.standard_normal(cfg.dim)
    draw = cfg.mu_theta + np.linalg.solve(lower.T, z)
    phi = pop.feature_map.task_features(pop.tasks[0].metadata)
    np.testing.assert_allclose(agent._fixed_prior_mean[0], phi @ draw,
                               atol=1e-12)


def test_aligned_excludes_post_alignment_records():
    spec = PopulationSpec(n_tasks=3, horizon=8, n_arms=2, dim=3, seed=24)
    pop = generate_population(spec)
    pri = derive_baseline_priors(spec, pop.theta)
    cfg = spec.hierarchy_config()
    agent = AlignedHierTS(
        AgentContext(pop, pri, np.random.default_rng(25), "sequential"))
    align_records = []
    rng = np.random.default_rng(26)
    for t in range(8):
        a = agent.act(0)
        r = float(rng.standard_normal()) if t < 2 else 1e6
        agent.update(0, a, r)
        if t < 2:
            align_records.append((a, r))
    agent.end_of_task(0)
    reference = ThetaStatAccumulator(cfg, pop.feature_map, range(3))
    for a, r in align_records:
        reference.add(0, a, r)
    np.testing.assert_allclose(agent.acc.phi_vinv_phi,
                               reference.phi_vinv_phi, atol=1e-12)
    np.testing.assert_allclose(agent.acc.phi_vinv_resid,
                               reference.phi_vinv_resid, atol=1e-12)


def test_oracle_prior_collapse_plays_best_arm():
    spec = PopulationSpec(n_tasks=3, horizon=5, n_arms=3, dim=4,
                          sigma1_sq=0.0, seed=27)
    pop, ctx = _ctx(spec, seed=28)
    agent = make_policy("oracle-ts", ctx)
    for i in range(3):
        best = int(np.argmax(pop.tasks[i].true_means))
        for _ in range(5):
            a = agent.act(i)
            assert a == best
            agent.update(i, a, -50.0)  # adversarial feedback cannot move it


def test_oracle_never_reads_other_tasks():
    spec = PopulationSpec(n_tasks=2, horizon=10, n_arms=2, dim=3, seed=29)
    pop = generate_population(spec)
    pri = derive_baseline_priors(spec, pop.theta)
    clean = OracleTS(AgentContext(pop, pri, np.random.default_rng(30), "concurrent"))
    loaded = OracleTS(AgentContext(pop, pri, np.random.default_rng(30), "concurrent"))
    for _ in range(25):
        loaded.update(1, 0, 77.0)
    seq_clean = [clean.act(0) for _ in range(20)]
    seq_loaded = [loaded.act(0) for _ in range(20)]
    assert seq_clean == seq_loaded


def test_oracle_align_schedule_matches_modified_variant():
    spec = PopulationSpec(n_tasks=2, horizon=6, n_arms=3, dim=3, seed=31)
    _, ctx = _ctx(spec, seed=32, schedule_kind="sequential")
    agent = make_policy("oracle-ts", ctx, {"align": True})
    for i in range(2):
        for expect in range(3):
            a = agent.act(i)
            assert a == expect
            agent.update(i, a, 5.0)


def test_individual_single_task_scalar_conjugate():
    spec = PopulationSpec(n_tasks=1, horizon=4, n_arms=2, dim=2,
                          sigma_noise=0.8, seed=33)
    _, ctx = _ctx(spec, seed=34)
    agent = make_policy("individual-ts", ctx)
    rewards = [(0, 1.4), (0, 0.2), (1, -0.5)]
    for arm, r in rewards:
        agent.update(0, arm, r)
    post = [scalar_conjugate_oracle(agent.prior_mean, agent.prior_var,
                                    0.8 ** 2, [r for a, r in rewards if a == arm])
            for arm in range(2)]
    probe = np.random.default_rng(0)
    probe.bit_generator.state = agent.rng.bit_generator.state
    z = probe.standard_normal(2)
    draw = np.array([m + math.sqrt(v) * z[a] for a, (m, v) in enumerate(post)])
    assert agent.act(0) == _pick(draw)


def test_pooled_converges_to_one_shared_arm():
    # Two tasks with opposite best arms but an asymmetric average: the
    # shared belief locks onto the population-average winner, so each
    # task's pull distribution collapses (low entropy at T=500).
    spec = PopulationSpec(n_tasks=2, horizon=500, n_arms=2, dim=2,
                          sigma_noise=0.3, seed=35)
    _, ctx = _ctx(spec, seed=36)
    agent = make_policy("pooled-ts", ctx)
    truth = np.array([[3.0, 0.0], [1.0, 1.5]])
    pulls = np.zeros((2, 2))
    rng = np.random.default_rng(37)
    for t in range(500):
        for i in range(2):
            a = agent.act(i)
            pulls[i, a] += 1
            agent.update(i, a, float(truth[i, a] + 0.3 * rng.standard_normal()))
    freq = pulls / pulls.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        ent = -np.where(freq > 0, freq * np.log(freq), 0.0).sum(axis=1)
    assert ent.max() < 0.1


def test_linear_ts_sublinear_when_realizable():
    spec = PopulationSpec(n_tasks=4, horizon=400, n_arms=2, dim=3,
                          sigma1_sq=0.0, sigma_noise=0.5, seed=38)
    pop, ctx = _ctx(spec, seed=39)
    agent = make_policy("linear-ts", ctx)
    rng = np.random.default_rng(40)
    per_round = np.zeros(400)
    for t in range(400):
        for i in range(4):
            a = agent.act(i)
            means = pop.tasks[i].true_means
            per_round[t] += float(means.max() - means[a])
            agent.update(i, a, float(means[a] + 0.5 * rng.standard_normal()))
    first, second = per_round[:200].sum(), per_round[200:].sum()
    assert second < 0.5 * first


def test_meta_hyper_posterior_no_data():
    spec = PopulationSpec(n_tasks=3, horizon=4, n_arms=2, dim=4, seed=41)
    _, ctx = _ctx(spec, seed=42)
    agent = MetaTS(ctx)
    mean, var = agent._hyper_posterior()
    np.testing.assert_array_equal(mean, np.zeros(2))
    np.testing.assert_allclose(var, np.full(2, spec.scale))


def test_meta_hyper_posterior_substitution():
    spec = PopulationSpec(n_tasks=2, horizon=8, n_arms=2, dim=4,
                          sigma1_sq=0.3, sigma_noise=1.2, seed=43)
    _, ctx = _ctx(spec, seed=44)
    agent = MetaTS(ctx)
    rbar = 0.9
    for _ in range(4):
        agent.update(0, 0, rbar)
    mean, var = agent._hyper_posterior()
    s_sq = 0.3 + 1.2 ** 2 / 4
    d_inv_prec = 1.0 / spec.scale
    np.testing.assert_allclose(mean[0],
                               (rbar / s_sq) / (1.0 / s_sq + d_inv_prec))
    np.testing.assert_allclose(var[0], 1.0 / (1.0 / s_sq + d_inv_prec))
    # untouched arm keeps the hyper-prior
    np.testing.assert_allclose(mean[1], 0.0)
    np.testing.assert_allclose(var[1], spec.scale)


def test_meta_opposite_tasks_cancel():
    spec = PopulationSpec(n_tasks=2, horizon=8, n_arms=2, dim=4, seed=45)
    _, ctx = _ctx(spec, seed=46)
    agent = MetaTS(ctx)
    for _ in range(6):
        agent.update(0, 0, 1.7)
        agent.update(1, 0, -1.7)
    mean, _ = agent._hyper_posterior()
    np.testing.assert_allclose(mean[0], 0.0, atol=1e-14)


def test_meta_resamples_at_schedule_boundaries():
    spec = PopulationSpec(n_tasks=2, horizon=4, n_arms=2, dim=3, seed=47)
    _, ctx = _ctx(spec, seed=48)
    agent = MetaTS(ctx)
    before = agent._hyper_sample.copy()
    agent.end_of_round()
    assert not np.array_equal(agent._hyper_sample, before)


def test_meta_bernoulli_candidate_weights():
    spec = PopulationSpec(n_tasks=2, horizon=4, n_arms=2, dim=2,
                          reward_kind="bernoulli", psi=0.7, seed=49)
    _, ctx = _ctx(spec, seed=50)
    agent = make_policy("meta-ts", ctx)
    agent.update(0, 0, 1.0)
    agent.update(0, 0, 1.0)
    agent.update(0, 1, 0.0)
    agent.update(1, 0, 0.0)

    def lbeta(a, b):
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    got = agent._log_weights()
    for c in range(agent.n_candidates):
        want = 0.0
        for i in range(2):
            for a in range(2):
                a1 = agent.cand_a1[c, a]
                a2 = agent.cand_a2[c, a]
                n, wins = agent.counts[i, a], agent.sums[i, a]
                want += lbeta(a1 + wins, a2 + (n - wins)) - lbeta(a1, a2)
        np.testing.assert_allclose(got[c], want, atol=1e-10)


def _oracle_on(sigma_delta, sigma_noise, rng):
    """oracle-ts on one task with identity features, for core-level checks."""
    k = sigma_delta.shape[0]
    fm = FeatureMap.indicator_with_metadata(
        n_arms=k, dim=k, task_metadata={0: np.zeros(0)})
    cfg = HierarchyConfig(mu_theta=np.zeros(k), sigma_theta=np.eye(k),
                          sigma_delta=sigma_delta, sigma_noise=sigma_noise)
    return OracleTS(_stub_ctx(cfg, fm, 1, rng, "concurrent"),
                    theta=np.zeros(k))


def test_conditional_core_matches_dense_update():
    # The closed-form per-arm draw equals conditional_stats_update followed
    # by sample_mvn from the same generator state, and leaves the generator
    # where the dense path leaves it.
    rng = np.random.default_rng(71)
    cases = []
    for _ in range(20):
        k = int(rng.integers(1, 9))
        counts = rng.integers(0, 6, size=k).astype(float)
        cases.append((np.diag(rng.uniform(0.05, 2.0, size=k)), counts))
    cases.append((np.diag([0.4, 0.9, 1.3]), np.zeros(3)))     # no pulls yet
    cases.append((np.zeros((4, 4)), np.array([0.0, 3.0, 1.0, 7.0])))
    cases.append((np.array([[0.7]]), np.array([5.0])))         # K = 1
    for sigma_delta, counts in cases:
        k = counts.shape[0]
        sigma_noise = float(rng.uniform(0.3, 1.5))
        sums = counts * rng.normal(0.0, 2.0, size=k) \
            + np.sqrt(counts) * rng.standard_normal(k)
        prior_mean = rng.normal(0.0, 1.5, size=k)
        seed = int(rng.integers(1 << 30))
        agent = _oracle_on(sigma_delta, sigma_noise, np.random.default_rng(seed))
        agent.counts[0] = counts
        agent.sums[0] = sums
        draw = agent._conditional_draw(0, prior_mean)
        ref_rng = np.random.default_rng(seed)
        mean, cov = conditional_stats_update(prior_mean, sigma_delta,
                                             sigma_noise, counts, sums)
        ref = sample_mvn(mean, cov, ref_rng)
        np.testing.assert_allclose(draw, ref, rtol=0.0, atol=1e-12)
        assert agent.rng.bit_generator.state == ref_rng.bit_generator.state
        if not sigma_delta.any():
            np.testing.assert_array_equal(draw, prior_mean)


def test_conditional_core_rejects_non_finite_draw():
    agent = _oracle_on(np.eye(2), 1.0, np.random.default_rng(0))
    agent.update(0, 1, np.inf)
    with pytest.raises(NumericalError, match="non-finite"):
        agent.act(0)


def test_gaussian_agents_reject_dense_effects():
    sigma_delta = np.array([[1.0, 0.3], [0.3, 1.0]])
    with pytest.raises(ConfigError):
        _oracle_on(sigma_delta, 1.0, np.random.default_rng(0))
    fm = FeatureMap.indicator_with_metadata(
        n_arms=2, dim=2, task_metadata={0: np.zeros(0)})
    cfg = HierarchyConfig(mu_theta=np.zeros(2), sigma_theta=np.eye(2),
                          sigma_delta=sigma_delta, sigma_noise=1.0)
    with pytest.raises(ConfigError):
        HierTS(_stub_ctx(cfg, fm, 1, np.random.default_rng(0)))


def test_non_pd_precision_raises_numerical_error():
    spec = PopulationSpec(n_tasks=2, horizon=4, n_arms=3, dim=4, seed=73)
    _, ctx = _ctx(spec, seed=74)
    hier = HierTS(ctx)
    hier.acc.phi_vinv_phi -= 1e6 * np.eye(spec.dim)
    with pytest.raises(NumericalError, match="not positive definite"):
        hier.act(0)
    linear = LinearTS(ctx)
    linear.a_mat = -np.eye(spec.dim)
    with pytest.raises(NumericalError, match="not positive definite"):
        linear.act(0)


def _break_precision(policy):
    precision = policy.acc.phi_vinv_phi if isinstance(policy, HierTS) \
        else policy.a_mat
    precision -= 1e6 * np.eye(precision.shape[0])


def _nan_theta(policy):
    linear = policy.acc.phi_vinv_resid if isinstance(policy, HierTS) \
        else policy.b_vec
    linear[0] = np.nan


def _nan_arm_draw(policy):
    policy.sums[0, 1] = np.nan


@pytest.mark.parametrize("cls, breaks, match", [
    (HierTS, _break_precision, "not positive definite"),
    (HierTS, _nan_theta, "non-finite"),
    (HierTS, _nan_arm_draw, "non-finite"),
    (LinearTS, _break_precision, "not positive definite"),
    (LinearTS, _nan_theta, "non-finite")])
@pytest.mark.parametrize("kernel", [False, True])
def test_precision_kernels_raise_numerical_errors(cls, breaks, match, kernel):
    # A precision that fails to factor or a statistic that turns a theta or
    # arm draw non-finite raises NumericalError from the segment kernel as
    # from the act/update loop: no jitter, no fallback.
    spec = PopulationSpec(n_tasks=3, horizon=4, n_arms=3, dim=4, seed=75)
    pop, ctx = _ctx(spec, seed=76)
    policy = cls(ctx)
    breaks(policy)
    play = cls.play if kernel else Policy.play
    task_ids = np.array([2, 0, 1, 0])
    payoffs = RewardTable(pop).arm_rewards(task_ids, np.array([1, 1, 1, 2]))
    with pytest.raises(NumericalError, match=match):
        play(policy, task_ids, payoffs)


def test_registry_names():
    assert algorithm_names("gaussian") == (
        "hier-ts", "hier-ts-aligned", "hier-ts-batch", "individual-ts",
        "linear-ts", "meta-ts", "oracle-ts", "pooled-ts")
    assert algorithm_names("bernoulli") == (
        "hier-ts", "individual-ts", "meta-ts", "oracle-ts", "pooled-ts")


def test_registry_validation():
    spec = PopulationSpec(n_tasks=2, horizon=4, n_arms=2, dim=2, seed=51)
    _, ctx = _ctx(spec, seed=52)
    with pytest.raises(ConfigError):
        make_policy("ucb", ctx)
    with pytest.raises(ConfigError):
        make_policy("hier-ts", ctx, {"refresh_every": 3})
    with pytest.raises(ConfigError):
        make_policy("oracle-ts", ctx, {"theta": np.zeros(2)})
    agent = make_policy("hier-ts-batch", ctx, {"refresh_every": 5})
    assert agent.refresh_every == 5


@pytest.mark.parametrize("kind", ["gaussian", "bernoulli"])
def test_every_policy_act_returns_a_python_int(kind):
    # Policy.act -> int: every registered policy answers act with a Python
    # int, not a NumPy integer.
    spec = PopulationSpec(n_tasks=2, horizon=4, n_arms=3, dim=4,
                          reward_kind=kind, seed=53)
    pop, ctx = _ctx(spec, seed=54, schedule_kind="sequential")
    for name in algorithm_names(kind):
        policy = make_policy(name, AgentContext(
            pop, ctx.priors, np.random.default_rng(54), "sequential"))
        assert type(policy.act(0)) is int, name


_COUNT_TS = [("gaussian", name) for name in (
    "hier-ts", "hier-ts-batch", "hier-ts-aligned", "oracle-ts",
    "individual-ts", "pooled-ts", "meta-ts")]
_COUNT_TS += [("bernoulli", name) for name in (
    "hier-ts", "oracle-ts", "individual-ts", "pooled-ts", "meta-ts")]


@pytest.mark.parametrize("kind, name", _COUNT_TS)
def test_count_core_tallies_pulls_and_sums(kind, name):
    # Every count-TS policy keeps per-slot pull counts and reward sums (for
    # Bernoulli rewards, successes: a reward >= 0.5), whether the rewards
    # come one by one through update or through play, over segments of
    # distinct slots and a segment that repeats one (three pulls of two
    # arms: a vectorized += would drop one).
    spec = PopulationSpec(n_tasks=3, horizon=4, n_arms=2, dim=2,
                          reward_kind=kind, seed=58)
    values = [0.2, 0.5, 1.0] if kind == "bernoulli" else [0.7, -1.3, 2.25]
    rng = np.random.default_rng(59)
    rows = [(tid, int(rng.integers(2)), values[(3 * rnd + tid) % 3])
            for rnd in range(4) for tid in range(3)]
    one_by_one = make_policy(name, _ctx(spec, 60, "sequential")[1])
    for row in rows:
        one_by_one.update(*row)
    pop, ctx = _ctx(spec, 60, "sequential")
    played = make_policy(name, ctx)
    table = RewardTable(pop)
    played_rows = []
    for tids, rounds in (([0, 1, 2], [1, 1, 1]), ([1, 1, 1], [2, 3, 4]),
                         ([2, 0], [2, 2])):
        payoffs = table.arm_rewards(np.array(tids), np.array(rounds))
        arms = played.play(np.array(tids), payoffs)
        rewards = payoffs[np.arange(len(tids)), arms]
        played_rows += zip(tids, arms.tolist(), rewards.tolist())
    n_slots = 1 if name == "pooled-ts" else spec.n_tasks
    for agent, agent_rows in ((one_by_one, rows), (played, played_rows)):
        want_counts = np.zeros((n_slots, 2))
        want_sums = np.zeros((n_slots, 2))
        for tid, arm, reward in agent_rows:
            want_counts[tid % n_slots, arm] += 1.0
            want_sums[tid % n_slots, arm] += \
                float(reward >= 0.5) if kind == "bernoulli" else reward
        np.testing.assert_array_equal(agent.counts, want_counts)
        np.testing.assert_array_equal(agent.sums, want_sums)


@pytest.mark.parametrize("kind, name, options", [
    ("gaussian", "hier-ts", {}), ("gaussian", "hier-ts-aligned", {}),
    ("gaussian", "pooled-ts", {}), ("gaussian", "linear-ts", {}),
    ("bernoulli", "pooled-ts", {})])
def test_batched_calls_refuse_unflagged_policies(monkeypatch, kind, name,
                                                 options):
    # A policy whose decisions in a round read that round's updates would
    # be left stale by the count core's vectorized step (Gaussian hier-ts:
    # its coefficient accumulator), so its play never takes that step, even
    # on a round of distinct tasks, and matches the base loop.
    spec = PopulationSpec(n_tasks=3, horizon=4, n_arms=2, dim=2,
                          reward_kind=kind, seed=65)
    pop = generate_population(spec)
    table = RewardTable(pop)

    def refuse(*args):
        raise AssertionError("vectorized step taken")

    monkeypatch.setattr(hierbandit.agents._CountTS, "_play_batch", refuse)
    runs = []
    for reference in (False, True):
        agent = make_policy(name, _ctx(spec, 66, "sequential")[1], options)
        play = MethodType(Policy.play, agent) if reference else agent.play
        ids = np.array([0, 1, 2])
        cols = [play(ids, table.arm_rewards(ids, rnd)) for rnd in (1, 2)]
        runs.append((cols + [getattr(agent, "counts", np.zeros(0))],
                     agent.rng.bit_generator.state))
    (own, state), (looped, state_looped) = runs
    assert all(np.array_equal(a, b) for a, b in zip(own, looped))
    assert state == state_looped


@pytest.mark.parametrize("kind, name", [
    ("gaussian", "hier-ts-batch"), ("gaussian", "meta-ts"),
    ("bernoulli", "hier-ts"), ("bernoulli", "meta-ts")])
def test_boundary_policies_treat_both_hooks_alike(kind, name):
    # end_of_round and end_of_task are the same schedule boundary to a
    # policy: the generator and the next draws must not tell them apart.
    spec = PopulationSpec(n_tasks=3, horizon=4, n_arms=2, dim=2,
                          reward_kind=kind, seed=61)
    options = {"sweeps": 2, "burn_in": 3} \
        if (kind, name) == ("bernoulli", "hier-ts") else {}
    by_round, by_task = (make_policy(name, _ctx(spec, 62)[1], options)
                         for _ in range(2))
    rewards = [1.0, 0.0, 1.0] if kind == "bernoulli" else [0.4, -1.1, 0.9]
    ids = np.arange(spec.n_tasks)
    for _ in range(3):
        for agent in (by_round, by_task):
            for tid in ids.tolist():
                agent.update(tid, agent.act(tid), rewards[tid])
        by_round.end_of_round()
        by_task.end_of_task(int(ids[-1]))
        assert by_round.rng.bit_generator.state \
            == by_task.rng.bit_generator.state
        np.testing.assert_array_equal(by_round._draw(ids), by_task._draw(ids))
        assert by_round.rng.bit_generator.state \
            == by_task.rng.bit_generator.state


@pytest.mark.parametrize("align", ["false", 0, None])
def test_oracle_ts_align_must_be_bool(align):
    spec = PopulationSpec(n_tasks=2, horizon=4, n_arms=2, dim=2, seed=63)
    _, ctx = _ctx(spec, seed=64, schedule_kind="sequential")
    with pytest.raises(ConfigError):
        make_policy("oracle-ts", ctx, {"align": align})
    assert make_policy("oracle-ts", ctx, {"align": np.bool_(True)}).align


def test_stacked_prior_means_equal_per_task_products():
    # hier-ts-batch forms a segment's prior means as features[ids] @ theta;
    # the scalar path forms features[id] @ theta task by task.  The two must
    # agree bit for bit, or the batched round would move the ledger.  The
    # features here are dense: a population's indicator-and-metadata rows
    # have so few nonzeros that every summation order agrees on them.
    rng = np.random.default_rng(55)
    for _ in range(500):
        n, k, d = (int(v) for v in rng.integers(1, [40, 12, 30]))
        features = rng.normal(0.0, rng.uniform(0.1, 10.0), size=(n + 2, k, d))
        theta = rng.standard_normal(d)
        ids = np.sort(rng.choice(n + 2, size=n, replace=False))
        assert np.array_equal(features[ids] @ theta,
                              np.stack([features[i] @ theta for i in ids]))
