"""Policy behavior: sampling paths, reductions, schedules, and the registry."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from hierbandit.agents import (AgentContext, AlignedHierTS, HierTS,
                               HierTSBatched, IndividualTS, LinearTS, MetaTS,
                               OracleTS, PooledTS, _pick, algorithm_names,
                               make_policy)
from hierbandit.core import FeatureMap, HierarchyConfig
from hierbandit.envs import PopulationSpec, generate_population
from hierbandit._linalg import sample_mvn
from hierbandit.errors import ConfigError, NumericalError, ScheduleError
from hierbandit.gaussian import (ThetaStatAccumulator,
                                 conditional_stats_update, posterior_r_naive)
from hierbandit.priors import derive_baseline_priors

from oracles import scalar_conjugate_oracle


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
    agent = make_policy("hier-ts", ctx, {"n_samples": 4, "burn_in": 2})
    agent.update(0, 1, 1.0)
    agent.update(0, 1, 0.0)
    agent.update(0, 2, 1.0)
    probe = np.random.default_rng(0)
    probe.bit_generator.state = agent.rng.bit_generator.state
    want = _pick(probe.beta(agent.alpha1[0] + agent.wins[0],
                            agent.alpha2[0] + agent.losses[0]))
    assert agent.act(0) == want


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
                want += lbeta(a1 + agent.wins[i, a], a2 + agent.losses[i, a]) \
                    - lbeta(a1, a2)
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
