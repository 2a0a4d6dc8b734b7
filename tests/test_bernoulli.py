"""Beta-Bernoulli logistic model tests: parameterization, conjugacy, MCMC."""

import math

import numpy as np
import pytest

from scipy.special import expit

from hierbandit.bernoulli import (MEAN_CLIP, BetaParams, ThetaSampler,
                                  beta_binomial_log_marginal,
                                  beta_from_mean_precision,
                                  bblm_prior_for_task, clipped_logistic,
                                  conjugate_update, log_marginal_counts,
                                  logistic_beta_shapes, outcome_counts,
                                  precision_for_variance, sample_theta_counts,
                                  sample_theta_mcmc)
from hierbandit.core import (FeatureMap, HierarchyConfig, History,
                             InteractionRecord)
from hierbandit.envs import PopulationSpec, generate_population, noise_rng
from hierbandit.errors import ConfigError

from oracles import (bblm_counts_log_marginal_oracle, logistic,
                     theta_mcmc_history_oracle)


def test_mean_precision_round_trip():
    b = beta_from_mean_precision(0.5, 1.0)
    assert (b.alpha1, b.alpha2) == (0.5, 0.5)
    assert b.mean == 0.5
    np.testing.assert_allclose(b.variance, 0.125)
    # variance formula mu(1-mu) psi / (1 + psi)
    np.testing.assert_allclose(b.variance, 0.5 * 0.5 * 1.0 / 2.0)


def test_mean_precision_asymmetric():
    b = beta_from_mean_precision(0.2, 0.1)
    np.testing.assert_allclose((b.alpha1, b.alpha2), (2.0, 8.0))
    np.testing.assert_allclose(b.mean, 0.2)


def test_precision_for_variance_inverts():
    for mu, var in [(0.5, 0.125), (0.2, 0.01), (0.7, 0.05)]:
        psi = precision_for_variance(mu, var)
        np.testing.assert_allclose(
            beta_from_mean_precision(mu, psi).variance, var, rtol=1e-12)


def test_beta_params_validation():
    with pytest.raises(ConfigError):
        BetaParams(0.0, 1.0)
    with pytest.raises(ConfigError):
        beta_from_mean_precision(0.0, 1.0)
    with pytest.raises(ConfigError):
        beta_from_mean_precision(0.5, 0.0)
    with pytest.raises(ConfigError):
        precision_for_variance(0.5, 0.3)   # variance cap mu(1-mu)


@pytest.mark.parametrize("bad", [math.nan, math.inf, True],
                         ids=["nan", "inf", "bool"])
@pytest.mark.parametrize("field", ["alpha1", "alpha2"])
def test_beta_params_refuse_non_finite_and_bool_shapes(field, bad):
    shapes = {"alpha1": 0.5, "alpha2": 1.5, field: bad}
    with pytest.raises(ConfigError,
                       match="%s must be a finite number" % field):
        BetaParams(**shapes)


def test_conjugate_update_on_bool_counts_gives_float_shapes():
    # The beta-count-ts suite check counts each outcome as a bool.
    post = conjugate_update(BetaParams(0.5, 1.5), True, False)
    assert (post.alpha1, post.alpha2) == (1.5, 1.5)
    assert type(post.alpha1) is float and type(post.alpha2) is float


def clipped_logistic_means(fm, x, theta):
    """The clipped logistic mean of every arm of a task with metadata x."""
    return clipped_logistic(fm.task_features(x) @ theta)


def test_logistic_means_zero_theta():
    fm = FeatureMap.indicator_with_metadata(n_arms=3, dim=5)
    x = np.ones(fm.p)
    means = clipped_logistic_means(fm, x, np.zeros(5))
    np.testing.assert_array_equal(means, 0.5 * np.ones(3))


def test_logistic_means_clipped():
    fm = FeatureMap.custom(n_arms=1, dim=1, p=1,
                           fn=lambda x, a: np.array([x[0]]))
    big = clipped_logistic_means(fm, np.array([1.0]), np.array([1e4]))
    small = clipped_logistic_means(fm, np.array([1.0]), np.array([-1e4]))
    assert big[0] == 1.0 - 1e-6
    assert small[0] == 1e-6


def test_clipped_logistic_has_the_bits_of_np_clip():
    # The clamp is np.minimum(np.maximum(...)); it must give np.clip's bits
    # everywhere, the infinities, NaN and saturated logits included.
    edges = np.array([np.inf, -np.inf, np.nan, 800.0, -800.0, 0.0, -0.0,
                      13.8, -13.8, 1e-300])
    rng = np.random.default_rng(11)
    for z in [edges, edges.reshape(2, 5), rng.standard_normal(96) * 12.0,
              np.where(rng.random((8, 12)) < 0.2, np.nan,
                       rng.standard_normal((8, 12)) * 30.0)]:
        got = clipped_logistic(z)
        want = np.clip(expit(z), MEAN_CLIP, 1.0 - MEAN_CLIP)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert clipped_logistic(0.0) == 0.5


def test_logistic_means_log3():
    fm = FeatureMap.custom(n_arms=1, dim=1, p=1,
                           fn=lambda x, a: np.array([x[0]]))
    means = clipped_logistic_means(fm, np.array([1.0]),
                                   np.array([math.log(3.0)]))
    np.testing.assert_allclose(means, [0.75], atol=1e-12)


def test_conjugate_update_identity_and_additivity():
    b = BetaParams(1.0, 1.0)
    assert conjugate_update(b, 0, 0) == BetaParams(1.0, 1.0)
    b2 = conjugate_update(BetaParams(0.5, 0.5), 3, 1)
    assert (b2.alpha1, b2.alpha2) == (3.5, 1.5)
    heavy = conjugate_update(BetaParams(1.0, 1.0), 100, 0)
    assert heavy.mean > 0.99


def test_conjugate_update_commutes():
    b = BetaParams(0.5, 1.5)
    seq = conjugate_update(conjugate_update(b, 2, 1), 1, 3)
    batch = conjugate_update(b, 3, 4)
    assert seq == batch


def test_bblm_prior_for_task():
    fm = FeatureMap.indicator_with_metadata(n_arms=2, dim=3)
    x = np.array([0.5, -0.5])
    theta = np.array([0.2, -0.1, 0.4])
    priors = bblm_prior_for_task(theta, fm, x, psi=0.5)
    for a, prior in enumerate(priors):
        mu = logistic(float(fm.feature(x, a) @ theta))
        np.testing.assert_allclose(prior.mean, mu, atol=1e-12)
        np.testing.assert_allclose(prior.alpha1, mu / 0.5, atol=1e-12)


def _tiny_bblm(d=2, k=1, n_tasks=3, seed=0):
    rng = np.random.default_rng(seed)
    p = k * (d - k)
    metadata = {t: rng.standard_normal(p) for t in range(n_tasks)}
    fm = FeatureMap.indicator_with_metadata(k, d, task_metadata=metadata)
    cfg = HierarchyConfig(mu_theta=np.full(d, 0.1),
                          sigma_theta=0.5 * np.eye(d), psi=1.0)
    return cfg, fm


def test_log_marginal_counts_matches_oracle():
    cfg, fm = _tiny_bblm(d=3, k=2, n_tasks=1, seed=5)
    rng = np.random.default_rng(6)
    theta = rng.standard_normal(3) * 0.5
    x = fm.metadata_for(0)
    successes = np.array([3.0, 0.0])
    failures = np.array([1.0, 2.0])
    got = log_marginal_counts(theta, cfg, fm, x, successes, failures)
    phi_rows = [fm.feature(x, a) for a in range(2)]
    want = bblm_counts_log_marginal_oracle(theta, phi_rows, successes,
                                           failures, cfg.psi)
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_mcmc_prior_recovery_no_data():
    cfg, fm = _tiny_bblm(d=1, k=1, n_tasks=1)
    rng = np.random.default_rng(8)
    chain = sample_theta_mcmc(cfg, fm, History(), rng, n_samples=10_000,
                              burn_in=1_000)
    draws = chain.samples[:, 0]
    # batch-means standard error to absorb random-walk autocorrelation
    batches = draws.reshape(20, -1).mean(axis=1)
    se = batches.std(ddof=1) / np.sqrt(len(batches))
    assert abs(draws.mean() - cfg.mu_theta[0]) <= 4.0 * se
    np.testing.assert_allclose(draws.std(ddof=1),
                               np.sqrt(cfg.sigma_theta[0, 0]), rtol=0.15)


def test_mcmc_parameter_recovery_single_seed():
    spec = PopulationSpec(n_tasks=100, horizon=50, n_arms=2, dim=3,
                          reward_kind="bernoulli", psi=1.0, seed=0)
    pop = generate_population(spec)
    rng = noise_rng(0)
    h = History()
    for task in pop.tasks:
        arms = rng.integers(0, spec.n_arms, size=spec.horizon)
        u = rng.random(spec.horizon)
        for t in range(spec.horizon):
            a = int(arms[t])
            h.append(InteractionRecord(
                task_id=task.task_id, action=a,
                reward=float(u[t] < task.true_means[a]),
                round_within_task=t + 1))
    chain = sample_theta_mcmc(spec.hierarchy_config(), pop.feature_map, h,
                              np.random.default_rng(100))
    assert np.all(np.abs(chain.mean - pop.theta) <= 3.0 * chain.std)
    assert not chain.warnings


def test_mcmc_deterministic():
    cfg, fm = _tiny_bblm(n_tasks=2, seed=2)
    h = History([InteractionRecord(0, 0, 1.0, 1),
                 InteractionRecord(1, 0, 0.0, 1)])
    a = sample_theta_mcmc(cfg, fm, h, np.random.default_rng(9),
                          n_samples=200, burn_in=50)
    b = sample_theta_mcmc(cfg, fm, h, np.random.default_rng(9),
                          n_samples=200, burn_in=50)
    np.testing.assert_array_equal(a.samples, b.samples)
    assert a.acceptance_rate == b.acceptance_rate


def test_mcmc_acceptance_warning():
    cfg, fm = _tiny_bblm(n_tasks=2, seed=3)
    h = History([InteractionRecord(0, 0, 1.0, 1)])
    chain = sample_theta_mcmc(cfg, fm, h, np.random.default_rng(10),
                              n_samples=300, burn_in=0, initial_step=80.0)
    assert chain.acceptance_rate < 0.05
    assert any("acceptance" in w for w in chain.warnings)


def test_mcmc_needs_some_task():
    cfg = HierarchyConfig(mu_theta=np.zeros(2), sigma_theta=np.eye(2),
                          psi=1.0)
    fm = FeatureMap.indicator_with_metadata(n_arms=1, dim=2)
    with pytest.raises(ConfigError):
        sample_theta_mcmc(cfg, fm, History(), np.random.default_rng(0))
    with pytest.raises(ConfigError):
        sample_theta_mcmc(cfg, fm, History(), np.random.default_rng(0),
                          n_samples=0)


def test_mcmc_rejects_out_of_range_arm():
    # Arm 2 of task 0 must not be counted as a pull of task 1's arm 0.
    cfg = HierarchyConfig(mu_theta=np.zeros(2), sigma_theta=np.eye(2),
                          psi=1.0)
    fm = FeatureMap.indicator_with_metadata(
        n_arms=2, dim=2, task_metadata={0: np.zeros(0), 1: np.zeros(0)})
    h = History([InteractionRecord(0, 2, 1.0, 1),
                 InteractionRecord(1, 0, 0.0, 1)])
    with pytest.raises(ConfigError, match="out of range"):
        sample_theta_mcmc(cfg, fm, h, np.random.default_rng(0))


def _random_bblm_history(seed, n_tasks, k, d, pulled_tasks, rounds):
    """Non-diagonal prior, indicator features and a history over the given
    tasks only (the rest of the registry has no pulls)."""
    rng = np.random.default_rng(seed)
    metadata = {t: rng.standard_normal(k * (d - k)) for t in range(n_tasks)}
    fm = FeatureMap.indicator_with_metadata(k, d, task_metadata=metadata)
    a = rng.standard_normal((d, d))
    cfg = HierarchyConfig(mu_theta=0.3 * rng.standard_normal(d),
                          sigma_theta=a @ a.T / d + 0.5 * np.eye(d),
                          psi=float(rng.uniform(0.2, 2.0)))
    h = History()
    for t in range(rounds):
        for tid in pulled_tasks:
            h.append(InteractionRecord(tid, int(rng.integers(k)),
                                       float(rng.random() < 0.4), t + 1))
    return cfg, fm, h


@pytest.mark.parametrize("n_tasks, k, d, pulled, rounds, burn_in", [
    (24, 4, 6, range(24), 20, 200),       # the bern-sequential shape
    (5, 2, 3, [0, 2, 4], 7, 50),          # tasks 1 and 3 never pulled
    (3, 1, 1, [1], 12, 0),                # burn_in = 0
    (8, 3, 5, [7, 0, 3], 4, 30),          # unsorted first pulls
    (4, 2, 4, [], 0, 40),                 # empty history: known_tasks route
])
def test_mcmc_counts_kernel_matches_history_reference(n_tasks, k, d, pulled,
                                                      rounds, burn_in):
    cfg, fm, h = _random_bblm_history(n_tasks + 10 * k + d, n_tasks, k, d,
                                      list(pulled), rounds)
    rng, ref_rng = np.random.default_rng(77), np.random.default_rng(77)
    chain = sample_theta_mcmc(cfg, fm, h, rng, n_samples=150,
                              burn_in=burn_in)
    samples, rate, step, _ = theta_mcmc_history_oracle(
        cfg.mu_theta, cfg.sigma_theta, cfg.psi, fm, h, ref_rng,
        n_samples=150, burn_in=burn_in)
    np.testing.assert_array_equal(chain.samples, samples)
    assert chain.acceptance_rate == rate
    assert chain.step_scale == step
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("n_tasks, k, d, pulled, rounds", [
    (24, 4, 6, range(24), 5),             # the bern-sequential shape
    (6, 1, 1, [0, 2, 3], 8),              # d = 1, three tasks never pulled
    (4, 2, 4, [], 0),                     # empty history: the prior
])
def test_theta_sampler_target_is_prior_plus_beta_binomial_marginals(
        n_tasks, k, d, pulled, rounds):
    # The chain's log target is the whitened log prior plus every task's
    # log_marginal_counts: the arm means integrated out, not sampled.
    cfg, fm, h = _random_bblm_history(3 * n_tasks + d, n_tasks, k, d,
                                      list(pulled), rounds)
    tasks = list(range(n_tasks))
    phi_rows = np.concatenate([fm.task_features(fm.metadata_for(t))
                               for t in tasks])
    successes, failures = outcome_counts(h, tasks, k)
    idle = (successes + failures).ravel() == 0
    assert idle.any() and (len(h) == 0) == idle.all()
    chain = ThetaSampler(cfg)
    lower = np.linalg.cholesky(cfg.sigma_theta)
    rng = np.random.default_rng(d)
    for _ in range(25):
        theta = cfg.mu_theta + 2.0 * rng.standard_normal(d)
        white = np.linalg.solve(lower, theta - cfg.mu_theta)
        log_prior = -0.5 * float(white @ white)
        want = log_prior + sum(
            log_marginal_counts(theta, cfg, fm, fm.metadata_for(t),
                                successes[t], failures[t]) for t in tasks)
        got = chain.log_target(phi_rows, successes.ravel(), failures.ravel(),
                               theta)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
        a1, a2 = logistic_beta_shapes(phi_rows, theta, cfg.psi)
        terms = beta_binomial_log_marginal(a1, a2, successes.ravel(),
                                           failures.ravel())
        assert np.all(terms[idle] == 0.0)
        assert np.all(terms[~idle] < 0.0)
        if len(h) == 0:
            np.testing.assert_allclose(got, log_prior, rtol=0.0, atol=1e-12)


def test_sample_theta_mcmc_targets_prior_without_history():
    # With no records the chain conditions on every registered task, all of
    # whose slots have no pulls: the same chain as on one all-zero slot.
    cfg, fm, _ = _random_bblm_history(5, 3, 2, 4, [], 0)
    chain = sample_theta_mcmc(cfg, fm, History(), np.random.default_rng(12),
                              n_samples=300, burn_in=40)
    prior_only = sample_theta_counts(cfg, np.zeros((1, 4)), np.zeros(1),
                                     np.zeros(1), np.random.default_rng(12),
                                     n_samples=300, burn_in=40)
    np.testing.assert_array_equal(chain.samples, prior_only.samples)


def test_sample_theta_counts_rejects_bad_shapes():
    cfg, fm, _ = _random_bblm_history(1, 2, 2, 3, [0], 3)
    phi_rows = np.concatenate([fm.task_features(fm.metadata_for(t))
                               for t in range(2)])
    rng = np.random.default_rng(0)
    for rows, s, f in ((phi_rows, np.zeros(3), np.zeros(4)),
                       (phi_rows, np.zeros(4), np.zeros(3)),
                       (phi_rows[:, :2], np.zeros(4), np.zeros(4)),
                       (phi_rows[:0], np.zeros(0), np.zeros(0))):
        with pytest.raises(ConfigError):
            sample_theta_counts(cfg, rows, s, f, rng)
    with pytest.raises(ConfigError):
        sample_theta_counts(cfg, phi_rows, np.zeros(4), np.zeros(4), rng,
                            n_samples=0)


@pytest.mark.parametrize("step", [0.0, -1.0, float("nan"), float("inf")])
def test_sample_theta_counts_rejects_bad_initial_step(step):
    # 0 froze the chain at mu_theta, the others gave a NaN or infinite
    # scale; each showed only as an acceptance warning.
    cfg, fm, _ = _random_bblm_history(1, 2, 2, 3, [0], 3)
    phi_rows = np.concatenate([fm.task_features(fm.metadata_for(t))
                               for t in range(2)])
    with pytest.raises(ConfigError, match="initial_step"):
        sample_theta_counts(cfg, phi_rows, np.ones(4), np.ones(4),
                            np.random.default_rng(0), initial_step=step)
