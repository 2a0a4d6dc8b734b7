"""Gaussian posterior tests against independent conditioning oracles."""

from dataclasses import replace

import numpy as np
import pytest

import hierbandit.gaussian as gaussian
from hierbandit._linalg import (chol_factor, chol_solve, sample_mvn,
                                sample_mvn_precision)
from hierbandit.core import (FeatureMap, HierarchyConfig, History,
                             InteractionRecord)
from hierbandit.envs import PopulationSpec, generate_population
from hierbandit.errors import ConfigError, NumericalError
from hierbandit.gaussian import (GaussianBelief, GPConfig, ThetaPosterior,
                                 ThetaStatAccumulator, conditional_r_given_theta,
                                 conditional_stats_update, gaussian_obs_update,
                                 marginal_task_belief, posterior_r_gp,
                                 posterior_r_naive, posterior_r_woodbury,
                                 posterior_theta)
from hierbandit.priors import log_marginal_likelihood

from conftest import (EFFECT_KINDS, dense_effect_rows, effect_cov,
                      oracle_record_list, random_cov, random_instance)
from oracles import (joint_posterior_oracle, ridge_posterior_oracle,
                     scalar_conjugate_oracle, target_records,
                     theta_posterior_oracle)


def _cfg_args(cfg):
    return cfg.mu_theta, cfg.sigma_theta, cfg.sigma_delta, cfg.sigma_noise


def test_prior_predictive_identity_map():
    cfg = HierarchyConfig(mu_theta=np.zeros(2), sigma_theta=np.eye(2),
                          sigma_delta=np.eye(2), sigma_noise=1.0)
    fm = FeatureMap.indicator_with_metadata(n_arms=2, dim=2)
    b = posterior_r_naive(cfg, fm, History(), 0, np.zeros(0))
    np.testing.assert_array_equal(b.mean, np.zeros(2))
    np.testing.assert_allclose(b.cov, 2.0 * np.eye(2))


def test_scalar_worked_example():
    cfg = HierarchyConfig(mu_theta=np.zeros(1), sigma_theta=np.eye(1),
                          sigma_delta=np.eye(1), sigma_noise=1.0)
    fm = FeatureMap.custom(n_arms=1, dim=1, p=0, fn=lambda x, a: np.ones(1),
                           task_metadata={0: np.zeros(0)})
    h = History([InteractionRecord(0, 0, 2.0, 1)])
    b = posterior_r_naive(cfg, fm, h, 0, np.zeros(0))
    # prior var of r is sigma_theta + sigma_delta = 2, noise 1:
    # mean = 2/(2+1) * R = 4/3, cov = 2 - 4/3 = 2/3.
    np.testing.assert_allclose(b.mean, [4.0 / 3.0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(b.cov, [[2.0 / 3.0]], rtol=0, atol=1e-12)
    shrink = (1.0 + 1.0) / (1.0 + 1.0 + 1.0)
    np.testing.assert_allclose(b.mean, [shrink * 2.0], atol=1e-12)


def test_naive_matches_joint_oracle_fixed_shape():
    rng = np.random.default_rng(7)
    k, d, n_tasks = 3, 4, 4
    p = k * (d - k)
    metadata = {t: rng.standard_normal(p) for t in range(n_tasks)}
    fm = FeatureMap.indicator_with_metadata(k, d, task_metadata=metadata)
    a = rng.standard_normal((d, d))
    sd = rng.standard_normal((k, k))
    cfg = HierarchyConfig(mu_theta=rng.standard_normal(d),
                          sigma_theta=a @ a.T / d + 0.3 * np.eye(d),
                          sigma_delta=sd @ sd.T / k + 0.2 * np.eye(k),
                          sigma_noise=0.8)
    h = History()
    for j in range(10):
        h.append(InteractionRecord(int(rng.integers(0, n_tasks)),
                                   int(rng.integers(0, k)),
                                   float(rng.standard_normal()), j + 1))
    b = posterior_r_naive(cfg, fm, h, 0, metadata[0])
    mean, cov = joint_posterior_oracle(
        *_cfg_args(cfg), target_records(oracle_record_list(fm, h), 0,
                                        fm.task_features(metadata[0])),
        fm.task_features(metadata[0]))
    np.testing.assert_allclose(b.mean, mean, atol=1e-10)
    np.testing.assert_allclose(b.cov, cov, atol=1e-10)


def test_naive_matches_joint_oracle_randomized():
    rng = np.random.default_rng(11)
    for _ in range(40):
        cfg, fm, h, tid, x = random_instance(rng)
        b = posterior_r_naive(cfg, fm, h, tid, x)
        mean, cov = joint_posterior_oracle(
            *_cfg_args(cfg), target_records(oracle_record_list(fm, h), tid,
                                            fm.task_features(x)),
            fm.task_features(x))
        np.testing.assert_allclose(b.mean, mean, atol=1e-9)
        np.testing.assert_allclose(b.cov, cov, atol=1e-9)


def test_woodbury_matches_naive_randomized():
    rng = np.random.default_rng(13)
    for i in range(60):
        cfg, fm, h, tid, x = random_instance(rng)
        if i >= 40:
            kind = ("rank-one", "zero")[i % 2]
            cfg = replace(cfg, sigma_delta=effect_cov(rng, fm.n_arms, kind))
        bn = posterior_r_naive(cfg, fm, h, tid, x)
        bw = posterior_r_woodbury(cfg, fm, h, tid, x)
        np.testing.assert_allclose(bw.mean, bn.mean, atol=1e-9)
        np.testing.assert_allclose(bw.cov, bn.cov, atol=1e-9)


@pytest.mark.parametrize("kind", EFFECT_KINDS)
def test_kernel_workspace_matches_dense_v(kind):
    # All five workspace outputs against the dense n x n V of the history,
    # cross terms for a pulled target and for a target without records.
    rng = np.random.default_rng(17)
    hits = 0
    for _ in range(30):
        cfg, fm, h, _, _ = random_instance(rng)
        if len(h) == 0:
            continue
        hits += 1
        cfg = replace(cfg, sigma_delta=effect_cov(rng, fm.n_arms, kind))
        tasks, actions, phi, resid, v = dense_effect_rows(cfg, fm, h)
        vinv_phi = np.linalg.solve(v, phi)
        vinv_resid = np.linalg.solve(v, resid)
        ws = gaussian.KernelWorkspace(cfg, fm, h)
        np.testing.assert_allclose(ws.phi_vinv_phi, phi.T @ vinv_phi,
                                   atol=1e-10)
        np.testing.assert_allclose(ws.phi_vinv_resid, phi.T @ vinv_resid,
                                   atol=1e-10)
        np.testing.assert_allclose(ws.resid_vinv_resid, resid @ vinv_resid,
                                   atol=1e-10)
        np.testing.assert_allclose(ws.logdet_v, np.linalg.slogdet(v)[1],
                                   atol=1e-10)
        unpulled = len(fm.known_tasks())
        for target in (int(tasks[-1]), unpulled):
            m = cfg.sigma_delta[:, actions] * (tasks == target)
            want = (m @ vinv_phi, m @ vinv_resid, m @ np.linalg.solve(v, m.T))
            for got, ref in zip(ws.task_cross_terms(target), want):
                np.testing.assert_allclose(got, ref, atol=1e-10)
    assert hits >= 10


@pytest.mark.parametrize("route", ["naive", "woodbury", "theta",
                                   "log-marginal", "conditional", "marginal",
                                   "accumulator"])
@pytest.mark.parametrize("size", [1, 3])
def test_routes_reject_sigma_delta_of_wrong_size(route, size):
    fm = FeatureMap.indicator_with_metadata(
        n_arms=2, dim=2, task_metadata={0: np.zeros(0)})
    cfg = HierarchyConfig(mu_theta=np.zeros(2), sigma_theta=np.eye(2),
                          sigma_delta=0.5 * np.eye(size), sigma_noise=1.0)
    call = {
        "naive": lambda h: posterior_r_naive(cfg, fm, h, 0, np.zeros(0)),
        "woodbury": lambda h: posterior_r_woodbury(cfg, fm, h, 0,
                                                   np.zeros(0)),
        "theta": lambda h: posterior_theta(cfg, fm, h),
        "log-marginal": lambda h: log_marginal_likelihood(
            1.0, cfg.sigma_delta, fm, h, cfg.mu_theta, cfg.sigma_theta),
        "conditional": lambda h: conditional_r_given_theta(
            cfg, fm, h, np.zeros(2), np.zeros(0)),
        "marginal": lambda h: marginal_task_belief(
            cfg, fm, ThetaPosterior(np.zeros(2), np.eye(2)), np.zeros(0),
            np.array([0.0, len(h)]), np.array([0.0, 0.5 * len(h)])),
        "accumulator": lambda h: ThetaStatAccumulator(cfg, fm, [0]).add(
            0, 1, 0.5),
    }[route]
    for h in (History(), History([InteractionRecord(0, 1, 0.5, 1)])):
        with pytest.raises(ConfigError,
                           match="sigma_delta is %d x %d" % (size, size)):
            call(h)


@pytest.mark.parametrize("route", ["naive", "woodbury", "theta"])
def test_routes_never_see_a_non_finite_reward(route):
    """A NaN reward once made the dense route raise scipy's raw ValueError
    and the blocked and theta routes return a NaN mean; the history that
    carries it can no longer be built."""
    cfg, fm, h, target, x = random_instance(np.random.default_rng(101))
    call = {
        "naive": lambda h: posterior_r_naive(cfg, fm, h, target, x),
        "woodbury": lambda h: posterior_r_woodbury(cfg, fm, h, target, x),
        "theta": lambda h: posterior_theta(cfg, fm, h),
    }[route]
    records = list(h)
    assert np.isfinite(call(History(records)).mean).all()
    with pytest.raises(ConfigError, match="reward must be a finite number"):
        call(History([replace(records[0], reward=np.nan)] + records[1:]))


@pytest.mark.parametrize("route", ["naive", "woodbury", "theta"])
def test_routes_never_see_a_nan_mu_theta(route):
    """A NaN in mu_theta once made the dense route raise scipy's raw
    ValueError and the blocked and theta routes return a NaN mean; the
    config that carries it can no longer be built."""
    cfg, fm, h, target, x = random_instance(np.random.default_rng(101))
    call = {
        "naive": lambda cfg: posterior_r_naive(cfg, fm, h, target, x),
        "woodbury": lambda cfg: posterior_r_woodbury(cfg, fm, h, target, x),
        "theta": lambda cfg: posterior_theta(cfg, fm, h),
    }[route]
    assert len(h) and np.isfinite(call(cfg).mean).all()
    mu_theta = cfg.mu_theta.copy()
    mu_theta[0] = np.nan
    with pytest.raises(ConfigError, match="mu_theta must be finite"):
        call(replace(cfg, mu_theta=mu_theta))


@pytest.mark.parametrize("route", ["naive", "woodbury", "conditional",
                                   "marginal", "gp"])
def test_routes_refuse_a_non_finite_query(route):
    # One registered task and a query x of length p = 4; a NaN in x once
    # gave NaN means.
    fm = FeatureMap.indicator_with_metadata(
        n_arms=2, dim=4, task_metadata={0: np.full(4, 0.5)})
    cfg = HierarchyConfig(mu_theta=np.zeros(4), sigma_theta=np.eye(4),
                          sigma_delta=0.5 * np.eye(2), sigma_noise=1.0)
    gp = GPConfig(mean_fns=[np.sum] * 2, kernel_fns=[np.dot] * 2,
                  sigma_delta=0.5 * np.eye(2), sigma_noise=1.0)
    h = History([InteractionRecord(0, 1, 0.5, 1)])
    call = {
        "naive": lambda x: posterior_r_naive(cfg, fm, h, 1, x),
        "woodbury": lambda x: posterior_r_woodbury(cfg, fm, h, 1, x),
        "conditional": lambda x: conditional_r_given_theta(
            cfg, fm, h, np.zeros(4), x),
        "marginal": lambda x: marginal_task_belief(
            cfg, fm, ThetaPosterior(np.zeros(4), np.eye(4)), x,
            np.array([0.0, 1.0]), np.array([0.0, 0.5])),
        "gp": lambda x: posterior_r_gp(gp, h, 1, x,
                                       metadata_lookup=fm.metadata_for),
    }[route]
    assert np.isfinite(call(np.zeros(4)).mean).all()
    for bad in (np.nan, np.inf):
        with pytest.raises(ConfigError, match="must be finite"):
            call(np.array([0.0, bad, 0.0, 0.0]))


def test_woodbury_empty_history_is_prior_predictive():
    cfg = HierarchyConfig(mu_theta=np.ones(2), sigma_theta=np.eye(2),
                          sigma_delta=0.5 * np.eye(2), sigma_noise=1.0)
    fm = FeatureMap.indicator_with_metadata(n_arms=2, dim=2)
    bn = posterior_r_naive(cfg, fm, History(), 3, np.zeros(0))
    bw = posterior_r_woodbury(cfg, fm, History(), 3, np.zeros(0))
    np.testing.assert_array_equal(bw.mean, bn.mean)
    np.testing.assert_array_equal(bw.cov, bn.cov)
    np.testing.assert_allclose(bw.mean, np.ones(2))
    np.testing.assert_allclose(bw.cov, 1.5 * np.eye(2))


def test_theta_posterior_empty_history():
    cfg = HierarchyConfig(mu_theta=np.array([0.3, -0.1]),
                          sigma_theta=np.diag([2.0, 0.5]),
                          sigma_delta=np.eye(2), sigma_noise=1.0)
    fm = FeatureMap.indicator_with_metadata(n_arms=2, dim=2)
    tp = posterior_theta(cfg, fm, History())
    np.testing.assert_array_equal(tp.mean, cfg.mu_theta)
    np.testing.assert_array_equal(tp.cov, cfg.sigma_theta)


def test_theta_posterior_ridge_limit():
    rng = np.random.default_rng(23)
    metadata = {t: rng.standard_normal(1) for t in range(6)}
    fm = FeatureMap.custom(n_arms=1, dim=1, p=1,
                           fn=lambda x, a: np.array([x[0]]),
                           task_metadata=metadata)
    cfg = HierarchyConfig(mu_theta=np.array([0.2]),
                          sigma_theta=np.array([[1.5]]),
                          sigma_delta=np.array([[1e-12]]), sigma_noise=0.7)
    h = History()
    rows, ys = [], []
    for t in range(6):
        y = float(rng.standard_normal())
        h.append(InteractionRecord(t, 0, y, 1))
        rows.append([metadata[t][0]])
        ys.append(y)
    tp = posterior_theta(cfg, fm, h)
    mean, cov = ridge_posterior_oracle(rows, ys, cfg.mu_theta,
                                       cfg.sigma_theta, cfg.sigma_noise ** 2)
    np.testing.assert_allclose(tp.mean, mean, atol=1e-6)
    np.testing.assert_allclose(tp.cov, cov, atol=1e-6)


def test_theta_posterior_matches_conditioning_oracle():
    rng = np.random.default_rng(29)
    for _ in range(30):
        cfg, fm, h, _, _ = random_instance(rng)
        tp = posterior_theta(cfg, fm, h)
        mean, cov = theta_posterior_oracle(*_cfg_args(cfg),
                                           oracle_record_list(fm, h))
        np.testing.assert_allclose(tp.mean, mean, atol=1e-8)
        np.testing.assert_allclose(tp.cov, cov, atol=1e-8)


def test_conditional_empty_history():
    cfg = HierarchyConfig(mu_theta=np.zeros(3), sigma_theta=np.eye(3),
                          sigma_delta=np.diag([0.3, 0.6, 0.9]),
                          sigma_noise=1.0)
    fm = FeatureMap.indicator_with_metadata(n_arms=3, dim=3)
    b = conditional_r_given_theta(cfg, fm, [], np.zeros(3), np.zeros(0))
    np.testing.assert_array_equal(b.mean, np.zeros(3))
    np.testing.assert_array_equal(b.cov, cfg.sigma_delta)


def test_conditional_one_pull_each_arm():
    k = 3
    cfg = HierarchyConfig(mu_theta=np.array([0.4, -0.2, 0.1]),
                          sigma_theta=np.eye(k), sigma_delta=np.eye(k),
                          sigma_noise=1.0)
    fm = FeatureMap.indicator_with_metadata(n_arms=k, dim=k)
    theta = np.array([1.0, 2.0, -1.0])
    obs = np.array([0.5, 1.5, 0.0])
    h_i = [InteractionRecord(0, a, float(obs[a]), a + 1) for a in range(k)]
    b = conditional_r_given_theta(cfg, fm, h_i, theta, np.zeros(0))
    np.testing.assert_allclose(b.mean, (theta + obs) / 2.0, atol=1e-12)
    np.testing.assert_allclose(b.cov, 0.5 * np.eye(k), atol=1e-12)


def test_conditional_rejects_out_of_range_arm():
    # An arm >= n_arms is the same ConfigError as on every other history
    # path, not an IndexError from the per-arm tally.
    cfg = HierarchyConfig(mu_theta=np.zeros(2), sigma_theta=np.eye(2),
                          sigma_delta=np.eye(2), sigma_noise=1.0)
    fm = FeatureMap.indicator_with_metadata(n_arms=2, dim=2)
    h_i = [InteractionRecord(0, 1, 0.5, 1), InteractionRecord(0, 2, 1.0, 2)]
    with pytest.raises(ConfigError, match=r"arm 2 out of range \[0, 2\)"):
        conditional_r_given_theta(cfg, fm, h_i, np.zeros(2), np.zeros(0))


def test_conditional_matches_scalar_oracle_per_arm():
    rng = np.random.default_rng(31)
    k = 2
    cfg = HierarchyConfig(mu_theta=np.zeros(k), sigma_theta=np.eye(k),
                          sigma_delta=np.diag([0.7, 0.2]), sigma_noise=0.6)
    fm = FeatureMap.indicator_with_metadata(n_arms=k, dim=k)
    theta = rng.standard_normal(k)
    h_i = [InteractionRecord(0, int(rng.integers(0, k)),
                             float(rng.standard_normal()), t + 1)
           for t in range(9)]
    b = conditional_r_given_theta(cfg, fm, h_i, theta, np.zeros(0))
    for a in range(k):
        obs = [rec.reward for rec in h_i if rec.action == a]
        mean, var = scalar_conjugate_oracle(theta[a], cfg.sigma_delta[a, a],
                                            cfg.sigma_noise ** 2, obs)
        np.testing.assert_allclose(b.mean[a], mean, atol=1e-10)
        np.testing.assert_allclose(b.cov[a, a], var, atol=1e-10)


def test_two_stage_consistency_monte_carlo():
    rng = np.random.default_rng(37)
    cfg, fm, h, tid, x = random_instance(rng, max_tasks=3, max_arms=2,
                                         max_dim=3)
    while len(h) == 0:
        cfg, fm, h, tid, x = random_instance(rng, max_tasks=3, max_arms=2,
                                             max_dim=3)
    target = posterior_r_naive(cfg, fm, h, tid, x)
    tp = posterior_theta(cfg, fm, h)
    h_i = h.task_records(tid)
    n_draws = 100_000
    thetas = tp.mean[None, :] + rng.standard_normal((n_draws, cfg.dim)) \
        @ np.linalg.cholesky(tp.cov + 1e-14 * np.eye(cfg.dim)).T
    cond_means = np.zeros((n_draws, fm.n_arms))
    for j in range(0, n_draws, 20_000):
        for jj in range(j, min(j + 20_000, n_draws)):
            cond_means[jj] = conditional_r_given_theta(
                cfg, fm, h_i, thetas[jj], x).mean
    mc = cond_means.mean(axis=0)
    se = cond_means.std(axis=0, ddof=1) / np.sqrt(n_draws)
    assert np.all(np.abs(mc - target.mean) <= 3.0 * se + 1e-12)


def test_sample_belief_degenerate_cov():
    b = GaussianBelief(mean=np.array([1.0, -2.0]), cov=np.zeros((2, 2)))
    out = b.sample(np.random.default_rng(0))
    np.testing.assert_array_equal(out, b.mean)


def test_sample_belief_moments():
    mean = np.array([0.5, -1.0])
    cov = np.array([[1.2, 0.4], [0.4, 0.9]])
    b = GaussianBelief(mean, cov)
    rng = np.random.default_rng(41)
    draws = np.stack([b.sample(rng) for _ in range(100_000)])
    se = np.sqrt(np.diag(cov) / draws.shape[0])
    assert np.all(np.abs(draws.mean(axis=0) - mean) <= 4.0 * se)
    np.testing.assert_allclose(np.cov(draws.T), cov, rtol=0.05)


def test_sample_belief_deterministic():
    b = GaussianBelief(np.zeros(3), np.eye(3))
    a = b.sample(np.random.default_rng(5))
    c = b.sample(np.random.default_rng(5))
    np.testing.assert_array_equal(a, c)


def test_gp_linear_kernel_matches_lmm():
    # The GP kernel couples same-arm observations only, so it reproduces the
    # LMM exactly when the LMM has no cross-arm fixed-effect covariance:
    # indicator-only features (d = K) with diagonal sigma_theta.
    rng = np.random.default_rng(43)
    k = 3
    cfg = HierarchyConfig(mu_theta=rng.standard_normal(k),
                          sigma_theta=np.diag(rng.uniform(0.2, 1.5, size=k)),
                          sigma_delta=np.diag(rng.uniform(0.1, 0.8, size=k)),
                          sigma_noise=0.7)
    lookup = {t: np.zeros(0) for t in range(4)}
    fm = FeatureMap.indicator_with_metadata(n_arms=k, dim=k,
                                            task_metadata=lookup)
    h = History()
    for t in range(12):
        h.append(InteractionRecord(int(rng.integers(0, 4)),
                                   int(rng.integers(0, k)),
                                   float(rng.standard_normal()), t + 1))

    def mean_fn(a):
        return lambda xx: float(fm.feature(xx, a) @ cfg.mu_theta)

    def kern_fn(a):
        return lambda xa, xb: float(fm.feature(xa, a) @ cfg.sigma_theta
                                    @ fm.feature(xb, a))

    gp = GPConfig(mean_fns=[mean_fn(a) for a in range(k)],
                  kernel_fns=[kern_fn(a) for a in range(k)],
                  sigma_delta=cfg.sigma_delta, sigma_noise=cfg.sigma_noise)
    bg = posterior_r_gp(gp, h, 0, np.zeros(0), metadata_lookup=lookup)
    bn = posterior_r_naive(cfg, fm, h, 0, np.zeros(0))
    np.testing.assert_allclose(bg.mean, bn.mean, atol=1e-9)
    np.testing.assert_allclose(bg.cov, bn.cov, atol=1e-9)


def test_gp_linear_kernel_cross_arm_scope():
    # The GP kernel couples same-arm observations only; with a one-hot
    # feature map the LMM fixed-effect covariance is also arm-diagonal, so
    # the two agree and observing arm 0 must not move arm 1's fixed effect
    # in a foreign task.
    k = 2
    gp = GPConfig(mean_fns=[lambda x: 0.0] * k,
                  kernel_fns=[lambda xa, xb: 1.0] * k,
                  sigma_delta=0.5 * np.eye(k), sigma_noise=1.0)
    h = History([InteractionRecord(0, 0, 2.0, 1)])
    b = posterior_r_gp(gp, h, 1, np.zeros(1),
                       metadata_lookup={0: np.zeros(1), 1: np.zeros(1)})
    assert b.mean[0] > 0.0
    assert b.mean[1] == 0.0


def test_gp_empty_history():
    gp = GPConfig(mean_fns=[lambda x: 0.0, lambda x: 0.0],
                  kernel_fns=[lambda xa, xb: float(xa @ xb),
                              lambda xa, xb: 2.0 * float(xa @ xb)],
                  sigma_delta=np.eye(2), sigma_noise=0.5)
    x = np.array([1.0, 2.0])
    b = posterior_r_gp(gp, History(), 0, x)
    np.testing.assert_array_equal(b.mean, np.zeros(2))
    np.testing.assert_allclose(b.cov, np.diag([5.0, 10.0]) + np.eye(2))


def test_gp_rbf_information_sharing():
    def rbf(xa, xb):
        diff = xa - xb
        return float(np.exp(-0.5 * diff @ diff))

    gp = GPConfig(mean_fns=[lambda x: 0.0], kernel_fns=[rbf],
                  sigma_delta=np.array([[0.4]]), sigma_noise=0.8)
    x = np.array([0.3])
    lookup = {0: x, 1: x}
    before = posterior_r_gp(gp, History(), 1, x, metadata_lookup=lookup)
    h = History([InteractionRecord(0, 0, 3.0, 1)])
    after = posterior_r_gp(gp, h, 1, x, metadata_lookup=lookup)
    assert after.mean[0] > before.mean[0]
    assert after.cov[0, 0] < before.cov[0, 0]


def test_gp_requires_lookup_for_history():
    gp = GPConfig(mean_fns=[lambda x: 0.0], kernel_fns=[lambda a, b: 1.0],
                  sigma_delta=np.eye(1), sigma_noise=1.0)
    h = History([InteractionRecord(0, 0, 1.0, 1)])
    with pytest.raises(ConfigError):
        posterior_r_gp(gp, h, 0, np.zeros(1))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "-inf"])
def test_gp_config_refuses_a_non_finite_sigma_delta(bad):
    sigma_delta = np.eye(2)
    sigma_delta[0, 1] = bad
    with pytest.raises(ConfigError, match="sigma_delta must be finite"):
        GPConfig(mean_fns=[lambda x: 0.0] * 2,
                 kernel_fns=[lambda a, b: 1.0] * 2,
                 sigma_delta=sigma_delta, sigma_noise=1.0)


@pytest.mark.parametrize("sigma_delta, reason", [
    (np.array([[1.0, 0.5], [-0.5, 1.0]]), "symmetric"),
    (np.diag([1.0, -1e-3]), "positive semidefinite")])
def test_gp_config_applies_the_psd_rule(sigma_delta, reason):
    with pytest.raises(ConfigError, match="sigma_delta must be " + reason):
        GPConfig(mean_fns=[lambda x: 0.0] * 2,
                 kernel_fns=[lambda a, b: 1.0] * 2,
                 sigma_delta=sigma_delta, sigma_noise=1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, True],
                         ids=["nan", "inf", "bool"])
def test_gp_config_refuses_a_non_finite_or_bool_sigma_noise(bad):
    with pytest.raises(ConfigError, match="sigma_noise must be a finite"):
        GPConfig(mean_fns=[lambda x: 0.0], kernel_fns=[lambda a, b: 1.0],
                 sigma_delta=np.eye(1), sigma_noise=bad)


def test_gp_record_cap(monkeypatch):
    monkeypatch.setattr(gaussian, "GP_MAX_RECORDS", 3)
    gp = GPConfig(mean_fns=[lambda x: 0.0], kernel_fns=[lambda a, b: 1.0],
                  sigma_delta=np.eye(1), sigma_noise=1.0)
    h = History([InteractionRecord(0, 0, 1.0, t + 1) for t in range(4)])
    with pytest.raises(ConfigError):
        posterior_r_gp(gp, h, 0, np.zeros(1), metadata_lookup={0: np.zeros(1)})


def test_marginal_task_belief_matches_naive():
    rng = np.random.default_rng(47)
    for _ in range(30):
        cfg, fm, h, tid, x = random_instance(rng)
        tp = posterior_theta(cfg, fm, h)
        counts = np.zeros(fm.n_arms)
        sums = np.zeros(fm.n_arms)
        for rec in h.task_records(tid):
            counts[rec.action] += 1
            sums[rec.action] += rec.reward
        # the factorized route needs theta conditioned on everything EXCEPT
        # nothing: posterior_theta(H) with the task's own sufficient stats.
        bm = marginal_task_belief(cfg, fm, tp, x, counts, sums)
        bn = posterior_r_naive(cfg, fm, h, tid, x)
        np.testing.assert_allclose(bm.mean, bn.mean, atol=1e-8)
        np.testing.assert_allclose(bm.cov, bn.cov, atol=1e-8)


def test_marginal_task_belief_singular_effects():
    cfg = HierarchyConfig(mu_theta=np.zeros(2), sigma_theta=np.eye(2),
                          sigma_delta=np.zeros((2, 2)), sigma_noise=1.0)
    fm = FeatureMap.indicator_with_metadata(
        n_arms=2, dim=2, task_metadata={0: np.zeros(0)})
    h = History([InteractionRecord(0, 0, 1.0, 1)])
    tp = posterior_theta(cfg, fm, h)
    bm = marginal_task_belief(cfg, fm, tp, np.zeros(0),
                              np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    bn = posterior_r_naive(cfg, fm, h, 0, np.zeros(0))
    np.testing.assert_allclose(bm.mean, bn.mean, atol=1e-10)
    np.testing.assert_allclose(bm.cov, bn.cov, atol=1e-10)


def test_theta_accumulator_matches_batch_posterior():
    rng = np.random.default_rng(53)
    for _ in range(15):
        cfg, fm, h, _, _ = random_instance(rng, diag_prob=1.0)
        acc = ThetaStatAccumulator(cfg, fm, fm.known_tasks())
        for rec in h:
            acc.add(rec.task_id, rec.action, rec.reward)
        mean, cov, _ = gaussian.theta_posterior_stats(
            cfg, acc.phi_vinv_phi, acc.phi_vinv_resid)
        tp_batch = posterior_theta(cfg, fm, h)
        np.testing.assert_allclose(mean, tp_batch.mean, atol=1e-9)
        np.testing.assert_allclose(cov, tp_batch.cov, atol=1e-9)


def test_theta_accumulator_full_scale_drift():
    # 200 tasks x 200 rounds of rank-one updates must not drift from a
    # batch recomputation of the same sums.
    spec = PopulationSpec(n_tasks=200, horizon=200, n_arms=8, dim=15,
                          sigma_noise=1.0, sigma1_sq=0.5, seed=79)
    pop = generate_population(spec)
    cfg = spec.hierarchy_config()
    fm = pop.feature_map
    rng = np.random.default_rng(80)
    acc = ThetaStatAccumulator(cfg, fm, range(spec.n_tasks))
    h = History()
    for t in range(spec.horizon):
        arms = rng.integers(0, spec.n_arms, size=spec.n_tasks)
        noise = rng.standard_normal(spec.n_tasks)
        for i in range(spec.n_tasks):
            a = int(arms[i])
            r = float(pop.tasks[i].true_means[a] + noise[i])
            acc.add(i, a, r)
            h.append(InteractionRecord(i, a, r, t + 1))
    ws = gaussian.KernelWorkspace(cfg, fm, h)

    def rel(a, b):
        return np.max(np.abs(a - b)) / np.max(np.abs(b))

    assert rel(acc.phi_vinv_phi, ws.phi_vinv_phi) <= 1e-9
    assert rel(acc.phi_vinv_resid, ws.phi_vinv_resid) <= 1e-9
    mean, cov, _ = gaussian.theta_posterior_stats(cfg, acc.phi_vinv_phi,
                                                  acc.phi_vinv_resid)
    tp_batch = posterior_theta(cfg, fm, h)
    assert rel(mean, tp_batch.mean) <= 1e-9
    assert rel(cov, tp_batch.cov) <= 1e-9


def test_precision_sampler_matches_cholesky_solve():
    rng = np.random.default_rng(83)
    for d in (1, 3, 15):
        a = random_cov(rng, d, scale=2.0)
        b = rng.standard_normal(d)
        seed = int(rng.integers(1 << 30))
        draw_rng = np.random.default_rng(seed)
        x = sample_mvn_precision(a, b, draw_rng)
        ref_rng = np.random.default_rng(seed)
        lower = np.linalg.cholesky(a)
        z = ref_rng.standard_normal(d)
        ref = np.linalg.solve(a, b) + np.linalg.solve(lower.T, z)
        np.testing.assert_allclose(x, ref, rtol=0.0, atol=1e-12)
        assert draw_rng.bit_generator.state == ref_rng.bit_generator.state


def test_precision_sampler_rejects_non_pd():
    rng = np.random.default_rng(89)
    with pytest.raises(NumericalError, match="not positive definite"):
        sample_mvn_precision(np.diag([1.0, -1.0]), np.zeros(2), rng)
    with pytest.raises(NumericalError):
        sample_mvn_precision(np.eye(2), np.array([np.nan, 0.0]), rng)


def test_sample_mvn_singular_psd_is_exact_not_jittered():
    rng = np.random.default_rng(90)
    for mean, cov in ((np.array([0.3, -1.2]), np.diag([0.0, 1.0])),
                      (np.array([0.3, -1.2, 0.7]),
                       np.array([[2.0, 0.0, 0.5], [0.0, 0.0, 0.0],
                                 [0.5, 0.0, 1.0]]))):
        draws = np.stack([sample_mvn(mean, cov, rng) for _ in range(2000)])
        zero = np.diag(cov) == 0.0
        assert np.all(draws[:, zero] == mean[zero])
        assert draws[:, ~zero].std(axis=0).min() > 0.5
    with pytest.raises(NumericalError, match="not PSD"):
        sample_mvn(np.zeros(2), np.diag([1.0, -1e-3]), rng)


@pytest.mark.parametrize("singular", [np.ones((2, 2)), np.zeros((2, 2))],
                         ids=["ones", "zeros"])
def test_chol_factor_never_jitters_a_singular_matrix(singular):
    with pytest.raises(NumericalError, match="not positive definite"):
        chol_factor(singular)


def test_chol_solve_refuses_a_non_finite_right_hand_side():
    lower = chol_factor(np.array([[2.0, 0.5], [0.5, 1.0]]))
    with pytest.raises(NumericalError, match="non-finite"):
        chol_solve(lower, np.array([np.nan, 0.0]))


def test_theta_accumulator_order_invariant():
    rng = np.random.default_rng(59)
    cfg, fm, h, _, _ = random_instance(rng, diag_prob=1.0,
                                       max_records_per_task=5)
    while len(h) < 4:
        cfg, fm, h, _, _ = random_instance(rng, diag_prob=1.0,
                                           max_records_per_task=5)
    recs = list(h)
    acc1 = ThetaStatAccumulator(cfg, fm, fm.known_tasks())
    acc2 = ThetaStatAccumulator(cfg, fm, fm.known_tasks())
    for rec in recs:
        acc1.add(rec.task_id, rec.action, rec.reward)
    for rec in reversed(recs):
        acc2.add(rec.task_id, rec.action, rec.reward)
    np.testing.assert_allclose(acc1.phi_vinv_phi, acc2.phi_vinv_phi,
                               atol=1e-10)
    np.testing.assert_allclose(acc1.phi_vinv_resid, acc2.phi_vinv_resid,
                               atol=1e-10)


def test_theta_accumulator_add_many_equals_row_by_row_add():
    # add_many must give add()'s bits: its per-row terms are formed the same
    # way and summed in row order, never pairwise.
    rng = np.random.default_rng(81)
    for trial in range(40):
        n_tasks, k = int(rng.integers(1, 30)), int(rng.integers(1, 9))
        spec = PopulationSpec(n_tasks=n_tasks, horizon=4, n_arms=k,
                              dim=k + int(rng.integers(0, 12)),
                              sigma_noise=float(rng.uniform(0.3, 2.0)),
                              sigma1_sq=float(rng.uniform(0.05, 1.0)),
                              seed=trial)
        pop = generate_population(spec)
        cfg, fm = spec.hierarchy_config(), pop.feature_map
        one = ThetaStatAccumulator(cfg, fm, range(n_tasks))
        many = ThetaStatAccumulator(cfg, fm, range(n_tasks))
        for _ in range(int(rng.integers(1, 6))):
            ids = rng.permutation(n_tasks)[:int(rng.integers(1, n_tasks + 1))]
            arms = rng.integers(0, k, size=ids.size)
            rewards = rng.normal(0.0, rng.uniform(0.1, 5.0), size=ids.size)
            for record in zip(ids.tolist(), arms.tolist(), rewards.tolist()):
                one.add(*record)
            many.add_many(ids, arms, rewards)
            for name in ("phi_vinv_phi", "phi_vinv_resid", "counts", "sums"):
                assert np.array_equal(getattr(one, name), getattr(many, name))
    with pytest.raises(ConfigError):
        many.add_many(np.array([0, 0]), np.array([0, 0]), np.ones(2))


def test_theta_accumulator_rejects_dense_effects():
    cfg = HierarchyConfig(mu_theta=np.zeros(2), sigma_theta=np.eye(2),
                          sigma_delta=np.array([[1.0, 0.3], [0.3, 1.0]]),
                          sigma_noise=1.0)
    fm = FeatureMap.indicator_with_metadata(
        n_arms=2, dim=2, task_metadata={0: np.zeros(0)})
    with pytest.raises(ConfigError):
        ThetaStatAccumulator(cfg, fm, (0,))


def test_obs_update_matches_scalar_oracle():
    cov = np.diag([0.8, 0.3])
    b = GaussianBelief(np.array([0.1, -0.5]), cov)
    obs = [0.7, -0.2, 1.1]
    for y in obs:
        b = gaussian_obs_update(b, 0, y, sigma_noise=0.9)
    mean, var = scalar_conjugate_oracle(0.1, 0.8, 0.81, obs)
    np.testing.assert_allclose(b.mean[0], mean, atol=1e-10)
    np.testing.assert_allclose(b.cov[0, 0], var, atol=1e-10)
    # untouched arm keeps its prior marginals under a diagonal prior
    np.testing.assert_allclose(b.mean[1], -0.5, atol=1e-12)
    np.testing.assert_allclose(b.cov[1, 1], 0.3, atol=1e-12)


def test_obs_updates_commute_with_batch_stats():
    rng = np.random.default_rng(61)
    cov = np.array([[1.0, 0.4], [0.4, 0.7]])
    prior_mean = np.array([0.2, -0.1])
    b = GaussianBelief(prior_mean, cov)
    counts = np.zeros(2)
    sums = np.zeros(2)
    for t in range(8):
        arm = int(rng.integers(0, 2))
        y = float(rng.standard_normal())
        b = gaussian_obs_update(b, arm, y, sigma_noise=1.1)
        counts[arm] += 1
        sums[arm] += y
    mean, cov_batch = conditional_stats_update(prior_mean, cov, 1.1,
                                               counts, sums)
    np.testing.assert_allclose(b.mean, mean, atol=1e-10)
    np.testing.assert_allclose(b.cov, cov_batch, atol=1e-10)


def test_belief_validation():
    with pytest.raises(NumericalError):
        GaussianBelief(np.zeros(2), np.array([[1.0, 0.0], [0.0, -0.5]]))
    b = GaussianBelief(np.zeros(2), np.array([[1.0, 0.0], [0.0, -5e-11]]))
    assert b.cov[1, 1] >= 0.0
    with pytest.raises(ConfigError):
        GaussianBelief(np.zeros(2), np.eye(3))
    with pytest.raises(ConfigError):
        ThetaPosterior(np.zeros((2, 2)), np.eye(2))
    for cls in (GaussianBelief, ThetaPosterior):
        for cov in (np.ones((2, 3)), np.ones(2)):
            with pytest.raises(ConfigError):
                cls(np.zeros(2), cov)


def test_asymmetric_cov_symmetrized():
    skew = np.array([[1.0, 0.3 + 1e-12], [0.3 - 1e-12, 1.0]])
    b = GaussianBelief(np.zeros(2), skew)
    np.testing.assert_array_equal(b.cov, b.cov.T)
