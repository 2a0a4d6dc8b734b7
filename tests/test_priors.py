"""Baseline prior derivation and empirical-Bayes fitting."""

import tracemalloc

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from hierbandit import core, priors
from hierbandit.core import (FeatureMap, History, InteractionRecord)
from hierbandit.envs import PopulationSpec, generate_population, prior_rng
from hierbandit.errors import ConfigError
from hierbandit.priors import (N_BERNOULLI_CANDIDATES, derive_baseline_priors,
                               fit_variance_components,
                               log_marginal_likelihood, marginal_arm_variance,
                               two_level_task_variance)

from conftest import dense_effect_rows, random_instance
from oracles import (bernoulli_priors_oracle, logistic,
                     normal_log_pdf_oracle)


def test_marginal_variance_no_metadata_block():
    spec = PopulationSpec(n_tasks=2, horizon=2, n_arms=3, dim=3,
                          sigma1_sq=0.4)
    np.testing.assert_allclose(marginal_arm_variance(spec), 0.4 + 1.0 / 3.0)


def test_marginal_variance_paper_shape():
    spec = PopulationSpec(n_tasks=2, horizon=2, n_arms=8, dim=15,
                          sigma1_sq=0.25)
    want = 0.25 + 7.0 / 15.0 + 1.0 / 15.0
    np.testing.assert_allclose(marginal_arm_variance(spec), want)


def test_marginal_variance_monte_carlo():
    spec = PopulationSpec(n_tasks=2, horizon=2, n_arms=8, dim=15,
                          sigma1_sq=0.25)
    rng = np.random.default_rng(0)
    n = 1_000_000
    thetas = rng.standard_normal((n, 15)) * np.sqrt(spec.scale)
    x_blocks = rng.standard_normal((n, 7))
    arm_mean = thetas[:, 0] + np.einsum("nj,nj->n", x_blocks, thetas[:, 8:])
    var = arm_mean.var() + spec.sigma1_sq
    np.testing.assert_allclose(marginal_arm_variance(spec), var, rtol=0.01)


def test_two_level_variance_uses_realized_tail():
    spec = PopulationSpec(n_tasks=2, horizon=2, n_arms=2, dim=4,
                          sigma1_sq=0.3)
    theta = np.array([5.0, -5.0, 0.6, -0.8])
    np.testing.assert_allclose(two_level_task_variance(spec, theta),
                               0.3 + 0.36 + 0.64)


def test_derive_gaussian_priors():
    spec = PopulationSpec(n_tasks=2, horizon=2, n_arms=2, dim=4,
                          sigma1_sq=0.5, sigma_noise=1.5)
    theta = np.array([0.1, 0.2, 0.3, 0.4])
    pri = derive_baseline_priors(spec, theta)
    assert pri.marginal_mean == 0.0
    np.testing.assert_allclose(pri.marginal_variance,
                               marginal_arm_variance(spec))
    np.testing.assert_allclose(pri.linear_noise_variance, 0.5 + 2.25)
    np.testing.assert_allclose(pri.two_level_task_variance,
                               0.5 + 0.09 + 0.16)
    assert pri.bernoulli_marginal is None
    with pytest.raises(ConfigError):
        derive_baseline_priors(spec, np.zeros(3))


def test_derive_bernoulli_priors_zero_theta():
    spec = PopulationSpec(n_tasks=2, horizon=2, n_arms=2, dim=2,
                          reward_kind="bernoulli", psi=0.5, seed=3)
    pri = derive_baseline_priors(spec, np.zeros(2), n_mc=50_000)
    # logistic(0) = 1/2 exactly, so each arm's conditional variance collapses
    # to the Beta heteroscedastic part (psi/(1+psi)) * 1/4.
    het = 0.5 / 1.5
    truth = pri.bernoulli_candidates[0]
    for prior in truth:
        np.testing.assert_allclose(prior.mean, 0.5, atol=1e-3)
        np.testing.assert_allclose(prior.variance, het * 0.25, rtol=1e-6)
    assert len(pri.bernoulli_candidates) == 10
    # candidate means stay inside the documented range
    for arms in pri.bernoulli_candidates[1:]:
        for prior in arms:
            assert 0.1 <= prior.mean <= 0.9


def test_derive_bernoulli_priors_deterministic():
    spec = PopulationSpec(n_tasks=2, horizon=2, n_arms=2, dim=3,
                          reward_kind="bernoulli", psi=1.0, seed=4)
    theta = np.array([0.2, -0.1, 0.5])
    a = derive_baseline_priors(spec, theta, n_mc=5_000)
    b = derive_baseline_priors(spec, theta, n_mc=5_000)
    assert a.bernoulli_marginal == b.bernoulli_marginal
    assert a.bernoulli_candidates == b.bernoulli_candidates


def _bernoulli_spec(k, d, seed, psi=1.0):
    return PopulationSpec(n_tasks=3, horizon=2, n_arms=k, dim=d,
                          reward_kind="bernoulli", psi=psi, seed=seed)


@pytest.mark.parametrize("row_chunk", [None, 8, 1000])
@pytest.mark.parametrize("k, d", [(4, 6), (8, 20), (24, 30)])
def test_bernoulli_priors_match_the_whole_array_pass(monkeypatch, k, d,
                                                     row_chunk):
    # Both Monte Carlo passes draw their metadata priors._MC_BLOCK rows at a
    # time; every field must carry the bits of one whole-array pass, for
    # draw counts on both sides of a block edge and blocks of any multiple
    # of 8 rows.
    if row_chunk is not None:
        monkeypatch.setattr(priors, "_MC_BLOCK", row_chunk)
    for seed, psi in [(1, 1.0), (7, 0.3)]:
        spec = _bernoulli_spec(k, d, seed, psi)
        theta = generate_population(spec).theta
        for n_mc in (50, 4095, 4096, 4097, 20000):
            got = derive_baseline_priors(spec, theta, n_mc=n_mc)
            mean, var, marginal, candidates = bernoulli_priors_oracle(
                k, d, psi, spec.scale, theta, prior_rng(seed), n_mc)
            assert (got.marginal_mean, got.marginal_variance) == (mean, var)
            assert (got.bernoulli_marginal.alpha1,
                    got.bernoulli_marginal.alpha2) == marginal
            assert tuple(tuple((b.alpha1, b.alpha2) for b in arms)
                         for arms in got.bernoulli_candidates) == candidates


def test_bernoulli_priors_do_not_follow_the_engine_chunk(monkeypatch):
    # The Monte Carlo block is its own constant: an engine chunk that is
    # not a multiple of 8 rows leaves the blocks, and every derived prior's
    # bits, alone.
    spec = _bernoulli_spec(4, 6, 1)
    theta = generate_population(spec).theta
    want = derive_baseline_priors(spec, theta)
    sizes = []
    blocks = priors._metadata_blocks

    def spy(rng, n_mc, p):
        for rows, block in blocks(rng, n_mc, p):
            sizes.append(block.shape[0])
            yield rows, block

    monkeypatch.setattr(priors, "_metadata_blocks", spy)
    monkeypatch.setattr(core, "ROW_CHUNK", 5)
    got = derive_baseline_priors(spec, theta)
    n = priors._MC_BLOCK  # both passes draw the default 20000 rows
    assert sizes == 2 * ([n] * (20000 // n) + [20000 % n])
    assert (got.marginal_mean, got.marginal_variance) == \
        (want.marginal_mean, want.marginal_variance)
    assert got.bernoulli_marginal == want.bernoulli_marginal
    assert len(got.bernoulli_candidates) == N_BERNOULLI_CANDIDATES
    assert got.bernoulli_candidates == want.bernoulli_candidates


@pytest.mark.parametrize("reward_kind", ["bernoulli", "gaussian"])
@pytest.mark.parametrize("n_mc", [0, -5])
def test_derive_refuses_fewer_than_one_draw(reward_kind, n_mc):
    # No draws gave NaN priors behind a "Mean of empty slice" warning, and
    # a negative count numpy's own ValueError.
    spec = PopulationSpec(n_tasks=2, horizon=2, n_arms=2, dim=3,
                          reward_kind=reward_kind, seed=4)
    with pytest.raises(ConfigError, match="n_mc"):
        derive_baseline_priors(spec, np.zeros(3), n_mc=n_mc)


@pytest.mark.parametrize("k, d, bound", [(4, 6, 2_420_000),
                                         (24, 30, 16_800_000)])
def test_bernoulli_derive_memory(k, d, bound):
    # One derive at the default 20,000 draws holds its n_mc x K logits, the
    # second pass's n_mc x d thetas and one block of metadata: a peak of
    # 1.93 MB at K=4, d=6 and 13.43 MB at K=24, d=30, each bound the peak
    # plus 25%.  Drawing each pass's metadata whole peaked at 6.72 and
    # 70.08 MB; a fresh array per block, at 2.13 and 18.08 MB.
    spec = _bernoulli_spec(k, d, seed=1)
    theta = generate_population(spec).theta
    tracemalloc.start()
    try:
        derive_baseline_priors(spec, theta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, peak


def _single_record_setup():
    fm = FeatureMap.indicator_with_metadata(
        n_arms=1, dim=2, task_metadata={0: np.array([0.7])})
    h = History([InteractionRecord(0, 0, 1.3, 1)])
    mu = np.array([0.1, -0.2])
    sigma_theta = np.array([[0.8, 0.1], [0.1, 0.6]])
    return fm, h, mu, sigma_theta


def test_lml_single_record_scalar_oracle():
    fm, h, mu, sigma_theta = _single_record_setup()
    phi = fm.feature(np.array([0.7]), 0)
    sigma_noise, s1 = 0.9, 0.4
    got = log_marginal_likelihood(sigma_noise, s1 * np.eye(1), fm, h, mu,
                                  sigma_theta)
    var = float(phi @ sigma_theta @ phi) + s1 + sigma_noise ** 2
    want = normal_log_pdf_oracle(1.3, float(phi @ mu), var)
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_lml_permutation_invariant():
    rng = np.random.default_rng(5)
    k, d, n_tasks = 2, 3, 4
    metadata = {t: rng.standard_normal(k * (d - k)) for t in range(n_tasks)}
    fm = FeatureMap.indicator_with_metadata(k, d, task_metadata=metadata)
    recs = [InteractionRecord(int(rng.integers(0, n_tasks)),
                              int(rng.integers(0, k)),
                              float(rng.standard_normal()), j + 1)
            for j in range(12)]
    mu = np.zeros(d)
    st = np.eye(d) / d
    base = log_marginal_likelihood(1.0, 0.5 * np.eye(k), fm, History(recs),
                                   mu, st)
    for _ in range(4):
        rng.shuffle(recs)
        got = log_marginal_likelihood(1.0, 0.5 * np.eye(k), fm,
                                      History(recs), mu, st)
        np.testing.assert_allclose(got, base, atol=1e-9)


def test_lml_matches_dense_kernel_logpdf():
    # Dense Sigma_delta: the blocked evidence against the log density of
    # the stacked rewards under the full n x n kernel.
    rng = np.random.default_rng(41)
    hits = 0
    for _ in range(30):
        cfg, fm, h, _, _ = random_instance(rng, diag_prob=0.0)
        if len(h) == 0:
            continue
        hits += 1
        _, _, phi, resid, v = dense_effect_rows(cfg, fm, h)
        want = multivariate_normal.logpdf(
            resid, mean=np.zeros(len(h)),
            cov=phi @ cfg.sigma_theta @ phi.T + v)
        got = log_marginal_likelihood(cfg.sigma_noise, cfg.sigma_delta, fm,
                                      h, cfg.mu_theta, cfg.sigma_theta)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)
    assert hits >= 10


def test_lml_prefers_generating_noise_scale():
    spec = PopulationSpec(n_tasks=60, horizon=10, n_arms=2, dim=3,
                          sigma_noise=1.0, sigma1_sq=0.5, seed=6)
    pop = generate_population(spec)
    rng = np.random.default_rng(7)
    h = History()
    for task in pop.tasks:
        for t in range(spec.horizon):
            a = int(rng.integers(0, spec.n_arms))
            r = float(task.true_means[a] + rng.standard_normal())
            h.append(InteractionRecord(task.task_id, a, r, t + 1))
    fm = pop.feature_map
    mu = np.zeros(spec.dim)
    st = spec.scale * np.eye(spec.dim)
    at_truth = log_marginal_likelihood(1.0, 0.5 * np.eye(2), fm, h, mu, st)
    at_inflated = log_marginal_likelihood(10.0, 0.5 * np.eye(2), fm, h, mu, st)
    assert at_truth > at_inflated


def test_lml_validation():
    fm, h, mu, st = _single_record_setup()
    with pytest.raises(ConfigError):
        log_marginal_likelihood(0.0, np.eye(1), fm, h, mu, st)
    with pytest.raises(ConfigError):
        log_marginal_likelihood(1.0, np.eye(1), fm, History(), mu, st)


def test_fit_single_grid_point():
    fm, h, mu, st = _single_record_setup()
    fit = fit_variance_components(fm, h, [0.7], [0.3], mu, st)
    assert (fit.sigma_noise, fit.sigma1_sq) == (0.7, 0.3)
    assert len(fit.table) == 1
    np.testing.assert_allclose(
        fit.log_marginal,
        log_marginal_likelihood(0.7, 0.3 * np.eye(1), fm, h, mu, st))


def test_fit_degenerate_data_prefers_small_variance():
    fm = FeatureMap.indicator_with_metadata(
        n_arms=1, dim=1, task_metadata={t: np.zeros(0) for t in range(4)})
    h = History([InteractionRecord(t, 0, 0.0, 1) for t in range(4)])
    mu = np.zeros(1)
    st = np.eye(1)
    fit = fit_variance_components(fm, h, [0.5, 1.0, 2.0], [0.1, 1.0], mu, st)
    assert (fit.sigma_noise, fit.sigma1_sq) == (0.5, 0.1)


def test_fit_table_covers_grid():
    fm, h, mu, st = _single_record_setup()
    fit = fit_variance_components(fm, h, [0.5, 1.0], [0.1, 0.2, 0.3], mu, st)
    assert len(fit.table) == 6
    pairs = {(sn, s1) for sn, s1, _ in fit.table}
    assert pairs == {(sn, s1) for sn in (0.5, 1.0) for s1 in (0.1, 0.2, 0.3)}


@pytest.mark.parametrize("noise_grid, s1_grid", [([], [0.3]), ([0.7], []),
                                                 ([], [])])
def test_fit_rejects_empty_grid(noise_grid, s1_grid):
    fm, h, mu, st = _single_record_setup()
    with pytest.raises(ConfigError, match="nonempty"):
        fit_variance_components(fm, h, noise_grid, s1_grid, mu, st)
