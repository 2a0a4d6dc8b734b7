"""Acceptance suite: one test per release criterion, one verdict line each.

Every test prints a single ``[criterion NN] PASS/FAIL`` line with the
measured quantities before asserting, so a verbose pytest run doubles as
the acceptance report.  Runtime budgets are part of each check.  The
regret-replication criteria (5 through 8, and 11 for Bernoulli rewards)
drive the seeded experiment pipeline, so their measured ratios are
deterministic for the pinned configurations below.
"""

import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from hierbandit.bench import ExperimentConfig, run_experiment, simulate_ledger
from hierbandit.bernoulli import (BetaParams, conjugate_update,
                                  sample_theta_mcmc)
from hierbandit.core import (FeatureMap, HierarchyConfig, History,
                             InteractionRecord)
from hierbandit.envs import PopulationSpec, generate_population, noise_rng
from hierbandit.gaussian import (GaussianBelief, conditional_r_given_theta,
                                 gaussian_obs_update, posterior_r_naive,
                                 posterior_r_woodbury, posterior_theta)
from hierbandit.priors import fit_variance_components
from hierbandit.metrics import (bayes_regret_curve, cumulative_regret_by_seed,
                                multi_task_regret_curve)

from conftest import oracle_record_list, random_instance
from oracles import (bblm_counts_log_marginal_oracle, joint_posterior_oracle,
                     quadrature_density_oracle, scalar_conjugate_oracle,
                     target_records, tv_distance_from_samples)


def _report(number, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print("[criterion %02d] %s: %s" % (number, verdict, detail))
    assert ok, detail


def _cfg_args(cfg):
    return cfg.mu_theta, cfg.sigma_theta, cfg.sigma_delta, cfg.sigma_noise


def test_criterion_01_posterior_oracle_equivalence():
    budget = 5.0
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_mean = 0.0
    worst_cov = 0.0
    for _ in range(200):
        cfg, fm, h, tid, x = random_instance(rng)
        naive = posterior_r_naive(cfg, fm, h, tid, x)
        wood = posterior_r_woodbury(cfg, fm, h, tid, x)
        phi = fm.task_features(x)
        recs = target_records(oracle_record_list(fm, h), tid, phi)
        om, oc = joint_posterior_oracle(*_cfg_args(cfg), recs, phi)
        for mean, cov in ((wood.mean, wood.cov), (om, oc)):
            worst_mean = max(worst_mean, float(np.abs(naive.mean - mean).max()))
            worst_cov = max(worst_cov, float(np.abs(naive.cov - cov).max()))
    elapsed = time.perf_counter() - start
    ok = worst_mean <= 1e-8 and worst_cov <= 1e-8 and elapsed <= budget
    _report(1, ok, "200 instances, max mean diff %.2e, max cov diff %.2e, "
            "%.1fs (budget %.0fs)" % (worst_mean, worst_cov, elapsed, budget))


def test_criterion_02_two_stage_sampling_consistency():
    budget = 30.0
    start = time.perf_counter()
    rng = np.random.default_rng(202)

    worst_empty = 0.0
    for _ in range(50):
        cfg, fm, h, tid, x = random_instance(rng)
        stripped = History([r for r in h.records if r.task_id != tid])
        tp = posterior_theta(cfg, fm, stripped)
        naive = posterior_r_naive(cfg, fm, stripped, tid, x)
        phi = fm.task_features(x)
        worst_empty = max(worst_empty,
                          float(np.abs(naive.mean - phi @ tp.mean).max()))

    worst_gap = -np.inf
    n_draws = 100_000
    checked = 0
    while checked < 2:
        cfg, fm, h, tid, x = random_instance(
            rng, max_tasks=3, max_records_per_task=4, max_arms=2, max_dim=3)
        if not any(r.task_id == tid for r in h.records):
            continue
        checked += 1
        naive = posterior_r_naive(cfg, fm, h, tid, x)
        tp = posterior_theta(cfg, fm, h)
        h_i = h.task_records(tid)
        d = tp.mean.shape[0]
        chol = np.linalg.cholesky(tp.cov + 1e-14 * np.eye(d))
        thetas = tp.mean[None, :] + rng.standard_normal((n_draws, d)) @ chol.T
        acc = np.zeros((n_draws, naive.mean.shape[0]))
        for j in range(n_draws):
            acc[j] = conditional_r_given_theta(cfg, fm, h_i, thetas[j], x).mean
        mc_mean = acc.mean(axis=0)
        mc_se = acc.std(axis=0, ddof=1) / np.sqrt(n_draws)
        gap = np.abs(mc_mean - naive.mean) - 3.0 * mc_se
        worst_gap = max(worst_gap, float(gap.max()))
    elapsed = time.perf_counter() - start
    ok = worst_empty <= 1e-10 and worst_gap <= 1e-12 and elapsed <= budget
    _report(2, ok, "empty-history max diff %.2e, MC slack beyond 3 SE %.2e, "
            "%.1fs (budget %.0fs)" % (worst_empty, worst_gap, elapsed, budget))


def test_criterion_03_conjugate_updates():
    budget = 1.0
    start = time.perf_counter()

    prior = BetaParams(0.75, 1.5)
    counts = [(3.0, 1.0), (0.0, 2.0), (5.0, 0.0), (1.0, 4.0)]
    seq = prior
    for s, f in counts:
        seq = conjugate_update(seq, s, f)
    batch = conjugate_update(prior, sum(s for s, _ in counts),
                             sum(f for _, f in counts))
    beta_exact = seq.alpha1 == batch.alpha1 and seq.alpha2 == batch.alpha2

    belief = GaussianBelief(mean=np.array([0.3, -0.2]),
                            cov=np.diag([0.9, 1.3]))
    observations = [0.4, -1.1, 0.9]
    for y in observations:
        belief = gaussian_obs_update(belief, 1, y, 0.7)
    om, ov = scalar_conjugate_oracle(-0.2, 1.3, 0.49, observations)
    gauss_diff = max(abs(belief.mean[1] - om), abs(belief.cov[1, 1] - ov))

    elapsed = time.perf_counter() - start
    ok = beta_exact and gauss_diff <= 1e-10 and elapsed <= budget
    _report(3, ok, "beta batch == sequential: %s, gaussian vs scalar oracle "
            "diff %.2e, %.2fs (budget %.0fs)"
            % (beta_exact, gauss_diff, elapsed, budget))


def test_criterion_04_mcmc_recovery_and_stationarity():
    budget = 300.0
    start = time.perf_counter()

    hits = 0
    for seed in range(10):
        spec = PopulationSpec(n_tasks=100, horizon=50, n_arms=2, dim=3,
                              reward_kind="bernoulli", psi=1.0, seed=seed)
        pop = generate_population(spec)
        rng = noise_rng(seed)
        h = History()
        for task in pop.tasks:
            arms = rng.integers(0, spec.n_arms, size=spec.horizon)
            u = rng.random(spec.horizon)
            for t in range(spec.horizon):
                a = int(arms[t])
                reward = float(u[t] < task.true_means[a])
                h.append(InteractionRecord(task.task_id, a, reward, t + 1))
        chain = sample_theta_mcmc(spec.hierarchy_config(), pop.feature_map, h,
                                  np.random.default_rng(1000 + seed))
        if np.all(np.abs(chain.mean - pop.theta) <= 3.0 * chain.std):
            hits += 1

    scale = 1.0
    cfg = HierarchyConfig(mu_theta=np.zeros(1),
                          sigma_theta=scale * np.eye(1), psi=1.0)
    metadata = {i: np.zeros(0) for i in range(6)}
    fm = FeatureMap.indicator_with_metadata(1, 1, task_metadata=metadata)
    rng = np.random.default_rng(404)
    theta_true = 0.6
    mu = 1.0 / (1.0 + np.exp(-theta_true))
    h = History()
    counts = []
    for tid in range(6):
        r = rng.beta(mu / cfg.psi, (1.0 - mu) / cfg.psi)
        pulls = (rng.random(8) < r).astype(float)
        for t, y in enumerate(pulls):
            h.append(InteractionRecord(tid, 0, float(y), t + 1))
        counts.append((float(pulls.sum()), float(8 - pulls.sum())))
    chain = sample_theta_mcmc(cfg, fm, h, np.random.default_rng(505),
                              n_samples=40_000, burn_in=2_000)
    grid = np.linspace(-4.0 * np.sqrt(scale), 4.0 * np.sqrt(scale), 1201)
    phi_rows = [fm.task_features(metadata[i])[0] for i in range(6)]

    def log_density(point):
        val = -0.5 * point ** 2 / scale
        return val + bblm_counts_log_marginal_oracle(
            np.array([point]), phi_rows, [s for s, _ in counts],
            [f for _, f in counts], cfg.psi)

    density = quadrature_density_oracle(grid, log_density)
    tv = tv_distance_from_samples(chain.samples[:, 0], grid, density)

    elapsed = time.perf_counter() - start
    ok = hits >= 9 and tv < 0.05 and elapsed <= budget
    _report(4, ok, "recovery %d/10 seeds, d=1 TV vs quadrature %.4f, "
            "%.0fs (budget %.0fs)" % (hits, tv, elapsed, budget))


def _regret_config(algorithms, *, schedule="concurrent", seeds=20,
                   sigma1_sq=0.5, misspec_lambda=1.0, emit_mtr=False,
                   n_tasks=100, horizon=100, n_arms=4, dim=8):
    population = {"n_tasks": n_tasks, "horizon": horizon, "n_arms": n_arms,
                  "dim": dim, "reward_kind": "gaussian", "sigma_noise": 1.0,
                  "sigma1_sq": sigma1_sq}
    if misspec_lambda != 1.0:
        population["misspec_lambda"] = misspec_lambda
    return ExperimentConfig.from_dict({
        "population": population,
        "schedule": schedule,
        "algorithms": [{"name": name} for name in algorithms],
        "seeds": seeds,
        "emit_mtr": emit_mtr,
    })


def _total_regret(ledger, algorithm):
    by_seed = cumulative_regret_by_seed(ledger, algorithm)
    return np.array([by_seed[s] for s in sorted(by_seed)])


@pytest.mark.slow
def test_criterion_05_concurrent_regret_ordering():
    budget = 600.0
    start = time.perf_counter()

    led25 = simulate_ledger(_regret_config(
        ["hier-ts", "individual-ts", "meta-ts"], sigma1_sq=0.25))
    hier25 = _total_regret(led25, "hier-ts")
    ind25 = _total_regret(led25, "individual-ts")
    meta25 = _total_regret(led25, "meta-ts")
    ratio25 = hier25.mean() / ind25.mean()

    def one_sided_p(diffs):
        t = diffs.mean() / (diffs.std(ddof=1) / np.sqrt(len(diffs)))
        return float(stats.t.cdf(t, df=len(diffs) - 1))

    p_hier_meta = one_sided_p(hier25 - meta25)
    p_meta_ind = one_sided_p(meta25 - ind25)

    led50 = simulate_ledger(_regret_config(
        ["hier-ts", "individual-ts"], sigma1_sq=0.5))
    ratio50 = (_total_regret(led50, "hier-ts").mean()
               / _total_regret(led50, "individual-ts").mean())

    elapsed = time.perf_counter() - start
    ok = (ratio25 <= 0.75 and ratio50 <= 0.85
          and p_hier_meta < 0.05 and p_meta_ind < 0.05 and elapsed <= budget)
    _report(5, ok, "hier/individual %.3f @0.25 (<=0.75), %.3f @0.5 (<=0.85), "
            "p(hier<meta)=%.2e, p(meta<individual)=%.4f, %.0fs (budget %.0fs)"
            % (ratio25, ratio50, p_hier_meta, p_meta_ind, elapsed, budget))


@pytest.mark.slow
def test_criterion_06_sequential_late_task_transfer():
    budget = 600.0
    start = time.perf_counter()
    config = _regret_config(["hier-ts", "individual-ts"],
                            schedule="sequential", emit_mtr=True)
    ledger = simulate_ledger(config)
    ratios = {}
    for name in ("hier-ts", "individual-ts"):
        curve = multi_task_regret_curve(ledger, name)
        early = curve.mean[:20].mean()
        late = curve.mean[80:].mean()
        ratios[name] = late / early
    elapsed = time.perf_counter() - start
    ok = (ratios["hier-ts"] < 0.5 and ratios["individual-ts"] > 0.8
          and elapsed <= budget)
    _report(6, ok, "late/early per-task transfer regret: hier %.3f (<0.5), "
            "individual %.3f (>0.8), %.0fs (budget %.0fs)"
            % (ratios["hier-ts"], ratios["individual-ts"], elapsed, budget))


def _late_slopes(sigma1_sq, algorithms, seeds=10):
    config = _regret_config(algorithms, sigma1_sq=sigma1_sq, seeds=seeds)
    ledger = simulate_ledger(config)
    slopes = {}
    for name in algorithms:
        curve = bayes_regret_curve(ledger, name, view="per_round_concurrent")
        cum = np.cumsum(curve.mean)
        half = len(cum) // 2
        slopes[name] = (cum[-1] - cum[half - 1]) / (len(cum) - half)
    return slopes


@pytest.mark.slow
def test_criterion_07_pooled_and_linear_failure_modes():
    budget = 300.0
    start = time.perf_counter()
    wide = _late_slopes(0.5, ["hier-ts", "pooled-ts", "linear-ts"])
    pooled_ratio = wide["pooled-ts"] / wide["hier-ts"]
    linear_ratio = wide["linear-ts"] / wide["hier-ts"]
    collapsed = _late_slopes(0.0, ["hier-ts", "linear-ts"])
    degenerate_ratio = collapsed["linear-ts"] / collapsed["hier-ts"]
    elapsed = time.perf_counter() - start
    ok = (pooled_ratio > 3.0 and linear_ratio > 3.0
          and degenerate_ratio <= 1.2 and elapsed <= budget)
    _report(7, ok, "late-half slope ratios at sigma1_sq=0.5: pooled/hier "
            "%.2f, linear/hier %.2f (both >3); at sigma1_sq=0: linear/hier "
            "%.3f (<=1.2), %.0fs (budget %.0fs)"
            % (pooled_ratio, linear_ratio, degenerate_ratio, elapsed, budget))


@pytest.mark.slow
def test_criterion_08_misspecification_robustness():
    budget = 600.0
    start = time.perf_counter()
    ratios = {}
    for lam in (0.5, 0.0):
        ledger = simulate_ledger(_regret_config(
            ["hier-ts", "individual-ts"], misspec_lambda=lam))
        hier = _total_regret(ledger, "hier-ts")
        ind = _total_regret(ledger, "individual-ts")
        ratios[lam] = hier.mean() / ind.mean()
    elapsed = time.perf_counter() - start
    ok = (ratios[0.5] <= 1.0 and ratios[0.0] <= 1.15 and elapsed <= budget)
    _report(8, ok, "hier/individual regret: %.3f at lambda=0.5 (<=1), %.3f "
            "at lambda=0 (<=1.15), %.0fs (budget %.0fs)"
            % (ratios[0.5], ratios[0.0], elapsed, budget))


def test_criterion_09_variance_component_recovery():
    budget = 120.0
    start = time.perf_counter()
    hits = 0
    for seed in range(10):
        spec = PopulationSpec(n_tasks=200, horizon=50, n_arms=2, dim=3,
                              sigma_noise=1.0, sigma1_sq=0.5, seed=seed)
        pop = generate_population(spec)
        rng = noise_rng(seed)
        h = History()
        for task in pop.tasks:
            arms = rng.integers(0, spec.n_arms, size=spec.horizon)
            z = rng.standard_normal(spec.horizon)
            for t in range(spec.horizon):
                a = int(arms[t])
                reward = float(task.true_means[a] + spec.sigma_noise * z[t])
                h.append(InteractionRecord(task.task_id, a, reward, t + 1))
        fit = fit_variance_components(
            pop.feature_map, h,
            sigma_noise_grid=[0.5, 1.0, 2.0],
            sigma1_sq_grid=[0.1, 0.25, 0.5, 1.0],
            mu_theta=np.zeros(3),
            sigma_theta=spec.scale * np.eye(3))
        if fit.sigma_noise == 1.0 and fit.sigma1_sq == 0.5:
            hits += 1
    elapsed = time.perf_counter() - start
    ok = hits >= 8 and elapsed <= budget
    _report(9, ok, "exact grid recovery of (sigma_noise=1, sigma1_sq=0.5) on "
            "%d/10 seeds (need >=8), %.1fs (budget %.0fs)"
            % (hits, elapsed, budget))


def test_criterion_10_manifest_determinism(tmp_path):
    config = ExperimentConfig.from_dict({
        "population": {"n_tasks": 4, "horizon": 8, "n_arms": 2, "dim": 3,
                       "reward_kind": "gaussian", "sigma_noise": 1.0,
                       "sigma1_sq": 0.5},
        "schedule": "concurrent",
        "algorithms": [{"name": "hier-ts"}, {"name": "individual-ts"}],
        "seeds": 2,
    })
    first = run_experiment(config, tmp_path / "first")
    reloaded = ExperimentConfig.from_file(Path(first["manifest"]))
    second = run_experiment(reloaded, tmp_path / "second")
    first_bytes = Path(first["ledger"]).read_bytes()
    second_bytes = Path(second["ledger"]).read_bytes()
    ok = first_bytes == second_bytes and len(first_bytes) > 0
    _report(10, ok, "ledger rebuilt from manifest is byte-identical "
            "(%d bytes)" % len(first_bytes))


@pytest.mark.slow
def test_criterion_11_bernoulli_regret_ordering():
    budget = 600.0
    start = time.perf_counter()
    names = ("oracle-ts", "hier-ts", "individual-ts", "pooled-ts", "meta-ts")
    ledger = simulate_ledger(ExperimentConfig.from_dict({
        "population": {"n_tasks": 40, "horizon": 30, "n_arms": 4, "dim": 6,
                       "reward_kind": "bernoulli"},
        "schedule": "sequential",
        "algorithms": [{"name": name} for name in names],
        "seeds": list(range(100, 120)),
    }))
    mean = {name: _total_regret(ledger, name).mean() for name in names}
    elapsed = time.perf_counter() - start
    ok = (mean["oracle-ts"] <= mean["hier-ts"] < mean["individual-ts"]
          < mean["pooled-ts"] and elapsed <= budget)
    _report(11, ok, "Bernoulli mean total regret over 20 seeds: oracle %.1f "
            "<= hier %.1f < individual %.1f < pooled %.1f (meta %.1f), "
            "%.0fs (budget %.0fs)"
            % (mean["oracle-ts"], mean["hier-ts"], mean["individual-ts"],
               mean["pooled-ts"], mean["meta-ts"], elapsed, budget))
