"""Self-validation suites: fast internal consistency checks.

Four suites, each a list of named checks returning pass/fail plus detail:

    posterior   dense vs blocked route agreement, prior predictive,
                information monotonicity, fast-path identity
    conjugacy   conjugate updates vs hand algebra, agents' cores vs updates
    mcmc        coefficient sampler against the prior and a quadrature oracle
    regret      harness sanity: oracle self-difference, monotone cumulative
                regret, deterministic replay, oracle beats blind play

The checks are deterministic (fixed internal seeds) and sized to finish in
seconds each (the mcmc suite in well under two minutes).  They exist to
catch silent numerical regressions.  The tests inject both kinds of fault
from outside the package: negating the blocked route's M V^{-1} resid term
(KernelWorkspace.task_cross_terms) fails path-equivalence, and turning the
agents' pick rule (agents._pick) into an argmin fails
oracle-beats-blind-play, each by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import agents, bench, gaussian, metrics
from .bernoulli import (BetaParams, beta_from_mean_precision, conjugate_update,
                        log_marginal_counts, outcome_counts,
                        precision_for_variance, sample_theta_mcmc)
from .core import FeatureMap, HierarchyConfig, History, InteractionRecord
from .envs import RewardTable, generate_population
from .errors import ConfigError, NumericalError

SUITES = ("posterior", "conjugacy", "mcmc", "regret")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), detail=detail)


def _random_instance(rng: np.random.Generator):
    """Small random hierarchy + history for cross-route checks."""
    k = int(rng.integers(1, 4))
    d = k + int(rng.integers(0, 3))
    n_tasks = int(rng.integers(1, 5))
    mu = rng.standard_normal(d) * 0.5
    a = rng.standard_normal((d, d))
    sigma_theta = a @ a.T / d + 0.3 * np.eye(d)
    if rng.uniform() < 0.5:
        sigma_delta = np.diag(rng.uniform(0.05, 1.0, size=k))
    else:
        b = rng.standard_normal((k, k))
        sigma_delta = b @ b.T / k + 0.1 * np.eye(k)
    cfg = HierarchyConfig(mu_theta=mu, sigma_theta=sigma_theta,
                          sigma_delta=sigma_delta,
                          sigma_noise=float(rng.uniform(0.3, 1.5)))
    metadata = {i: rng.standard_normal(k * (d - k)) for i in range(n_tasks)}
    fm = FeatureMap.indicator_with_metadata(k, d, task_metadata=metadata)
    h = History()
    rounds = {i: 0 for i in range(n_tasks)}
    for _ in range(int(rng.integers(1, 4 * n_tasks + 1))):
        tid = int(rng.integers(n_tasks))
        rounds[tid] += 1
        h.append(InteractionRecord(task_id=tid,
                                   action=int(rng.integers(k)),
                                   reward=float(rng.standard_normal()),
                                   round_within_task=rounds[tid]))
    target = int(rng.integers(n_tasks))
    return cfg, fm, h, target, metadata[target]


# ---------------------------------------------------------------------------
# posterior suite
# ---------------------------------------------------------------------------

def _check_path_equivalence() -> CheckResult:
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(40):
        cfg, fm, h, target, x = _random_instance(rng)
        a = gaussian.posterior_r_naive(cfg, fm, h, target, x)
        try:
            b = gaussian.posterior_r_woodbury(cfg, fm, h, target, x)
        except NumericalError as exc:
            return _result("path-equivalence", False,
                           "blocked route failed where the dense route "
                           "succeeded: %s" % exc)
        worst = max(worst,
                    float(np.max(np.abs(a.mean - b.mean))),
                    float(np.max(np.abs(a.cov - b.cov))))
    return _result("path-equivalence", worst < 1e-8,
                   "max |dense - blocked| = %.3g (tolerance 1e-8)" % worst)


def _check_prior_predictive() -> CheckResult:
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(10):
        cfg, fm, _, target, x = _random_instance(rng)
        empty = History()
        bel = gaussian.posterior_r_naive(cfg, fm, empty, target, x)
        phi = fm.task_features(x)
        want_mean = phi @ cfg.mu_theta
        want_cov = phi @ cfg.sigma_theta @ phi.T + cfg.sigma_delta
        worst = max(worst,
                    float(np.max(np.abs(bel.mean - want_mean))),
                    float(np.max(np.abs(bel.cov - want_cov))))
    return _result("prior-predictive", worst < 1e-12,
                   "max deviation from closed form = %.3g" % worst)


def _check_monotone_information() -> CheckResult:
    rng = np.random.default_rng(13)
    worst = -np.inf
    for _ in range(10):
        cfg, fm, h, target, x = _random_instance(rng)
        prefix = History()
        prev = gaussian.posterior_r_naive(cfg, fm, prefix, target, x)
        for rec in h:
            prefix.append(rec)
            cur = gaussian.posterior_r_naive(cfg, fm, prefix, target, x)
            growth = float(np.max(np.linalg.eigvalsh(cur.cov - prev.cov)))
            worst = max(worst, growth)
            prev = cur
    return _result("monotone-information", worst < 1e-8,
                   "largest covariance growth eigenvalue = %.3g" % worst)


def _check_loewner_order() -> CheckResult:
    rng = np.random.default_rng(14)
    worst = -np.inf
    for _ in range(10):
        cfg, fm, h, target, x = _random_instance(rng)
        post = gaussian.posterior_r_naive(cfg, fm, h, target, x)
        phi = fm.task_features(x)
        prior_cov = phi @ cfg.sigma_theta @ phi.T + cfg.sigma_delta
        growth = float(np.max(np.linalg.eigvalsh(post.cov - prior_cov)))
        worst = max(worst, growth)
    return _result("loewner-order", worst < 1e-8,
                   "largest (posterior - prior) eigenvalue = %.3g" % worst)


def _check_theta_marginal_identity() -> CheckResult:
    rng = np.random.default_rng(15)
    worst = 0.0
    for _ in range(15):
        cfg, fm, h, target, x = _random_instance(rng)
        direct = gaussian.posterior_r_naive(cfg, fm, h, target, x)
        tp = gaussian.posterior_theta(cfg, fm, h)
        counts, sums = gaussian._arm_stats(History(h.task_records(target)),
                                           fm.n_arms)
        fast = gaussian.marginal_task_belief(cfg, fm, tp, x, counts, sums)
        worst = max(worst,
                    float(np.max(np.abs(direct.mean - fast.mean))),
                    float(np.max(np.abs(direct.cov - fast.cov))))
    return _result("theta-marginal-identity", worst < 1e-8,
                   "max |kernel route - coefficient route| = %.3g" % worst)


def _posterior_suite() -> list[CheckResult]:
    return [_check_path_equivalence(), _check_prior_predictive(),
            _check_monotone_information(), _check_loewner_order(),
            _check_theta_marginal_identity()]


# ---------------------------------------------------------------------------
# conjugacy suite
# ---------------------------------------------------------------------------

def _check_beta_round_trip() -> CheckResult:
    worst = 0.0
    for mu in (0.2, 0.5, 0.77):
        for psi in (0.1, 1.0, 3.0):
            b = beta_from_mean_precision(mu, psi)
            want_var = mu * (1 - mu) * psi / (1 + psi)
            worst = max(worst, abs(b.mean - mu), abs(b.variance - want_var),
                        abs(precision_for_variance(mu, want_var) - psi))
    return _result("beta-round-trip", worst < 1e-12,
                   "max parameterization error = %.3g" % worst)


def _check_beta_count_ts() -> CheckResult:
    # The Bernoulli agents' count core against conjugate_update, exactly:
    # five records one by one through update, then one segment of two
    # tasks through play (its vectorized step), whose arms the draws pick
    # and whose payoff rows pay 0.0 on task 0 and 1.0 on task 1.
    prior = BetaParams(0.5, 1.5)
    core = agents.IndividualTSBernoulli(SimpleNamespace(
        rng=np.random.default_rng(0), n_tasks=2, n_arms=2,
        priors=SimpleNamespace(bernoulli_marginal=prior)))
    records = [(1, 0, y) for y in (1.0, 0.0, 0.5, 1.0, 0.2)]
    for record in records:
        core.update(*record)
    arms = core.play(np.array([0, 1]), np.array([[0.0, 0.0], [1.0, 1.0]]))
    records += [(0, int(arms[0]), 0.0), (1, int(arms[1]), 1.0)]
    cells = [(t, a) for t in range(2) for a in range(2)]
    want = dict.fromkeys(cells, prior)
    for t, a, y in records:
        want[t, a] = conjugate_update(want[t, a], y >= 0.5, y < 0.5)
    wins = [[y >= 0.5 for t, a, y in records if (t, a) == cell] for cell in cells]
    at_once = {cell: conjugate_update(prior, sum(w), len(w) - sum(w))
               for cell, w in zip(cells, wins)}
    got = {(t, a): BetaParams(prior.alpha1 + core.sums[t, a], prior.alpha2
                              + (core.counts[t, a] - core.sums[t, a]))
           for t, a in cells}
    exact = got == want == at_once and core.counts.sum() == len(records)
    return _result("beta-count-ts-counts", exact, "core Beta(%g, %g), "
                   "conjugate Beta(%g, %g) on task 1 arm 0"
                   % (got[1, 0].alpha1, got[1, 0].alpha2,
                      want[1, 0].alpha1, want[1, 0].alpha2))


def _check_gaussian_scalar_oracle() -> CheckResult:
    prior_mean, prior_var, noise_sq = 0.4, 2.0, 0.25
    obs = [1.0, -0.3, 0.8]
    belief = gaussian.GaussianBelief(np.array([prior_mean]),
                                     np.array([[prior_var]]))
    for y in obs:
        belief = gaussian.gaussian_obs_update(belief, 0, y, np.sqrt(noise_sq))
    # Hand conjugate algebra.
    prec = 1.0 / prior_var + len(obs) / noise_sq
    mean = (prior_mean / prior_var + sum(obs) / noise_sq) / prec
    err = max(abs(float(belief.mean[0]) - mean),
              abs(float(belief.cov[0, 0]) - 1.0 / prec))
    return _result("gaussian-scalar-oracle", err < 1e-10,
                   "max |update chain - hand formula| = %.3g" % err)


def _check_conditional_ts_moments() -> CheckResult:
    # The Gaussian agents' closed-form draw is affine in its normals: z = 0
    # gives its mean and z = 1 its mean plus its per-arm sd.
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(10):
        k = int(rng.integers(1, 5))
        var, noise = rng.uniform(0.05, 1.0, k), float(rng.uniform(0.3, 1.2))
        mean = rng.standard_normal(k)
        core = agents._ConditionalTS(SimpleNamespace(
            n_arms=k, n_tasks=1, rng=SimpleNamespace()), var, noise ** 2)
        core.counts[0] = rng.integers(0, 8, k)
        core.sums[0] = core.counts[0] * (mean + rng.standard_normal(k))
        draws = []
        for normals in (np.zeros, np.ones):
            core.rng.standard_normal = normals
            draws.append(core._conditional_draw(0, mean))
        bmean, bcov = gaussian.conditional_stats_update(
            mean, np.diag(var), noise, core.counts[0], core.sums[0])
        worst = max(worst, np.max(np.abs(draws[0] - bmean)),
                    np.max(np.abs(np.diag(draws[1] - draws[0]) ** 2 - bcov)))
    return _result("conditional-ts-moments", worst < 1e-10,
                   "max |draw moment - dense update| = %.3g" % worst)


def _conjugacy_suite() -> list[CheckResult]:
    return [_check_beta_round_trip(), _check_beta_count_ts(),
            _check_gaussian_scalar_oracle(), _check_conditional_ts_moments()]


# ---------------------------------------------------------------------------
# mcmc suite
# ---------------------------------------------------------------------------

def _mcmc_setup(n_tasks: int, d: int, seed: int, pulls_per_task: int):
    k = 1
    rng = np.random.default_rng(seed)
    scale = 1.0 / d
    cfg = HierarchyConfig(mu_theta=np.zeros(d),
                          sigma_theta=scale * np.eye(d),
                          psi=1.0)
    metadata = {i: rng.standard_normal(k * (d - k)) for i in range(n_tasks)}
    fm = FeatureMap.indicator_with_metadata(k, d, task_metadata=metadata)
    h = History()
    if pulls_per_task:
        theta_true = rng.standard_normal(d) * np.sqrt(scale)
        for i in range(n_tasks):
            phi = fm.task_features(metadata[i])
            mu = 1.0 / (1.0 + np.exp(-(phi @ theta_true)[0]))
            r = rng.beta(mu / cfg.psi, (1 - mu) / cfg.psi)
            for t in range(pulls_per_task):
                h.append(InteractionRecord(task_id=i, action=0,
                                           reward=float(rng.uniform() < r),
                                           round_within_task=t + 1))
    return cfg, fm, h


def _check_mcmc_prior_recovery() -> CheckResult:
    cfg, fm, h = _mcmc_setup(n_tasks=4, d=2, seed=31, pulls_per_task=0)
    chain = sample_theta_mcmc(cfg, fm, h, np.random.default_rng(32),
                              n_samples=4000, burn_in=1000)
    scale = cfg.sigma_theta[0, 0]
    mean_err = float(np.max(np.abs(chain.mean)))
    std_err = float(np.max(np.abs(chain.std - np.sqrt(scale))))
    ok = mean_err < 0.25 * np.sqrt(scale) and std_err < 0.35 * np.sqrt(scale)
    return _result("prior-recovery", ok,
                   "empty-history chain: |mean| = %.3g, |std - prior std| = "
                   "%.3g (prior std %.3g)" % (mean_err, std_err, np.sqrt(scale)))


def quadrature_theta_posterior(cfg: HierarchyConfig, fm: FeatureMap,
                               h: History, grid: np.ndarray) -> np.ndarray:
    """Normalized 1-d posterior density of theta on the grid, latent arm
    means integrated out in closed form (Beta-Binomial marginal per task)."""
    if cfg.dim != 1:
        raise ConfigError("quadrature oracle is 1-dimensional only")
    task_ids = h.task_ids()
    successes, failures = outcome_counts(h, task_ids, fm.n_arms)
    scale = float(cfg.sigma_theta[0, 0])
    logp = -0.5 * (grid - float(cfg.mu_theta[0])) ** 2 / scale
    for j, th in enumerate(grid):
        theta = np.array([th])
        for tid, s, f in zip(task_ids, successes, failures):
            logp[j] += log_marginal_counts(theta, cfg, fm,
                                           fm.metadata_for(tid), s, f)
    logp -= logp.max()
    dens = np.exp(logp)
    dens /= np.trapezoid(dens, grid)
    return dens


def _check_mcmc_stationary_tv() -> CheckResult:
    cfg, fm, h = _mcmc_setup(n_tasks=6, d=1, seed=33, pulls_per_task=8)
    chain = sample_theta_mcmc(cfg, fm, h, np.random.default_rng(34),
                              n_samples=40000, burn_in=2000)
    scale = float(cfg.sigma_theta[0, 0])
    width = 4.0 * np.sqrt(scale)
    grid = np.linspace(-width, width, 1201)
    dens = quadrature_theta_posterior(cfg, fm, h, grid)
    edges = np.linspace(-width, width, 16)
    centers_prob = np.zeros(edges.shape[0] - 1)
    for b in range(edges.shape[0] - 1):
        inside = (grid >= edges[b]) & (grid <= edges[b + 1])
        centers_prob[b] = np.trapezoid(dens[inside], grid[inside])
    centers_prob /= centers_prob.sum()
    hist, _ = np.histogram(chain.samples[:, 0], bins=edges)
    emp = hist / hist.sum()
    tv = 0.5 * float(np.abs(centers_prob - emp).sum())
    return _result("stationary-tv", tv < 0.1,
                   "total variation to quadrature oracle = %.4f "
                   "(threshold 0.1)" % tv)


def _check_mcmc_acceptance() -> CheckResult:
    cfg, fm, h = _mcmc_setup(n_tasks=6, d=3, seed=35, pulls_per_task=6)
    chain = sample_theta_mcmc(cfg, fm, h, np.random.default_rng(36),
                              n_samples=2000, burn_in=1000)
    ok = 0.05 <= chain.acceptance_rate <= 0.95 and not chain.warnings
    return _result("acceptance-window", ok,
                   "post-burn-in acceptance rate %.3f, %d warning(s)"
                   % (chain.acceptance_rate, len(chain.warnings)))


def _mcmc_suite() -> list[CheckResult]:
    return [_check_mcmc_prior_recovery(), _check_mcmc_stationary_tv(),
            _check_mcmc_acceptance()]


# ---------------------------------------------------------------------------
# regret suite
# ---------------------------------------------------------------------------

def _tiny_config(**overrides) -> bench.ExperimentConfig:
    base = {
        "population": {"n_tasks": 12, "horizon": 30, "n_arms": 3, "dim": 5,
                       "sigma_noise": 0.5, "sigma1_sq": 0.5},
        "schedule": "concurrent",
        "algorithms": [{"name": "hier-ts"}, {"name": "oracle-ts"}],
        "seeds": 3,
    }
    base.update(overrides)
    return bench.ExperimentConfig.from_dict(base)


def _check_oracle_self_mtr(ledger: metrics.RegretLedger) -> CheckResult:
    curve = metrics.multi_task_regret_curve(ledger, "oracle-ts",
                                            "per_task_sequential", "oracle-ts")
    peak = float(np.max(np.abs(curve.mean))) if curve.mean.size else 0.0
    return _result("oracle-self-mtr-zero", peak == 0.0,
                   "max |oracle minus itself| = %.3g" % peak)


def _check_cumulative_monotone(ledger: metrics.RegretLedger) -> CheckResult:
    worst = 0.0
    for name in ledger.algorithms():
        for view in ("per_round_concurrent", "per_task_sequential"):
            curve = metrics.bayes_regret_curve(ledger, name, view)
            steps = np.diff(curve.cumulative())
            if steps.size:
                worst = min(worst, float(steps.min()))
    return _result("cumulative-monotone", worst >= 0.0,
                   "most negative cumulative increment = %.3g" % worst)


def _check_replay_determinism() -> CheckResult:
    config = _tiny_config()
    first = bench.simulate_ledger(config)
    second = bench.simulate_ledger(config)
    same = list(first.rows()) == list(second.rows())
    detail = "two in-process replays %s" % ("match row for row"
                                            if same else "diverge")
    if same:
        pops = {s: generate_population(config.spec_for_seed(s))
                for s in config.seeds}
        tables = {s: RewardTable(pops[s]) for s in config.seeds}
        try:
            metrics.verify_replay(
                first, lambda s: pops[s],
                lambda s, tid, rnd, arm: tables[s].reward(tid, rnd, arm))
        except ConfigError as exc:
            return _result("replay-determinism", False, str(exc))
    return _result("replay-determinism", same, detail)


def _check_oracle_beats_random(config: bench.ExperimentConfig,
                               ledger: metrics.RegretLedger) -> CheckResult:
    oracle_total = np.mean(list(
        metrics.cumulative_regret_by_seed(ledger, "oracle-ts").values()))
    blind = 0.0
    for s in config.seeds:
        pop = generate_population(config.spec_for_seed(s))
        gaps = pop.best_means[:, None] - pop.means
        blind += float(gaps.mean(axis=1).sum()) * pop.spec.horizon
    blind /= len(config.seeds)
    ok = oracle_total < 0.6 * blind
    return _result("oracle-beats-blind-play", ok,
                   "oracle cumulative regret %.2f vs blind-play expectation "
                   "%.2f (need < 60%%)" % (oracle_total, blind))


def _regret_suite() -> list[CheckResult]:
    config = _tiny_config()
    ledger = bench.simulate_ledger(config)
    return [_check_oracle_self_mtr(ledger), _check_cumulative_monotone(ledger),
            _check_replay_determinism(),
            _check_oracle_beats_random(config, ledger)]


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

_SUITE_FNS = {
    "posterior": _posterior_suite,
    "conjugacy": _conjugacy_suite,
    "mcmc": _mcmc_suite,
    "regret": _regret_suite,
}


def run_suite(name: str) -> list[CheckResult]:
    if name not in _SUITE_FNS:
        raise ConfigError("unknown suite %r; known: %s"
                          % (name, ", ".join(SUITES)))
    return _SUITE_FNS[name]()


def run_suites(names=None) -> dict[str, list[CheckResult]]:
    chosen = tuple(names) if names else SUITES
    out = {}
    for name in chosen:
        out[name] = run_suite(name)
    return out
