"""Baseline priors derived from the hierarchy, and empirical-Bayes fitting.

Baselines that ignore the hierarchy still need well-calibrated priors for a
fair comparison.  derive_baseline_priors computes, from a population spec
(and the realized theta where the construction calls for it):

  * the marginal per-arm Gaussian prior N(0, theta-induced + effect variance)
    used by the one-size-fits-all and per-task agents,
  * the conditional (effect-only) variance,
  * the reward-noise variance a plain linear bandit should assume,
  * the hyper-mean variance for the two-level (arm-mean) agent,
  * Bernoulli analogues: a moment-matched marginal Beta prior and a small
    candidate set of per-arm Beta priors for the two-level Bernoulli agent.

Empirical Bayes: log_marginal_likelihood evaluates the evidence of the
variance components (sigma_noise, sigma1) on a history through the blocked
route, one K x K solve per task on pair statistics
(gaussian.KernelWorkspace), and fit_variance_components maximizes it over a
grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bernoulli import MEAN_CLIP, BetaParams, beta_from_mean_precision, \
    clipped_logistic, precision_for_variance
from .core import FeatureMap, HierarchyConfig, History
from .envs import PopulationSpec, prior_rng
from .errors import ConfigError
from .gaussian import KernelWorkspace, _require_model, _Stacked, \
    theta_posterior_stats

N_BERNOULLI_CANDIDATES = 10
_CANDIDATE_MEAN_RANGE = (0.1, 0.9)
# The Bernoulli Monte Carlo draws its metadata in blocks of this many rows.
# A row's logit keeps the bits of one whole draw only for a multiple of 8
# (a matrix-vector product's per-row bits can depend on where the row falls
# in a SIMD group).
_MC_BLOCK = 4096


@dataclass(frozen=True)
class DerivedPriors:
    """Prior quantities consumed by the baseline agents.

    marginal_mean / marginal_variance: per-arm moments of r_{i,a} with theta
    and the task effect integrated out (Gaussian populations).
    linear_noise_variance: reward variance around the best linear predictor,
    sigma1_sq + sigma_noise^2.
    two_level_task_variance: variance of a task's arm mean around the per-arm
    hyper-mean fixed by the realized coefficients, sigma1_sq plus the
    metadata-driven spread of the linear predictor (two-level Gaussian agent's
    conditional prior variance; its hyper-prior variance is the coefficient
    scale itself).
    bernoulli_marginal: moment-matched Beta prior over arm means.
    bernoulli_candidates: candidate per-arm Beta priors for the two-level
    Bernoulli agent; candidate 0 is derived from the realized theta, the rest
    scatter their means uniformly.
    """

    marginal_mean: float
    marginal_variance: float
    linear_noise_variance: float
    two_level_task_variance: float
    bernoulli_marginal: BetaParams | None = None
    bernoulli_candidates: tuple[tuple[BetaParams, ...], ...] = ()


def marginal_arm_variance(spec: PopulationSpec) -> float:
    """Var of r_{i,a} with theta integrated out: the arm indicator plus the
    arm's metadata slice each contribute theta_scale per coordinate (metadata
    entries are standard normal), plus the task-effect variance."""
    per_arm_features = 1 + (spec.dim - spec.n_arms)
    return spec.sigma1_sq + spec.scale * per_arm_features


def two_level_task_variance(spec: PopulationSpec, true_theta: np.ndarray) -> float:
    """Variance of r_{i,a} around the hyper-mean determined by the realized
    coefficients: sigma1_sq plus the metadata-driven spread of the linear
    predictor, sum_j theta_tail_j^2 (metadata is standard normal).  The arm
    indicator contributes nothing because its coefficient shifts every task
    identically."""
    tail = np.asarray(true_theta, dtype=float)[spec.n_arms:]
    return spec.sigma1_sq + float(tail @ tail)


def _metadata_blocks(rng: np.random.Generator, n_mc: int, p: int):
    """Yield (rows, block): n_mc standard-normal metadata draws of length p,
    _MC_BLOCK rows at a time in row order, so the blocks are the stream
    of one standard_normal((n_mc, p)) call.  Each block is drawn when the
    caller asks for it, into one buffer that the next block overwrites."""
    buf = np.empty((min(_MC_BLOCK, n_mc), p))
    for lo in range(0, n_mc, _MC_BLOCK):
        hi = min(lo + _MC_BLOCK, n_mc)
        yield slice(lo, hi), rng.standard_normal(out=buf[:hi - lo])


def _conditional_logits(spec: PopulationSpec, true_theta: np.ndarray,
                        rng: np.random.Generator, n_mc: int) -> np.ndarray:
    """n_mc x K logits of the arm means at the realized theta, one row per
    metadata draw."""
    d, k = spec.dim, spec.n_arms
    tail = true_theta[k:]
    lin = np.empty((n_mc, k))
    for rows, metadata in _metadata_blocks(rng, n_mc, spec.p):
        for a in range(k):
            lin[rows, a] = (true_theta[a]
                            + metadata[:, a * (d - k):(a + 1) * (d - k)] @ tail)
    return lin


def _marginal_logits(spec: PopulationSpec, rng: np.random.Generator,
                     n_mc: int) -> np.ndarray:
    """n_mc x K logits of the arm means with theta drawn from its prior as
    well.  The stream draws every theta before the metadata."""
    d, k = spec.dim, spec.n_arms
    thetas = rng.standard_normal((n_mc, d))
    thetas *= np.sqrt(spec.scale)
    lin = np.empty((n_mc, k))
    for rows, metadata in _metadata_blocks(rng, n_mc, spec.p):
        block = thetas[rows]
        for a in range(k):
            lin[rows, a] = block[:, a] + np.einsum(
                "nj,nj->n", metadata[:, a * (d - k):(a + 1) * (d - k)],
                block[:, k:])
    return lin


def _reward_moments(probs: np.ndarray, het: float, axis: int | None):
    """Mean and variance of a reward whose mean is Beta-distributed around
    probs, over the rows (axis=0, per arm) or over every entry (None):
        E Var(r | l) + Var E(r | l) = het * E[l(1-l)] + Var(l)."""
    mean = probs.mean(axis=axis)
    var = het * (probs * (1.0 - probs)).mean(axis=axis) + probs.var(axis=axis)
    return mean, var


def _bernoulli_moments(spec: PopulationSpec, true_theta: np.ndarray,
                       rng: np.random.Generator, n_mc: int
                       ) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Monte Carlo moments of the Bernoulli arm means.

    Returns per-arm conditional means and variances given the realized theta
    (metadata integrated out), plus the overall marginal mean and variance
    with theta also integrated out.

    Each pass fills its n_mc x K logits from metadata drawn in
    _metadata_blocks, so at most one block of metadata is held at once, and
    runs in its own function, so its block and thetas are freed before the
    reductions.  A row's logit does not depend on the block size as long as
    _MC_BLOCK is a multiple of 8 rows.  The reductions run on the whole
    n_mc x K arrays, as a blocked sum would change bits.
    """
    het = spec.psi / (1.0 + spec.psi)
    cond_mean, cond_var = _reward_moments(clipped_logistic(
        _conditional_logits(spec, true_theta, rng, n_mc)), het, axis=0)
    marg_mean, marg_var = _reward_moments(clipped_logistic(
        _marginal_logits(spec, rng, n_mc)), het, axis=None)
    return cond_mean, cond_var, float(marg_mean), float(marg_var)


def derive_baseline_priors(spec: PopulationSpec, true_theta: np.ndarray,
                           n_mc: int = 20000) -> DerivedPriors:
    """Priors the baseline agents run with, derived from the population spec
    (and, where the construction is defined relative to the realized
    population, from the true coefficients)."""
    true_theta = np.asarray(true_theta, dtype=float)
    if n_mc < 1:
        raise ConfigError("n_mc must be >= 1, got %r" % (n_mc,))
    if true_theta.shape != (spec.dim,):
        raise ConfigError("true_theta must have length dim=%d" % spec.dim)
    if spec.reward_kind == "gaussian":
        return DerivedPriors(
            marginal_mean=0.0,
            marginal_variance=marginal_arm_variance(spec),
            linear_noise_variance=spec.sigma1_sq + spec.sigma_noise ** 2,
            two_level_task_variance=two_level_task_variance(spec, true_theta))

    rng = prior_rng(spec.seed)
    cond_mean, cond_var, marg_mean, marg_var = _bernoulli_moments(
        spec, true_theta, rng, n_mc)
    marginal = beta_from_mean_precision(
        marg_mean, precision_for_variance(marg_mean, marg_var))

    candidates: list[tuple[BetaParams, ...]] = []
    truth_arms = []
    for a in range(spec.n_arms):
        mu = float(np.clip(cond_mean[a], MEAN_CLIP, 1.0 - MEAN_CLIP))
        var = float(cond_var[a])
        cap = mu * (1.0 - mu)
        var = min(max(var, 1e-12), cap * (1.0 - 1e-9))
        truth_arms.append(beta_from_mean_precision(
            mu, precision_for_variance(mu, var)))
    candidates.append(tuple(truth_arms))
    for _ in range(N_BERNOULLI_CANDIDATES - 1):
        arms = []
        for _a in range(spec.n_arms):
            mu = float(rng.uniform(*_CANDIDATE_MEAN_RANGE))
            arms.append(beta_from_mean_precision(mu, spec.psi))
        candidates.append(tuple(arms))

    return DerivedPriors(
        marginal_mean=marg_mean,
        marginal_variance=marg_var,
        linear_noise_variance=float("nan"),
        two_level_task_variance=float("nan"),
        bernoulli_marginal=marginal,
        bernoulli_candidates=tuple(candidates))


# ---------------------------------------------------------------------------
# empirical Bayes over the variance components
# ---------------------------------------------------------------------------

def log_marginal_likelihood(sigma_noise: float, sigma_delta: np.ndarray,
                            fm: FeatureMap, h: History,
                            mu_theta: np.ndarray, sigma_theta: np.ndarray, *,
                            _stacked: _Stacked | None = None) -> float:
    """log P(R | sigma_noise, sigma_delta) with theta and the task effects
    integrated out:

        -1/2 [ resid^T (K + sigma^2 I)^{-1} resid + log|K + sigma^2 I|
               + n log 2 pi ],

    computed blockwise: with V the block-diagonal effect-plus-noise part,
        log|K + sigma^2 I| = sum_tau log|V_tau| + log|Sigma_theta|
                             + log|Sigma_theta^{-1} + Phi^T V^{-1} Phi|,
        quad = resid^T V^{-1} resid - u^T (Sigma_theta^{-1} + Phi^T V^{-1} Phi)^{-1} u
    with u = Phi^T V^{-1} resid.  n is the number of records.
    """
    sigma_delta = np.asarray(sigma_delta, dtype=float)
    mu_theta = np.asarray(mu_theta, dtype=float)
    sigma_theta = np.asarray(sigma_theta, dtype=float)
    cfg = HierarchyConfig(mu_theta=mu_theta, sigma_theta=sigma_theta,
                          sigma_delta=sigma_delta, sigma_noise=sigma_noise)
    _require_model(cfg, fm)
    if len(h) == 0:
        raise ConfigError("marginal likelihood needs at least one record")
    ws = KernelWorkspace(cfg, fm, h, stacked=_stacked)
    u = ws.phi_vinv_resid
    _, sigma_in, logdet_core = theta_posterior_stats(cfg, ws.phi_vinv_phi, u)
    quad = ws.resid_vinv_resid - float(u @ sigma_in @ u)
    logdet = ws.logdet_v + logdet_core
    return -0.5 * (quad + logdet + len(h) * np.log(2.0 * np.pi))


@dataclass(frozen=True)
class VarianceFit:
    """Grid-search result: the selected components and the full score table."""

    sigma_noise: float
    sigma1_sq: float
    log_marginal: float
    table: tuple[tuple[float, float, float], ...]


def _better(cand: tuple[float, float, float], best: tuple[float, float, float]
            ) -> bool:
    """True when cand = (score, sigma1_sq, sigma_noise) beats best: higher
    score, ties to smaller sigma1_sq, then smaller sigma_noise."""
    if cand[0] != best[0]:
        return cand[0] > best[0]
    if cand[1] != best[1]:
        return cand[1] < best[1]
    return cand[2] < best[2]


def fit_variance_components(fm: FeatureMap, h: History,
                            sigma_noise_grid, sigma1_sq_grid,
                            mu_theta: np.ndarray,
                            sigma_theta: np.ndarray) -> VarianceFit:
    """Maximize the marginal likelihood over the grid of
    (sigma_noise, sigma1_sq) pairs; sigma_delta = sigma1_sq I.  Ties resolve
    to the smaller sigma1_sq, then the smaller sigma_noise.  The stacked
    history is built once and shared across grid points."""
    k = fm.n_arms
    stacked = _Stacked(fm, h)
    best: tuple[float, float, float] | None = None
    table = []
    for s1 in sigma1_sq_grid:
        for sn in sigma_noise_grid:
            score = log_marginal_likelihood(
                float(sn), float(s1) * np.eye(k), fm, h, mu_theta, sigma_theta,
                _stacked=stacked)
            cand = (score, float(s1), float(sn))
            table.append((float(sn), float(s1), score))
            if best is None or _better(cand, best):
                best = cand
    if best is None:
        raise ConfigError("variance-component grids must be nonempty")
    return VarianceFit(sigma_noise=best[2], sigma1_sq=best[1],
                       log_marginal=best[0], table=tuple(table))
