"""Bernoulli rewards with a Beta-logistic hierarchical model.

Model
-----
Shared coefficients    theta ~ N(mu_theta, Sigma_theta).
Task arm means         r_{i,a} | theta ~ Beta(alpha1, alpha2) with
                       mean mu = logistic(phi(x_i, a)^T theta) and the
                       mean-precision parameterization below.
Observations           R | r ~ Bernoulli(r_{i,a}).

Beta parameterization: for mean mu and precision psi > 0,
    alpha1 = mu / psi,   alpha2 = (1 - mu) / psi,
    Var = mu (1 - mu) psi / (1 + psi),
so larger psi means more cross-task heterogeneity around the logistic mean.

The arm-mean posterior given theta is conjugate (Beta-Bernoulli), so the
arm means integrate out: given theta, a slot's success and failure counts
have the Beta-Binomial marginal B(alpha1 + s, alpha2 + f) / B(alpha1, alpha2)
(beta_binomial_log_marginal).  The coefficient posterior has no closed form;
ThetaSampler runs a collapsed random-walk Metropolis chain on theta whose
target is the log prior plus the sum of those marginals over the slots, so
it draws no latent arm mean.  Its state (theta, the adapted proposal scale,
the sweep count) persists between runs, so Bernoulli hier-ts keeps one warm
chain across refreshes while its counts grow.  sample_theta_counts is the
same chain started cold from mu_theta, and sample_theta_mcmc its History
adapter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Sequence

import numpy as np

from .core import FeatureMap, HierarchyConfig, History, check_real
from .errors import ConfigError

# Logistic means are clamped into [MEAN_CLIP, 1 - MEAN_CLIP] so extreme
# coefficient proposals keep finite Beta parameters.
MEAN_CLIP = 1e-6

ACCEPTANCE_TARGET = 0.3
ACCEPTANCE_WINDOW = (0.05, 0.95)


# scipy.special is imported at the first Bernoulli call, not with the
# package, so a Gaussian run never loads it.  On top of `import hierbandit`
# (scipy 1.17.1) it costs 23.7 MB resident as the first scipy submodule to
# load, as in every Bernoulli run, and 3.6 MB once scipy.linalg is in.  The
# first call of either stub rebinds both names to scipy's own ufuncs, so
# every later call goes straight to them.
def expit(z):
    """scipy.special.expit, the logistic function."""
    return _load_special().expit(z)


def betaln(a, b):
    """scipy.special.betaln, log B(a, b)."""
    return _load_special().betaln(a, b)


def _load_special():
    global expit, betaln
    from scipy import special
    expit, betaln = special.expit, special.betaln
    return special


@dataclass(frozen=True)
class BetaParams:
    """Beta(alpha1, alpha2) with both shapes finite real numbers > 0."""

    alpha1: float
    alpha2: float

    def __post_init__(self):
        check_real("alpha1", self.alpha1)
        check_real("alpha2", self.alpha2)
        if not (self.alpha1 > 0 and self.alpha2 > 0):
            raise ConfigError("Beta shapes must be positive, got (%g, %g)"
                              % (self.alpha1, self.alpha2))

    @property
    def mean(self) -> float:
        return self.alpha1 / (self.alpha1 + self.alpha2)

    @property
    def variance(self) -> float:
        s = self.alpha1 + self.alpha2
        return self.alpha1 * self.alpha2 / (s * s * (s + 1.0))

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.beta(self.alpha1, self.alpha2))


def beta_from_mean_precision(mu: float, psi: float) -> BetaParams:
    """BetaParams with the given mean and precision (alpha1 = mu/psi,
    alpha2 = (1-mu)/psi)."""
    if not 0.0 < mu < 1.0:
        raise ConfigError("mean must lie in (0, 1), got %g" % mu)
    if not psi > 0:
        raise ConfigError("precision must be > 0, got %g" % psi)
    return BetaParams(mu / psi, (1.0 - mu) / psi)


def precision_for_variance(mu: float, var: float) -> float:
    """The psi giving Var = mu(1-mu) psi / (1+psi); requires
    0 < var < mu(1-mu)."""
    bound = mu * (1.0 - mu)
    if not 0.0 < var < bound:
        raise ConfigError("variance must lie in (0, %g), got %g" % (bound, var))
    return 1.0 / (bound / var - 1.0)


def conjugate_update(prior: BetaParams, successes: float, failures: float) -> BetaParams:
    """Beta-Bernoulli posterior after observing the given counts."""
    if successes < 0 or failures < 0:
        raise ConfigError("counts must be nonnegative")
    return BetaParams(prior.alpha1 + successes, prior.alpha2 + failures)


def clipped_logistic(z: np.ndarray) -> np.ndarray:
    """logistic(z) clamped into [MEAN_CLIP, 1 - MEAN_CLIP].  The bits of
    np.clip, which costs twice as much at the chain's sizes; NaN passes
    through."""
    return np.minimum(np.maximum(expit(z), MEAN_CLIP), 1.0 - MEAN_CLIP)


def bblm_prior_for_task(theta: np.ndarray, fm: FeatureMap, x: np.ndarray,
                        psi: float) -> list[BetaParams]:
    """Per-arm Beta priors Beta(mu_a/psi, (1-mu_a)/psi) with
    mu_a = logistic(phi(x, a)^T theta)."""
    means = clipped_logistic(fm.task_features(x)
                             @ np.asarray(theta, dtype=float))
    return [beta_from_mean_precision(float(m), psi) for m in means]


def logistic_beta_shapes(phi_rows: np.ndarray, theta: np.ndarray,
                         psi: float) -> tuple[np.ndarray, np.ndarray]:
    """(alpha1, alpha2) = (mu/psi, (1-mu)/psi) over stacked task-arm rows,
    mu the clipped logistic mean of each row; unchecked."""
    means = clipped_logistic(phi_rows @ theta)
    return means / psi, (1.0 - means) / psi


def beta_binomial_log_marginal(a1: np.ndarray, a2: np.ndarray,
                               successes: np.ndarray,
                               failures: np.ndarray) -> np.ndarray:
    """Per slot, log B(a1 + s, a2 + f) / B(a1, a2): the log probability of
    the slot's outcomes, in their order, with its Beta(a1, a2) mean
    integrated out.  Exactly 0.0 for a slot with no pulls."""
    return betaln(a1 + successes, a2 + failures) - betaln(a1, a2)


def log_marginal_counts(theta: np.ndarray, cfg: HierarchyConfig,
                        fm: FeatureMap, task_x: np.ndarray,
                        successes: np.ndarray, failures: np.ndarray) -> float:
    """log P(counts | theta) for one task with the latent means integrated
    out: a product of Beta-Binomial marginals,
        B(alpha1 + s_a, alpha2 + f_a) / B(alpha1, alpha2)  per arm,
    the task's share of ThetaSampler's collapsed likelihood.  Used by the
    small-d quadrature oracle."""
    a1, a2 = logistic_beta_shapes(fm.task_features(task_x),
                                  np.asarray(theta, dtype=float), cfg.psi)
    return float(np.sum(beta_binomial_log_marginal(a1, a2, successes,
                                                   failures)))


@dataclass
class ThetaChain:
    """Post-burn-in MCMC draws of theta plus sampler diagnostics."""

    samples: np.ndarray
    acceptance_rate: float
    step_scale: float
    warnings: list[str] = field(default_factory=list)

    @property
    def mean(self) -> np.ndarray:
        return self.samples.mean(axis=0)

    @property
    def std(self) -> np.ndarray:
        return self.samples.std(axis=0, ddof=1)


def outcome_counts(h: History, task_ids: Sequence[int], n_arms: int
                   ) -> tuple[np.ndarray, np.ndarray]:
    """(successes, failures), each (len(task_ids), n_arms): the records of
    task task_ids[j] tallied per arm in row j, a reward >= 0.5 a success.
    Every task in h must be listed; an arm >= n_arms is a ConfigError."""
    tasks, actions, rewards = h.columns()
    if actions.size and actions.max() >= n_arms:
        raise ConfigError("arm %d out of range [0, %d)" % (actions.max(), n_arms))
    row = {tid: j for j, tid in enumerate(task_ids)}
    slots = np.array([row[t] for t in tasks.tolist()], dtype=np.int64) \
        * n_arms + actions
    won = rewards >= 0.5
    size = len(task_ids) * n_arms
    successes = np.bincount(slots[won], minlength=size).astype(float)
    failures = np.bincount(slots[~won], minlength=size).astype(float)
    return successes.reshape(-1, n_arms), failures.reshape(-1, n_arms)


def sample_theta_mcmc(cfg: HierarchyConfig, fm: FeatureMap, h: History,
                      rng: np.random.Generator, n_samples: int = 2000,
                      burn_in: int = 1000,
                      initial_step: float = 0.25) -> ThetaChain:
    """Collapsed Metropolis chain for P(theta | H) under the Beta-logistic
    model: stacks the history into per-slot counts and runs
    sample_theta_counts on them.

    The chain conditions on the tasks that carry records, in sorted id
    order; with an empty history it conditions on every task registered in
    the feature map, whose slots all have no pulls and add exactly 0 to the
    log target, so the chain targets P(theta).  A record counts as a success
    when its reward is >= 0.5.
    """
    cfg.require_bernoulli()
    task_ids = sorted(h.task_ids()) or sorted(fm.known_tasks())
    if not task_ids:
        raise ConfigError("no tasks to condition on: history and feature-map "
                          "registry are both empty")
    phi_rows = np.concatenate([fm.registered_features(tid)
                               for tid in task_ids])
    successes, failures = outcome_counts(h, task_ids, fm.n_arms)
    return sample_theta_counts(cfg, phi_rows, successes.ravel(),
                               failures.ravel(), rng, n_samples=n_samples,
                               burn_in=burn_in, initial_step=initial_step)


def sample_theta_counts(cfg: HierarchyConfig, phi_rows: np.ndarray,
                        successes: np.ndarray, failures: np.ndarray,
                        rng: np.random.Generator, n_samples: int = 2000,
                        burn_in: int = 1000,
                        initial_step: float = 0.25) -> ThetaChain:
    """Collapsed Metropolis chain for P(theta | counts) over stacked
    task-arm slots: row j of phi_rows is a slot's feature vector and
    successes[j], failures[j] its Bernoulli counts.

    A cold ThetaSampler, the chain Bernoulli hier-ts runs warm: burn_in
    sweeps from mu_theta with the proposal scale adapting, then n_samples
    kept sweeps at the scale burn-in left; the reported acceptance rate
    covers the kept sweeps.
    """
    chain = ThetaSampler(cfg, initial_step)
    if n_samples < 1 or burn_in < 0:
        raise ConfigError("need n_samples >= 1 and burn_in >= 0")
    d = cfg.dim
    n_slots = len(successes)
    if n_slots == 0 or np.shape(phi_rows) != (n_slots, d) \
            or np.shape(failures) != (n_slots,):
        raise ConfigError(
            "need phi_rows of shape (n_slots, %d) with n_slots >= 1 and "
            "successes, failures of length n_slots; got %s, %s, %s"
            % (d, np.shape(phi_rows), np.shape(successes), np.shape(failures)))
    chain.run(phi_rows, successes, failures, rng, burn_in)
    samples = np.zeros((n_samples, d))
    rate = chain.run(phi_rows, successes, failures, rng, n_samples,
                     adapt=False, samples=samples) / float(n_samples)
    return ThetaChain(samples=samples, acceptance_rate=rate,
                      step_scale=float(np.exp(chain.log_step)),
                      warnings=acceptance_warnings(rate))


def acceptance_warnings(rate: float) -> list[str]:
    """One warning when a post-burn-in acceptance rate leaves
    ACCEPTANCE_WINDOW, none otherwise."""
    if ACCEPTANCE_WINDOW[0] <= rate <= ACCEPTANCE_WINDOW[1]:
        return []
    return ["post-burn-in acceptance rate %.3f outside [%.2f, %.2f]; "
            "treat the chain as suspect" % (rate, *ACCEPTANCE_WINDOW)]


class ThetaSampler:
    """A collapsed random-walk Metropolis chain on theta whose state persists
    between runs: theta (from mu_theta), the log proposal scale (from
    log(initial_step)) and the number of sweeps run so far.

    The target is P(theta | counts) with every latent arm mean integrated
    out (log_target), so a sweep is one Gaussian random-walk proposal on
    theta and one accept test: it draws one standard_normal(d) and then one
    uniform, and makes no Beta draw.  A state's target is computed once,
    when the state is proposed, and kept until another proposal is accepted.
    An adapting sweep moves the log scale toward 30% acceptance by
    Robbins-Monro with gain (n_sweeps + 1)^-0.6, so the gain keeps shrinking
    across runs.
    """

    def __init__(self, cfg: HierarchyConfig, initial_step: float = 0.25):
        cfg.require_bernoulli()
        if not (np.isfinite(initial_step) and initial_step > 0):
            raise ConfigError("initial_step must be finite and > 0, got %r"
                              % (initial_step,))
        self.cfg = cfg
        self.theta = cfg.mu_theta.copy()
        self.log_step = np.log(initial_step)
        self.n_sweeps = 0
        # L^{-1} once: a log prior through it differs from a per-state
        # triangular solve only in rounding, which could flip an accept only
        # if log(u) fell within that rounding of the log ratio
        self._whiten = np.linalg.inv(np.linalg.cholesky(cfg.sigma_theta))

    def log_target(self, phi_rows: np.ndarray, successes: np.ndarray,
                   failures: np.ndarray, theta: np.ndarray) -> float:
        """log P(theta | counts) up to a constant: the log prior
        -|L^-1 (theta - mu_theta)|^2 / 2, L the Cholesky factor of
        Sigma_theta, plus beta_binomial_log_marginal summed over the slots
        under theta's logistic Beta shapes."""
        a1, a2 = logistic_beta_shapes(phi_rows, theta, self.cfg.psi)
        white = self._whiten @ (theta - self.cfg.mu_theta)
        return -0.5 * float(white @ white) + float(
            beta_binomial_log_marginal(a1, a2, successes, failures).sum())

    def run(self, phi_rows: np.ndarray, successes: np.ndarray,
            failures: np.ndarray, rng: np.random.Generator, n: int,
            adapt: bool = True, samples: np.ndarray | None = None) -> int:
        """n sweeps on the given counts from the current state; row i of
        samples, if given, receives theta after sweep i.  Returns the number
        of accepted proposals."""
        target = partial(self.log_target, phi_rows, successes, failures)
        theta, log_step = self.theta, self.log_step
        current = target(theta)
        d = theta.shape[0]
        accepted = 0
        for i in range(n):
            cand = theta + np.exp(log_step) * rng.standard_normal(d)
            proposed = target(cand)
            # rng.random() is rng.uniform() bit for bit, with less overhead
            accept = np.log(rng.random()) < proposed - current
            if accept:
                theta, current = cand, proposed
                accepted += 1
            if adapt:
                gamma = (self.n_sweeps + i + 1.0) ** -0.6
                log_step += gamma * ((1.0 if accept else 0.0)
                                     - ACCEPTANCE_TARGET)
            if samples is not None:
                samples[i] = theta
        self.theta, self.log_step = theta, log_step
        self.n_sweeps += n
        return accepted
