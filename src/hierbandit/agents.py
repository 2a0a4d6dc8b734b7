"""Thompson-sampling policies over the hierarchical reward models.

Hierarchical agents (Gaussian):
  hier-ts          exact two-stage TS: fresh coefficient draw every decision,
                   then a draw of the task's arm means given it.
  hier-ts-batch    same, but the coefficient draw refreshes only every
                   `refresh_every` interactions (or at schedule boundaries).
  hier-ts-aligned  forced alignment pulls (arm = round - 1) for the first
                   n_arms rounds of each task, then a coefficient draw from
                   the alignment records of earlier tasks fixes the task's
                   prior once; sequential schedules only.
  oracle-ts        single-task TS from the true-coefficient prior
                   N(Phi_i theta, Sigma_delta); the regret reference point.

Baselines (Gaussian):
  individual-ts    per-task TS from the marginal per-arm prior.
  pooled-ts        one shared belief over arm means for every task.
  linear-ts        Bayesian linear regression on the feature vectors,
                   inflated noise absorbing the task effect.
  meta-ts          two-level model with an arm-mean hyper-prior: a hyper-
                   posterior over per-arm hyper-means is resampled at
                   schedule boundaries and per-task beliefs hang off it.

The hierarchical Gaussian agents and meta-ts share one core: a per-task
prior mean, then conjugate per-arm TS under sigma1^2 I (meta-ts: its
two-level variance times I), drawn in closed form.

Bernoulli mirrors: hier-ts, oracle-ts, individual-ts, pooled-ts, meta-ts.

All agents draw randomness from the single generator handed to them and
break score ties toward the lowest arm index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import betaln

from . import bernoulli as bern
from ._linalg import sample_mvn_precision
from .bernoulli import BetaParams, sample_theta_mcmc
from .core import FeatureMap, HierarchyConfig, History, InteractionRecord
from .envs import Population
from .errors import ConfigError, NumericalError, ScheduleError
from .gaussian import ThetaStatAccumulator, diagonal_effect_variances
from .priors import DerivedPriors

# Additive score perturbation applied inside every argmax; the validate
# suite flips it to verify the regret harness notices broken agents.
_SCORE_OFFSET: float | None = None


def _pick(scores: np.ndarray) -> int:
    """Arm of the highest score; exact ties go to the lowest index."""
    if _SCORE_OFFSET is not None:
        scores = scores + _SCORE_OFFSET * np.arange(scores.shape[0])
    return int(np.argmax(scores))


@dataclass
class AgentContext:
    """Everything a policy may condition on at construction time.

    Policies never see true arm means; oracle variants receive the true
    coefficient vector explicitly because their definition calls for it.
    """

    population: Population
    priors: DerivedPriors
    rng: np.random.Generator
    schedule_kind: str

    @property
    def cfg(self) -> HierarchyConfig:
        return self.population.spec.hierarchy_config()

    @property
    def fm(self) -> FeatureMap:
        return self.population.feature_map

    @property
    def n_tasks(self) -> int:
        return self.population.spec.n_tasks

    @property
    def n_arms(self) -> int:
        return self.population.spec.n_arms


class Policy:
    """Interface the simulation loop drives.

    act(task_id) returns an arm; update(...) feeds back the observed reward.
    end_of_round fires after each concurrent round, end_of_task after each
    task completes under a sequential schedule.  Defaults are no-ops.
    """

    name: str = "policy"

    def act(self, task_id: int) -> int:
        raise NotImplementedError

    def update(self, task_id: int, arm: int, reward: float) -> None:
        raise NotImplementedError

    def end_of_round(self) -> None:
        pass

    def end_of_task(self, task_id: int) -> None:
        pass


# ---------------------------------------------------------------------------
# Gaussian hierarchy
# ---------------------------------------------------------------------------

class _ConditionalTS(Policy):
    """Conjugate per-arm TS around a per-task prior mean.

    Subclasses supply only _prior_mean(task_id).  Given that mean m, arm a's
    mean is N(m_a, v_a) independently of the other arms, and the task's own
    pull count n and reward sum S per arm update it in closed form:
        draw = m + v (S - n m) / d + sqrt(v sigma^2 / d) z,  d = sigma^2 + v n,
    with z one standard normal per arm.  This is the update
    conditional_stats_update does densely, specialized to diagonal
    Sigma_delta, and it consumes the generator as sample_mvn does.  With
    align set, rounds 1..n_arms of each task first play arm round-1.
    """

    align = False

    def __init__(self, ctx: AgentContext, arm_var: np.ndarray, noise_sq: float):
        self.rng = ctx.rng
        self.n_arms = ctx.n_arms
        self.arm_var = arm_var
        self.noise_sq = noise_sq
        self.counts = np.zeros((ctx.n_tasks, ctx.n_arms))
        self.sums = np.zeros((ctx.n_tasks, ctx.n_arms))

    def _prior_mean(self, task_id: int) -> np.ndarray:
        raise NotImplementedError

    def _rounds_played(self, task_id: int) -> int:
        return int(self.counts[task_id].sum())

    def act(self, task_id: int) -> int:
        if self.align:
            played = self._rounds_played(task_id)
            if played < self.n_arms:
                return played
        return _pick(self._conditional_draw(task_id, self._prior_mean(task_id)))

    def _conditional_draw(self, task_id: int, m: np.ndarray) -> np.ndarray:
        """One draw of the task's arm means given prior mean m."""
        n = self.counts[task_id]
        v = self.arm_var
        d = self.noise_sq + v * n
        z = self.rng.standard_normal(self.n_arms)
        draw = m + v * (self.sums[task_id] - n * m) / d \
            + np.sqrt(v * self.noise_sq / d) * z
        if not np.isfinite(draw).all():
            raise NumericalError("non-finite arm-mean draw in %s" % self.name)
        return draw

    def update(self, task_id: int, arm: int, reward: float) -> None:
        self.counts[task_id, arm] += 1.0
        self.sums[task_id, arm] += reward


class HierTS(_ConditionalTS):
    """Exact hierarchical Thompson sampling.

    Every decision: draw theta from its current posterior (maintained
    incrementally in O(d^2) per record), then draw the task's arm means from
    the conditional given that draw, and play the argmax.  Marginally this
    samples the exact per-task posterior.
    """

    name = "hier-ts"

    def __init__(self, ctx: AgentContext):
        cfg = ctx.cfg
        cfg.require_gaussian()
        super().__init__(ctx, diagonal_effect_variances(cfg), cfg.sigma_noise ** 2)
        self.cfg = cfg
        self.acc = ThetaStatAccumulator(cfg, ctx.fm, range(ctx.n_tasks))
        self._sigma_theta_inv = np.linalg.inv(cfg.sigma_theta)

    def _theta_draw(self) -> np.ndarray:
        return self.cfg.mu_theta + sample_mvn_precision(
            self._sigma_theta_inv + self.acc.phi_vinv_phi,
            self.acc.phi_vinv_resid, self.rng)

    def _current_theta(self) -> np.ndarray:
        return self._theta_draw()

    def _prior_mean(self, task_id: int) -> np.ndarray:
        return self.acc.features[self.acc.row(task_id)] @ self._current_theta()

    def update(self, task_id: int, arm: int, reward: float) -> None:
        super().update(task_id, arm, reward)
        self.acc.add(task_id, arm, reward)


class HierTSBatched(HierTS):
    """Hierarchical TS with a stale coefficient draw.

    refresh_every = m redraws theta after every m interactions; None redraws
    only at schedule boundaries (end of round or end of task).  m = 1 is
    exactly hier-ts.
    """

    name = "hier-ts-batch"

    def __init__(self, ctx: AgentContext, refresh_every: int | None = None):
        super().__init__(ctx)
        if refresh_every is not None and refresh_every < 1:
            raise ConfigError("refresh_every must be >= 1 or None")
        self.refresh_every = refresh_every
        self._since_refresh = 0
        self._cached_theta: np.ndarray | None = None

    def _current_theta(self) -> np.ndarray:
        if self._cached_theta is None:
            self._cached_theta = self._theta_draw()
            self._since_refresh = 0
        return self._cached_theta

    def update(self, task_id: int, arm: int, reward: float) -> None:
        super().update(task_id, arm, reward)
        self._since_refresh += 1
        if self.refresh_every is not None \
                and self._since_refresh >= self.refresh_every:
            self._cached_theta = None

    def end_of_round(self) -> None:
        if self.refresh_every is None:
            self._cached_theta = None

    def end_of_task(self, task_id: int) -> None:
        if self.refresh_every is None:
            self._cached_theta = None


class AlignedHierTS(HierTS):
    """Hierarchical TS with forced alignment pulls (sequential schedules).

    Rounds 1..n_arms of each task play arm round-1.  At round n_arms+1 the
    agent draws one coefficient vector from the posterior conditioned on the
    alignment records of the tasks finished before this one, freezes the
    task's prior at N(Phi_i draw, Sigma_delta), and runs plain single-task
    TS on the task's own records from there on.  The first task's draw comes
    from the pure prior.
    """

    name = "hier-ts-aligned"
    align = True

    def __init__(self, ctx: AgentContext):
        if ctx.schedule_kind != "sequential":
            raise ScheduleError("hier-ts-aligned requires a sequential schedule")
        super().__init__(ctx)
        self._pending: dict[int, list[tuple[int, float]]] = {}
        self._fixed_prior_mean: dict[int, np.ndarray] = {}

    def _prior_mean(self, task_id: int) -> np.ndarray:
        if task_id not in self._fixed_prior_mean:
            self._fixed_prior_mean[task_id] = super()._prior_mean(task_id)
        return self._fixed_prior_mean[task_id]

    def update(self, task_id: int, arm: int, reward: float) -> None:
        # Own counts only: the accumulator holds alignment records of
        # finished tasks, released at end_of_task.
        _ConditionalTS.update(self, task_id, arm, reward)
        if self._rounds_played(task_id) <= self.n_arms:
            self._pending.setdefault(task_id, []).append((arm, reward))

    def end_of_task(self, task_id: int) -> None:
        for arm, reward in self._pending.pop(task_id, []):
            self.acc.add(task_id, arm, reward)


class OracleTS(_ConditionalTS):
    """Single-task TS from the true-coefficient prior N(Phi_i theta, Sigma).

    With align=True it also plays the forced alignment schedule for the
    first n_arms rounds of each task, making it the reference point for the
    aligned variant.
    """

    name = "oracle-ts"

    def __init__(self, ctx: AgentContext, align: bool = False,
                 theta: np.ndarray | None = None):
        cfg = ctx.cfg
        cfg.require_gaussian()
        super().__init__(ctx, diagonal_effect_variances(cfg), cfg.sigma_noise ** 2)
        self.align = align
        theta = ctx.population.theta if theta is None else np.asarray(theta, float)
        fm = ctx.fm
        self.prior_means = np.stack([
            fm.task_features(fm.metadata_for(i)) @ theta
            for i in range(ctx.n_tasks)])

    def _prior_mean(self, task_id: int) -> np.ndarray:
        return self.prior_means[task_id]


class _IndependentArmTS(Policy):
    """Scalar-conjugate TS per arm; subclasses define the belief sharing."""

    def __init__(self, ctx: AgentContext, n_slots: int):
        spec = ctx.population.spec
        self.rng = ctx.rng
        self.noise_sq = spec.sigma_noise ** 2
        self.prior_mean = ctx.priors.marginal_mean
        self.prior_var = ctx.priors.marginal_variance
        self.counts = np.zeros((n_slots, ctx.n_arms))
        self.sums = np.zeros((n_slots, ctx.n_arms))

    def _slot(self, task_id: int) -> int:
        raise NotImplementedError

    def act(self, task_id: int) -> int:
        s = self._slot(task_id)
        n = self.counts[s]
        # Conjugate normal posterior per arm from (count, sum).
        post_var = 1.0 / (1.0 / self.prior_var + n / self.noise_sq)
        post_mean = post_var * (self.prior_mean / self.prior_var
                                + self.sums[s] / self.noise_sq)
        draw = post_mean + np.sqrt(post_var) * self.rng.standard_normal(n.shape[0])
        return _pick(draw)

    def update(self, task_id: int, arm: int, reward: float) -> None:
        s = self._slot(task_id)
        self.counts[s, arm] += 1.0
        self.sums[s, arm] += reward


class IndividualTS(_IndependentArmTS):
    """Independent per-task TS from the marginal per-arm prior."""

    name = "individual-ts"

    def __init__(self, ctx: AgentContext):
        super().__init__(ctx, ctx.n_tasks)

    def _slot(self, task_id: int) -> int:
        return task_id


class PooledTS(_IndependentArmTS):
    """One belief over arm means shared by every task (one size fits all)."""

    name = "pooled-ts"

    def __init__(self, ctx: AgentContext):
        super().__init__(ctx, 1)

    def _slot(self, task_id: int) -> int:
        return 0


class LinearTS(Policy):
    """Bayesian linear TS on the task-arm features, hierarchy ignored.

    Prior theta ~ N(mu_theta, Sigma_theta); likelihood treats rewards as
    theta^T phi plus noise of variance sigma1_sq + sigma_noise^2 (the task
    effect folded into the noise).  Maintains the standard (A, b) normal
    equations.
    """

    name = "linear-ts"

    def __init__(self, ctx: AgentContext):
        cfg = ctx.cfg
        cfg.require_gaussian()
        self.rng = ctx.rng
        self.fm = ctx.fm
        self.noise_var = ctx.priors.linear_noise_variance
        sigma_theta_inv = np.linalg.inv(cfg.sigma_theta)
        self.a_mat = sigma_theta_inv.copy()
        self.b_vec = sigma_theta_inv @ cfg.mu_theta
        self.features = np.stack([
            ctx.fm.task_features(ctx.fm.metadata_for(i))
            for i in range(ctx.n_tasks)])

    def act(self, task_id: int) -> int:
        theta = sample_mvn_precision(self.a_mat, self.b_vec, self.rng)
        return _pick(self.features[task_id] @ theta)

    def update(self, task_id: int, arm: int, reward: float) -> None:
        phi = self.features[task_id, arm]
        self.a_mat += np.outer(phi, phi) / self.noise_var
        self.b_vec += phi * (reward / self.noise_var)


class MetaTS(_ConditionalTS):
    """Two-level TS with an arm-mean hyper-prior, hierarchy's feature
    structure ignored.

    Model: hyper-means m_a ~ N(0, s) per arm (s the coefficient scale), task
    arm means r_{i,a} | m ~ N(m_a, v) with v the two-level conditional
    variance (task effect plus metadata-driven spread), rewards with noise
    sigma_noise^2.  A hyper-mean sample is redrawn from the current
    hyper-posterior at every schedule boundary; decisions run single-task TS
    against the prior N(m_a, v).  The hyper-posterior weighs each task's
    running mean by the precision of (sigma1_sq + sigma_noise^2 / n_{i,a}).
    """

    name = "meta-ts"

    def __init__(self, ctx: AgentContext):
        spec = ctx.population.spec
        super().__init__(
            ctx, np.full(ctx.n_arms, ctx.priors.two_level_task_variance),
            spec.sigma_noise ** 2)
        self.effect_var = spec.sigma1_sq
        self.hyper_var = spec.scale
        self._hyper_sample = self._draw_hyper()

    def _hyper_posterior(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-arm (mean, variance) of the hyper-mean posterior."""
        pulled = self.counts > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            task_prec = np.where(
                pulled, 1.0 / (self.effect_var + self.noise_sq / self.counts), 0.0)
            task_mean = np.where(pulled, self.sums / np.maximum(self.counts, 1.0), 0.0)
        prec = 1.0 / self.hyper_var + task_prec.sum(axis=0)
        mean = (task_prec * task_mean).sum(axis=0) / prec
        return mean, 1.0 / prec

    def _draw_hyper(self) -> np.ndarray:
        mean, var = self._hyper_posterior()
        return mean + np.sqrt(var) * self.rng.standard_normal(mean.shape[0])

    def _prior_mean(self, task_id: int) -> np.ndarray:
        return self._hyper_sample

    def end_of_round(self) -> None:
        self._hyper_sample = self._draw_hyper()

    def end_of_task(self, task_id: int) -> None:
        self._hyper_sample = self._draw_hyper()


# ---------------------------------------------------------------------------
# Bernoulli mirrors
# ---------------------------------------------------------------------------

class _BetaCountTS(Policy):
    """Beta-Bernoulli TS over (successes, failures) slots."""

    def __init__(self, ctx: AgentContext, n_slots: int, prior: BetaParams):
        self.rng = ctx.rng
        self.prior = prior
        self.wins = np.zeros((n_slots, ctx.n_arms))
        self.losses = np.zeros((n_slots, ctx.n_arms))

    def _slot(self, task_id: int) -> int:
        raise NotImplementedError

    def act(self, task_id: int) -> int:
        s = self._slot(task_id)
        draw = self.rng.beta(self.prior.alpha1 + self.wins[s],
                             self.prior.alpha2 + self.losses[s])
        return _pick(draw)

    def update(self, task_id: int, arm: int, reward: float) -> None:
        s = self._slot(task_id)
        if reward >= 0.5:
            self.wins[s, arm] += 1.0
        else:
            self.losses[s, arm] += 1.0


class IndividualTSBernoulli(_BetaCountTS):
    name = "individual-ts"

    def __init__(self, ctx: AgentContext):
        prior = ctx.priors.bernoulli_marginal
        if prior is None:
            raise ConfigError("individual-ts (bernoulli) needs the marginal Beta prior")
        super().__init__(ctx, ctx.n_tasks, prior)

    def _slot(self, task_id: int) -> int:
        return task_id


class PooledTSBernoulli(_BetaCountTS):
    name = "pooled-ts"

    def __init__(self, ctx: AgentContext):
        prior = ctx.priors.bernoulli_marginal
        if prior is None:
            raise ConfigError("pooled-ts (bernoulli) needs the marginal Beta prior")
        super().__init__(ctx, 1, prior)

    def _slot(self, task_id: int) -> int:
        return 0


class OracleTSBernoulli(Policy):
    """Per-task Beta-Bernoulli TS from the true-coefficient prior
    Beta(mu_a/psi, (1-mu_a)/psi), mu_a = logistic(phi^T theta)."""

    name = "oracle-ts"

    def __init__(self, ctx: AgentContext, theta: np.ndarray | None = None):
        spec = ctx.population.spec
        self.rng = ctx.rng
        theta = ctx.population.theta if theta is None else np.asarray(theta, float)
        fm = ctx.fm
        self.alpha1 = np.zeros((ctx.n_tasks, ctx.n_arms))
        self.alpha2 = np.zeros((ctx.n_tasks, ctx.n_arms))
        for i in range(ctx.n_tasks):
            for a, prior in enumerate(bern.bblm_prior_for_task(
                    theta, fm, fm.metadata_for(i), spec.psi)):
                self.alpha1[i, a] = prior.alpha1
                self.alpha2[i, a] = prior.alpha2
        self.wins = np.zeros((ctx.n_tasks, ctx.n_arms))
        self.losses = np.zeros((ctx.n_tasks, ctx.n_arms))

    def act(self, task_id: int) -> int:
        draw = self.rng.beta(self.alpha1[task_id] + self.wins[task_id],
                             self.alpha2[task_id] + self.losses[task_id])
        return _pick(draw)

    def update(self, task_id: int, arm: int, reward: float) -> None:
        if reward >= 0.5:
            self.wins[task_id, arm] += 1.0
        else:
            self.losses[task_id, arm] += 1.0


class HierTSBernoulli(Policy):
    """Hierarchical TS for Bernoulli rewards via MCMC coefficient draws.

    At every schedule boundary (and after `refresh_every` interactions, if
    set) the agent reruns the Metropolis-within-Gibbs sampler on all data,
    keeps one random post-burn-in draw of theta, and rebuilds each task's
    Beta prior from it; decisions are conjugate Beta-Bernoulli TS under the
    current draw.  MCMC length is configurable to trade accuracy for time.
    """

    name = "hier-ts"

    def __init__(self, ctx: AgentContext, n_samples: int = 400,
                 burn_in: int = 200, refresh_every: int | None = None):
        cfg = ctx.cfg
        cfg.require_bernoulli()
        self.cfg = cfg
        self.fm = ctx.fm
        self.rng = ctx.rng
        self.psi = ctx.population.spec.psi
        self.n_samples = n_samples
        self.burn_in = burn_in
        self.refresh_every = refresh_every
        self._since_refresh = 0
        self.history = History()
        self.n_tasks = ctx.n_tasks
        self.n_arms = ctx.n_arms
        self.wins = np.zeros((ctx.n_tasks, ctx.n_arms))
        self.losses = np.zeros((ctx.n_tasks, ctx.n_arms))
        self._round_within = np.zeros(ctx.n_tasks, dtype=np.int64)
        self.alpha1 = np.zeros((ctx.n_tasks, ctx.n_arms))
        self.alpha2 = np.zeros((ctx.n_tasks, ctx.n_arms))
        self._set_theta(ctx.cfg.mu_theta
                        + np.sqrt(np.diag(ctx.cfg.sigma_theta))
                        * self.rng.standard_normal(ctx.cfg.dim))

    def _set_theta(self, theta: np.ndarray) -> None:
        for i in range(self.n_tasks):
            for a, prior in enumerate(bern.bblm_prior_for_task(
                    theta, self.fm, self.fm.metadata_for(i), self.psi)):
                self.alpha1[i, a] = prior.alpha1
                self.alpha2[i, a] = prior.alpha2

    def _refresh(self) -> None:
        chain = sample_theta_mcmc(self.cfg, self.fm, self.history, self.rng,
                                  n_samples=self.n_samples,
                                  burn_in=self.burn_in)
        pick = int(self.rng.integers(chain.samples.shape[0]))
        self._set_theta(chain.samples[pick])
        self._since_refresh = 0

    def act(self, task_id: int) -> int:
        draw = self.rng.beta(self.alpha1[task_id] + self.wins[task_id],
                             self.alpha2[task_id] + self.losses[task_id])
        return _pick(draw)

    def update(self, task_id: int, arm: int, reward: float) -> None:
        if reward >= 0.5:
            self.wins[task_id, arm] += 1.0
        else:
            self.losses[task_id, arm] += 1.0
        self._round_within[task_id] += 1
        self.history.append(InteractionRecord(
            task_id=task_id, action=arm, reward=reward,
            round_within_task=int(self._round_within[task_id])))
        self._since_refresh += 1
        if self.refresh_every is not None \
                and self._since_refresh >= self.refresh_every:
            self._refresh()

    def end_of_round(self) -> None:
        self._refresh()

    def end_of_task(self, task_id: int) -> None:
        self._refresh()


class MetaTSBernoulli(Policy):
    """Two-level Bernoulli TS over a finite set of per-arm Beta priors.

    The hyper-posterior is categorical over the candidate prior sets.  Each
    candidate's log weight accumulates the Beta-Binomial marginal evidence of
    every task's counts under that candidate; one candidate is resampled at
    every schedule boundary and decisions are conjugate TS under it.
    """

    name = "meta-ts"

    def __init__(self, ctx: AgentContext):
        if not ctx.priors.bernoulli_candidates:
            raise ConfigError("meta-ts (bernoulli) needs candidate priors")
        self.rng = ctx.rng
        self.candidates = ctx.priors.bernoulli_candidates
        self.n_candidates = len(self.candidates)
        k = ctx.n_arms
        self.cand_a1 = np.stack([[b.alpha1 for b in cand] for cand in self.candidates])
        self.cand_a2 = np.stack([[b.alpha2 for b in cand] for cand in self.candidates])
        self.wins = np.zeros((ctx.n_tasks, k))
        self.losses = np.zeros((ctx.n_tasks, k))
        self._current = int(self.rng.integers(self.n_candidates))

    def _log_weights(self) -> np.ndarray:
        w = np.zeros(self.n_candidates)
        for c in range(self.n_candidates):
            a1 = self.cand_a1[c][None, :]
            a2 = self.cand_a2[c][None, :]
            w[c] = float(np.sum(betaln(a1 + self.wins, a2 + self.losses)
                                - betaln(a1, a2)))
        return w

    def _resample(self) -> None:
        logw = self._log_weights()
        probs = np.exp(logw - logw.max())
        probs /= probs.sum()
        self._current = int(self.rng.choice(self.n_candidates, p=probs))

    def act(self, task_id: int) -> int:
        c = self._current
        draw = self.rng.beta(self.cand_a1[c] + self.wins[task_id],
                             self.cand_a2[c] + self.losses[task_id])
        return _pick(draw)

    def update(self, task_id: int, arm: int, reward: float) -> None:
        if reward >= 0.5:
            self.wins[task_id, arm] += 1.0
        else:
            self.losses[task_id, arm] += 1.0

    def end_of_round(self) -> None:
        self._resample()

    def end_of_task(self, task_id: int) -> None:
        self._resample()


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_GAUSSIAN_FACTORIES: dict[str, Callable[..., Policy]] = {
    "hier-ts": HierTS,
    "hier-ts-batch": HierTSBatched,
    "hier-ts-aligned": AlignedHierTS,
    "oracle-ts": OracleTS,
    "individual-ts": IndividualTS,
    "pooled-ts": PooledTS,
    "linear-ts": LinearTS,
    "meta-ts": MetaTS,
}

_BERNOULLI_FACTORIES: dict[str, Callable[..., Policy]] = {
    "hier-ts": HierTSBernoulli,
    "oracle-ts": OracleTSBernoulli,
    "individual-ts": IndividualTSBernoulli,
    "pooled-ts": PooledTSBernoulli,
    "meta-ts": MetaTSBernoulli,
}

_ALLOWED_OPTIONS: dict[tuple[str, str], frozenset[str]] = {
    ("gaussian", "hier-ts-batch"): frozenset({"refresh_every"}),
    ("gaussian", "oracle-ts"): frozenset({"align"}),
    ("bernoulli", "hier-ts"): frozenset({"n_samples", "burn_in", "refresh_every"}),
}


def algorithm_names(reward_kind: str) -> tuple[str, ...]:
    table = _GAUSSIAN_FACTORIES if reward_kind == "gaussian" else _BERNOULLI_FACTORIES
    return tuple(sorted(table))


def make_policy(name: str, ctx: AgentContext,
                options: dict | None = None) -> Policy:
    """Instantiate a policy by registry name; unknown names or option keys
    are fatal."""
    kind = ctx.population.spec.reward_kind
    table = _GAUSSIAN_FACTORIES if kind == "gaussian" else _BERNOULLI_FACTORIES
    if name not in table:
        raise ConfigError(
            "unknown algorithm %r for %s rewards; known: %s"
            % (name, kind, ", ".join(sorted(table))))
    options = dict(options or {})
    allowed = _ALLOWED_OPTIONS.get((kind, name), frozenset())
    unknown = set(options) - set(allowed)
    if unknown:
        raise ConfigError(
            "algorithm %r does not accept options %s (allowed: %s)"
            % (name, sorted(unknown), sorted(allowed) or "none"))
    return table[name](ctx, **options)
