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
They share one core too: a per-task Beta prior, then conjugate Beta-
Bernoulli TS on the task's pull counts and success sums.  Only the prior's
source differs: the marginal Beta (individual-ts, and pooled-ts with one
count slot for every task), Beta(mu/psi, (1-mu)/psi) with mu =
logistic(phi^T theta) under the true theta (oracle-ts) or under the theta
of a warm MCMC chain advanced at schedule boundaries (hier-ts), or the
candidate prior set meta-ts resamples at schedule boundaries.

All agents draw randomness from the single generator handed to them and
break score ties toward the lowest arm index.

The simulation loop cuts each schedule segment (a concurrent round, a
sequential task or a whole custom stream) into pieces of at most
core.ROW_CHUNK rows, reads a piece's payoff rows (every arm's reward at each
interaction) from the RewardTable once, hands the piece to play with them,
and gathers the played rewards itself; no policy reads the table, and no
kernel bounds its own rows.  play returns the arms; its base version is
act, then update with the played arm's payoff, per interaction, and
overrides return the same arms and generator state.  The three cores
(Gaussian conditional, Gaussian independent-arm, Beta) share one count
store, _CountTS, and differ only in their draw, stated once for an int task
id and an id array.  A count policy whose prior moves says how in one hook,
_refresh, which _CountTS fires at every schedule boundary and, with
refresh_every = m set, after every m interactions (hier-ts-batch with m:
only then).  _CountTS.play cuts its piece again where the next refresh
falls, then plays each part of distinct count slots as one vectorized step
and any other part through _play_steps, which the Beta core runs as a
scalar kernel (one rng.beta call per arm) and the Gaussian cores as the
base loop.  Gaussian pooled-ts, hier-ts and linear-ts, whose every decision
reads every earlier update, each play a piece in their own kernel:
pooled-ts by verified speculation (numpy passes that commit the rows whose
guessed arms they confirm, and a scalar loop where passes keep failing),
hier-ts and linear-ts as a scalar loop that draws theta every step by
_linalg.precision_draw, the recipe sample_mvn_precision uses.
hier-ts-aligned keeps the base loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from ._linalg import precision_draw, sample_mvn_precision
from .bernoulli import (ThetaSampler, acceptance_warnings,
                        beta_binomial_log_marginal, logistic_beta_shapes)
from .core import FeatureMap, HierarchyConfig, check_count, check_flag
from .envs import Population
from .errors import ConfigError, NumericalError, ScheduleError
from .gaussian import ThetaStatAccumulator, diagonal_effect_variances
from .priors import DerivedPriors

# Gaussian pooled-ts (PooledTS.play): the fewest rows a speculative pass must
# commit to count as a success (also the first scalar stretch after one that
# commits fewer), and the most rows one pass covers, so that a long piece
# does not redo all its remaining rows for every few rows a pass commits.
_SPEC_MIN_ROWS = 8
_SPEC_WINDOW = 256


def _pick(scores: np.ndarray) -> np.ndarray:
    """Arm of the highest score in each row (the last axis); exact ties go
    to the lowest index."""
    return scores.argmax(axis=-1)


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

    def stacked_features(self) -> np.ndarray:
        """(n_tasks, K, d) array whose [i, a] row is phi(x_i, a)."""
        fm = self.fm
        return np.stack([fm.task_features(fm.metadata_for(i))
                         for i in range(self.n_tasks)])


class Policy:
    """Interface the simulation loop drives.

    act(task_id) returns an arm; update(...) feeds back the observed reward.
    play(task_ids, payoffs) plays one piece of a schedule segment, the
    interactions of task_ids in order, and returns their arms (int64).  A
    piece has at most core.ROW_CHUNK rows, and consecutive calls with no
    hook between them continue the same segment.  payoffs is the
    piece's (n, K) payoff rows, payoffs[j, a] the reward arm a pays at
    interaction j; no decision that play commits depends on a payoff that
    was not played.  This version is the act/update loop; the count core's
    planner (_CountTS.play) and the kernels of Gaussian pooled-ts, hier-ts
    and linear-ts override it, and AlignedHierTS keeps it.  end_of_round
    fires after each concurrent round, end_of_task after each task
    completes under a sequential schedule; both call _at_boundary, a no-op
    here.  A sequential_only policy runs on sequential schedules only
    (check_algorithm enforces it).
    """

    name: str = "policy"
    sequential_only = False

    def act(self, task_id: int) -> int:
        raise NotImplementedError

    def update(self, task_id: int, arm: int, reward: float) -> None:
        raise NotImplementedError

    def play(self, task_ids: np.ndarray, payoffs: np.ndarray) -> np.ndarray:
        """act, then update with the played arm's payoff, per interaction:
        the reference that every override must match in arms and generator
        state."""
        arms: list[int] = []
        for tid, payoff in zip(task_ids.tolist(), payoffs):
            arm = self.act(tid)
            self.update(tid, arm, float(payoff[arm]))
            arms.append(arm)
        return np.array(arms, dtype=np.int64)

    def end_of_round(self) -> None:
        self._at_boundary()

    def end_of_task(self, task_id: int) -> None:
        self._at_boundary()

    def _at_boundary(self) -> None:
        """What a policy does at every schedule boundary; a no-op here."""


class _CountTS(Policy):
    """Conjugate TS on per-slot pull counts and reward sums.

    Task t keeps its statistics in slot t % n_slots (n_slots None: one slot
    per task): counts[s, a] pulls of arm a and sums[s, a] the total of
    _observed(reward) over them.  Subclasses supply only _draw(task_id), one
    posterior draw of the arm means for an int task id or an id array (one
    row per task, drawn in row order); act plays its argmax.

    A policy whose prior moves overrides _refresh.  _at_boundary fires it at
    every schedule boundary; with refresh_every = m set, so does the m-th
    interaction counted since the last refresh or boundary.  update counts
    one interaction, and the vectorized step and a kernel count their piece
    once.  play is the one planner: it cuts the engine's piece and its
    payoff rows where the next refresh falls, then plays a piece whose
    tasks keep distinct slots as one vectorized step (_play_batch) and any
    other piece through _play_steps, the base loop unless a subclass runs
    it as a kernel; each takes the piece's (task_ids, payoffs) and returns
    its arms.
    """

    n_slots: int | None = None
    refresh_every: int | None = None

    def __init__(self, ctx: AgentContext):
        self.rng = ctx.rng
        n_slots = ctx.n_tasks if self.n_slots is None else self.n_slots
        self.slot_of = np.arange(ctx.n_tasks) % n_slots
        self.counts = np.zeros((n_slots, ctx.n_arms))
        self.sums = np.zeros((n_slots, ctx.n_arms))
        self._since_refresh = 0

    def _stats(self, task_id) -> tuple[np.ndarray, np.ndarray]:
        """(counts, sums) of the task's slot."""
        s = self.slot_of[task_id]
        return self.counts[s], self.sums[s]

    def _draw(self, task_id) -> np.ndarray:
        raise NotImplementedError

    @staticmethod
    def _observed(reward):
        return reward

    def act(self, task_id: int) -> int:
        return int(_pick(self._draw(task_id)))

    def _act_batch(self, task_ids: np.ndarray) -> np.ndarray:
        return _pick(self._draw(task_ids))

    def update(self, task_id: int, arm: int, reward: float) -> None:
        s = self.slot_of[task_id]
        self.counts[s, arm] += 1.0
        self.sums[s, arm] += self._observed(reward)
        self._count(1)

    def _update_batch(self, task_ids: np.ndarray, arms: np.ndarray,
                      rewards: np.ndarray) -> None:
        """update of every row, for tasks of distinct slots (a fancy-index
        += drops repeats), counted as one piece."""
        s = self.slot_of[task_ids]
        self.counts[s, arms] += 1.0
        self.sums[s, arms] += self._observed(rewards)
        self._count(task_ids.shape[0])

    def _count(self, n: int) -> None:
        """Count n interactions; reaching refresh_every (None: never)
        resets the count and fires _refresh."""
        if self.refresh_every is not None:
            self._since_refresh += n
            if self._since_refresh >= self.refresh_every:
                self._since_refresh = 0
                self._refresh()

    def _refresh(self) -> None:
        """Move the prior; a no-op here."""

    def _at_boundary(self) -> None:
        self._since_refresh = 0
        self._refresh()

    def play(self, task_ids: np.ndarray, payoffs: np.ndarray) -> np.ndarray:
        parts = []
        while task_ids.size:
            n = task_ids.size if self.refresh_every is None \
                else self.refresh_every - self._since_refresh
            ids = task_ids[:n]
            # A piece that names a slot twice reads its own updates (and a
            # fancy-index += would drop the repeats): it takes _play_steps.
            repeats = np.bincount(self.slot_of[ids]).max() > 1
            step = self._play_steps if repeats else self._play_batch
            parts.append(step(ids, payoffs[:n]))
            task_ids, payoffs = task_ids[n:], payoffs[n:]
        return np.concatenate(parts)

    def _play_steps(self, task_ids: np.ndarray,
                    payoffs: np.ndarray) -> np.ndarray:
        """A piece that repeats a slot, one step at a time: the base loop."""
        return Policy.play(self, task_ids, payoffs)

    def _play_batch(self, task_ids: np.ndarray,
                    payoffs: np.ndarray) -> np.ndarray:
        """The piece's draws in row order, then its counts: the act and
        update calls of the loop, for tasks of distinct slots."""
        arms = self._act_batch(task_ids)
        self._update_batch(task_ids, arms,
                           payoffs[np.arange(arms.shape[0]), arms])
        return arms


# ---------------------------------------------------------------------------
# Gaussian hierarchy
# ---------------------------------------------------------------------------

class _ConditionalTS(_CountTS):
    """Conjugate per-arm TS around a per-task prior mean.

    Subclasses supply only _prior_mean(task_id).  Given that mean m, arm a's
    mean is N(m_a, v_a) independently of the other arms, and the task's own
    pull count n and reward sum S per arm update it in closed form:
        draw = m + v (S - n m) / d + sqrt(v sigma^2 / d) z,  d = sigma^2 + v n,
    with z one standard normal per arm.  This is the update
    conditional_stats_update does densely, specialized to diagonal
    Sigma_delta, and it consumes the generator as sample_mvn does.  With
    align set, rounds 1..n_arms of each task first play arm round-1 and draw
    nothing.  _prior_mean and _conditional_draw take an int task id or an
    id array (one row per task, drawn in row order).
    """

    align = False

    def __init__(self, ctx: AgentContext, arm_var: np.ndarray, noise_sq: float):
        super().__init__(ctx)
        self.n_arms = ctx.n_arms
        self.arm_var = arm_var
        self.noise_sq = noise_sq

    def _prior_mean(self, task_id) -> np.ndarray:
        raise NotImplementedError

    def _rounds_played(self, task_id):
        return self._stats(task_id)[0].sum(axis=-1).astype(np.int64)

    def act(self, task_id: int) -> int:
        if self.align:
            played = int(self._rounds_played(task_id))
            if played < self.n_arms:
                return played
        return super().act(task_id)

    def _act_batch(self, task_ids: np.ndarray) -> np.ndarray:
        if not self.align:
            return super()._act_batch(task_ids)
        arms = self._rounds_played(task_ids)
        drawn = arms >= self.n_arms
        arms[drawn] = super()._act_batch(task_ids[drawn])
        return arms

    def _draw(self, task_id) -> np.ndarray:
        return self._conditional_draw(task_id, self._prior_mean(task_id))

    def _conditional_draw(self, task_id, m: np.ndarray) -> np.ndarray:
        """One draw of the task's arm means given prior mean m."""
        n, sums = self._stats(task_id)
        v = self.arm_var
        d = self.noise_sq + v * n
        z = self.rng.standard_normal(n.shape)
        draw = m + v * (sums - n * m) / d + np.sqrt(v * self.noise_sq / d) * z
        if not np.isfinite(draw).all():
            raise NumericalError("non-finite arm-mean draw in %s" % self.name)
        return draw


class HierTS(_ConditionalTS):
    """Exact hierarchical Thompson sampling.

    Every decision: draw theta from its current posterior (maintained
    incrementally in O(d^2) per record), then draw the task's arm means from
    the conditional given that draw, and play the argmax.  Marginally this
    samples the exact per-task posterior.  Every decision reads every
    earlier update, so play runs a piece in order, as a scalar kernel.
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

    def _prior_mean(self, task_id) -> np.ndarray:
        # The accumulator spans every task, so its rows are the task ids.
        return self.acc.features[task_id] @ self._current_theta()

    def update(self, task_id: int, arm: int, reward: float) -> None:
        self.acc.add(task_id, arm, reward)
        super().update(task_id, arm, reward)

    def _update_batch(self, task_ids: np.ndarray, arms: np.ndarray,
                      rewards: np.ndarray) -> None:
        self.acc.add_many(task_ids, arms, rewards)
        super()._update_batch(task_ids, arms, rewards)

    def play(self, task_ids: np.ndarray, payoffs: np.ndarray) -> np.ndarray:
        """The base loop as one kernel over the piece.  One
        standard_normal((n, d + K)) call is the loop's stream: per step d
        normals for theta, drawn by precision_draw on the running
        statistics, then K for the arms.  The arm draws run on Python floats
        in _conditional_draw's operation order from each task's statistics,
        read once per piece, and the first of the highest scores is played,
        as _pick.  The pulled record, its reward the played arm's payoff,
        enters both count stores and the accumulator as add forms it, its
        outer product built in one preallocated buffer.  A non-finite theta
        or arm draw raises NumericalError at the end of the piece."""
        acc, noise_sq, var = self.acc, self.noise_sq, self.arm_var.tolist()
        features, phi_vinv_phi, phi_vinv_resid = \
            acc.features, acc.phi_vinv_phi, acc.phi_vinv_resid
        k, d = features.shape[1:]
        tasks = np.unique(task_ids)
        counts = self.counts[tasks]
        dens = noise_sq + self.arm_var * counts
        stats = dict(zip(tasks.tolist(), zip(
            counts.tolist(), self.sums[tasks].tolist(), dens.tolist(),
            np.sqrt(self.arm_var * noise_sq / dens).tolist(),
            acc.prior_arm_means[tasks].tolist())))
        outer = np.empty((d, d))
        normals = self.rng.standard_normal((task_ids.shape[0], d + k))
        thetas = np.empty((task_ids.shape[0], d))
        scores_played: list[float] = []
        arms: list[int] = []
        for j, (tid, z, payoff) in enumerate(zip(
                task_ids.tolist(), normals[:, d:].tolist(), payoffs.tolist())):
            thetas[j] = theta = self.cfg.mu_theta + precision_draw(
                self._sigma_theta_inv + phi_vinv_phi, phi_vinv_resid,
                normals[j, :d])
            counts, sums, dens, sds, base = stats[tid]
            scores = [m + v * (s - c * m) / e + sd * x
                      for m, v, s, c, e, sd, x
                      in zip((features[tid] @ theta).tolist(), var, sums,
                             counts, dens, sds, z)]
            scores_played.extend(scores)
            arm = scores.index(max(scores))
            arms.append(arm)
            n0, s0, d0, m = counts[arm], sums[arm], dens[arm], base[arm]
            n1, s1 = n0 + 1.0, s0 + payoff[arm]
            self.counts[tid, arm], self.sums[tid, arm] = n1, s1
            acc.counts[tid, arm], acc.sums[tid, arm] = n1, s1
            counts[arm], sums[arm] = n1, s1
            dens[arm] = d1 = noise_sq + var[arm] * n1
            sds[arm] = math.sqrt(var[arm] * noise_sq / d1)
            phi = features[tid, arm]
            np.multiply(phi[:, None], phi, out=outer)
            outer *= n1 / d1 - n0 / d0
            phi_vinv_phi += outer
            phi_vinv_resid += ((s1 - n1 * m) / d1
                               - (s0 - n0 * m) / d0) * phi
        if not (np.isfinite(thetas).all()
                and np.isfinite(scores_played).all()):
            raise NumericalError("non-finite draw in %s" % self.name)
        return np.array(arms, dtype=np.int64)


class HierTSBatched(HierTS):
    """Hierarchical TS with a stale coefficient draw.

    _refresh drops the cached theta, and the next decision redraws it.
    refresh_every = m refreshes after every m interactions, and schedule
    boundaries then leave theta alone; None refreshes at schedule boundaries
    (end of round or end of task) only.  m = 1 is exactly hier-ts.  Between
    refreshes no decision reads another task's update, so play is the count
    core's planner; the coefficient records of a vectorized piece enter the
    accumulator in row order, as add_many sums them.
    """

    name = "hier-ts-batch"
    play = _CountTS.play

    def __init__(self, ctx: AgentContext, refresh_every: int | None = None):
        super().__init__(ctx)
        self.refresh_every = refresh_every
        self._cached_theta: np.ndarray | None = None

    def _current_theta(self) -> np.ndarray:
        if self._cached_theta is None:
            self._cached_theta = self._theta_draw()
        return self._cached_theta

    def _refresh(self) -> None:
        self._cached_theta = None

    def _at_boundary(self) -> None:
        if self.refresh_every is None:
            self._refresh()


class AlignedHierTS(HierTS):
    """Hierarchical TS with forced alignment pulls (sequential schedules).

    Rounds 1..n_arms of each task play arm round-1.  At round n_arms+1 the
    agent draws one coefficient vector from the posterior conditioned on the
    alignment records of the tasks finished before this one, freezes the
    task's prior at N(Phi_i draw, Sigma_delta), and runs plain single-task
    TS on the task's own records from there on.  The first task's draw comes
    from the pure prior.  It keeps the base loop.
    """

    name = "hier-ts-aligned"
    align = True
    sequential_only = True
    play = Policy.play

    def __init__(self, ctx: AgentContext):
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
        _CountTS.update(self, task_id, arm, reward)
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
        self.prior_means = ctx.stacked_features() @ theta

    def _prior_mean(self, task_id) -> np.ndarray:
        return self.prior_means[task_id]


class _IndependentArmTS(_CountTS):
    """Scalar-conjugate TS per arm from the marginal per-arm prior; the
    subclasses differ only in n_slots."""

    def __init__(self, ctx: AgentContext):
        super().__init__(ctx)
        self.noise_sq = ctx.population.spec.sigma_noise ** 2
        self.prior_mean = ctx.priors.marginal_mean
        self.prior_var = ctx.priors.marginal_variance
        self.inv_prior = 1.0 / self.prior_var
        self.prior_term = self.prior_mean / self.prior_var

    def _posterior(self, counts, sums, sd, mean) -> None:
        """Each arm's conjugate normal posterior from (count, sum), written
        to sd and mean: var = 1 / (1 / prior_var + n / noise_sq), mean =
        var (prior_mean / prior_var + S / noise_sq), sd = sqrt(var)."""
        np.divide(counts, self.noise_sq, out=sd)
        sd += self.inv_prior
        np.divide(1.0, sd, out=sd)
        np.divide(sums, self.noise_sq, out=mean)
        mean += self.prior_term
        mean *= sd
        np.sqrt(sd, out=sd)

    def _draw(self, task_id) -> np.ndarray:
        n, sums = self._stats(task_id)
        sd, mean = np.empty(n.shape), np.empty(n.shape)
        self._posterior(n, sums, sd, mean)
        return mean + sd * self.rng.standard_normal(n.shape)


class IndividualTS(_IndependentArmTS):
    """Independent per-task TS from the marginal per-arm prior."""

    name = "individual-ts"


class PooledTS(_IndependentArmTS):
    """One belief over arm means shared by every task (one size fits all).

    Every step reads the one shared slot, so play decides a piece's rows in
    order, from one standard_normal((n, K)) call (the stream of n
    standard_normal(K) calls), by verified speculation: a pass (_speculate)
    guesses the arms of the next _SPEC_WINDOW rows at most, rescores each
    row under the counts and sums the guesses before it imply, and commits
    the rows up to and including the first whose rescored arm is not its
    guess; the rescored arms are the next pass's guess.  Rows no pass has
    reached guess their argmax under the slot's posterior at the start of
    the piece.  After a pass that commits fewer than _SPEC_MIN_ROWS rows
    (exploration), the scalar loop (_play_scalar) plays the next stretch of
    rows; the stretch doubles while passes keep failing, even across
    pieces, and starts again at _SPEC_MIN_ROWS when one succeeds.  The
    scalar loop also plays the last rows of a piece when fewer than
    _SPEC_MIN_ROWS remain.
    """

    name = "pooled-ts"
    n_slots = 1

    def __init__(self, ctx: AgentContext):
        super().__init__(ctx)
        self._stretch = _SPEC_MIN_ROWS
        self._eye = np.eye(ctx.n_arms, dtype=bool)

    def play(self, task_ids: np.ndarray, payoffs: np.ndarray) -> np.ndarray:
        n, k = payoffs.shape
        normals = self.rng.standard_normal((n, k))
        arms = np.empty(n, dtype=np.int64)
        i = 0
        if n >= _SPEC_MIN_ROWS:
            sd, mean = np.empty(k), np.empty(k)
            self._posterior(self.counts[0], self.sums[0], sd, mean)
            guess = (normals * sd + mean).argmax(axis=1)
            # A pass's counts and sums before each of its rows under the
            # guess, and its scores, in buffers every pass of the piece
            # reuses; a pass covers at most _SPEC_WINDOW rows.
            w = min(n, _SPEC_WINDOW)
            work = (np.empty((w + 1, k)), np.empty((w + 1, k)),
                    np.empty((w, k)), np.empty((w, k)))
        while n - i >= _SPEC_MIN_ROWS:
            rows = slice(i, min(n, i + w))
            done = self._speculate(guess[rows], normals[rows], payoffs[rows],
                                   arms[rows], work)
            i += done
            if done >= _SPEC_MIN_ROWS:
                self._stretch = _SPEC_MIN_ROWS
                continue
            rows = slice(i, min(n, i + self._stretch))
            arms[rows] = self._play_scalar(normals[rows], payoffs[rows])
            i = rows.stop
            self._stretch *= 2
        if i < n:
            arms[i:] = self._play_scalar(normals[i:], payoffs[i:])
        return arms

    def _speculate(self, guess: np.ndarray, normals: np.ndarray,
                   payoffs: np.ndarray, arms: np.ndarray, work) -> int:
        """One pass over rows whose guessed arms guess holds.  Each row is
        rescored under the slot's statistics plus the pulls that the guesses
        before it imply, so every row up to and including the first whose
        rescored arm is not its guess (every row if none) is exact, and none
        of them reads a payoff that was not played.  Commits those rows,
        their arms to arms and their pulls to the slot, and returns how
        many; guess then holds the rescored arms."""
        m = guess.shape[0]
        seen, total = work[0][:m + 1], work[1][:m + 1]
        scores, means = work[2][:m], work[3][:m]
        pulled = self._eye[guess]
        # Row j of seen and total is the slot's counts and sums before row
        # j.  An arm that a row's guess leaves adds -0.0, which keeps every
        # sum's bits (x + -0.0 is x, signed zeros too); np.where picks it,
        # where a product with 0 would turn a NaN payoff into a NaN sum.
        counts, sums = self.counts[0], self.sums[0]
        seen[0], total[0] = counts, sums
        seen[1:] = 0.0
        np.copyto(seen[1:], 1.0, where=pulled)
        total[1:] = np.where(pulled, payoffs, -0.0)
        np.add.accumulate(seen, out=seen)
        np.add.accumulate(total, out=total)
        self._posterior(seen[:m], total[:m], scores, means)
        scores *= normals
        scores += means
        chosen = scores.argmax(axis=1)
        miss = chosen != guess
        if miss.any():
            # The missed row plays its own choice, not its guess.
            done = int(miss.argmax()) + 1
            arm = chosen[done - 1]
            counts[:], sums[:] = seen[done - 1], total[done - 1]
            counts[arm] += 1.0
            sums[arm] += payoffs[done - 1, arm]
        else:
            done = m
            counts[:], sums[:] = seen[m], total[m]
        arms[:done] = chosen[:done]
        guess[:] = chosen
        return done

    def _play_scalar(self, normals: np.ndarray,
                     payoffs: np.ndarray) -> list[int]:
        """The loop on Python floats over rows of normals and payoffs: only
        the pulled arm's posterior changes, recomputed in _posterior's
        operation order; a strict > scan keeps argmax's lowest-index ties."""
        k = normals.shape[1]
        counts, sums = self.counts[0].tolist(), self.sums[0].tolist()
        inv_prior, prior_term = float(self.inv_prior), float(self.prior_term)
        noise_sq = float(self.noise_sq)
        post_mean, post_sd = [], []
        for n, s in zip(counts, sums):
            post_var = 1.0 / (inv_prior + n / noise_sq)
            post_mean.append(post_var * (prior_term + s / noise_sq))
            post_sd.append(math.sqrt(post_var))
        arms: list[int] = []
        for z, payoff in zip(normals.tolist(), payoffs.tolist()):
            arm, best = 0, post_mean[0] + post_sd[0] * z[0]
            for a in range(1, k):
                score = post_mean[a] + post_sd[a] * z[a]
                if score > best:
                    arm, best = a, score
            arms.append(arm)
            counts[arm] += 1.0
            sums[arm] += payoff[arm]
            post_var = 1.0 / (inv_prior + counts[arm] / noise_sq)
            post_mean[arm] = post_var * (prior_term + sums[arm] / noise_sq)
            post_sd[arm] = math.sqrt(post_var)
        self.counts[0], self.sums[0] = counts, sums
        return arms


class LinearTS(Policy):
    """Bayesian linear TS on the task-arm features, hierarchy ignored.

    Prior theta ~ N(mu_theta, Sigma_theta); likelihood treats rewards as
    theta^T phi plus noise of variance sigma1_sq + sigma_noise^2 (the task
    effect folded into the noise).  Maintains the standard (A, b) normal
    equations.  Every decision reads every earlier update, so play runs a
    piece in order, as a scalar kernel.
    """

    name = "linear-ts"

    def __init__(self, ctx: AgentContext):
        cfg = ctx.cfg
        cfg.require_gaussian()
        self.rng = ctx.rng
        self.noise_var = ctx.priors.linear_noise_variance
        sigma_theta_inv = np.linalg.inv(cfg.sigma_theta)
        self.a_mat = sigma_theta_inv.copy()
        self.b_vec = sigma_theta_inv @ cfg.mu_theta
        self.features = ctx.stacked_features()

    def act(self, task_id: int) -> int:
        theta = sample_mvn_precision(self.a_mat, self.b_vec, self.rng)
        return int(_pick(self.features[task_id] @ theta))

    def update(self, task_id: int, arm: int, reward: float) -> None:
        phi = self.features[task_id, arm]
        self.a_mat += np.outer(phi, phi) / self.noise_var
        self.b_vec += phi * (reward / self.noise_var)

    def play(self, task_ids: np.ndarray, payoffs: np.ndarray) -> np.ndarray:
        """The base loop as one kernel over the piece: one
        standard_normal((n, d)) call is the stream of its steps' theta
        draws, each made by precision_draw on the running (A, b); the first
        of the highest scores is played, as _pick; the pulled arm's outer
        product enters A through one preallocated buffer, as update forms
        it, and its payoff enters b.  A non-finite theta raises
        NumericalError at the end of the piece."""
        d = self.features.shape[2]
        outer = np.empty((d, d))
        normals = self.rng.standard_normal((task_ids.shape[0], d))
        thetas = np.empty((task_ids.shape[0], d))
        arms: list[int] = []
        for j, (tid, payoff) in enumerate(zip(task_ids.tolist(),
                                              payoffs.tolist())):
            thetas[j] = theta = precision_draw(self.a_mat, self.b_vec,
                                               normals[j])
            row = (self.features[tid] @ theta).tolist()
            arm = row.index(max(row))
            arms.append(arm)
            phi = self.features[tid, arm]
            np.multiply(phi[:, None], phi, out=outer)
            outer /= self.noise_var
            self.a_mat += outer
            self.b_vec += phi * (payoff[arm] / self.noise_var)
        if not np.isfinite(thetas).all():
            raise NumericalError("non-finite draw in %s" % self.name)
        return np.array(arms, dtype=np.int64)


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

    def _prior_mean(self, task_id) -> np.ndarray:
        return self._hyper_sample

    def _refresh(self) -> None:
        self._hyper_sample = self._draw_hyper()


# ---------------------------------------------------------------------------
# Bernoulli mirrors
# ---------------------------------------------------------------------------

def _task_beta_priors(phi: np.ndarray, theta: np.ndarray,
                      psi: float) -> tuple[np.ndarray, np.ndarray]:
    """(alpha1, alpha2), each (n_tasks, K): the Beta(mu/psi, (1-mu)/psi)
    prior of every task arm given theta, from the stacked features phi.
    A shape that is not positive (a NaN mean from a NaN theta, or psi = inf)
    raises ConfigError, as BetaParams does arm by arm."""
    n, k, d = phi.shape
    alpha1, alpha2 = logistic_beta_shapes(phi.reshape(n * k, d), theta, psi)
    if not (np.all(alpha1 > 0.0) and np.all(alpha2 > 0.0)):
        raise ConfigError("Beta prior shapes must be positive; theta %s, psi %g"
                          % (np.array2string(np.asarray(theta)), psi))
    return alpha1.reshape(n, k), alpha2.reshape(n, k)


class _BetaCountTS(_CountTS):
    """Conjugate Beta-Bernoulli TS on per-slot pull counts n and success
    sums S, a reward >= 0.5 counting as a success.

    Subclasses supply only _prior(task_ids) -> (alpha1, alpha2), scalars or
    arrays that broadcast against the tasks' (K,) or (n, K) counts; arm a is
    drawn from Beta(alpha1_a + S_a, alpha2_a + n_a - S_a).  A piece of
    the count core's planner that repeats a slot (a sequential task, a
    pooled-ts round, a custom stream) runs as a scalar kernel, _play_steps.
    The planner cuts pieces at each refresh, so the kernel reads each task's
    prior once per piece.
    """

    def _prior(self, task_id) -> tuple:
        raise NotImplementedError

    @staticmethod
    def _observed(reward):
        return reward >= 0.5

    def _draw(self, task_id) -> np.ndarray:
        n, successes = self._stats(task_id)
        alpha1, alpha2 = self._prior(task_id)
        return self.rng.beta(alpha1 + successes, alpha2 + (n - successes))

    def _play_steps(self, task_ids: np.ndarray,
                    payoffs: np.ndarray) -> np.ndarray:
        """The base loop on Python floats: the touched slots' counts and
        each task's prior (keyed by task, as tasks may share a slot) are
        read once; each step draws arm by arm with one scalar rng.beta call
        in _draw's operation order (the stream of one K-array call), plays
        the first of the highest scores, as _pick, by a strict > scan, and
        counts the played arm's payoff.  The piece is counted once, after
        its counts are written back."""
        k = self.counts.shape[1]
        ids, slots = task_ids.tolist(), self.slot_of[task_ids].tolist()
        stats = {slot: (self.counts[slot].tolist(), self.sums[slot].tolist())
                 for slot in set(slots)}
        priors = {t: [np.full(k, shape).tolist() for shape in self._prior(t)]
                  for t in set(ids)}
        beta = self.rng.beta
        arms: list[int] = []
        for tid, slot, payoff in zip(ids, slots, payoffs.tolist()):
            n, successes = stats[slot]
            alpha1, alpha2 = priors[tid]
            arm, best = 0, None
            for a in range(k):
                s = successes[a]
                score = beta(alpha1[a] + s, alpha2[a] + (n[a] - s))
                if best is None or score > best:
                    arm, best = a, score
            arms.append(arm)
            n[arm] += 1.0
            if payoff[arm] >= 0.5:
                successes[arm] += 1.0
        for slot, (n, successes) in stats.items():
            self.counts[slot], self.sums[slot] = n, successes
        self._count(len(arms))
        return np.array(arms, dtype=np.int64)


class IndividualTSBernoulli(_BetaCountTS):
    """Independent per-task TS from the marginal Beta prior."""

    name = "individual-ts"

    def __init__(self, ctx: AgentContext):
        self.prior = ctx.priors.bernoulli_marginal
        if self.prior is None:
            raise ConfigError("%s (bernoulli) needs the marginal Beta prior"
                              % self.name)
        super().__init__(ctx)

    def _prior(self, task_id) -> tuple[float, float]:
        return self.prior.alpha1, self.prior.alpha2


class PooledTSBernoulli(IndividualTSBernoulli):
    """One Beta belief per arm shared by every task."""

    name = "pooled-ts"
    n_slots = 1


class OracleTSBernoulli(_BetaCountTS):
    """Per-task TS from the true-coefficient prior
    Beta(mu_a/psi, (1-mu_a)/psi), mu_a = logistic(phi^T theta)."""

    name = "oracle-ts"

    def __init__(self, ctx: AgentContext, theta: np.ndarray | None = None):
        super().__init__(ctx)
        self._phi = ctx.stacked_features()
        self.psi = ctx.population.spec.psi
        self._set_theta(ctx.population.theta if theta is None
                        else np.asarray(theta, float))

    def _set_theta(self, theta: np.ndarray) -> None:
        self.alpha1, self.alpha2 = _task_beta_priors(self._phi, theta, self.psi)

    def _prior(self, task_id) -> tuple[np.ndarray, np.ndarray]:
        return self.alpha1[task_id], self.alpha2[task_id]


class HierTSBernoulli(OracleTSBernoulli):
    """Hierarchical TS for Bernoulli rewards: oracle-ts under an MCMC draw
    of theta in place of the true one.

    The first theta is a draw from its prior.  Each refresh (at every
    schedule boundary and, with `refresh_every` = m, after every m
    interactions since the last one) advances one persistent collapsed
    Metropolis chain (bernoulli.ThetaSampler: the arm means integrated out,
    no latent draw) on the per-slot counts of every task pulled so far and
    rebuilds each task's Beta prior from the chain's final theta.  The first
    refresh starts the chain cold at mu_theta with `burn_in` sweeps; every
    refresh then runs `sweeps` more from wherever the chain stands, its
    proposal scale still adapting with a shrinking gain.  Each refresh's
    acceptance rate over those `sweeps` is appended to `acceptance_rates`.
    The sampler's acceptance window is tested on the acceptance pooled over
    consecutive refreshes until at least `warn_sweeps` sweeps have run (a
    healthy chain at 0.26 per sweep takes 0 of 20 about once in 480
    refreshes), and its warnings go to `mcmc_warnings`; a pool still short
    of `warn_sweeps` when the run ends is not tested.
    """

    name = "hier-ts"
    warn_sweeps = 200

    def __init__(self, ctx: AgentContext, burn_in: int = 200,
                 sweeps: int = 20, refresh_every: int | None = None):
        cfg = ctx.cfg
        self.chain = ThetaSampler(cfg)
        self.burn_in = burn_in
        self.sweeps = sweeps
        self.refresh_every = refresh_every
        self.acceptance_rates: list[float] = []
        self.mcmc_warnings: list[str] = []
        self._pool = [0, 0]  # (accepted, sweeps) since the last window test
        super().__init__(ctx, theta=cfg.mu_theta
                         + np.sqrt(np.diag(cfg.sigma_theta))
                         * ctx.rng.standard_normal(cfg.dim))

    def _refresh(self) -> None:
        # the tasks pulled so far, in id order; with none, every task
        tasks = np.flatnonzero(self.counts.any(axis=1))
        if tasks.size == 0:
            tasks = np.arange(self._phi.shape[0])
        successes = self.sums[tasks].ravel()
        data = (self._phi[tasks].reshape(-1, self._phi.shape[2]), successes,
                self.counts[tasks].ravel() - successes, self.rng)
        if self.chain.n_sweeps == 0:
            self.chain.run(*data, self.burn_in)
        accepted = self.chain.run(*data, self.sweeps)
        self.acceptance_rates.append(accepted / float(self.sweeps))
        pool = self._pool
        pool[0] += accepted
        pool[1] += self.sweeps
        if pool[1] >= self.warn_sweeps:
            self.mcmc_warnings.extend(acceptance_warnings(pool[0] / pool[1]))
            self._pool = [0, 0]
        self._set_theta(self.chain.theta)


class MetaTSBernoulli(_BetaCountTS):
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
        super().__init__(ctx)
        self.candidates = ctx.priors.bernoulli_candidates
        self.n_candidates = len(self.candidates)
        self.cand_a1 = np.stack([[b.alpha1 for b in cand] for cand in self.candidates])
        self.cand_a2 = np.stack([[b.alpha2 for b in cand] for cand in self.candidates])
        self._current = int(self.rng.integers(self.n_candidates))

    def _log_weights(self) -> np.ndarray:
        w = np.zeros(self.n_candidates)
        failures = self.counts - self.sums
        for c in range(self.n_candidates):
            a1 = self.cand_a1[c][None, :]
            a2 = self.cand_a2[c][None, :]
            w[c] = float(np.sum(beta_binomial_log_marginal(
                a1, a2, self.sums, failures)))
        return w

    def _refresh(self) -> None:
        logw = self._log_weights()
        probs = np.exp(logw - logw.max())
        probs /= probs.sum()
        self._current = int(self.rng.choice(self.n_candidates, p=probs))

    def _prior(self, task_id) -> tuple[np.ndarray, np.ndarray]:
        return self.cand_a1[self._current], self.cand_a2[self._current]


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

_REFRESH_EVERY = partial(check_count, "refresh_every", least=1, allow_none=True)
# (reward kind, name) -> {option: the rule that checks its value}
_ALLOWED_OPTIONS: dict[tuple[str, str], dict[str, Callable]] = {
    ("gaussian", "hier-ts-batch"): {"refresh_every": _REFRESH_EVERY},
    ("gaussian", "oracle-ts"): {"align": partial(check_flag, "align")},
    ("bernoulli", "hier-ts"): {"burn_in": partial(check_count, "burn_in", least=0),
                               "sweeps": partial(check_count, "sweeps", least=1),
                               "refresh_every": _REFRESH_EVERY},
}


def _registry(reward_kind: str) -> dict[str, Callable[..., Policy]]:
    return _GAUSSIAN_FACTORIES if reward_kind == "gaussian" \
        else _BERNOULLI_FACTORIES


def algorithm_names(reward_kind: str) -> tuple[str, ...]:
    return tuple(sorted(_registry(reward_kind)))


def check_algorithm(kind: str, name: str, options: dict | None,
                    schedule_kind: str) -> dict:
    """The options of algorithm name on kind rewards, each value passed
    through its rule in _ALLOWED_OPTIONS.  An unknown name, option or value
    is a ConfigError, a sequential_only policy on another schedule a
    ScheduleError."""
    table = _registry(kind)
    if name not in table:
        raise ConfigError(
            "unknown algorithm %r for %s rewards; known: %s"
            % (name, kind, ", ".join(sorted(table))))
    checks = _ALLOWED_OPTIONS.get((kind, name), {})
    options = dict(options or {})
    unknown = set(options) - set(checks)
    if unknown:
        raise ConfigError(
            "algorithm %r does not accept options %s (allowed: %s)"
            % (name, sorted(unknown), sorted(checks) or "none"))
    if table[name].sequential_only and schedule_kind != "sequential":
        raise ScheduleError("%s requires a sequential schedule" % name)
    return {key: checks[key](value) for key, value in options.items()}


def make_policy(name: str, ctx: AgentContext,
                options: dict | None = None) -> Policy:
    """Instantiate a policy by registry name, its options checked by
    check_algorithm."""
    kind = ctx.population.spec.reward_kind
    options = check_algorithm(kind, name, options, ctx.schedule_kind)
    return _registry(kind)[name](ctx, **options)
