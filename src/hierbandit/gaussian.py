"""Exact posterior inference for the Gaussian linear mixed reward model.

Model
-----
Shared coefficients   theta ~ N(mu_theta, Sigma_theta).
Task arm means        r_i = Phi_i theta + delta_i,  delta_i ~ N(0, Sigma_delta),
                      with Phi_i the task's n_arms x dim feature matrix.
Observations          R_j | r ~ N(r_{i(j), A_j}, sigma_noise^2), independent.

Marginalizing theta and the task effects makes the stacked observed rewards
jointly Gaussian with kernel

    K[l, m] = phi_l^T Sigma_theta phi_m
              + Sigma_delta[A_l, A_m] * 1{task(l) == task(m)},

so every per-task posterior P(r_i | H) is a Gaussian conditional.  Two
independent routes compute it: a dense route that factors the full n x n
kernel (posterior_r_naive) and a blocked route that factors only the
per-task random-effect blocks plus one dim x dim core via the Woodbury
identity (posterior_r_woodbury).  The coefficient posterior P(theta | H)
uses the same blocks.  A mixed-effect Gaussian-process generalization
(posterior_r_gp) replaces the linear fixed effect by per-arm mean and
kernel functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import _linalg
from ._linalg import chol_factor, chol_solve, inv_psd, sample_mvn, symmetrize
from .core import (FeatureMap, HierarchyConfig, History, InteractionRecord,
                   build_task_feature_matrix, resolve_metadata)
from .errors import ConfigError, NumericalError

# Fault-injection hook for the validate suite: multiplies the Woodbury
# low-rank correction term.  Anything other than 1.0 breaks path equivalence
# on purpose; never change it outside tests.
_CORRECTION_SIGN = 1.0

# GP path is dense-only; refuse histories beyond this size.
GP_MAX_RECORDS = 5000

_EIG_FLOOR = -1e-10


def _validated_cov(cov: np.ndarray, what: str) -> np.ndarray:
    cov = symmetrize(np.asarray(cov, dtype=float))
    w, v = np.linalg.eigh(cov)
    if w[0] < _EIG_FLOOR:
        raise NumericalError("%s covariance has eigenvalue %g < %g"
                             % (what, w[0], _EIG_FLOOR))
    if w[0] < 0.0:
        cov = (v * np.clip(w, 0.0, None)) @ v.T
        cov = symmetrize(cov)
    return cov


@dataclass(frozen=True)
class GaussianBelief:
    """Multivariate normal belief over one task's arm means.

    The covariance is symmetrized as (C + C^T)/2 on construction and tiny
    negative eigenvalues (>= -1e-10) are clamped to zero; anything below
    that tolerance raises NumericalError.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        if mean.ndim != 1:
            raise ConfigError("belief mean must be a vector")
        cov = _validated_cov(self.cov, "belief")
        if cov.shape != (mean.shape[0], mean.shape[0]):
            raise ConfigError("belief cov must be K x K")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def n_arms(self) -> int:
        return self.mean.shape[0]

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return sample_mvn(self.mean, self.cov, rng)


@dataclass(frozen=True)
class ThetaPosterior:
    """Gaussian posterior (or prior) over the shared coefficients."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        if mean.ndim != 1:
            raise ConfigError("theta mean must be a vector")
        cov = _validated_cov(self.cov, "theta")
        if cov.shape != (mean.shape[0], mean.shape[0]):
            raise ConfigError("theta cov must be d x d")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return sample_mvn(self.mean, self.cov, rng)


# ---------------------------------------------------------------------------
# history stacking shared by both routes
# ---------------------------------------------------------------------------

class _Stacked:
    """Arrays extracted from a history: features, rewards, tasks, actions."""

    def __init__(self, fm: FeatureMap, h, metadata_lookup=None):
        lookup = resolve_metadata(fm, metadata_lookup)
        records = list(h)
        n = len(records)
        self.n = n
        self.phi = np.zeros((n, fm.dim))
        self.rewards = np.zeros(n)
        self.tasks = np.zeros(n, dtype=np.int64)
        self.actions = np.zeros(n, dtype=np.int64)
        cache: dict[int, np.ndarray] = {}
        for j, rec in enumerate(records):
            x = cache.get(rec.task_id)
            if x is None:
                x = np.asarray(lookup(rec.task_id), dtype=float)
                cache[rec.task_id] = x
            self.phi[j] = fm.feature(x, rec.action)
            self.rewards[j] = rec.reward
            self.tasks[j] = rec.task_id
            self.actions[j] = rec.action

    def task_order(self) -> list[int]:
        seen: list[int] = []
        for t in self.tasks:
            t = int(t)
            if t not in seen:
                seen.append(t)
        return seen


def _prior_predictive(cfg: HierarchyConfig, phi_target: np.ndarray) -> GaussianBelief:
    mean = phi_target @ cfg.mu_theta
    cov = phi_target @ cfg.sigma_theta @ phi_target.T + cfg.sigma_delta
    return GaussianBelief(mean, cov)


def posterior_r_naive(cfg: HierarchyConfig, fm: FeatureMap, h: History,
                      target_task: int, target_x: np.ndarray,
                      metadata_lookup=None) -> GaussianBelief:
    """Exact P(r_target | H) via one dense factorization of the n x n kernel.

    With an empty history this is the prior predictive
    N(Phi_i mu_theta, Phi_i Sigma_theta Phi_i^T + Sigma_delta).
    """
    cfg.require_gaussian()
    phi_t = build_task_feature_matrix(fm, target_x)
    if len(h) == 0:
        return _prior_predictive(cfg, phi_t)
    st = _Stacked(fm, h, metadata_lookup)
    same = st.tasks[:, None] == st.tasks[None, :]
    kernel = st.phi @ cfg.sigma_theta @ st.phi.T \
        + cfg.sigma_delta[np.ix_(st.actions, st.actions)] * same
    kernel[np.diag_indices_from(kernel)] += cfg.sigma_noise ** 2

    cross = phi_t @ cfg.sigma_theta @ st.phi.T                    # K x n
    own = st.tasks == target_task
    if own.any():
        cross[:, own] += cfg.sigma_delta[:, st.actions[own]]

    lower = chol_factor(kernel)
    resid = st.rewards - st.phi @ cfg.mu_theta
    mean = phi_t @ cfg.mu_theta + cross @ chol_solve(lower, resid)
    cov = phi_t @ cfg.sigma_theta @ phi_t.T + cfg.sigma_delta \
        - cross @ chol_solve(lower, cross.T)
    return GaussianBelief(mean, cov)


# ---------------------------------------------------------------------------
# blocked route: per-task V blocks + Woodbury core
# ---------------------------------------------------------------------------

class _BlockSolver:
    """Applies V_tau^{-1} for one task block V_tau = J_tau + sigma^2 I.

    J_tau has entries Sigma_delta[A_l, A_m] over the task's records.  For a
    diagonal Sigma_delta the block is, after grouping rows by arm, a
    rank-one perturbation per group:
        (sigma^2 I + v 1 1^T)^{-1} = I/sigma^2 - v/(sigma^2 (sigma^2 + n v)) 1 1^T,
    which the "rank_one" strategy applies group by group.  The "dense"
    strategy factors the block directly.
    """

    def __init__(self, sigma_delta: np.ndarray, sigma_noise: float,
                 actions: np.ndarray, strategy: str = "auto"):
        self.actions = actions
        self.n = actions.shape[0]
        off = sigma_delta - np.diag(np.diag(sigma_delta))
        diagonal = not np.any(off)
        if strategy == "auto":
            strategy = "rank_one" if diagonal else "dense"
        if strategy == "rank_one" and not diagonal:
            raise ConfigError("rank_one block solver needs diagonal Sigma_delta")
        self.strategy = strategy
        self.s2 = sigma_noise ** 2
        if strategy == "dense":
            block = sigma_delta[np.ix_(actions, actions)] \
                + self.s2 * np.eye(self.n)
            self._lower = chol_factor(block)
            self._logdet = _linalg.logdet_from_chol(self._lower)
        else:
            self._groups = []
            self._logdet = 0.0
            for a in np.unique(actions):
                idx = np.nonzero(actions == a)[0]
                v = float(sigma_delta[a, a])
                m = idx.shape[0]
                self._groups.append((idx, v))
                self._logdet += (m - 1) * np.log(self.s2) + np.log(self.s2 + m * v)

    def apply(self, b: np.ndarray) -> np.ndarray:
        """V^{-1} b for b of shape (n,) or (n, m)."""
        if self.strategy == "dense":
            return chol_solve(self._lower, b)
        out = b / self.s2
        for idx, v in self._groups:
            if v == 0.0:
                continue
            m = idx.shape[0]
            colsum = b[idx].sum(axis=0)
            out[idx] -= (v / (self.s2 * (self.s2 + m * v))) * colsum
        return out

    @property
    def logdet(self) -> float:
        return self._logdet


class KernelWorkspace:
    """Blocked intermediates of the Woodbury route for one (cfg, history).

    Holds, per task, a factorization of V_tau = J_tau + sigma^2 I and the
    accumulated core quantities
        phi_vinv_phi = Phi^T V^{-1} Phi         (d x d)
        phi_vinv_resid = Phi^T V^{-1} (R - Phi mu_theta)   (d,)
    plus the residual quadratic form and log-determinants needed by the
    marginal likelihood.  Sigma_theta and the noise/effect covariances can
    be overridden so empirical-Bayes grids reuse one stacked history.
    """

    def __init__(self, cfg: HierarchyConfig, fm: FeatureMap, h,
                 metadata_lookup=None, *, stacked: _Stacked | None = None,
                 sigma_delta: np.ndarray | None = None,
                 sigma_noise: float | None = None,
                 block_strategy: str = "auto"):
        cfg_delta = sigma_delta if sigma_delta is not None else cfg.sigma_delta
        cfg_noise = sigma_noise if sigma_noise is not None else cfg.sigma_noise
        if cfg_delta is None or cfg_noise is None:
            raise ConfigError("Gaussian model needs sigma_delta and sigma_noise")
        self.cfg = cfg
        self.fm = fm
        self.sigma_delta = np.asarray(cfg_delta, dtype=float)
        self.sigma_noise = float(cfg_noise)
        self.st = stacked if stacked is not None else _Stacked(fm, h, metadata_lookup)
        st = self.st
        d = fm.dim
        resid = st.rewards - st.phi @ cfg.mu_theta
        self._blocks: dict[int, tuple[np.ndarray, _BlockSolver, np.ndarray, np.ndarray]] = {}
        self.phi_vinv_phi = np.zeros((d, d))
        self.phi_vinv_resid = np.zeros(d)
        self.resid_vinv_resid = 0.0
        self.logdet_v = 0.0
        for tid in st.task_order():
            idx = np.nonzero(st.tasks == tid)[0]
            solver = _BlockSolver(self.sigma_delta, self.sigma_noise,
                                  st.actions[idx], block_strategy)
            vinv_phi = solver.apply(st.phi[idx])
            vinv_resid = solver.apply(resid[idx])
            self.phi_vinv_phi += st.phi[idx].T @ vinv_phi
            self.phi_vinv_resid += st.phi[idx].T @ vinv_resid
            self.resid_vinv_resid += float(resid[idx] @ vinv_resid)
            self.logdet_v += solver.logdet
            self._blocks[tid] = (idx, solver, vinv_phi, vinv_resid)

    def core_inverse(self, sigma_theta: np.ndarray | None = None
                     ) -> tuple[np.ndarray, np.ndarray, float]:
        """(Sigma_in, Sigma_theta^{-1}, logdet of the core) for the identity
        (Sigma_theta^{-1} + Phi^T V^{-1} Phi)^{-1}."""
        s_theta = self.cfg.sigma_theta if sigma_theta is None else sigma_theta
        lower_t = chol_factor(np.asarray(s_theta, dtype=float))
        s_theta_inv = chol_solve(lower_t, np.eye(s_theta.shape[0]))
        core = s_theta_inv + self.phi_vinv_phi
        lower_c = chol_factor(symmetrize(core))
        sigma_in = chol_solve(lower_c, np.eye(core.shape[0]))
        logdet_core = _linalg.logdet_from_chol(lower_t) \
            + _linalg.logdet_from_chol(lower_c)
        return symmetrize(sigma_in), s_theta_inv, logdet_core

    def task_cross_terms(self, target_task: int, phi_target: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(M V^{-1} Phi, M V^{-1} resid, M V^{-1} M^T) for the target task.

        M is the K x n cross matrix with entries
        1{task(j)=target} Sigma_delta[A_j, a]; only the target task's block
        contributes, so all three products touch one block only.
        """
        k = self.sigma_delta.shape[0]
        d = self.fm.dim
        entry = self._blocks.get(target_task)
        if entry is None:
            return np.zeros((k, d)), np.zeros(k), np.zeros((k, k))
        idx, solver, vinv_phi, vinv_resid = entry
        m_cols = self.sigma_delta[:, self.st.actions[idx]]          # K x n_tau
        m_vinv_phi = m_cols @ vinv_phi
        m_vinv_resid = m_cols @ vinv_resid
        m_vinv_m = m_cols @ solver.apply(m_cols.T)
        return m_vinv_phi, m_vinv_resid, m_vinv_m


def posterior_r_woodbury(cfg: HierarchyConfig, fm: FeatureMap, h: History,
                         target_task: int, target_x: np.ndarray,
                         metadata_lookup=None,
                         block_strategy: str = "auto") -> GaussianBelief:
    """Exact P(r_target | H) via per-task blocks and the Woodbury identity.

    Identical contract to posterior_r_naive; never forms an n x n matrix.
    block_strategy "dense" forces dense per-task factorizations even when the
    rank-one diagonal shortcut applies (numerical cross-check lever).
    """
    cfg.require_gaussian()
    phi_t = build_task_feature_matrix(fm, target_x)
    if len(h) == 0:
        return _prior_predictive(cfg, phi_t)
    ws = KernelWorkspace(cfg, fm, h, metadata_lookup, block_strategy=block_strategy)
    sigma_in, _, _ = ws.core_inverse()
    m_vinv_phi, m_vinv_resid, m_vinv_m = ws.task_cross_terms(target_task, phi_t)

    ps = phi_t @ cfg.sigma_theta                                   # K x d
    gain = ps @ ws.phi_vinv_phi + m_vinv_phi                       # K x d
    mean = phi_t @ cfg.mu_theta + ps @ ws.phi_vinv_resid + m_vinv_resid \
        - _CORRECTION_SIGN * (gain @ (sigma_in @ ws.phi_vinv_resid))
    cov = phi_t @ cfg.sigma_theta @ phi_t.T + cfg.sigma_delta \
        - m_vinv_m - ps @ ws.phi_vinv_phi @ ps.T \
        - ps @ m_vinv_phi.T - m_vinv_phi @ ps.T \
        + _CORRECTION_SIGN * (gain @ sigma_in @ gain.T)
    return GaussianBelief(mean, cov)


def posterior_theta(cfg: HierarchyConfig, fm: FeatureMap, h: History,
                    metadata_lookup=None) -> ThetaPosterior:
    """P(theta | H) = N(mu_theta + Sigma_tilde Phi^T V^{-1} (R - Phi mu_theta),
    Sigma_tilde) with Sigma_tilde = (Phi^T V^{-1} Phi + Sigma_theta^{-1})^{-1}.

    Empty history returns the prior (mu_theta, sigma_theta) exactly.
    """
    cfg.require_gaussian()
    if len(h) == 0:
        return ThetaPosterior(cfg.mu_theta, cfg.sigma_theta)
    ws = KernelWorkspace(cfg, fm, h, metadata_lookup)
    sigma_in, _, _ = ws.core_inverse()
    mean = cfg.mu_theta + sigma_in @ ws.phi_vinv_resid
    return ThetaPosterior(mean, sigma_in)


# ---------------------------------------------------------------------------
# single-task conditionals given theta
# ---------------------------------------------------------------------------

def _arm_stats(records: Sequence[InteractionRecord], n_arms: int
               ) -> tuple[np.ndarray, np.ndarray]:
    counts = np.zeros(n_arms)
    sums = np.zeros(n_arms)
    for rec in records:
        counts[rec.action] += 1
        sums[rec.action] += rec.reward
    return counts, sums


def conditional_stats_update(prior_mean: np.ndarray, sigma_delta: np.ndarray,
                             sigma_noise: float, counts: np.ndarray,
                             sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normal-normal conjugate update of N(prior_mean, sigma_delta) given
    per-arm counts and reward sums under noise variance sigma_noise^2.

    Uses the downdate form with per-arm averaged observations, which stays
    valid for singular (even zero) sigma_delta:
        S = Sigma[P, P] + diag(sigma^2 / n_P)
        mean = m + Sigma[:, P] S^{-1} (ybar_P - m_P)
        cov  = Sigma - Sigma[:, P] S^{-1} Sigma[P, :]
    """
    pulled = np.nonzero(counts > 0)[0]
    if pulled.size == 0:
        return prior_mean.copy(), sigma_delta.copy()
    ybar = sums[pulled] / counts[pulled]
    s = sigma_delta[np.ix_(pulled, pulled)] \
        + np.diag(sigma_noise ** 2 / counts[pulled])
    lower = chol_factor(s)
    gain = chol_solve(lower, sigma_delta[pulled, :]).T             # K x |P|
    mean = prior_mean + gain @ (ybar - prior_mean[pulled])
    cov = sigma_delta - gain @ sigma_delta[pulled, :]
    return mean, cov


def conditional_r_given_theta(cfg: HierarchyConfig, fm: FeatureMap,
                              h_i, theta_sample: np.ndarray,
                              target_x: np.ndarray) -> GaussianBelief:
    """P(r_i | theta, H_i): prior N(Phi_i theta, Sigma_delta) updated by the
    task's own records.  h_i is a per-task history view (History restricted
    to one task, or any iterable of that task's records)."""
    cfg.require_gaussian()
    theta_sample = np.asarray(theta_sample, dtype=float)
    if theta_sample.shape != (cfg.dim,):
        raise ConfigError("theta_sample must have length d=%d" % cfg.dim)
    phi_t = build_task_feature_matrix(fm, target_x)
    counts, sums = _arm_stats(list(h_i), fm.n_arms)
    mean, cov = conditional_stats_update(phi_t @ theta_sample, cfg.sigma_delta,
                                         cfg.sigma_noise, counts, sums)
    return GaussianBelief(mean, cov)


def gaussian_obs_update(belief: GaussianBelief, arm: int, reward: float,
                        sigma_noise: float) -> GaussianBelief:
    """One-record conjugate update of a task belief (rank-one)."""
    c = belief.cov[:, arm]
    denom = belief.cov[arm, arm] + sigma_noise ** 2
    mean = belief.mean + c * ((reward - belief.mean[arm]) / denom)
    cov = belief.cov - np.outer(c, c) / denom
    return GaussianBelief(mean, cov)


def marginal_task_belief(cfg: HierarchyConfig, fm: FeatureMap,
                         theta_post: ThetaPosterior, target_x: np.ndarray,
                         counts: np.ndarray, sums: np.ndarray) -> GaussianBelief:
    """Exact P(r_i | H) assembled from the coefficient posterior.

    Tasks are conditionally independent given theta, and the conditional
    mean of r_i is affine in theta with a theta-free covariance:
        r_i | theta, H_i ~ N(B theta + g, C).
    Marginalizing theta | H ~ N(tb, tS) therefore gives
        r_i | H ~ N(B tb + g, C + B tS B^T)
    exactly.  This is what the vanilla hierarchical-TS agent samples from;
    it equals the kernel routes to numerical precision.
    """
    phi_t = build_task_feature_matrix(fm, target_x)
    pulled = np.nonzero(counts > 0)[0]
    if pulled.size == 0:
        mean = phi_t @ theta_post.mean
        cov = cfg.sigma_delta + phi_t @ theta_post.cov @ phi_t.T
        return GaussianBelief(mean, cov)
    ybar = sums[pulled] / counts[pulled]
    s = cfg.sigma_delta[np.ix_(pulled, pulled)] \
        + np.diag(cfg.sigma_noise ** 2 / counts[pulled])
    lower = chol_factor(s)
    gain = chol_solve(lower, cfg.sigma_delta[pulled, :]).T
    affine = phi_t - gain @ phi_t[pulled, :]                       # B
    mean = affine @ theta_post.mean + gain @ ybar
    cov = cfg.sigma_delta - gain @ cfg.sigma_delta[pulled, :] \
        + affine @ theta_post.cov @ affine.T
    return GaussianBelief(mean, cov)


# ---------------------------------------------------------------------------
# incremental coefficient-posterior statistics (diagonal Sigma_delta)
# ---------------------------------------------------------------------------

def diagonal_effect_variances(cfg: HierarchyConfig) -> np.ndarray:
    """The per-arm variances of a diagonal Sigma_delta; ConfigError if it
    has any off-diagonal entry."""
    off = cfg.sigma_delta - np.diag(np.diag(cfg.sigma_delta))
    if np.any(off):
        raise ConfigError("per-arm conjugate statistics need diagonal sigma_delta")
    return np.diag(cfg.sigma_delta).copy()


class ThetaStatAccumulator:
    """Running Phi^T V^{-1} Phi and Phi^T V^{-1} (R - Phi mu) under diagonal
    Sigma_delta, updated in O(d^2) per record.

    Rows of one (task, arm) pair share the same feature vector, so the block
    contribution collapses to scalar weights:
        Phi^T V^{-1} Phi    += [n / (sigma^2 + v_a n)] phi phi^T
        Phi^T V^{-1} resid  += [(S - n m) / (sigma^2 + v_a n)] phi
    with n, S the pair's count and reward sum, v_a = Sigma_delta[a, a] and
    m = phi^T mu_theta.  Each new record changes one pair, a rank-one update.
    """

    def __init__(self, cfg: HierarchyConfig, fm: FeatureMap, task_ids: Sequence[int]):
        cfg.require_gaussian()
        self._effect_var = diagonal_effect_variances(cfg)
        self.cfg = cfg
        self.fm = fm
        self._index = {int(t): k for k, t in enumerate(task_ids)}
        n_tasks = len(self._index)
        k = fm.n_arms
        self.features = np.zeros((n_tasks, k, fm.dim))
        self.prior_arm_means = np.zeros((n_tasks, k))
        for tid, row in self._index.items():
            self.features[row] = fm.task_features(fm.metadata_for(tid))
            self.prior_arm_means[row] = self.features[row] @ cfg.mu_theta
        self.counts = np.zeros((n_tasks, k))
        self.sums = np.zeros((n_tasks, k))
        self.phi_vinv_phi = np.zeros((fm.dim, fm.dim))
        self.phi_vinv_resid = np.zeros(fm.dim)
        self._noise_sq = cfg.sigma_noise ** 2

    def row(self, task_id: int) -> int:
        return self._index[task_id]

    def add(self, task_id: int, arm: int, reward: float) -> None:
        row = self._index[task_id]
        n0 = self.counts[row, arm]
        s0 = self.sums[row, arm]
        n1, s1 = n0 + 1.0, s0 + reward
        self.counts[row, arm] = n1
        self.sums[row, arm] = s1
        v = self._effect_var[arm]
        m = self.prior_arm_means[row, arm]
        d0 = self._noise_sq + v * n0
        d1 = self._noise_sq + v * n1
        phi = self.features[row, arm]
        self.phi_vinv_phi += (n1 / d1 - n0 / d0) * np.outer(phi, phi)
        self.phi_vinv_resid += ((s1 - n1 * m) / d1 - (s0 - n0 * m) / d0) * phi

    def theta_posterior(self) -> ThetaPosterior:
        core = inv_psd(self.cfg.sigma_theta) + self.phi_vinv_phi
        sigma_in = inv_psd(symmetrize(core))
        mean = self.cfg.mu_theta + sigma_in @ self.phi_vinv_resid
        return ThetaPosterior(mean, sigma_in)


# ---------------------------------------------------------------------------
# mixed-effect Gaussian process generalization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GPConfig:
    """Mixed-effect GP reward model: per-arm mean and kernel functions plus
    the task-level random effect.

    mean_fns[a](x) is the prior mean of arm a's reward at metadata x;
    kernel_fns[a](x, x') its fixed-effect covariance.  sigma_delta and
    sigma_noise play the same roles as in HierarchyConfig.  The observation
    noise enters the posterior as sigma_noise^2 (the reward-noise variance;
    one source writes the random-effect scale there, which is a notation
    slip this implementation does not follow).
    """

    mean_fns: Sequence[Callable[[np.ndarray], float]]
    kernel_fns: Sequence[Callable[[np.ndarray, np.ndarray], float]]
    sigma_delta: np.ndarray
    sigma_noise: float

    def __post_init__(self):
        if len(self.mean_fns) != len(self.kernel_fns):
            raise ConfigError("need one mean and one kernel function per arm")
        object.__setattr__(self, "sigma_delta",
                           np.asarray(self.sigma_delta, dtype=float))
        if self.sigma_delta.shape != (self.n_arms, self.n_arms):
            raise ConfigError("sigma_delta must be K x K")
        if not self.sigma_noise > 0:
            raise ConfigError("sigma_noise must be > 0")

    @property
    def n_arms(self) -> int:
        return len(self.mean_fns)


def posterior_r_gp(gp: GPConfig, h: History, target_task: int,
                   target_x: np.ndarray, *, metadata_lookup=None) -> GaussianBelief:
    """Exact P(r_target | H) under the mixed-effect GP model, dense route.

    Kernel over observations O = (x, a, i), O' = (x', a', i'):
        kernel(O, O') = kernel_a(x, x') 1{a = a'} + Sigma_delta[a, a'] 1{i = i'}.
    metadata_lookup resolves task_id -> x for history rows (defaults to the
    registry of the feature map are not available here, so a mapping or
    callable is required whenever h is nonempty).  Dense-only, capped at
    5000 records.
    """
    target_x = np.asarray(target_x, dtype=float)
    k = gp.n_arms
    mu_t = np.array([fn(target_x) for fn in gp.mean_fns])
    k_t = np.diag([gp.kernel_fns[a](target_x, target_x) for a in range(k)])
    if len(h) == 0:
        return GaussianBelief(mu_t, k_t + gp.sigma_delta)
    records = list(h)
    n = len(records)
    if n > GP_MAX_RECORDS:
        raise ConfigError(
            "GP posterior is dense-only and capped at %d records (got %d)"
            % (GP_MAX_RECORDS, n))
    if metadata_lookup is None:
        raise ConfigError("posterior_r_gp needs metadata_lookup for history rows")
    lookup = metadata_lookup if callable(metadata_lookup) \
        else (lambda tid: metadata_lookup[tid])
    xs = [np.asarray(lookup(rec.task_id), dtype=float) for rec in records]
    actions = np.array([rec.action for rec in records])
    tasks = np.array([rec.task_id for rec in records])
    rewards = np.array([rec.reward for rec in records])

    kern = np.zeros((n, n))
    for l in range(n):
        for m in range(l, n):
            val = gp.sigma_delta[actions[l], actions[m]] if tasks[l] == tasks[m] else 0.0
            if actions[l] == actions[m]:
                val += gp.kernel_fns[actions[l]](xs[l], xs[m])
            kern[l, m] = kern[m, l] = val
    kern[np.diag_indices_from(kern)] += gp.sigma_noise ** 2

    cross = np.zeros((k, n))
    for a in range(k):
        for j in range(n):
            val = gp.kernel_fns[a](target_x, xs[j]) if actions[j] == a else 0.0
            if tasks[j] == target_task:
                val += gp.sigma_delta[actions[j], a]
            cross[a, j] = val

    mu_rows = np.array([gp.mean_fns[rec_a](x) for rec_a, x in zip(actions, xs)])
    lower = chol_factor(kern)
    mean = mu_t + cross @ chol_solve(lower, rewards - mu_rows)
    cov = k_t + gp.sigma_delta - cross @ chol_solve(lower, cross.T)
    return GaussianBelief(mean, cov)
