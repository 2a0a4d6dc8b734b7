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
kernel (posterior_r_naive) and a blocked route that makes one K x K solve
per task on the (task, arm) pair statistics (count, residual sum, residual
sum of squares) plus one dim x dim core via the Woodbury identity
(posterior_r_woodbury, through KernelWorkspace).  The coefficient posterior
P(theta | H) and the marginal likelihood use the same solves.  A
mixed-effect Gaussian-process generalization (posterior_r_gp) replaces the
linear fixed effect by per-arm mean and kernel functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import _linalg
from ._linalg import chol_factor, chol_solve, psd_root, symmetrize
from .core import FeatureMap, HierarchyConfig, History
from .errors import ConfigError, NumericalError

# GP path is dense-only; refuse histories beyond this size.
GP_MAX_RECORDS = 5000


@dataclass(frozen=True)
class GaussianBelief:
    """Multivariate normal belief over one task's arm means.

    The covariance is validated and factored once on construction by
    _linalg.psd_root: symmetrized as (C + C^T)/2, tiny negative eigenvalues
    (>= -1e-10) clamped to zero, anything below that tolerance a
    NumericalError.  A mean that is not a vector, or a covariance that is
    not square of the mean's length, is a ConfigError.  sample reuses the
    factor.
    """

    mean: np.ndarray
    cov: np.ndarray
    _root: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        if mean.ndim != 1:
            raise ConfigError("%s mean must be a vector" % type(self).__name__)
        k = mean.shape[0]
        if np.shape(self.cov) != (k, k):
            raise ConfigError("%s cov must be %d x %d"
                              % (type(self).__name__, k, k))
        cov, root = psd_root(self.cov)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "_root", root)

    @property
    def n_arms(self) -> int:
        return self.mean.shape[0]

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return _linalg.sample_from_root(self.mean, self._root, rng)


class ThetaPosterior(GaussianBelief):
    """Gaussian posterior (or prior) over the shared coefficients."""

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


# ---------------------------------------------------------------------------
# history stacking shared by both routes
# ---------------------------------------------------------------------------

class _Stacked:
    """A history's columns (tasks, actions, rewards), its distinct task ids
    in ascending order with each row's index into them (task_rows), each
    task's n_arms x dim feature matrix (features, the metadata resolved once
    through the feature map's registry) and each row's feature vector phi."""

    def __init__(self, fm: FeatureMap, h: History):
        self.tasks, self.actions, self.rewards = h.columns()
        bad = self.actions[self.actions >= fm.n_arms]
        if bad.size:
            fm.check_arm(int(bad[0]))
        self.task_ids, self.task_rows = np.unique(self.tasks,
                                                  return_inverse=True)
        mats = [fm.task_features(fm.metadata_for(t))
                for t in self.task_ids.tolist()]
        self.features = np.stack(mats) if mats \
            else np.zeros((0, fm.n_arms, fm.dim))
        self.phi = self.features[self.task_rows, self.actions]


def _require_model(cfg: HierarchyConfig, fm: FeatureMap) -> None:
    """ConfigError unless cfg is a Gaussian model whose sigma_delta is
    n_arms x n_arms for the feature map's n_arms."""
    cfg.require_gaussian()
    k = fm.n_arms
    if cfg.sigma_delta.shape != (k, k):
        raise ConfigError("sigma_delta is %d x %d; the feature map has %d arms"
                          % (*cfg.sigma_delta.shape, k))


def _prior_predictive(cfg: HierarchyConfig, phi_target: np.ndarray) -> GaussianBelief:
    mean = phi_target @ cfg.mu_theta
    cov = phi_target @ cfg.sigma_theta @ phi_target.T + cfg.sigma_delta
    return GaussianBelief(mean, cov)


def posterior_r_naive(cfg: HierarchyConfig, fm: FeatureMap, h: History,
                      target_task: int, target_x: np.ndarray) -> GaussianBelief:
    """Exact P(r_target | H) via one dense factorization of the n x n kernel.

    With an empty history this is the prior predictive
    N(Phi_i mu_theta, Phi_i Sigma_theta Phi_i^T + Sigma_delta).
    """
    _require_model(cfg, fm)
    phi_t = fm.task_features(target_x)
    if len(h) == 0:
        return _prior_predictive(cfg, phi_t)
    st = _Stacked(fm, h)
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
# blocked route: one K x K solve per task on pair statistics + Woodbury core
# ---------------------------------------------------------------------------

class KernelWorkspace:
    """Blocked intermediates of the Woodbury route for one (cfg, history):
    one K x K solve per task on the (task, arm) pair statistics.

    Task tau's block of the effect-plus-noise covariance is
    V_tau = P Sigma_delta P^T + sigma^2 I, with P the n_tau x K indicator of
    its rows' arms, and its rows' features are P F_tau for the task's K x d
    feature matrix F_tau.  So the block enters only through each pair's
    count n and residual sum s and the residual sum of squares q, with
    residuals resid = R - Phi mu_theta.  With D = diag(sqrt(n)),
    t = s / sqrt(n) (0 where n = 0) and B = sigma^2 I + D Sigma_delta D,
    which is SPD for any PSD Sigma_delta because B >= sigma^2 I:
        P^T V^{-1} P     = G = D B^{-1} D
        P^T V^{-1} resid = w = D B^{-1} t
        resid^T V^{-1} resid = (q - |t|^2) / sigma^2 + t^T B^{-1} t
        log|V_tau| = (n_tau - K) log sigma^2 + log|B|.
    Summed over tasks these give the core quantities
        phi_vinv_phi   = Phi^T V^{-1} Phi   = sum F^T G F     (d x d)
        phi_vinv_resid = Phi^T V^{-1} resid = sum F^T w       (d,)
    plus resid_vinv_resid and logdet_v for the marginal likelihood.  Every
    task's B is factored in one batched Cholesky, with no jitter.  A
    prebuilt stacked history can be passed in so empirical-Bayes grids
    reuse one.
    """

    def __init__(self, cfg: HierarchyConfig, fm: FeatureMap, h: History, *,
                 stacked: _Stacked | None = None):
        _require_model(cfg, fm)
        self.cfg = cfg
        st = stacked if stacked is not None else _Stacked(fm, h)
        n_tasks, k, _ = st.features.shape
        s2 = cfg.sigma_noise ** 2
        resid = st.rewards - st.phi @ cfg.mu_theta
        cell = st.task_rows * k + st.actions
        n = np.bincount(cell, minlength=n_tasks * k).reshape(n_tasks, k)
        s = np.bincount(cell, resid, minlength=n_tasks * k).reshape(n_tasks, k)
        root_n = np.sqrt(n)
        t = np.divide(s, root_n, out=np.zeros_like(s), where=n > 0)
        b = cfg.sigma_delta * (root_n[:, :, None] * root_n[:, None, :])
        lower = np.linalg.cholesky(b + s2 * np.eye(k))
        # numpy has no batched triangular solve; the general one on the
        # factor gives L^{-1}
        linv = np.linalg.solve(lower, np.eye(k))
        linv_d = linv * root_n[:, None, :]                         # L^{-1} D
        linv_t = linv @ t[:, :, None]                              # L^{-1} t
        self._g = linv_d.mT @ linv_d
        self._w = (linv_d.mT @ linv_t)[:, :, 0]
        self._features = st.features
        self._rows = dict(zip(st.task_ids.tolist(), range(n_tasks)))
        flat = st.features.reshape(n_tasks * k, -1)
        self.phi_vinv_phi = flat.T @ (self._g @ st.features).reshape(
            n_tasks * k, -1)
        self.phi_vinv_resid = flat.T @ self._w.reshape(-1)
        self.resid_vinv_resid = float(resid @ resid - np.sum(t * t)) / s2 \
            + float(np.sum(linv_t * linv_t))
        log_pivots = np.log(np.diagonal(lower, axis1=1, axis2=2))
        self.logdet_v = (resid.shape[0] - n_tasks * k) * np.log(s2) \
            + 2.0 * float(log_pivots.sum())

    def task_cross_terms(self, target_task: int
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(M V^{-1} Phi, M V^{-1} resid, M V^{-1} M^T) for the target task.

        M is the K x n cross matrix with entries
        1{task(j)=target} Sigma_delta[A_j, a], that is Sigma_delta P^T on
        the target's rows, so the products are
        (Sigma_delta G F, Sigma_delta w, Sigma_delta G Sigma_delta) of the
        target's block, and zero for a task without records.
        """
        sigma_delta = self.cfg.sigma_delta
        k, d = self._features.shape[1:]
        row = self._rows.get(target_task)
        if row is None:
            return np.zeros((k, d)), np.zeros(k), np.zeros((k, k))
        sd_g = sigma_delta @ self._g[row]
        return (sd_g @ self._features[row], sigma_delta @ self._w[row],
                sd_g @ sigma_delta)


def theta_posterior_stats(cfg: HierarchyConfig, phi_vinv_phi: np.ndarray,
                          phi_vinv_resid: np.ndarray
                          ) -> tuple[np.ndarray, np.ndarray, float]:
    """(mean, cov, logdet_core) of P(theta | H) from the sufficient statistics
    Phi^T V^{-1} Phi and Phi^T V^{-1} (R - Phi mu_theta):
        cov  = (Sigma_theta^{-1} + Phi^T V^{-1} Phi)^{-1}
        mean = mu_theta + cov Phi^T V^{-1} (R - Phi mu_theta)
        logdet_core = log|Sigma_theta| + log|Sigma_theta^{-1} + Phi^T V^{-1} Phi|.
    """
    eye = np.eye(cfg.dim)
    lower_t = chol_factor(cfg.sigma_theta)
    lower_c = chol_factor(symmetrize(chol_solve(lower_t, eye) + phi_vinv_phi))
    cov = symmetrize(chol_solve(lower_c, eye))
    mean = cfg.mu_theta + cov @ phi_vinv_resid
    logdet_core = _linalg.logdet_from_chol(lower_t) \
        + _linalg.logdet_from_chol(lower_c)
    return mean, cov, logdet_core


def posterior_r_woodbury(cfg: HierarchyConfig, fm: FeatureMap, h: History,
                         target_task: int, target_x: np.ndarray) -> GaussianBelief:
    """Exact P(r_target | H) via per-task blocks and the Woodbury identity.

    Identical contract to posterior_r_naive; never forms an n x n matrix.
    """
    _require_model(cfg, fm)
    phi_t = fm.task_features(target_x)
    if len(h) == 0:
        return _prior_predictive(cfg, phi_t)
    ws = KernelWorkspace(cfg, fm, h)
    _, sigma_in, _ = theta_posterior_stats(cfg, ws.phi_vinv_phi, ws.phi_vinv_resid)
    m_vinv_phi, m_vinv_resid, m_vinv_m = ws.task_cross_terms(target_task)

    ps = phi_t @ cfg.sigma_theta                                   # K x d
    gain = ps @ ws.phi_vinv_phi + m_vinv_phi                       # K x d
    mean = phi_t @ cfg.mu_theta + ps @ ws.phi_vinv_resid + m_vinv_resid \
        - gain @ (sigma_in @ ws.phi_vinv_resid)
    cov = phi_t @ cfg.sigma_theta @ phi_t.T + cfg.sigma_delta \
        - m_vinv_m - ps @ ws.phi_vinv_phi @ ps.T \
        - ps @ m_vinv_phi.T - m_vinv_phi @ ps.T \
        + gain @ sigma_in @ gain.T
    return GaussianBelief(mean, cov)


def posterior_theta(cfg: HierarchyConfig, fm: FeatureMap,
                    h: History) -> ThetaPosterior:
    """P(theta | H) = N(mu_theta + Sigma_tilde Phi^T V^{-1} (R - Phi mu_theta),
    Sigma_tilde) with Sigma_tilde = (Phi^T V^{-1} Phi + Sigma_theta^{-1})^{-1}.

    Empty history returns the prior (mu_theta, sigma_theta) exactly.
    """
    _require_model(cfg, fm)
    if len(h) == 0:
        return ThetaPosterior(cfg.mu_theta, cfg.sigma_theta)
    ws = KernelWorkspace(cfg, fm, h)
    mean, cov, _ = theta_posterior_stats(cfg, ws.phi_vinv_phi, ws.phi_vinv_resid)
    return ThetaPosterior(mean, cov)


# ---------------------------------------------------------------------------
# single-task conditionals given theta
# ---------------------------------------------------------------------------

def _arm_stats(h: History, n_arms: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-arm pull counts and reward sums of h, summed in record order; an
    arm >= n_arms is a ConfigError."""
    _, actions, rewards = h.columns()
    if actions.size and actions.max() >= n_arms:
        raise ConfigError("arm %d out of range [0, %d)" % (actions.max(), n_arms))
    counts = np.zeros(n_arms)
    sums = np.zeros(n_arms)
    np.add.at(counts, actions, 1.0)
    np.add.at(sums, actions, rewards)
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
    rows = sigma_delta[pulled]                                     # |P| x K
    s = rows[:, pulled]
    s.flat[::pulled.size + 1] += sigma_noise ** 2 / counts[pulled]
    # chol_factor has checked s for finiteness; dpotrs skips cho_solve's
    # argument checks on this per-draw path
    solved, info = _linalg.dpotrs(chol_factor(s), rows, lower=1)
    if info != 0:
        raise NumericalError("dpotrs failed (info=%d)" % info)
    gain = solved.T                                                # K x |P|
    mean = prior_mean + gain @ (ybar - prior_mean[pulled])
    cov = sigma_delta - gain @ rows
    return mean, cov


def conditional_r_given_theta(cfg: HierarchyConfig, fm: FeatureMap,
                              h_i, theta_sample: np.ndarray,
                              target_x: np.ndarray) -> GaussianBelief:
    """P(r_i | theta, H_i): prior N(Phi_i theta, Sigma_delta) updated by the
    task's own records.  h_i is a per-task history view (History restricted
    to one task, or any iterable of that task's records)."""
    _require_model(cfg, fm)
    theta_sample = np.asarray(theta_sample, dtype=float)
    if theta_sample.shape != (cfg.dim,):
        raise ConfigError("theta_sample must have length d=%d" % cfg.dim)
    phi_t = fm.task_features(target_x)
    counts, sums = _arm_stats(History(h_i), fm.n_arms)
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
    _require_model(cfg, fm)
    phi_t = fm.task_features(target_x)
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
        _require_model(cfg, fm)
        self._effect_var = diagonal_effect_variances(cfg)
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

    def add_many(self, task_ids: np.ndarray, arms: np.ndarray,
                 rewards: np.ndarray) -> None:
        """add() row by row for rows of distinct tasks, bit for bit: each
        row's rank-one terms are formed element-wise as add() forms them and
        summed onto the statistics in row order by one sequential cumsum."""
        rows = np.array([self._index[t] for t in task_ids.tolist()],
                        dtype=np.int64)
        if np.unique(rows).size != rows.size:
            raise ConfigError("add_many needs distinct task ids")
        n0 = self.counts[rows, arms]
        s0 = self.sums[rows, arms]
        n1, s1 = n0 + 1.0, s0 + rewards
        self.counts[rows, arms] = n1
        self.sums[rows, arms] = s1
        v = self._effect_var[arms]
        m = self.prior_arm_means[rows, arms]
        d0 = self._noise_sq + v * n0
        d1 = self._noise_sq + v * n1
        phi = self.features[rows, arms]
        outer = (n1 / d1 - n0 / d0)[:, None, None] \
            * (phi[:, :, None] * phi[:, None, :])
        resid = ((s1 - n1 * m) / d1 - (s0 - n0 * m) / d0)[:, None] * phi
        self.phi_vinv_phi[...] = np.cumsum(
            np.concatenate([self.phi_vinv_phi[None], outer]), axis=0)[-1]
        self.phi_vinv_resid[...] = np.cumsum(
            np.concatenate([self.phi_vinv_resid[None], resid]), axis=0)[-1]


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
    metadata_lookup, a mapping or a callable, resolves task_id -> x for
    history rows; a GPConfig has no feature map whose registry could, so it
    is required whenever h is nonempty.  Dense-only, capped at 5000 records.
    """
    target_x = np.asarray(target_x, dtype=float)
    k = gp.n_arms
    mu_t = np.array([fn(target_x) for fn in gp.mean_fns])
    k_t = np.diag([gp.kernel_fns[a](target_x, target_x) for a in range(k)])
    if len(h) == 0:
        return GaussianBelief(mu_t, k_t + gp.sigma_delta)
    n = len(h)
    if n > GP_MAX_RECORDS:
        raise ConfigError(
            "GP posterior is dense-only and capped at %d records (got %d)"
            % (GP_MAX_RECORDS, n))
    if metadata_lookup is None:
        raise ConfigError("posterior_r_gp needs metadata_lookup for history rows")
    lookup = metadata_lookup if callable(metadata_lookup) \
        else (lambda tid: metadata_lookup[tid])
    tasks, actions, rewards = h.columns()
    xs = [np.asarray(lookup(t), dtype=float) for t in tasks.tolist()]

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
