"""Shared builders for randomized test instances."""

import numpy as np

from hierbandit.core import (FeatureMap, HierarchyConfig, History,
                             InteractionRecord)


def random_cov(rng, k, scale=1.0):
    a = rng.standard_normal((k, k))
    return scale * (a @ a.T / k + 0.5 * np.eye(k))


EFFECT_KINDS = ("diag", "dense", "rank-one", "zero")


def effect_cov(rng, k, kind):
    """A K x K Sigma_delta of one of EFFECT_KINDS: diagonal, dense and
    nonsingular, rank one (singular for K >= 2), or all zero."""
    if kind == "diag":
        return np.diag(rng.uniform(0.05, 1.0, size=k))
    if kind == "dense":
        return random_cov(rng, k, scale=0.6)
    if kind == "rank-one":
        v = rng.standard_normal(k)
        return np.outer(v, v)
    return np.zeros((k, k))


def random_instance(rng, max_tasks=6, max_records_per_task=5, max_arms=3,
                    max_dim=4, diag_prob=0.5):
    """Random small LMM instance: config, feature map, history, target task.

    Metadata follows the indicator layout, so p = K * (d - K).  The target
    task is always task 0; roughly half the draws give it no records so the
    empty-history branch stays covered.
    """
    k = int(rng.integers(1, max_arms + 1))
    d = int(rng.integers(k, max_dim + 1))
    n_tasks = int(rng.integers(1, max_tasks + 1))
    p = k * (d - k)

    metadata = {tid: rng.standard_normal(p) for tid in range(n_tasks)}
    fm = FeatureMap.indicator_with_metadata(k, d, task_metadata=metadata)
    if rng.random() < diag_prob:
        sigma_delta = np.diag(rng.uniform(0.05, 1.0, size=k))
    else:
        sigma_delta = random_cov(rng, k, scale=0.6)
    cfg = HierarchyConfig(
        mu_theta=rng.standard_normal(d) * 0.3,
        sigma_theta=random_cov(rng, d, scale=0.8),
        sigma_delta=sigma_delta,
        sigma_noise=float(rng.uniform(0.3, 1.5)),
    )

    h = History()
    for tid in range(n_tasks):
        n_rec = int(rng.integers(0, max_records_per_task + 1))
        if tid == 0 and rng.random() < 0.5:
            n_rec = 0
        for t in range(n_rec):
            h.append(InteractionRecord(
                task_id=tid, action=int(rng.integers(0, k)),
                reward=float(rng.standard_normal()), round_within_task=t + 1))
    return cfg, fm, h, 0, metadata[0]


def oracle_record_list(fm, h):
    """History rows in the (task_id, phi_row, reward, arm) oracle format."""
    out = []
    for rec in h:
        phi_row = fm.feature(fm.metadata_for(rec.task_id), rec.action)
        out.append((rec.task_id, phi_row, rec.reward, rec.action))
    return out


def dense_effect_rows(cfg, fm, h):
    """(tasks, actions, phi, resid, V) of h's rows: each row's feature
    vector, its residual R - phi^T mu_theta, and the dense n x n
    effect-plus-noise covariance
    V[l, m] = Sigma_delta[A_l, A_m] 1{task(l) == task(m)} + sigma^2 1{l == m}."""
    tasks, actions, rewards = h.columns()
    phi = np.array([row for _, row, _, _ in oracle_record_list(fm, h)])
    same = tasks[:, None] == tasks[None, :]
    v = cfg.sigma_delta[np.ix_(actions, actions)] * same \
        + cfg.sigma_noise ** 2 * np.eye(len(h))
    return tasks, actions, phi, rewards - phi @ cfg.mu_theta, v
