"""Independent reference implementations used to pin the package's math.

Everything here is written with explicit loops and plain dense linear
algebra (np.linalg.solve on fully materialized joints) so that agreement
with the package is evidence, not circularity.  Nothing in this module may
import from hierbandit.
"""

import math

import numpy as np


def joint_posterior_oracle(mu_theta, sigma_theta, sigma_delta, sigma_noise,
                           records, target_phi):
    """Exact posterior of one task's arm-mean vector by joint conditioning.

    records: list of (task_id, phi_row, reward, arm) for every observed
    interaction, in any order.  target_phi: K x d feature matrix of the
    target task, whose task_id is taken to be the string "__target__" unless
    a record carries the same id object; callers pass records whose task_id
    equals the target's id for within-task rows.

    The joint normal over (r_target, R_1..R_n) is materialized entry by
    entry from the kernel
        cov = phi_a' Sigma_theta phi_b + Sigma_delta[a, b] * 1{same task}
    plus sigma_noise^2 on the reward diagonal, then conditioned with
    np.linalg.solve.
    """
    mu_theta = np.asarray(mu_theta, dtype=float)
    sigma_theta = np.asarray(sigma_theta, dtype=float)
    sigma_delta = np.asarray(sigma_delta, dtype=float)
    target_phi = np.asarray(target_phi, dtype=float)
    k = target_phi.shape[0]
    n = len(records)

    prior_mean = np.zeros(k + n)
    for a in range(k):
        prior_mean[a] = float(target_phi[a] @ mu_theta)
    for j, (_, phi_row, _, _) in enumerate(records):
        prior_mean[k + j] = float(np.asarray(phi_row) @ mu_theta)

    def entry(phi_a, arm_a, task_a, phi_b, arm_b, task_b):
        val = float(np.asarray(phi_a) @ sigma_theta @ np.asarray(phi_b))
        if task_a == task_b:
            val += float(sigma_delta[arm_a, arm_b])
        return val

    target_id = "__target__"
    cov = np.zeros((k + n, k + n))
    for a in range(k):
        for b in range(k):
            cov[a, b] = entry(target_phi[a], a, target_id,
                              target_phi[b], b, target_id)
    for j, (tid, phi_row, _, arm) in enumerate(records):
        for a in range(k):
            cov[a, k + j] = entry(target_phi[a], a, target_id,
                                  phi_row, arm, tid)
            cov[k + j, a] = cov[a, k + j]
        for m, (tid2, phi2, _, arm2) in enumerate(records):
            cov[k + j, k + m] = entry(phi_row, arm, tid, phi2, arm2, tid2)
        cov[k + j, k + j] += sigma_noise ** 2

    if n == 0:
        return prior_mean[:k], cov[:k, :k]
    obs = np.array([float(r) for (_, _, r, _) in records])
    v_rr = cov[k:, k:]
    c_tr = cov[:k, k:]
    gain = np.linalg.solve(v_rr, c_tr.T).T
    post_mean = prior_mean[:k] + gain @ (obs - prior_mean[k:])
    post_cov = cov[:k, :k] - gain @ c_tr.T
    return post_mean, post_cov


def target_records(records, target_task_id, target_phi):
    """Tag within-task rows so joint_posterior_oracle sees shared effects.

    Rewrites record task ids: rows belonging to target_task_id get the
    oracle's reserved "__target__" id, everything else keeps its own id.
    """
    out = []
    for tid, phi_row, reward, arm in records:
        new_id = "__target__" if tid == target_task_id else tid
        out.append((new_id, phi_row, reward, arm))
    return out


def theta_posterior_oracle(mu_theta, sigma_theta, sigma_delta, sigma_noise,
                           records):
    """Exact posterior of the shared coefficients by joint conditioning.

    Joint over (theta, R): cov(theta, R_j) = Sigma_theta phi_j and
    cov(R_l, R_m) as in joint_posterior_oracle.
    """
    mu_theta = np.asarray(mu_theta, dtype=float)
    sigma_theta = np.asarray(sigma_theta, dtype=float)
    sigma_delta = np.asarray(sigma_delta, dtype=float)
    d = mu_theta.shape[0]
    n = len(records)
    if n == 0:
        return mu_theta.copy(), sigma_theta.copy()

    mean_r = np.zeros(n)
    cross = np.zeros((d, n))
    v_rr = np.zeros((n, n))
    for j, (tid, phi_row, _, arm) in enumerate(records):
        phi_row = np.asarray(phi_row, dtype=float)
        mean_r[j] = float(phi_row @ mu_theta)
        cross[:, j] = sigma_theta @ phi_row
        for m, (tid2, phi2, _, arm2) in enumerate(records):
            phi2 = np.asarray(phi2, dtype=float)
            v_rr[j, m] = float(phi_row @ sigma_theta @ phi2)
            if tid == tid2:
                v_rr[j, m] += float(sigma_delta[arm, arm2])
        v_rr[j, j] += sigma_noise ** 2
    obs = np.array([float(r) for (_, _, r, _) in records])
    gain = np.linalg.solve(v_rr, cross.T).T
    post_mean = mu_theta + gain @ (obs - mean_r)
    post_cov = sigma_theta - gain @ cross.T
    return post_mean, post_cov


def scalar_conjugate_oracle(prior_mean, prior_var, noise_var, observations):
    """Gaussian mean with known noise, updated one observation at a time."""
    mean = float(prior_mean)
    var = float(prior_var)
    for y in observations:
        total = var + noise_var
        mean = mean + var * (float(y) - mean) / total
        var = var * noise_var / total
    return mean, var


def ridge_posterior_oracle(x_rows, y, prior_mean, prior_cov, noise_var):
    """Bayesian linear regression posterior in information form."""
    x_rows = np.asarray(x_rows, dtype=float)
    y = np.asarray(y, dtype=float)
    prior_mean = np.asarray(prior_mean, dtype=float)
    prior_prec = np.linalg.inv(np.asarray(prior_cov, dtype=float))
    prec = prior_prec + x_rows.T @ x_rows / noise_var
    cov = np.linalg.inv(prec)
    mean = cov @ (prior_prec @ prior_mean + x_rows.T @ y / noise_var)
    return mean, cov


def normal_log_pdf_oracle(x, mean, var):
    return -0.5 * (math.log(2.0 * math.pi * var) + (x - mean) ** 2 / var)


def logistic(z):
    return 1.0 / (1.0 + math.exp(-z))


def bblm_counts_log_marginal_oracle(theta, phi_rows, successes, failures,
                                    psi, mean_clip=1e-6):
    """log p(counts | theta) for the Beta-Bernoulli model, loop form.

    For each (task, arm) row with mean mu = logistic(phi' theta) clipped to
    [mean_clip, 1 - mean_clip] and shapes (mu/psi, (1-mu)/psi), the arm-mean
    integral of the Bernoulli likelihood gives
        B(alpha1 + s, alpha2 + f) / B(alpha1, alpha2).
    """
    def log_beta_fn(a, b):
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    theta = np.asarray(theta, dtype=float)
    total = 0.0
    for phi_row, s, f in zip(phi_rows, successes, failures):
        mu = logistic(float(np.asarray(phi_row) @ theta))
        mu = min(max(mu, mean_clip), 1.0 - mean_clip)
        a1 = mu / psi
        a2 = (1.0 - mu) / psi
        total += log_beta_fn(a1 + s, a2 + f) - log_beta_fn(a1, a2)
    return total


def quadrature_density_oracle(grid, log_density):
    """Normalize pointwise log densities on a grid into a trapezoid density."""
    grid = np.asarray(grid, dtype=float)
    logs = np.asarray([log_density(g) for g in grid], dtype=float)
    logs = logs - logs.max()
    dens = np.exp(logs)
    dens = dens / np.trapezoid(dens, grid)
    return dens


def tv_distance_from_samples(samples, grid, density):
    """Total variation between a histogram of samples and a grid density.

    Both are reduced to probabilities of the histogram bins; the density is
    integrated bin by bin with the trapezoid rule on the fine grid.
    """
    samples = np.asarray(samples, dtype=float)
    grid = np.asarray(grid, dtype=float)
    density = np.asarray(density, dtype=float)
    edges = np.linspace(grid[0], grid[-1], 16)
    counts, _ = np.histogram(np.clip(samples, grid[0], grid[-1]), bins=edges)
    emp = counts / counts.sum()
    model = np.zeros(len(edges) - 1)
    for b in range(len(edges) - 1):
        inside = (grid >= edges[b]) & (grid <= edges[b + 1])
        if inside.sum() >= 2:
            model[b] = np.trapezoid(density[inside], grid[inside])
    model = model / model.sum()
    return 0.5 * float(np.abs(emp - model).sum())


def indicator_feature_oracle(x, arm, n_arms, dim):
    """Hand-rolled feature layout: one-hot arm indicator then the arm's
    metadata block copied to the shared tail positions."""
    out = [0.0] * dim
    out[arm] = 1.0
    block = dim - n_arms
    for j in range(block):
        out[n_arms + j] = float(x[arm * block + j])
    return np.array(out)


def theta_mcmc_history_oracle(mu_theta, sigma_theta, psi, fm, records, rng,
                              n_samples, burn_in, initial_step=0.25,
                              mean_clip=1e-6, acceptance_target=0.3,
                              start=None, log_step=None, sweep_offset=0,
                              adapt_kept=False):
    """Frozen copy of the History-based collapsed Metropolis chain on theta.

    Tasks are those carrying records, in sorted id order (all registered
    tasks of fm when there are none); slot counts are tallied record by
    record, a reward >= 0.5 a success.  The log target of a state is its log
    prior, by np.linalg.solve on the prior's Cholesky factor, plus
    bblm_counts_log_marginal_oracle of the counts, the latent arm means
    integrated out.  Every sweep draws standard_normal(d) for the proposal,
    then one uniform for the accept test, and recomputes the targets of
    both states.

    The chain starts at theta = start (default mu_theta) with log proposal
    scale log_step (default log(initial_step)).  The first burn_in sweeps
    adapt the scale, sweep j (0-based) with gain (sweep_offset + j + 1)^-0.6;
    the n_samples kept sweeps after them adapt only when adapt_kept is set.
    Returns (samples, acceptance rate of the kept sweeps, final proposal
    scale, final log proposal scale).
    """
    mu_theta = np.asarray(mu_theta, dtype=float)
    records = list(records)
    d = mu_theta.shape[0]
    k = fm.n_arms
    task_ids = sorted({rec.task_id for rec in records}) if records else []
    if not task_ids:
        task_ids = sorted(fm.known_tasks())
    row_of = {tid: j for j, tid in enumerate(task_ids)}
    phi_rows = np.zeros((len(task_ids) * k, d))
    for tid, j in row_of.items():
        phi_rows[j * k:(j + 1) * k] = fm.task_features(
            np.asarray(fm.metadata_for(tid), dtype=float))
    successes = [0.0] * (len(task_ids) * k)
    failures = [0.0] * (len(task_ids) * k)
    for rec in records:
        slot = row_of[rec.task_id] * k + rec.action
        if rec.reward >= 0.5:
            successes[slot] += 1.0
        else:
            failures[slot] += 1.0

    prior_lower = np.linalg.cholesky(np.asarray(sigma_theta, dtype=float))

    def log_target(t):
        white = np.linalg.solve(prior_lower, t - mu_theta)
        return -0.5 * float(white @ white) + bblm_counts_log_marginal_oracle(
            t, phi_rows, successes, failures, psi, mean_clip)

    theta = mu_theta.copy() if start is None \
        else np.asarray(start, dtype=float).copy()
    if log_step is None:
        log_step = np.log(initial_step)
    samples = np.zeros((n_samples, d))
    accepted_post = 0
    for sweep in range(burn_in + n_samples):
        proposal = theta + np.exp(log_step) * rng.standard_normal(d)
        accept = np.log(rng.uniform()) \
            < log_target(proposal) - log_target(theta)
        if accept:
            theta = proposal
        if sweep < burn_in or adapt_kept:
            gamma = (sweep_offset + sweep + 1.0) ** -0.6
            log_step += gamma * ((1.0 if accept else 0.0) - acceptance_target)
        if sweep >= burn_in:
            accepted_post += int(accept)
            samples[sweep - burn_in] = theta
    return (samples, accepted_post / float(n_samples),
            float(np.exp(log_step)), log_step)


def ledger_series_oracle(rows, algorithm, view):
    """(seeds, index, matrix) of one algorithm's ledger rows under a view,
    by the aggregation that concatenated every column of the algorithm's
    rows: one np.unique over the seeds and one over the index keys, then
    np.add.at into the seed x index matrix in insertion order.  rows are
    (algorithm, seed, task_id, round, arm, reward, inst_regret) tuples in
    insertion order; view is "per_round_concurrent" (mean over the round's
    rows) or "per_task_sequential" (sum over the task's rows)."""
    mine = [row for row in rows if row[0] == algorithm]
    seed_col = np.array([row[1] for row in mine], dtype=np.int64)
    task_col = np.array([row[2] for row in mine], dtype=np.int64)
    round_col = np.array([row[3] for row in mine], dtype=np.int64)
    regret = np.array([row[6] for row in mine], dtype=float)
    seeds, seed_ix = np.unique(seed_col, return_inverse=True)
    key = round_col if view == "per_round_concurrent" else task_col + 1
    index, key_ix = np.unique(key, return_inverse=True)
    matrix = np.zeros((seeds.shape[0], index.shape[0]))
    counts = np.zeros_like(matrix)
    np.add.at(matrix, (seed_ix, key_ix), regret)
    np.add.at(counts, (seed_ix, key_ix), 1.0)
    if view == "per_round_concurrent":
        matrix = matrix / counts
    return seeds, index, matrix


def seed_totals_oracle(rows, algorithm):
    """{seed: total inst_regret} of one algorithm's ledger rows, each a
    boolean-mask sum over the algorithm's concatenated regret column."""
    mine = [row for row in rows if row[0] == algorithm]
    seed_col = np.array([row[1] for row in mine], dtype=np.int64)
    regret = np.array([row[6] for row in mine], dtype=float)
    return {int(s): float(regret[seed_col == s].sum())
            for s in np.unique(seed_col)}


def ledger_text_oracle(runs):
    """ledger.csv text (header included) of runs, a list of (algorithm,
    seed, (task_id, round, arm, reward, inst_regret)) in ledger order, by
    the row-at-a-time writer: every row converted to Python objects and
    formatted whole with "%s,%d,%d,%d,%d,%.17g,%.17g\n"."""
    fmt = "%s,%d,%d,%d,%d,%.17g,%.17g\n".__mod__
    lines = ["algorithm,seed,task_id,round,arm,reward,inst_regret\n"]
    for algorithm, seed, cols in runs:
        lines.extend(map(fmt, zip([algorithm] * len(cols[0]),
                                  [seed] * len(cols[0]),
                                  *(np.asarray(c).tolist() for c in cols))))
    return "".join(lines)


def schedule_pairs_oracle(kind, n_tasks, horizon, stream=None):
    """(task_id, round_within_task) pairs of a schedule in play order, rounds
    1-based per task, by explicit loops: sequential plays every round of a
    task before the next task, concurrent round 1 of every task, then round
    2, ...; custom follows stream, counting each task's visits."""
    pairs = []
    if kind == "sequential":
        for task in range(n_tasks):
            for rnd in range(1, horizon + 1):
                pairs.append((task, rnd))
    elif kind == "concurrent":
        for rnd in range(1, horizon + 1):
            for task in range(n_tasks):
                pairs.append((task, rnd))
    else:
        seen = [0] * n_tasks
        for task in stream:
            seen[task] += 1
            pairs.append((task, seen[task]))
    return pairs


def bernoulli_priors_oracle(n_arms, dim, psi, scale, true_theta, rng, n_mc,
                            n_candidates=10, mean_range=(0.1, 0.9),
                            mean_clip=1e-6):
    """Moment-matched Bernoulli baseline priors from whole-array Monte Carlo.

    The reference pass for the blocked one: every metadata draw is made by
    one standard_normal((n_mc, p)) call and held at once.  Pass 1 averages
    the clipped logistic arm means over metadata at true_theta; pass 2 draws
    theta (scaled by sqrt(scale)) and then its metadata.  Reward moments are
    het * E[l(1-l)] + Var(l) with het = psi / (1 + psi).  Returns
    (marginal_mean, marginal_variance, marginal (alpha1, alpha2), candidates
    as tuples of per-arm (alpha1, alpha2)): candidate 0 moment-matches pass
    1 per arm, the others draw uniform means at precision psi.
    """
    from scipy.special import expit

    def clipped(z):
        return np.clip(expit(z), mean_clip, 1.0 - mean_clip)

    def shapes(mu, precision):
        return (mu / precision, (1.0 - mu) / precision)

    def precision_for(mu, var):
        return 1.0 / (mu * (1.0 - mu) / var - 1.0)

    d, k = dim, n_arms
    p = k * (d - k)
    het = psi / (1.0 + psi)
    true_theta = np.asarray(true_theta, dtype=float)
    tail = true_theta[k:]
    metadata = rng.standard_normal((n_mc, p))
    lin = np.zeros((n_mc, k))
    for a in range(k):
        lin[:, a] = true_theta[a] + metadata[:, a * (d - k):(a + 1) * (d - k)] @ tail
    probs = clipped(lin)
    cond_mean = probs.mean(axis=0)
    cond_var = het * (probs * (1.0 - probs)).mean(axis=0) + probs.var(axis=0)

    thetas = rng.standard_normal((n_mc, d)) * np.sqrt(scale)
    meta2 = rng.standard_normal((n_mc, p))
    lin2 = np.zeros((n_mc, k))
    for a in range(k):
        lin2[:, a] = thetas[:, a] + np.einsum(
            "nj,nj->n", meta2[:, a * (d - k):(a + 1) * (d - k)], thetas[:, k:])
    probs2 = clipped(lin2)
    marg_mean = float(probs2.mean())
    marg_var = float(het * (probs2 * (1.0 - probs2)).mean() + probs2.var())

    truth = []
    for a in range(k):
        mu = float(np.clip(cond_mean[a], mean_clip, 1.0 - mean_clip))
        cap = mu * (1.0 - mu)
        var = min(max(float(cond_var[a]), 1e-12), cap * (1.0 - 1e-9))
        truth.append(shapes(mu, precision_for(mu, var)))
    candidates = [tuple(truth)]
    for _ in range(n_candidates - 1):
        candidates.append(tuple(shapes(float(rng.uniform(*mean_range)), psi)
                                for _a in range(k)))
    return (marg_mean, marg_var,
            shapes(marg_mean, precision_for(marg_mean, marg_var)),
            tuple(candidates))
