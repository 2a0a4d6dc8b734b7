"""Posterior sampling for the logistic Beta-Bernoulli hierarchy.

The binary-reward model has no conjugate posterior over the shared
coefficients, so the library samples it with a collapsed Metropolis chain:
the arm means are integrated out in closed form (each arm's counts have a
Beta-Binomial marginal given the coefficients), and the coefficient vector
moves by an adapted random walk against that marginal.  This script
generates a population, collects uniformly random pulls, runs the chain,
and compares the posterior to the truth.
"""

import numpy as np

from hierbandit.bernoulli import sample_theta_mcmc
from hierbandit.core import History, InteractionRecord
from hierbandit.envs import PopulationSpec, generate_population, noise_rng

N_TASKS = 60
HORIZON = 40
N_ARMS = 2
DIM = 3
SEED = 5


def main():
    spec = PopulationSpec(n_tasks=N_TASKS, horizon=HORIZON, n_arms=N_ARMS,
                          dim=DIM, reward_kind="bernoulli", psi=1.0,
                          seed=SEED)
    pop = generate_population(spec)
    rng = noise_rng(SEED)

    h = History()
    for task in pop.tasks:
        arms = rng.integers(0, N_ARMS, size=HORIZON)
        u = rng.random(HORIZON)
        for t in range(HORIZON):
            a = int(arms[t])
            h.append(InteractionRecord(task.task_id, a,
                                       float(u[t] < task.true_means[a]),
                                       t + 1))
    print("collected %d binary rewards across %d tasks" % (len(h), N_TASKS))

    chain = sample_theta_mcmc(spec.hierarchy_config(), pop.feature_map, h,
                              np.random.default_rng(SEED + 1),
                              n_samples=4000, burn_in=2000)
    print("chain: %d kept samples, acceptance rate %.3f"
          % (chain.samples.shape[0], chain.acceptance_rate))
    for w in chain.warnings:
        print("warning: %s" % w)

    print()
    print("shared coefficients, true vs chain:")
    for j in range(DIM):
        z = (chain.mean[j] - pop.theta[j]) / chain.std[j]
        print("  theta[%d]  true %+.4f   chain %+.4f +- %.4f   z = %+.2f"
              % (j, pop.theta[j], chain.mean[j], chain.std[j], z))


if __name__ == "__main__":
    main()
