"""Multi-task Thompson sampling on Bayesian hierarchical reward models.

A population of bandit tasks shares structure through a hierarchy: task
parameters are drawn around shared latent coefficients, so evidence from any
task sharpens beliefs about all of them.  This package provides exact
posterior inference for the Gaussian linear mixed reward model (dense and
blocked routes), an MCMC sampler for a Beta-logistic Bernoulli model, a
mixed-effect Gaussian-process generalization, Thompson-sampling agents built
on those posteriors alongside flat and two-level baselines, and a
reproducible simulation benchmark that measures Bayes regret and
oracle-adjusted regret across task populations.
"""

from ._version import __version__
from .agents import AgentContext, Policy, algorithm_names, make_policy
from .bench import (AlgorithmSpec, ExperimentConfig, run_experiment,
                    run_pair, simulate_ledger, simulate_run)
from .bernoulli import (BetaParams, ThetaChain, beta_from_mean_precision,
                        bblm_prior_for_task, conjugate_update,
                        precision_for_variance, sample_theta_mcmc)
from .core import (FeatureMap, HierarchyConfig, History, InteractionRecord,
                   TaskInstance, stack_history_features)
from .envs import (InteractionSchedule, Population, PopulationSpec,
                   RewardTable, agent_rng, draw_reward,
                   generate_misspecified, generate_population, make_schedule,
                   noise_rng, population_to_csv)
from .errors import ConfigError, NumericalError, ScheduleError
from .gaussian import (GaussianBelief, GPConfig, ThetaPosterior,
                       conditional_r_given_theta, gaussian_obs_update,
                       marginal_task_belief, posterior_r_gp,
                       posterior_r_naive, posterior_r_woodbury,
                       posterior_theta)
from .metrics import (Curve, RegretLedger, bayes_regret_curve,
                      instantaneous_regret, multi_task_regret_curve)
from .priors import (DerivedPriors, VarianceFit, derive_baseline_priors,
                     fit_variance_components, log_marginal_likelihood)
from .suites import CheckResult, run_suite, run_suites

__all__ = [
    "__version__",
    "AgentContext", "Policy", "algorithm_names", "make_policy",
    "AlgorithmSpec", "ExperimentConfig", "run_experiment", "run_pair",
    "simulate_ledger", "simulate_run",
    "BetaParams", "ThetaChain", "beta_from_mean_precision",
    "bblm_prior_for_task", "conjugate_update", "precision_for_variance",
    "sample_theta_mcmc",
    "FeatureMap", "HierarchyConfig", "History", "InteractionRecord",
    "TaskInstance", "stack_history_features",
    "InteractionSchedule", "Population", "PopulationSpec", "RewardTable",
    "agent_rng", "draw_reward", "generate_misspecified",
    "generate_population", "make_schedule", "noise_rng", "population_to_csv",
    "ConfigError", "NumericalError", "ScheduleError",
    "GaussianBelief", "GPConfig", "ThetaPosterior",
    "conditional_r_given_theta", "gaussian_obs_update",
    "marginal_task_belief", "posterior_r_gp", "posterior_r_naive",
    "posterior_r_woodbury", "posterior_theta",
    "Curve", "RegretLedger", "bayes_regret_curve", "instantaneous_regret",
    "multi_task_regret_curve",
    "DerivedPriors", "VarianceFit", "derive_baseline_priors",
    "fit_variance_components", "log_marginal_likelihood",
    "CheckResult", "run_suite", "run_suites",
]
