"""Data-model tests: feature maps, histories, hierarchy config."""

import inspect
import math
from contextlib import nullcontext

import numpy as np
import pytest

import hierbandit
from hierbandit.core import (FeatureMap, HierarchyConfig, History,
                             InteractionRecord, TaskInstance)
from hierbandit.errors import ConfigError
from hierbandit.gaussian import _Stacked

from oracles import indicator_feature_oracle


def test_indicator_only_map_is_identity():
    fm = FeatureMap.indicator_with_metadata(n_arms=2, dim=2)
    x = np.zeros(0)
    np.testing.assert_array_equal(fm.task_features(x), np.eye(2))


def test_custom_scalar_map():
    fm = FeatureMap.custom(n_arms=1, dim=1, p=1,
                           fn=lambda x, a: np.array([x[0]]))
    np.testing.assert_array_equal(fm.task_features(np.array([3.0])),
                                  np.array([[3.0]]))


def test_indicator_map_one_hot_block():
    k, d = 8, 15
    rng = np.random.default_rng(0)
    x = rng.standard_normal(k * (d - k))
    fm = FeatureMap.indicator_with_metadata(n_arms=k, dim=d)
    mat = fm.task_features(x)
    np.testing.assert_array_equal(mat[:, :k], np.eye(k))
    for a in range(k):
        np.testing.assert_array_equal(
            mat[a], indicator_feature_oracle(x, a, k, d))


def test_indicator_map_matches_layout_oracle_randomized():
    rng = np.random.default_rng(1)
    for _ in range(25):
        k = int(rng.integers(1, 5))
        d = int(rng.integers(k, k + 4))
        x = rng.standard_normal(k * (d - k))
        fm = FeatureMap.indicator_with_metadata(n_arms=k, dim=d)
        for a in range(k):
            np.testing.assert_array_equal(
                fm.feature(x, a), indicator_feature_oracle(x, a, k, d))


def test_feature_map_validation():
    with pytest.raises(ConfigError):
        FeatureMap.indicator_with_metadata(n_arms=3, dim=2)
    with pytest.raises(ConfigError):
        FeatureMap("indicator_metadata", 0, 1, 0)
    with pytest.raises(ConfigError):
        FeatureMap("mystery", 2, 2, 0)
    with pytest.raises(ConfigError):
        FeatureMap.custom(2, 2, 0, fn=None)
    fm = FeatureMap.indicator_with_metadata(n_arms=2, dim=3)
    with pytest.raises(ConfigError):
        fm.feature(np.zeros(5), 0)
    with pytest.raises(ConfigError):
        fm.feature(np.zeros(2), 2)


def test_custom_map_shape_checked():
    fm = FeatureMap.custom(n_arms=2, dim=3, p=1,
                           fn=lambda x, a: np.zeros(4))
    with pytest.raises(ConfigError):
        fm.feature(np.zeros(1), 0)


def test_task_registry():
    fm = FeatureMap.indicator_with_metadata(
        n_arms=2, dim=3, task_metadata={0: np.array([1.0, 2.0])})
    assert fm.known_tasks() == (0,)
    np.testing.assert_array_equal(fm.metadata_for(0), [1.0, 2.0])
    with pytest.raises(KeyError):
        fm.metadata_for(7)
    with pytest.raises(ConfigError):
        FeatureMap.indicator_with_metadata(
            n_arms=2, dim=3, task_metadata={0: np.zeros(3)})


def test_stack_empty_history():
    fm = FeatureMap.indicator_with_metadata(n_arms=2, dim=3)
    stacked = _Stacked(fm, History())
    phi, rewards = stacked.phi, stacked.rewards
    assert phi.shape == (0, 3)
    assert rewards.shape == (0,)


def test_stack_single_record():
    fm = FeatureMap.indicator_with_metadata(n_arms=2, dim=2,
                                            task_metadata={0: np.zeros(0)})
    h = History([InteractionRecord(task_id=0, action=1, reward=0.5,
                                   round_within_task=1)])
    stacked = _Stacked(fm, h)
    phi, rewards = stacked.phi, stacked.rewards
    np.testing.assert_array_equal(phi, [[0.0, 1.0]])
    np.testing.assert_array_equal(rewards, [0.5])


def test_stack_preserves_record_order():
    rng = np.random.default_rng(2)
    k, d = 2, 4
    metadata = {0: rng.standard_normal(k * (d - k)),
                1: rng.standard_normal(k * (d - k))}
    fm = FeatureMap.indicator_with_metadata(n_arms=k, dim=d,
                                            task_metadata=metadata)
    recs = [InteractionRecord(0, 1, 0.3, 1), InteractionRecord(1, 0, -0.2, 1),
            InteractionRecord(0, 0, 1.1, 2)]
    stacked = _Stacked(fm, History(recs))
    phi, rewards = stacked.phi, stacked.rewards
    for j, rec in enumerate(recs):
        np.testing.assert_array_equal(
            phi[j], indicator_feature_oracle(metadata[rec.task_id],
                                             rec.action, k, d))
        assert rewards[j] == rec.reward


def test_stack_rejects_out_of_range_arm_and_unregistered_task():
    fm = FeatureMap.indicator_with_metadata(
        n_arms=2, dim=3, task_metadata={0: np.array([0.7, -0.4])})
    ok = InteractionRecord(0, 1, 1.0, 1)
    with pytest.raises(ConfigError, match="out of range"):
        _Stacked(fm, History([ok, InteractionRecord(0, 2, 1.0, 2)]))
    with pytest.raises(KeyError, match="no registered metadata"):
        _Stacked(fm, History([ok, InteractionRecord(5, 0, 1.0, 1)]))


def test_history_columns():
    tasks, actions, rewards = History().columns()
    for col, dtype in ((tasks, np.int64), (actions, np.int64),
                       (rewards, np.float64)):
        assert col.shape == (0,) and col.dtype == dtype
    recs = [InteractionRecord(3, 1, 0.25, 1), InteractionRecord(0, 0, -1.5, 1),
            InteractionRecord(3, 2, 1, 2)]
    tasks, actions, rewards = History(recs).columns()
    assert (tasks.dtype, actions.dtype, rewards.dtype) \
        == (np.int64, np.int64, np.float64)
    assert tasks.tolist() == [3, 0, 3]
    assert actions.tolist() == [1, 0, 2]
    assert rewards.tolist() == [0.25, -1.5, 1.0]


def test_history_views():
    recs = [InteractionRecord(1, 0, 0.1, 1), InteractionRecord(0, 1, 0.2, 1),
            InteractionRecord(1, 1, 0.3, 2)]
    h = History(recs[:1])
    h.append(recs[1])
    h.extend(recs[2:])
    assert len(h) == 3
    assert h.task_ids() == (1, 0)
    assert h.task_records(1) == (recs[0], recs[2])
    assert h.task_records(3) == ()
    assert list(h) == recs


def test_record_invariants():
    with pytest.raises(ConfigError):
        InteractionRecord(task_id=0, action=-1, reward=0.0,
                          round_within_task=1)
    with pytest.raises(ConfigError):
        InteractionRecord(task_id=0, action=0, reward=0.0,
                          round_within_task=0)


@pytest.mark.parametrize("reward", [float("nan"), float("inf"), True])
def test_record_reward_must_be_a_finite_number(reward):
    with pytest.raises(ConfigError, match="reward must be a finite number"):
        InteractionRecord(task_id=0, action=0, reward=reward,
                          round_within_task=1)


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("field", ["metadata", "true_means"])
def test_task_instance_refuses_non_finite_arrays(field, bad):
    arrays = {"metadata": np.zeros(2), "true_means": np.zeros(3)}
    arrays[field][1] = bad
    with pytest.raises(ConfigError, match="task %s must be finite" % field):
        TaskInstance(task_id=0, **arrays)


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_feature_map_refuses_non_finite_registered_metadata(bad):
    # indicator_with_metadata(2, 4, {0: [nan] * 4}) was accepted.
    with pytest.raises(ConfigError, match="metadata of task 0 must be finite"):
        FeatureMap.indicator_with_metadata(2, 4, {0: [bad] * 4})
    with pytest.raises(ConfigError, match="metadata of task 3 must be finite"):
        FeatureMap.custom(2, 4, 2, lambda x, a: np.zeros(4),
                          {1: np.zeros(2), 3: np.array([0.0, bad])})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("kind", ["indicator", "custom"])
def test_task_features_refuses_a_non_finite_query(kind, bad):
    # task_features([nan, 0, 0, 0]) returned a NaN feature row.
    fm = (FeatureMap.indicator_with_metadata(2, 4) if kind == "indicator"
          else FeatureMap.custom(2, 4, 4, lambda x, a: np.zeros(4)))
    assert np.isfinite(fm.task_features(np.zeros(4))).all()
    with pytest.raises(ConfigError, match="metadata must be finite"):
        fm.task_features([bad, 0.0, 0.0, 0.0])


def test_task_instance_readonly_and_shape():
    task = TaskInstance(task_id=0, metadata=np.array([1.0]),
                        true_means=np.array([0.5, 0.2]))
    with pytest.raises(ValueError):
        task.true_means[0] = 9.0
    with pytest.raises(ConfigError):
        TaskInstance(task_id=0, metadata=np.zeros((2, 2)),
                     true_means=np.zeros(2))


def test_hierarchy_config_validation():
    good = HierarchyConfig(mu_theta=np.zeros(2), sigma_theta=np.eye(2),
                           sigma_delta=np.eye(3), sigma_noise=1.0)
    assert good.dim == 2 and good.n_arms == 3
    good.require_gaussian()
    with pytest.raises(ConfigError):
        good.require_bernoulli()
    with pytest.raises(ConfigError):
        HierarchyConfig(mu_theta=np.zeros(2), sigma_theta=np.eye(3))
    with pytest.raises(ConfigError):
        HierarchyConfig(mu_theta=np.zeros(2), sigma_theta=np.zeros((2, 2)))
    with pytest.raises(ConfigError):
        HierarchyConfig(mu_theta=np.zeros(2), sigma_theta=np.eye(2),
                        sigma_noise=0.0)
    with pytest.raises(ConfigError):
        HierarchyConfig(mu_theta=np.zeros(2), sigma_theta=np.eye(2),
                        psi=-1.0)
    asym = np.array([[1.0, 0.5], [-0.5, 1.0]])
    with pytest.raises(ConfigError):
        HierarchyConfig(mu_theta=np.zeros(2), sigma_theta=asym)


@pytest.mark.parametrize("bad", [math.nan, math.inf, True],
                         ids=["nan", "inf", "bool"])
@pytest.mark.parametrize("field", ["sigma_noise", "psi"])
def test_hierarchy_config_refuses_non_finite_and_bool_scales(field, bad):
    with pytest.raises(ConfigError,
                       match="%s must be a finite number" % field):
        HierarchyConfig(mu_theta=np.zeros(2), sigma_theta=np.eye(2),
                        sigma_delta=np.eye(3), **{field: bad})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_hierarchy_config_refuses_a_non_finite_mu_theta(bad):
    # Built, such a config gave NaN posterior means with no error.
    with pytest.raises(ConfigError, match="mu_theta must be finite"):
        HierarchyConfig(mu_theta=np.array([0.0, bad]), sigma_theta=np.eye(2),
                        sigma_delta=np.eye(3), sigma_noise=1.0)


@pytest.mark.parametrize("scale, ok", [(0.0, False), (1e-10, False),
                                       (2e-10, False), (2.5e-10, True),
                                       (3e-10, True)])
def test_sigma_theta_nonsingular_boundary(scale, ok):
    with nullcontext() if ok else pytest.raises(
            ConfigError, match="sigma_theta must be nonsingular"):
        HierarchyConfig(mu_theta=np.zeros(2), sigma_theta=scale * np.eye(2))


@pytest.mark.parametrize("least, ok", [(-5e-11, True), (-2e-10, False)])
def test_sigma_delta_psd_tolerance_boundary(least, ok):
    rot = np.array([[0.6, -0.8], [0.8, 0.6]])
    sigma_delta = rot @ np.diag([least, 1.0]) @ rot.T
    sigma_delta = 0.5 * (sigma_delta + sigma_delta.T)
    assert np.linalg.eigvalsh(sigma_delta)[0] == pytest.approx(least, abs=1e-15)
    with nullcontext() if ok else pytest.raises(
            ConfigError, match="sigma_delta must be positive semidefinite"):
        HierarchyConfig(mu_theta=np.zeros(2), sigma_theta=np.eye(2),
                        sigma_delta=sigma_delta, sigma_noise=1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["sigma_theta", "sigma_delta"])
def test_hierarchy_config_refuses_a_non_finite_covariance(field, bad):
    mats = {"sigma_theta": np.eye(2), "sigma_delta": np.eye(3)}
    mats[field][0, 1] = bad
    with pytest.raises(ConfigError, match="%s must be finite" % field):
        HierarchyConfig(mu_theta=np.zeros(2), sigma_noise=1.0, **mats)


def test_singular_sigma_delta_allowed():
    cfg = HierarchyConfig(mu_theta=np.zeros(2), sigma_theta=np.eye(2),
                          sigma_delta=np.zeros((2, 2)), sigma_noise=1.0)
    cfg.require_gaussian()


def test_package_exports_resolve():
    for name in hierbandit.__all__:
        assert hasattr(hierbandit, name), name
    for gone in ("draw_reward", "stack_history_features",
                 "build_task_feature_matrix"):
        assert gone not in hierbandit.__all__
        assert not hasattr(hierbandit, gone)
    assert not hasattr(hierbandit.core, "stack_history_features")
    assert not hasattr(hierbandit.core, "build_task_feature_matrix")
    assert not hasattr(hierbandit.envs, "draw_reward")
    # one ORACLE_NAME, defined in metrics; bench imports it
    assert "ORACLE_NAME =" not in inspect.getsource(hierbandit.bench)
    assert hierbandit.bench.ORACLE_NAME == hierbandit.metrics.ORACLE_NAME
