"""Population generation, reward draws, schedules, and export."""

import csv
import os

import numpy as np
import pytest

from hierbandit.bench import ExperimentConfig
from hierbandit.envs import (InteractionSchedule, Population, PopulationSpec,
                             RewardTable, agent_rng, atomic_write_text,
                             generate_population,
                             make_schedule, noise_rng, population_rng,
                             population_to_csv)
from hierbandit.errors import ConfigError, ScheduleError
from oracles import schedule_pairs_oracle


def _spec(**kw):
    base = dict(n_tasks=5, horizon=4, n_arms=2, dim=3, seed=0)
    base.update(kw)
    return PopulationSpec(**base)


def test_spec_validation():
    with pytest.raises(ConfigError):
        _spec(n_tasks=0)
    with pytest.raises(ConfigError):
        _spec(dim=1)            # dim < n_arms
    with pytest.raises(ConfigError):
        _spec(sigma1_sq=-0.1)
    with pytest.raises(ConfigError):
        _spec(reward_kind="poisson")
    with pytest.raises(ConfigError):
        _spec(misspec_lambda=1.5)
    with pytest.raises(ConfigError):
        _spec(reward_kind="bernoulli", psi=0.0)
    assert _spec(sigma1_sq=0.0).sigma1_sq == 0.0


@pytest.mark.parametrize("field, value", [
    ("n_tasks", 2.5), ("horizon", True), ("n_arms", 2.0), ("dim", 3.0),
    ("seed", 1.5), ("seed", True), ("seed", -1)])
def test_spec_integer_fields_validated(field, value):
    with pytest.raises(ConfigError):
        _spec(**{field: value})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), True])
@pytest.mark.parametrize("field", ["sigma_noise", "sigma1_sq", "psi",
                                   "theta_scale", "misspec_lambda"])
def test_spec_real_fields_must_be_finite_numbers(field, value):
    with pytest.raises(ConfigError, match=field):
        _spec(**{field: value})


def test_spec_accepts_numpy_integers():
    spec = _spec(n_tasks=np.int64(3), horizon=np.int32(2), n_arms=np.int64(2),
                 dim=np.int64(3), seed=np.uint8(7), sigma_noise=np.int64(1),
                 sigma1_sq=np.float32(0.5), theta_scale=np.float64(0.25))
    assert len(generate_population(spec).tasks) == 3


def test_spec_derived_quantities():
    spec = _spec(n_tasks=3, n_arms=2, dim=5)
    assert spec.p == 2 * 3
    np.testing.assert_allclose(spec.scale, 1.0 / 5.0)
    assert _spec(theta_scale=0.7).scale == 0.7
    cfg = spec.hierarchy_config()
    np.testing.assert_allclose(cfg.sigma_theta, np.eye(5) / 5.0)
    np.testing.assert_allclose(cfg.sigma_delta,
                               spec.sigma1_sq * np.eye(2))


def test_generator_realizable_case():
    spec = _spec(sigma1_sq=0.0, n_tasks=8)
    pop = generate_population(spec)
    for task in pop.tasks:
        phi = pop.feature_map.task_features(task.metadata)
        np.testing.assert_allclose(task.true_means, phi @ pop.theta,
                                   atol=1e-12)


def test_generator_effect_covariance():
    spec = _spec(n_tasks=10_000, sigma1_sq=0.3, seed=1)
    pop = generate_population(spec)
    resid = np.zeros((spec.n_tasks, spec.n_arms))
    for i, task in enumerate(pop.tasks):
        phi = pop.feature_map.task_features(task.metadata)
        resid[i] = task.true_means - phi @ pop.theta
    emp = np.cov(resid.T)
    np.testing.assert_allclose(emp, 0.3 * np.eye(spec.n_arms), atol=0.015,
                               rtol=0.05)


def test_generator_bernoulli_symmetric_mean():
    # theta ~ N(0, scale) with a tiny scale pins the logistic means at 1/2;
    # the Beta draw around 1/2 is symmetric, so arm means average to 1/2.
    spec = _spec(n_tasks=10_000, reward_kind="bernoulli", psi=1.0,
                 theta_scale=1e-18, seed=2)
    pop = generate_population(spec)
    means = np.stack([t.true_means for t in pop.tasks])
    se = means.std() / np.sqrt(means.size)
    assert abs(means.mean() - 0.5) <= 4.0 * se


def test_misspec_lambda_one_identical():
    # The warp draws nothing: theta, metadata and the task effects are the
    # same draws at every lambda, and lambda = 1 leaves the linear means
    # plus effects bit for bit.
    spec = _spec(n_tasks=50, misspec_lambda=1.0, seed=3)
    plain = generate_population(spec)
    warped = generate_population(_spec(n_tasks=50, misspec_lambda=0.5, seed=3))
    np.testing.assert_array_equal(plain.theta, warped.theta)
    for ta, tb in zip(plain.tasks, warped.tasks):
        np.testing.assert_array_equal(ta.metadata, tb.metadata)
    rng = population_rng(spec.seed)  # theta, metadata, then task effects
    rng.standard_normal(spec.dim)
    rng.standard_normal((spec.n_tasks, spec.p))
    effects = rng.standard_normal((spec.n_tasks, spec.n_arms)) \
        * np.sqrt(spec.sigma1_sq)
    linear = np.stack([plain.feature_map.task_features(t.metadata)
                       @ plain.theta for t in plain.tasks])
    np.testing.assert_array_equal(plain.means, linear + effects)
    assert not np.array_equal(plain.means, warped.means)


@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_misspec_normalization_constant(lam):
    spec = _spec(n_tasks=200, misspec_lambda=lam, sigma1_sq=0.0, seed=4)
    pop = generate_population(spec)
    linear_spec = _spec(n_tasks=200, misspec_lambda=1.0, sigma1_sq=0.0, seed=4)
    linear_pop = generate_population(linear_spec)
    linear = np.stack([
        linear_pop.feature_map.task_features(t.metadata) @ linear_pop.theta
        for t in linear_pop.tasks])
    peak = np.abs(linear).max()
    c = (np.pi / 2.0) / peak
    assert np.abs(c * linear).max() <= np.pi / 2.0 + 1e-12
    # centers (1 - lambda) cos(c m)/c + lambda m; lambda = 0 is pure warp
    warped = (1.0 - lam) * np.cos(c * linear) / c + lam * linear
    got = np.stack([t.true_means for t in pop.tasks])
    np.testing.assert_allclose(got, warped, atol=1e-12)


@pytest.mark.parametrize("lam", [0.0, 0.3, 0.999])
def test_bernoulli_spec_refuses_misspec_lambda(lam):
    # generate_population warps Gaussian populations only, so a Bernoulli spec
    # that asked for a warp would run unwarped under a manifest that says
    # otherwise; the spec refuses it, and the config reader with it.
    with pytest.raises(ConfigError, match="misspec_lambda"):
        _spec(reward_kind="bernoulli", misspec_lambda=lam)
    raw = {"population": {"n_tasks": 4, "horizon": 8, "n_arms": 2, "dim": 3,
                          "reward_kind": "bernoulli", "misspec_lambda": lam},
           "schedule": "concurrent", "algorithms": ["individual-ts"],
           "seeds": 2}
    with pytest.raises(ConfigError, match="misspec_lambda"):
        ExperimentConfig.from_dict(raw)
    assert _spec(reward_kind="bernoulli", misspec_lambda=1.0).misspec_lambda \
        == 1.0


def _pairs(sched):
    task_ids, rounds = sched.columns()
    return list(zip(task_ids.tolist(), rounds.tolist()))


def test_schedule_sequential():
    sched = make_schedule("sequential", n_tasks=2, horizon=2)
    assert _pairs(sched) == [(0, 1), (0, 2), (1, 1), (1, 2)]
    assert schedule_pairs_oracle("sequential", 2, 2) == _pairs(sched)


def test_schedule_concurrent():
    sched = make_schedule("concurrent", n_tasks=2, horizon=2)
    assert _pairs(sched) == [(0, 1), (1, 1), (0, 2), (1, 2)]
    assert schedule_pairs_oracle("concurrent", 2, 2) == _pairs(sched)


@pytest.mark.parametrize("kind", ["sequential", "concurrent", "custom"])
def test_schedule_columns_equal_pairs_oracle(kind):
    rng = np.random.default_rng(17)
    for n_tasks, horizon in ((1, 1), (1, 5), (4, 1), (7, 9), (30, 12)):
        stream = rng.permutation(np.repeat(np.arange(n_tasks), horizon)) \
            if kind == "custom" else None
        sched = make_schedule(kind, n_tasks, horizon, stream)
        task_ids, rounds = sched.columns()
        assert task_ids.dtype == rounds.dtype == np.int64
        assert list(zip(task_ids.tolist(), rounds.tolist())) \
            == schedule_pairs_oracle(kind, n_tasks, horizon, stream)


@pytest.mark.parametrize("kind", ["sequential", "concurrent", "custom"])
def test_schedule_columns_are_built_once_read_only(kind):
    stream = [2, 0, 1, 1, 0, 2] if kind == "custom" else None
    sched = make_schedule(kind, 3, 2, stream)
    task_ids, rounds = sched.columns()
    again = sched.columns()
    assert again[0] is task_ids and again[1] is rounds
    for col in (task_ids, rounds):
        assert not col.flags.writeable
        with pytest.raises(ValueError):
            col[0] = 1


def test_schedule_custom():
    sched = make_schedule("custom", n_tasks=2, horizon=2, stream=[0, 1, 1, 0])
    assert _pairs(sched) == [(0, 1), (1, 1), (1, 2), (0, 2)]
    assert schedule_pairs_oracle("custom", 2, 2, [0, 1, 1, 0]) == _pairs(sched)
    with pytest.raises(ScheduleError):
        make_schedule("custom", n_tasks=2, horizon=2, stream=[0, 0, 0, 1])
    with pytest.raises(ScheduleError):
        make_schedule("custom", n_tasks=2, horizon=2, stream=[0, 0, 1, 1, 1])
    for stream in ([0, 1.7, 1, 0.2], [0, True, 1, False]):
        with pytest.raises(ScheduleError, match="must be integers"):
            make_schedule("custom", n_tasks=2, horizon=2, stream=stream)
    with pytest.raises(ScheduleError):
        make_schedule("interleaved", n_tasks=2, horizon=2)
    with pytest.raises(ScheduleError):
        make_schedule("sequential", n_tasks=2, horizon=2, stream=[0, 1])


def test_reward_table_pairing():
    spec = _spec(seed=7)
    pop = generate_population(spec)
    table_a = RewardTable(pop)
    table_b = RewardTable(pop)
    assert table_a.reward(1, 2, 0) == table_b.reward(1, 2, 0)
    with pytest.raises(ValueError, match="read-only"):
        table_a._noise[1, 1, 0] = 0.0
    with pytest.raises(ScheduleError):
        table_a.reward(0, 0, 0)
    with pytest.raises(ScheduleError):
        table_a.reward(0, spec.horizon + 1, 0)


def test_reward_table_rejects_task_and_arm_out_of_range():
    # NumPy indexing would read task -1 as the last task's row and arm -1
    # as the last arm.
    spec = _spec(seed=7, n_tasks=3)
    table = RewardTable(generate_population(spec))
    for task_id, arm in ((-1, 0), (spec.n_tasks, 0), (0, -1),
                         (0, spec.n_arms)):
        with pytest.raises(ScheduleError, match="outside"):
            table.reward(task_id, 1, arm)
    for ids in (np.array([0, -1]), np.array([spec.n_tasks, 1])):
        with pytest.raises(ScheduleError, match="task .* outside"):
            table.arm_rewards(ids, 1)


def test_reward_table_zero_noise_returns_means():
    spec = _spec(seed=8, sigma_noise=1e-300)
    pop = generate_population(spec)
    table = RewardTable(pop)
    for tid in range(spec.n_tasks):
        for arm in range(spec.n_arms):
            got = table.reward(tid, 1, arm)
            np.testing.assert_allclose(got, pop.tasks[tid].true_means[arm],
                                       atol=1e-290)


def test_reward_table_bernoulli_support():
    spec = _spec(seed=8, reward_kind="bernoulli", psi=1.0)
    pop = generate_population(spec)
    table = RewardTable(pop)
    vals = {table.reward(t, r + 1, a) for t in range(spec.n_tasks)
            for r in range(spec.horizon) for a in range(spec.n_arms)}
    assert vals <= {0.0, 1.0}


@pytest.mark.parametrize("kind", ["gaussian", "bernoulli"])
def test_reward_table_arm_rewards_equal_reward_bitwise(kind):
    # The simulation loop reads payoff rows through arm_rewards; every arm
    # at every (task, round) must equal the scalar reference reward() bit
    # for bit, or the ledger would move.
    spec = _spec(seed=9, n_tasks=4, horizon=5, n_arms=3, reward_kind=kind)
    table = RewardTable(generate_population(spec))
    tasks, rounds = (g.ravel() for g in np.meshgrid(
        np.arange(spec.n_tasks), np.arange(1, spec.horizon + 1),
        indexing="ij"))
    want = np.array([[table.reward(t, r, a) for a in range(spec.n_arms)]
                     for t, r in zip(tasks.tolist(), rounds.tolist())])
    got = table.arm_rewards(tasks, rounds)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    # one round for a batch of tasks, as a concurrent round asks for it
    got = table.arm_rewards(np.arange(spec.n_tasks), 3)
    assert got.tolist() == [[table.reward(t, 3, a)
                             for a in range(spec.n_arms)]
                            for t in range(spec.n_tasks)]
    for bad in (0, spec.horizon + 1, np.array([1, 0, 2, 1])):
        with pytest.raises(ScheduleError, match="outside horizon"):
            table.arm_rewards(np.arange(spec.n_tasks), bad)


def test_rng_streams_disjoint():
    a = population_rng(0).standard_normal(4)
    b = noise_rng(0).standard_normal(4)
    c = agent_rng(0, "hier-ts").standard_normal(4)
    d = agent_rng(0, "oracle-ts").standard_normal(4)
    assert not np.allclose(a, b)
    assert not np.allclose(c, d)
    np.testing.assert_array_equal(agent_rng(3, "x").standard_normal(2),
                                  agent_rng(3, "x").standard_normal(2))


def test_population_csv_round_trip(tmp_path):
    spec = _spec(n_tasks=3, seed=9)
    pop = generate_population(spec)
    path = tmp_path / "pop.csv"
    population_to_csv(pop, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    # three header rows: parameter names, values, column names
    assert rows[2][0] == "task_id"
    assert len(rows) == 3 + spec.n_tasks
    for row, task in zip(rows[3:], pop.tasks):
        assert int(row[0]) == task.task_id
        got_x = np.array([float(v) for v in row[1:1 + spec.p]])
        got_r = np.array([float(v) for v in row[1 + spec.p:]])
        np.testing.assert_array_equal(got_x, task.metadata)
        np.testing.assert_array_equal(got_r, task.true_means)


def test_atomic_write(tmp_path):
    target = tmp_path / "sub" / "file.txt"
    atomic_write_text(str(target), ["hello"])
    assert target.read_text() == "hello"
    atomic_write_text(str(target), ["re", "placed"])
    assert target.read_text() == "replaced"
    assert not any(p.name.startswith(".") for p in target.parent.iterdir()
                   if p != target)


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_atomic_write_failure_keeps_target_and_removes_temp(tmp_path, error):
    # A chunk source that fails mid-stream leaves the old bytes in place and
    # no temp file behind, and the failure reaches the caller.
    target = tmp_path / "file.txt"
    atomic_write_text(str(target), ["old\n"])

    def chunks():
        yield "row 1\n"
        raise error("mid-stream")

    with pytest.raises(error, match="mid-stream"):
        atomic_write_text(str(target), chunks())
    assert target.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["file.txt"]


def test_population_accessors():
    spec = _spec(seed=10)
    pop = generate_population(spec)
    stacked = np.stack([t.true_means for t in pop.tasks])
    assert pop.means.shape == stacked.shape
    assert pop.means.tobytes() == stacked.tobytes()
    for shared in (pop.means, pop.theta):
        with pytest.raises(ValueError, match="read-only"):
            shared[0] = 0.0
    np.testing.assert_array_equal(
        pop.best_means, [t.true_means.max() for t in pop.tasks])
