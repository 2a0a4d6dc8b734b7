"""Core domain types: tasks, interaction records, histories, feature maps,
and the hierarchical-model configuration shared by every other module.

Conventions
-----------
Arms are 0-based everywhere in code and in CSV output (documentation that
speaks of "arm 1..K" maps to indices 0..K-1).  Rounds are 1-based:
``round_within_task`` counts interactions with one task starting at 1.
All types are immutable after construction except History, which is
append-only (single writer).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from ._linalg import PSD_TOL, psd_eigh, symmetrize
from .errors import ConfigError, NumericalError

# The most rows bench.play_blocks hands a policy, or the consumer of a run,
# at once, and the most RegretLedger.rows() converts to Python objects at
# once (the ledger's line writer, bench._run_lines, converts its own
# _WRITE_BLOCK rows at a time): a long segment, such as a whole custom
# stream, then never holds all of its rows boxed at once, and a streamed run
# never holds all of its rows.
ROW_CHUNK = 4096


def _readonly(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


def check_count(name: str, value, least: int, allow_none: bool = False):
    """value if it is an integer (not a bool; numpy integers too) >= least,
    or None when allow_none; ConfigError otherwise."""
    if value is None and allow_none:
        return value
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
            or value < least:
        raise ConfigError("%s must be an integer >= %d%s, got %r"
                          % (name, least, " or None" if allow_none else "",
                             value))
    return value


def check_real(name: str, value, allow_none: bool = False):
    """value if it is a finite real number (not a bool; numpy reals too), or
    None when allow_none; ConfigError otherwise."""
    if value is None and allow_none:
        return value
    if isinstance(value, bool) \
            or not isinstance(value, (int, float, np.integer, np.floating)) \
            or not np.isfinite(value):
        raise ConfigError("%s must be a finite number%s, got %r"
                          % (name, " or None" if allow_none else "", value))
    return value


def check_flag(name: str, value) -> bool:
    """value if it is a bool (numpy bools too); ConfigError otherwise."""
    if not isinstance(value, (bool, np.bool_)):
        raise ConfigError("%s must be true or false, got %r" % (name, value))
    return bool(value)


def check_finite(name: str, a: np.ndarray) -> None:
    """ConfigError unless every entry of the array a is finite."""
    if not np.isfinite(a).all():
        raise ConfigError("%s must be finite" % name)


def _check_psd(name: str, mat: np.ndarray, require_nonsingular: bool = False) -> None:
    """ConfigError unless mat is square, finite, symmetric and PSD (psd_eigh);
    nonsingular needs a smallest eigenvalue above 2 PSD_TOL."""
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ConfigError("%s must be square, got shape %s" % (name, (mat.shape,)))
    check_finite(name, mat)
    if not np.allclose(mat, mat.T, rtol=0.0, atol=1e-10):
        raise ConfigError("%s must be symmetric" % name)
    try:
        w, _ = psd_eigh(symmetrize(mat))
    except NumericalError:
        raise ConfigError("%s must be positive semidefinite" % name) from None
    if require_nonsingular and w.size and w[0] <= 2.0 * PSD_TOL:
        raise ConfigError("%s must be nonsingular" % name)


@dataclass(frozen=True)
class TaskInstance:
    """One bandit task: identity, metadata x_i, and hidden true arm means r_i.

    true_means is visible to the environment and to metrics only; agents must
    never read it (oracle-TS receives the population coefficients instead).
    """

    task_id: int
    metadata: np.ndarray
    true_means: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "metadata", _readonly(self.metadata))
        object.__setattr__(self, "true_means", _readonly(self.true_means))
        if self.metadata.ndim != 1 or self.true_means.ndim != 1:
            raise ConfigError("task metadata and true_means must be 1-D")
        check_finite("task metadata", self.metadata)
        check_finite("task true_means", self.true_means)


@dataclass(frozen=True)
class InteractionRecord:
    """One observed interaction (task, arm, reward, within-task round).
    A reward that is not a finite real number is a ConfigError."""

    task_id: int
    action: int
    reward: float
    round_within_task: int

    def __post_init__(self):
        check_real("reward", self.reward)
        if self.action < 0:
            raise ConfigError("action must be a 0-based arm index >= 0")
        if self.round_within_task < 1:
            raise ConfigError("round_within_task starts at 1")


class History:
    """Append-only interaction log with per-task index views."""

    def __init__(self, records: Iterable[InteractionRecord] = ()):  # noqa: D401
        self._records: list[InteractionRecord] = []
        self._per_task: dict[int, list[int]] = {}
        for rec in records:
            self.append(rec)

    def append(self, record: InteractionRecord) -> None:
        self._per_task.setdefault(record.task_id, []).append(len(self._records))
        self._records.append(record)

    def extend(self, records: Iterable[InteractionRecord]) -> None:
        for rec in records:
            self.append(rec)

    @property
    def records(self) -> tuple[InteractionRecord, ...]:
        return tuple(self._records)

    def task_ids(self) -> tuple[int, ...]:
        return tuple(self._per_task.keys())

    def task_records(self, task_id: int) -> tuple[InteractionRecord, ...]:
        return tuple(self._records[j] for j in self._per_task.get(task_id, ()))

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(task_ids int64, actions int64, rewards float), one entry per
        record in record order: the one walk over the records that the
        posterior code reads."""
        recs = self._records
        return (np.array([r.task_id for r in recs], dtype=np.int64),
                np.array([r.action for r in recs], dtype=np.int64),
                np.array([r.reward for r in recs], dtype=float))

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[InteractionRecord]:
        return iter(self._records)


class FeatureMap:
    """Known map phi(x, a) from a metadata-action pair to a d-vector.

    Two kinds are supported.  The "indicator_metadata" kind implements
    phi(x, a) = (one_hot_K(a), x[a-th block]) where the metadata vector is
    the concatenation of one (d - K)-block per arm; these blocks are drawn
    once at task-generation time and stored here so that agents and the
    environment see identical features.  The "custom" kind wraps a user
    callable phi(x, a).

    The map also carries an optional task registry (task_id -> metadata);
    the posterior code resolves the features of every history row through
    it (metadata_for), so a history's tasks must be registered.
    """

    def __init__(self, kind: str, n_arms: int, dim: int, p: int,
                 fn: Callable[[np.ndarray, int], np.ndarray] | None = None,
                 task_metadata: Mapping[int, np.ndarray] | None = None):
        if n_arms < 1 or dim < 1 or p < 0:
            raise ConfigError("feature map sizes must be positive")
        if kind not in ("indicator_metadata", "custom"):
            raise ConfigError("unknown feature map kind %r" % kind)
        if kind == "custom" and fn is None:
            raise ConfigError("custom feature map requires a callable")
        self.kind = kind
        self.n_arms = int(n_arms)
        self.dim = int(dim)
        self.p = int(p)
        self._fn = fn
        self._task_metadata = {int(t): _readonly(x) for t, x in (task_metadata or {}).items()}
        for t, x in self._task_metadata.items():
            if x.shape != (self.p,):
                raise ConfigError("registered metadata must have length p=%d" % self.p)
            check_finite("metadata of task %d" % t, x)

    @classmethod
    def indicator_with_metadata(cls, n_arms: int, dim: int,
                                task_metadata: Mapping[int, np.ndarray] | None = None
                                ) -> "FeatureMap":
        if dim < n_arms:
            raise ConfigError("indicator_metadata map needs dim >= n_arms")
        p = n_arms * (dim - n_arms)
        return cls("indicator_metadata", n_arms, dim, p, task_metadata=task_metadata)

    @classmethod
    def custom(cls, n_arms: int, dim: int, p: int,
               fn: Callable[[np.ndarray, int], np.ndarray],
               task_metadata: Mapping[int, np.ndarray] | None = None) -> "FeatureMap":
        return cls("custom", n_arms, dim, p, fn=fn, task_metadata=task_metadata)

    def feature(self, x: np.ndarray, arm: int) -> np.ndarray:
        """phi(x, arm): row arm of task_features(x)."""
        return self.task_features(x)[self.check_arm(arm)]

    def check_arm(self, arm: int) -> int:
        if not 0 <= arm < self.n_arms:
            raise ConfigError("arm %d out of range [0, %d)" % (arm, self.n_arms))
        return arm

    def task_features(self, x: np.ndarray) -> np.ndarray:
        """(n_arms, dim) matrix whose row a is phi(x, a)."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.p,):
            raise ConfigError("metadata length %d, expected p=%d" % (x.size, self.p))
        check_finite("metadata", x)
        return self._features(x)

    def registered_features(self, task_id: int) -> np.ndarray:
        """task_features(metadata_for(task_id)), checked once, in __init__."""
        return self._features(self.metadata_for(task_id))

    def _features(self, x: np.ndarray) -> np.ndarray:
        k = self.n_arms
        if self.kind == "indicator_metadata":
            out = np.eye(k, self.dim)
            out[:, k:] = x.reshape(k, self.dim - k)
            return out
        rows = [np.asarray(self._fn(x, a), dtype=float) for a in range(k)]
        for out in rows:
            if out.shape != (self.dim,):
                raise ConfigError("custom feature map returned length %d, "
                                  "expected d=%d" % (out.size, self.dim))
        return np.stack(rows)

    def metadata_for(self, task_id: int) -> np.ndarray:
        try:
            return self._task_metadata[task_id]
        except KeyError:
            raise KeyError("task %r has no registered metadata" % task_id) from None

    def known_tasks(self) -> tuple[int, ...]:
        return tuple(self._task_metadata.keys())


@dataclass(frozen=True)
class HierarchyConfig:
    """Hyperparameters of the hierarchical reward model.

    mu_theta, sigma_theta parameterize the coefficient prior
    theta ~ N(mu_theta, sigma_theta).  The Gaussian reward model also needs
    sigma_delta (random-effect covariance, may be singular) and sigma_noise
    (observation noise std, > 0).  The Bernoulli model needs psi (Beta
    precision, > 0) instead.  Fields not used by a model may be None.
    """

    mu_theta: np.ndarray
    sigma_theta: np.ndarray
    sigma_delta: np.ndarray | None = None
    sigma_noise: float | None = None
    psi: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "mu_theta", _readonly(self.mu_theta))
        object.__setattr__(self, "sigma_theta", _readonly(self.sigma_theta))
        if self.mu_theta.ndim != 1:
            raise ConfigError("mu_theta must be a vector")
        check_finite("mu_theta", self.mu_theta)
        if self.sigma_theta.shape != (self.dim, self.dim):
            raise ConfigError("sigma_theta must be %d x %d" % (self.dim, self.dim))
        _check_psd("sigma_theta", self.sigma_theta, require_nonsingular=True)
        if self.sigma_delta is not None:
            object.__setattr__(self, "sigma_delta", _readonly(self.sigma_delta))
            _check_psd("sigma_delta", self.sigma_delta)
        for name in ("sigma_noise", "psi"):
            value = check_real(name, getattr(self, name), allow_none=True)
            if value is not None and not value > 0:
                raise ConfigError("%s must be > 0" % name)

    @property
    def dim(self) -> int:
        return self.mu_theta.shape[0]

    @property
    def n_arms(self) -> int | None:
        return None if self.sigma_delta is None else self.sigma_delta.shape[0]

    def require_gaussian(self) -> None:
        if self.sigma_delta is None or self.sigma_noise is None:
            raise ConfigError("Gaussian model needs sigma_delta and sigma_noise")

    def require_bernoulli(self) -> None:
        if self.psi is None:
            raise ConfigError("Bernoulli model needs psi")
