"""Dense linear algebra helpers used by the posterior engines.

Every matrix inverse in the package goes through a factorized solve.  A
Cholesky factorization is attempted on the (symmetrized) input first; on
failure a diagonal jitter of 1e-10 is added and escalated by factors of 10
up to 1e-6 before raising NumericalError.  Neither sampler jitters:
sample_mvn falls back to an exact eigendecomposition, and the
precision-form sampler raises at once on a precision that fails to factor.
"""

from __future__ import annotations

import numpy as np
from scipy import linalg as sla

from .errors import NumericalError

JITTER_START = 1e-10
JITTER_MAX = 1e-6


def symmetrize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.T)


def chol_factor(a: np.ndarray, jitter_start: float = JITTER_START,
                jitter_max: float = JITTER_MAX) -> np.ndarray:
    """Lower Cholesky factor of a symmetric PSD matrix, jittering if needed."""
    a = np.asarray(a, dtype=float)
    if a.size and not np.all(np.isfinite(a)):
        raise NumericalError("non-finite entries in matrix to factorize")
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        pass
    eye = np.eye(a.shape[0])
    jitter = jitter_start
    while jitter <= jitter_max * (1.0 + 1e-12):
        try:
            return np.linalg.cholesky(a + jitter * eye)
        except np.linalg.LinAlgError:
            jitter *= 10.0
    raise NumericalError(
        "Cholesky failed after diagonal jitter up to %g" % jitter_max)


def chol_solve(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    return sla.cho_solve((lower, True), b)


def solve_psd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a x = b for symmetric PSD a via jittered Cholesky."""
    return chol_solve(chol_factor(symmetrize(np.asarray(a, dtype=float))), b)


def inv_psd(a: np.ndarray) -> np.ndarray:
    return solve_psd(a, np.eye(a.shape[0]))


def logdet_from_chol(lower: np.ndarray) -> float:
    return 2.0 * float(np.sum(np.log(np.diag(lower))))


def sample_mvn(mean: np.ndarray, cov: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One draw from N(mean, cov).

    A plain Cholesky handles the well-conditioned case.  A covariance it
    rejects goes straight to an eigendecomposition, never to a jittered
    factor: small negative eigenvalues (>= -1e-10) are clipped to zero, so
    a zero-variance coordinate (and an all-zero covariance) returns the mean
    exactly, and a covariance further from PSD raises NumericalError.
    Deterministic given the generator state: every path consumes exactly
    len(mean) standard normals.
    """
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    k = mean.shape[0]
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
        raise NumericalError("non-finite belief passed to sample_mvn")
    if not cov.any():
        rng.standard_normal(k)  # keep stream consumption uniform
        return mean.copy()
    z = rng.standard_normal(k)
    try:
        return mean + np.linalg.cholesky(cov) @ z
    except np.linalg.LinAlgError:
        pass
    w, v = np.linalg.eigh(symmetrize(cov))
    if w[0] < -JITTER_START:
        raise NumericalError("covariance not PSD within tolerance in sample_mvn")
    return mean + (v * np.sqrt(np.clip(w, 0.0, None))) @ (v.T @ z)


def sample_mvn_precision(precision: np.ndarray, linear: np.ndarray,
                         rng: np.random.Generator) -> np.ndarray:
    """One draw from N(A^{-1} b, A^{-1}) given the precision A and b.

    One Cholesky A = L L^T and two triangular solves,
        x = L^{-T} (L^{-1} b + z),  z ~ N(0, I),
    whose mean is A^{-1} b and covariance L^{-T} L^{-1} = A^{-1}.  Only the
    lower triangle of A is read.  Consumes exactly len(b) standard normals.
    A precision that is not positive definite is never jittered: it raises
    NumericalError, as does a non-finite draw.
    """
    lower, info = sla.lapack.dpotrf(precision, lower=1)
    if info != 0:
        raise NumericalError(
            "precision matrix not positive definite in sample_mvn_precision "
            "(LAPACK dpotrf info=%d)" % info)
    z = rng.standard_normal(lower.shape[0])
    w, _ = sla.lapack.dtrtrs(lower, linear, lower=1)
    x, _ = sla.lapack.dtrtrs(lower, w + z, lower=1, trans=1)
    if not np.isfinite(x).all():
        raise NumericalError("non-finite draw in sample_mvn_precision")
    return x
