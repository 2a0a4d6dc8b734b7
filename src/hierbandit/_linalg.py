"""Dense linear algebra helpers used by the posterior engines.

chol_factor tries a Cholesky factorization of the (symmetrized) input first;
on failure a diagonal jitter of 1e-10 is added and escalated by factors of
10 up to 1e-6 before raising NumericalError.  The posterior routes solve
through such factors (chol_solve); the small inverses of the theta prior
(agents.HierTS, agents.LinearTS, bernoulli.ThetaSampler) and the blocked
route's per-task inverse use np.linalg.  Covariances never jitter: psd_root
falls back to an exact eigendecomposition (the one PSD rule, shared by every
validated belief and by sample_mvn), and the precision-form draw
(precision_draw, shared by sample_mvn_precision and the segment kernels of
Gaussian hier-ts and linear-ts) raises at once on a precision that fails to
factor.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError

JITTER_START = 1e-10
JITTER_MAX = 1e-6
# Eigenvalues of a covariance down to -PSD_TOL are rounding and clip to 0.
PSD_TOL = 1e-10


# scipy.linalg is imported at the first LAPACK call, not with the package,
# so a run that never factors a precision never loads it (26.5 MB resident
# on top of `import hierbandit`, scipy 1.17.1).  The first call of any stub
# rebinds all four names to scipy's own routines, so later calls go straight
# to them.  Other modules call them as _linalg.dpotrs: a from-import would
# keep the stub.
def dpotrf(*args, **kwargs):
    return _load_lapack().lapack.dpotrf(*args, **kwargs)


def dtrtrs(*args, **kwargs):
    return _load_lapack().lapack.dtrtrs(*args, **kwargs)


def dpotrs(*args, **kwargs):
    return _load_lapack().lapack.dpotrs(*args, **kwargs)


def cho_solve(*args, **kwargs):
    return _load_lapack().cho_solve(*args, **kwargs)


def _load_lapack():
    global dpotrf, dtrtrs, dpotrs, cho_solve
    from scipy import linalg
    lapack = linalg.lapack
    dpotrf, dtrtrs, dpotrs = lapack.dpotrf, lapack.dtrtrs, lapack.dpotrs
    cho_solve = linalg.cho_solve
    return linalg


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
    return cho_solve((lower, True), b)


def logdet_from_chol(lower: np.ndarray) -> float:
    return 2.0 * float(np.sum(np.log(np.diag(lower))))


def psd_root(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cov, root) for a covariance that must be PSD, with root root^T = cov.

    The covariance is symmetrized as (C + C^T)/2 and factored by a plain
    Cholesky; root is then its lower factor.  Only a covariance Cholesky
    rejects takes an eigendecomposition, never a jittered factor:
    eigenvalues at or above -PSD_TOL are clipped to zero (the returned cov
    is rebuilt from the clipped spectrum when any was negative), so a
    zero-variance coordinate keeps a zero row in root, and a covariance
    further from PSD raises NumericalError.
    """
    cov = symmetrize(np.asarray(cov, dtype=float))
    if not np.isfinite(cov).all():
        raise NumericalError("non-finite entries in covariance")
    try:
        return cov, np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        pass
    w, v = np.linalg.eigh(cov)
    if w[0] < -PSD_TOL:
        raise NumericalError("covariance not PSD within tolerance: "
                             "eigenvalue %g < %g" % (w[0], -PSD_TOL))
    if w[0] < 0.0:
        w = np.clip(w, 0.0, None)
        cov = symmetrize((v * w) @ v.T)
    return cov, v * np.sqrt(w)


def sample_from_root(mean: np.ndarray, root: np.ndarray,
                     rng: np.random.Generator) -> np.ndarray:
    """mean + root z with z ~ N(0, I): one draw from N(mean, root root^T).
    Consumes exactly len(mean) standard normals."""
    mean = np.asarray(mean, dtype=float)
    if not np.all(np.isfinite(mean)):
        raise NumericalError("non-finite mean in a Gaussian draw")
    return mean + root @ rng.standard_normal(mean.shape[0])


def sample_mvn(mean: np.ndarray, cov: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One draw from N(mean, cov), cov factored by psd_root, so a
    zero-variance coordinate (and an all-zero covariance) returns the mean
    exactly.  Deterministic given the generator state: every successful call
    consumes exactly len(mean) standard normals.
    """
    return sample_from_root(mean, psd_root(cov)[1], rng)


def precision_draw(precision: np.ndarray, linear: np.ndarray,
                   z: np.ndarray) -> np.ndarray:
    """x = L^{-T} (L^{-1} b + z) for the Cholesky factor A = L L^T of the
    precision A: one Cholesky and two triangular solves.  With z ~ N(0, I),
    x ~ N(A^{-1} b, A^{-1}), as the covariance is L^{-T} L^{-1} = A^{-1}.
    Only the lower triangle of A is read.  A precision that is not positive
    definite is never jittered: it raises NumericalError."""
    lower, info = dpotrf(precision, lower=1)
    if info != 0:
        raise NumericalError("precision matrix not positive definite "
                             "(LAPACK dpotrf info=%d)" % info)
    w, _ = dtrtrs(lower, linear, lower=1)
    x, _ = dtrtrs(lower, w + z, lower=1, trans=1)
    return x


def sample_mvn_precision(precision: np.ndarray, linear: np.ndarray,
                         rng: np.random.Generator) -> np.ndarray:
    """One draw from N(A^{-1} b, A^{-1}) given the precision A and b, by
    precision_draw.  Consumes exactly len(b) standard normals.  A precision
    that fails to factor raises NumericalError, as does a non-finite draw.
    """
    x = precision_draw(precision, linear, rng.standard_normal(len(linear)))
    if not np.isfinite(x).all():
        raise NumericalError("non-finite draw in sample_mvn_precision")
    return x
