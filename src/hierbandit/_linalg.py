"""Dense linear algebra helpers used by the posterior engines.

Nothing here adds to a diagonal to make a matrix factor: chol_factor returns
the Cholesky factor of a finite matrix or raises NumericalError, and the
posterior routes solve through such factors (chol_solve).  The small
inverses of the theta prior (agents.HierTS, agents.LinearTS,
bernoulli.ThetaSampler) and the blocked route's per-task inverse use
np.linalg.  psd_eigh states the one PSD rule (smallest eigenvalue at least
-PSD_TOL) that core._check_psd applies to configurations and psd_root to
every validated belief and sample_mvn, as the fallback for a covariance
Cholesky rejects.  The precision-form draw (precision_draw, shared by
sample_mvn_precision and the segment kernels of Gaussian hier-ts and
linear-ts) raises at once on a precision that fails to factor.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError

# Eigenvalues of a covariance down to -PSD_TOL are rounding and clip to 0.
PSD_TOL = 1e-10


# scipy.linalg is imported at the first LAPACK call, not with the package,
# so a run that never factors a precision never loads it (26.5 MB resident
# on top of `import hierbandit`, scipy 1.17.1).  The first call of any stub
# rebinds all three names to scipy's own routines, so later calls go straight
# to them.  Code outside this module must look them up as _linalg.dpotrf:
# a from-import would keep the stub.
def dpotrf(*args, **kwargs):
    return _load_lapack().dpotrf(*args, **kwargs)


def dtrtrs(*args, **kwargs):
    return _load_lapack().dtrtrs(*args, **kwargs)


def dpotrs(*args, **kwargs):
    return _load_lapack().dpotrs(*args, **kwargs)


def _load_lapack():
    global dpotrf, dtrtrs, dpotrs
    from scipy.linalg import lapack
    dpotrf, dtrtrs, dpotrs = lapack.dpotrf, lapack.dtrtrs, lapack.dpotrs
    return lapack


def symmetrize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.T)


def chol_factor(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a finite positive definite matrix."""
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        raise NumericalError("non-finite entries in matrix to factorize")
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise NumericalError("matrix not positive definite") from None


def chol_solve(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with (lower lower^T) x = b by LAPACK dpotrs, the call scipy's
    cho_solve makes; a non-finite b raises NumericalError."""
    if not np.isfinite(b).all():
        raise NumericalError("non-finite right-hand side in a Cholesky solve")
    x, info = dpotrs(lower, b, lower=1)
    if info != 0:
        raise NumericalError("dpotrs failed (info=%d)" % info)
    return x


def logdet_from_chol(lower: np.ndarray) -> float:
    return 2.0 * float(np.sum(np.log(np.diag(lower))))


def psd_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh of a symmetric matrix whose smallest eigenvalue is at
    least -PSD_TOL, the one PSD rule; NumericalError otherwise."""
    w, v = np.linalg.eigh(a)
    if w.size and w[0] < -PSD_TOL:
        raise NumericalError("matrix not PSD within tolerance: "
                             "eigenvalue %g < %g" % (w[0], -PSD_TOL))
    return w, v


def psd_root(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cov, root) for a covariance that must be PSD, with root root^T = cov.

    The covariance is symmetrized as (C + C^T)/2 and factored by a plain
    Cholesky; root is then its lower factor.  Only a covariance Cholesky
    rejects takes an eigendecomposition, psd_eigh, whose negative eigenvalues
    are clipped to zero (cov is then rebuilt from the clipped spectrum), so
    a zero-variance coordinate keeps a zero row in root.
    """
    cov = symmetrize(np.asarray(cov, dtype=float))
    if not np.isfinite(cov).all():
        raise NumericalError("non-finite entries in covariance")
    try:
        return cov, np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        pass
    w, v = psd_eigh(cov)
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
