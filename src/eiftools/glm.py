"""Maximum-likelihood fitting of canonical-link GLMs on a model matrix.

A fit takes the model matrix ``X`` as it is, one row per observation and
one column per parameter; the caller includes any intercept column.
Offsets and weights are optional. Two links are supported: identity
(weighted least squares, solved in closed form) and logit (Newton
iteration with step-halving). Both solvers drive the per-parameter score
sums

    sum_i wt_i * X_ij * (Z_i - Zhat_i)

to zero; the GLM nuisance learners fit through it. Convergence is certified
on the score scale: a fit is converged when every score sum is within
``score_tolerance * (1 + sum(weights))`` of zero. (The TMLE targeting steps
are solved directly by :func:`eiftools.estimators.fluctuate`.)
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._numeric import expit, spd_solve

__all__ = [
    "Link",
    "GlmFit",
    "GlmError",
    "SingularDesignError",
    "SeparationError",
    "NonConvergenceError",
    "fit_glm",
    "predict",
]

# Coefficient norm (logit scale) beyond which the logit solver declares
# complete separation instead of returning a huge, meaningless estimate.
SEPARATION_NORM = 1e3

DEFAULT_SCORE_TOLERANCE = 1e-8
DEFAULT_MAX_ITERATIONS = 100

# Logit-link predictions are kept strictly inside (0, 1).
_PROB_EPS = 1e-15


class Link(str, Enum):
    """Canonical link: identity for linear models, logit for logistic."""

    IDENTITY = "identity"
    LOGIT = "logit"


class GlmError(Exception):
    """Base class for GLM fitting failures."""


class SingularDesignError(GlmError):
    """Design matrix is rank deficient (after weighting)."""


class SeparationError(GlmError):
    """Logit coefficients diverged; data are (quasi-)separated."""


class NonConvergenceError(GlmError):
    """Solver hit the iteration cap before the score equations were solved."""

    def __init__(self, message: str, coefficients: np.ndarray,
                 score_residuals: np.ndarray, iterations: int):
        super().__init__(message)
        self.coefficients = coefficients
        self.score_residuals = score_residuals
        self.iterations = iterations


@dataclass
class GlmFit:
    """A solved (or attempted) maximum-likelihood fit.

    ``score_residuals`` holds the per-parameter score sums at
    ``coefficients``; when ``converged`` their largest magnitude is at most
    ``score_tolerance * (1 + sum(weights))``.
    """

    coefficients: np.ndarray
    converged: bool
    iterations: int
    score_residuals: np.ndarray
    link: Link


def _offset(offset, n: int) -> np.ndarray:
    if offset is None:
        return np.zeros(n)
    b = np.asarray(offset, dtype=float)
    if b.shape != (n,):
        raise ValueError(f"offset has shape {b.shape}, expected ({n},)")
    return b


def _validate(X, response, offset, weights, link: Link):
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or min(X.shape) < 1:
        raise ValueError(f"model matrix has shape {X.shape}; expected 2 "
                         "dimensions, at least one row and one column")
    n = X.shape[0]
    z = np.asarray(response, dtype=float)
    if z.shape != (n,):
        raise ValueError(f"response has shape {z.shape}, expected ({n},)")
    b = _offset(offset, n)
    if weights is None:
        wt = np.ones(n)
    else:
        wt = np.asarray(weights, dtype=float)
        if wt.shape != (n,):
            raise ValueError(f"weights have shape {wt.shape}, expected ({n},)")
        if np.any(wt < 0):
            raise ValueError("weights must be nonnegative")
        if not np.any(wt > 0):
            raise ValueError("at least one weight must be strictly positive")
    for name, v in (("model matrix", X), ("response", z), ("offset", b),
                    ("weights", wt)):
        if not np.all(np.isfinite(v)):
            raise ValueError(f"{name} contains non-finite values")
    if link is Link.LOGIT:
        if np.any((z < 0) | (z > 1)):
            raise ValueError("logit link requires response values in [0, 1]")
    return X, z, b, wt


def _score(X: np.ndarray, z: np.ndarray, mu: np.ndarray,
           wt: np.ndarray) -> np.ndarray:
    return X.T @ (wt * (z - mu))


def _bernoulli_loglik(eta: np.ndarray, z: np.ndarray, wt: np.ndarray) -> float:
    # z*log(mu) + (1-z)*log(1-mu) with mu = expit(eta) equals
    # z*eta - log(1 + exp(eta)), which needs a single logaddexp.
    return float(np.sum(wt * (z * eta - np.logaddexp(0.0, eta))))


def _fit_identity(X, z, b, wt, tol_abs):
    n, p = X.shape
    sw = np.sqrt(wt)
    Xw = X * sw[:, None]
    target = (z - b) * sw
    beta, _, rank, _ = np.linalg.lstsq(Xw, target, rcond=None)
    if rank < p:
        raise SingularDesignError(
            f"identity-link design is rank deficient (rank {rank} < {p})"
        )
    iterations = 1
    # Up to three rounds of iterative refinement if rounding left the score
    # sums above tolerance (can happen with badly scaled covariates).
    for _ in range(3):
        score = _score(X, z, b + X @ beta, wt)
        if np.max(np.abs(score)) <= tol_abs:
            break
        delta, _, _, _ = np.linalg.lstsq(Xw, (z - b - X @ beta) * sw, rcond=None)
        beta = beta + delta
        iterations += 1
    score = _score(X, z, b + X @ beta, wt)
    if np.max(np.abs(score)) > tol_abs:
        raise NonConvergenceError(
            "weighted least squares did not reach the score tolerance",
            beta, score, iterations,
        )
    return beta, score, iterations


def _fit_logit(X, z, b, wt, tol_abs, max_iterations):
    n, p = X.shape
    # The likelihood leaves out zero-weight rows, so saturated rows there
    # cannot produce 0 * inf; with every weight positive it takes all rows.
    active = slice(None) if np.all(wt > 0) else wt > 0
    z_active, wt_active = z[active], wt[active]
    beta = np.zeros(p)
    eta = b + X @ beta
    loglik = _bernoulli_loglik(eta[active], z_active, wt_active)
    mu = expit(eta)
    score = _score(X, z, mu, wt)
    for iteration in range(max_iterations):
        if np.max(np.abs(score)) <= tol_abs:
            return beta, score, iteration
        with np.errstate(over="ignore"):  # reported below
            info = X.T @ (X * (wt * mu * (1.0 - mu))[:, None])
        if not np.all(np.isfinite(info)):
            raise SingularDesignError(
                "logit-link information matrix is not finite")
        try:
            delta = spd_solve(info, score)
        except np.linalg.LinAlgError:
            raise SingularDesignError(
                "logit-link information matrix is singular") from None
        if not np.all(np.isfinite(delta)):
            raise SingularDesignError(
                "logit-link Newton step is not finite"
            )
        # Step-halving: accept the largest step that does not decrease
        # the (weighted Bernoulli) log-likelihood.
        step = 1.0
        for _ in range(40):
            cand = beta + step * delta
            eta_cand = b + X @ cand
            loglik_cand = _bernoulli_loglik(eta_cand[active], z_active,
                                            wt_active)
            if loglik_cand >= loglik - 1e-12 * (1.0 + abs(loglik)):
                break
            step *= 0.5
        beta, eta, loglik = cand, eta_cand, loglik_cand
        if np.max(np.abs(beta)) > SEPARATION_NORM:
            raise SeparationError(
                "logit coefficients diverged beyond "
                f"{SEPARATION_NORM:g}; data look separated"
            )
        mu = expit(eta)
        score = _score(X, z, mu, wt)
    if np.max(np.abs(score)) <= tol_abs:
        return beta, score, max_iterations
    raise NonConvergenceError(
        f"logit fit did not converge in {max_iterations} iterations",
        beta, score, max_iterations,
    )


def fit_glm(X, response, link: Link,
            offset=None, weights=None, *,
            score_tolerance: float = DEFAULT_SCORE_TOLERANCE,
            max_iterations: int = DEFAULT_MAX_ITERATIONS) -> GlmFit:
    """Fit a canonical-link GLM by maximum likelihood.

    Parameters
    ----------
    X : array-like, shape (n, p)
        Model matrix, with the intercept column (if any) included by the
        caller; at least one column, every entry finite.
    response : array-like, shape (n,)
        Outcome ``Z``; must lie in [0, 1] for the logit link.
    link : Link
        ``Link.IDENTITY`` (closed-form weighted least squares) or
        ``Link.LOGIT`` (Newton iteration with step-halving).
    offset : array-like, optional
        Per-observation term with fixed coefficient 1 on the link scale.
    weights : array-like, optional
        Nonnegative per-observation weights; zero-weight rows do not enter
        the score sums.
    score_tolerance : float
        Relative score tolerance; convergence means every score sum is
        within ``score_tolerance * (1 + sum(weights))`` of zero.
    max_iterations : int
        Iteration cap for the logit solver.

    Returns
    -------
    GlmFit

    Raises
    ------
    SingularDesignError
        Rank-deficient design (or a singular or non-finite information
        matrix).
    SeparationError
        Logit coefficients diverged (complete separation).
    NonConvergenceError
        Iteration cap reached; carries the last iterate and its score sums.
    """
    link = Link(link)
    X, z, b, wt = _validate(X, response, offset, weights, link)
    tol_abs = score_tolerance * (1.0 + float(np.sum(wt)))
    if link is Link.IDENTITY:
        beta, score, iterations = _fit_identity(X, z, b, wt, tol_abs)
    else:
        beta, score, iterations = _fit_logit(
            X, z, b, wt, tol_abs, max_iterations)
    return GlmFit(
        coefficients=beta,
        converged=True,
        iterations=iterations,
        score_residuals=score,
        link=link,
    )


def predict(fit: GlmFit, X, offset=None) -> np.ndarray:
    """Response-scale predictions ``g^{-1}(offset + X @ coefficients)``.

    ``X`` has the columns of the matrix ``fit`` was fit on. Logit-link
    outputs are clipped to stay strictly inside (0, 1).
    """
    X = np.asarray(X, dtype=float)
    p = fit.coefficients.shape[0]
    if X.ndim != 2 or X.shape[1] != p:
        raise ValueError(f"model matrix has shape {X.shape}, expected "
                         f"(n, {p}) as in the fit")
    eta = _offset(offset, X.shape[0]) + X @ fit.coefficients
    if fit.link is Link.IDENTITY:
        return eta
    return np.clip(expit(eta), _PROB_EPS, 1.0 - _PROB_EPS)
