"""Maximum-likelihood fitting of canonical-link GLMs on a model matrix.

A fit takes the model matrix ``X`` as it is, one row per observation and
one column per parameter; the caller includes any intercept column. Two
links are supported: identity (least squares, solved in closed form) and
logit (Newton iteration with step-halving). Both solvers drive the
per-parameter score sums

    sum_i X_ij * (Z_i - Zhat_i)

to zero; the GLM nuisance learners fit through it. Convergence is certified
on the score scale: a fit is converged when every score sum is within
``DEFAULT_SCORE_TOLERANCE * (1 + n)`` of zero, and the logit solver gives
up after ``DEFAULT_MAX_ITERATIONS`` Newton steps. (The TMLE targeting
steps, the one weighted score equation with an offset, are solved
directly by :func:`eiftools.estimators.fluctuate`.)
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional

import numpy as np

from ._numeric import expit, softplus, spd_solve

__all__ = [
    "Link",
    "GlmFit",
    "GlmError",
    "SingularDesignError",
    "SeparationError",
    "NonConvergenceError",
    "fit_glm",
    "fit_logit_stack",
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
    """Design matrix is rank deficient."""


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
    """A converged maximum-likelihood fit (``fit_glm`` raises otherwise).

    ``score_residuals`` holds the per-parameter score sums at
    ``coefficients``; their largest magnitude is at most
    ``DEFAULT_SCORE_TOLERANCE * (1 + n)``.
    """

    coefficients: np.ndarray
    iterations: int
    score_residuals: np.ndarray
    link: Link


def _validate(X, response, link: Link):
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or min(X.shape) < 1:
        raise ValueError(f"model matrix has shape {X.shape}; expected 2 "
                         "dimensions, at least one row and one column")
    n = X.shape[0]
    z = np.asarray(response, dtype=float)
    if z.shape != (n,):
        raise ValueError(f"response has shape {z.shape}, expected ({n},)")
    for name, v in (("model matrix", X), ("response", z)):
        if not np.isfinite(v).all():
            raise ValueError(f"{name} contains non-finite values")
    if link is Link.LOGIT:
        if not (0 <= z.min() and z.max() <= 1):
            raise ValueError("logit link requires response values in [0, 1]")
    return X, z


def _bernoulli_loglik(eta: np.ndarray, z: np.ndarray):
    """Log-likelihood over the last axis: a numpy float for one model, one
    per row for a stack."""
    # z*log(mu) + (1-z)*log(1-mu) with mu = expit(eta) equals
    # z*eta - log(1 + exp(eta)).
    return (z * eta - softplus(eta)).sum(axis=-1)


@np.errstate(over="ignore", invalid="ignore")  # checked below
def _fit_identity(X, z, tol_abs):
    p = X.shape[1]
    beta, _, rank, _ = np.linalg.lstsq(X, z, rcond=None)
    if rank < p:
        raise SingularDesignError(
            f"identity-link design is rank deficient (rank {rank} < {p})"
        )
    iterations = 1
    resid = z - X @ beta
    score = X.T @ resid
    # Up to three rounds of iterative refinement if rounding left the score
    # sums above tolerance (can happen with badly scaled covariates).
    while not np.abs(score).max() <= tol_abs:
        if iterations > 3 or not np.isfinite(score).all():
            # As in estimators._solve_linear: a score whose terms'
            # magnitudes overflow has no finite rounding bound to meet.
            if not np.isfinite(np.abs(X).T @ np.abs(resid)).all():
                raise ValueError("the least-squares score overflows: the "
                                 "sum of its terms' magnitudes is not "
                                 "finite")
            raise NonConvergenceError(
                "least squares did not reach the score tolerance",
                beta, score, iterations,
            )
        beta = beta + np.linalg.lstsq(X, resid, rcond=None)[0]
        iterations += 1
        resid = z - X @ beta
        score = X.T @ resid
    return beta, score, iterations


def _fit_logit(X, z, tol_abs):
    beta = np.zeros(X.shape[1])
    eta = X @ beta
    loglik = float(_bernoulli_loglik(eta, z))
    mu = expit(eta)
    score = X.T @ (z - mu)
    for iteration in range(DEFAULT_MAX_ITERATIONS + 1):
        if np.abs(score).max() <= tol_abs:
            return beta, score, iteration
        if iteration == DEFAULT_MAX_ITERATIONS:
            raise NonConvergenceError(
                f"logit fit did not converge in {iteration} iterations",
                beta, score, iteration)
        with np.errstate(over="ignore"):  # reported below
            info = X.T @ (X * (mu * (1.0 - mu))[:, None])
        if not np.isfinite(info).all():
            raise SingularDesignError(
                "logit-link information matrix is not finite")
        try:
            delta = spd_solve(info, score)
        except np.linalg.LinAlgError:
            raise SingularDesignError(
                "logit-link information matrix is singular") from None
        if not np.isfinite(delta).all():
            raise SingularDesignError(
                "logit-link Newton step is not finite"
            )
        beta, eta, loglik = _halve_step(X, z, beta, delta, loglik, 1.0, 40)
        if np.abs(beta).max() > SEPARATION_NORM:
            raise SeparationError(
                "logit coefficients diverged beyond "
                f"{SEPARATION_NORM:g}; data look separated"
            )
        mu = expit(eta)
        score = X.T @ (z - mu)


def _halve_step(X, z, beta, delta, loglik: float, step: float, tries: int):
    """Step-halving from ``step``: the first of ``tries`` candidates
    ``beta + step * delta``, halving ``step`` each time, that does not
    decrease the Bernoulli log-likelihood, else the last one; returned
    with its linear predictor and log-likelihood."""
    for _ in range(tries):
        cand = beta + step * delta
        eta_cand = X @ cand
        loglik_cand = float(_bernoulli_loglik(eta_cand, z))
        if loglik_cand >= loglik - 1e-12 * (1.0 + abs(loglik)):
            break
        step *= 0.5
    return cand, eta_cand, loglik_cand


def fit_logit_stack(X: np.ndarray, Z: np.ndarray) -> List[Optional[GlmFit]]:
    """Logit fits of a stack of models in one Newton solve.

    ``X`` is a C-contiguous ``(R, n, p)`` stack of model matrices and ``Z``
    an ``(R, n)`` stack of responses in [0, 1], all finite; neither is
    checked. Slice ``i``'s fit is ``fit_glm(X[i], Z[i], Link.LOGIT)``, bit
    for bit in its coefficients, score residuals and iteration count: each
    Newton step makes the calls of ``_fit_logit`` on C-contiguous stacks,
    where numpy's ``matmul``, ``sum`` over the last axis, ``cholesky``
    and ``solve`` give each slice the bits of the 2-D call (the tests pin
    this). A slice that rejects the full step finishes its step-halving
    alone, in ``_fit_logit``'s own code. Slices leave the stack as they
    converge.

    A slice whose fit fails (a non-finite or singular information
    matrix, a non-finite step, separation, or the iteration cap) is
    ``None``: fit alone with ``fit_glm``, it raises that error. ``fit_glm``
    keeps its own solver because a stack of one costs more than it.
    """
    R, n, p = X.shape
    tol_abs = DEFAULT_SCORE_TOLERANCE * (1.0 + n)
    fits: List[Optional[GlmFit]] = [None] * R
    live = np.arange(R)  # each stacked slice's index in the input
    beta = np.zeros((R, p))
    eta = _matvec(X, beta)
    loglik = _bernoulli_loglik(eta, Z)
    mu = expit(eta)
    score = _matvec(X.transpose(0, 2, 1), Z - mu)
    for iteration in range(DEFAULT_MAX_ITERATIONS + 1):
        done = np.abs(score).max(axis=1) <= tol_abs
        for j in np.flatnonzero(done):
            fits[live[j]] = GlmFit(coefficients=beta[j].copy(),
                                   iterations=iteration,
                                   score_residuals=score[j].copy(),
                                   link=Link.LOGIT)
        if iteration == DEFAULT_MAX_ITERATIONS:
            break  # the slices left fail on the iteration cap
        with np.errstate(over="ignore"):  # a non-finite slice leaves below
            info = X.transpose(0, 2, 1) @ (X * (mu * (1.0 - mu))[..., None])
        keep = ~done & np.isfinite(info).all(axis=(1, 2))
        live, X, Z, beta, loglik, info, score = _rows(
            keep, live, X, Z, beta, loglik, info, score)
        delta = _spd_solve_stack(info, score)
        live, X, Z, beta, loglik, delta = _rows(
            np.isfinite(delta).all(axis=1), live, X, Z, beta, loglik, delta)
        if not live.size:
            break
        step = 1.0
        cand = beta + step * delta
        eta = _matvec(X, cand)
        loglik_cand = _bernoulli_loglik(eta, Z)
        for j in np.flatnonzero(
                ~(loglik_cand >= loglik - 1e-12 * (1.0 + np.abs(loglik)))):
            cand[j], eta[j], loglik_cand[j] = _halve_step(
                X[j], Z[j], beta[j], delta[j], float(loglik[j]), step * 0.5,
                39)
        live, X, Z, beta, loglik, eta = _rows(
            ~(np.abs(cand).max(axis=1) > SEPARATION_NORM),
            live, X, Z, cand, loglik_cand, eta)
        mu = expit(eta)
        score = _matvec(X.transpose(0, 2, 1), Z - mu)
    return fits


def _matvec(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``A[i] @ v[i]`` for each slice of an ``(R, m, k)`` and an ``(R, k)``
    stack, as one ``(R, m)`` array."""
    return (A @ v[..., None])[..., 0]


def _rows(keep: np.ndarray, *stacks: np.ndarray):
    """The slices ``keep`` of each stack (the stacks themselves when it
    keeps them all)."""
    if keep.all():
        return stacks
    return tuple(a[keep] for a in stacks)


def _spd_solve_stack(info: np.ndarray, score: np.ndarray) -> np.ndarray:
    """``spd_solve(info[i], score[i])`` for each slice, as rows; the row
    of a slice where it raises is NaN."""
    try:
        np.linalg.cholesky(info)
        return np.linalg.solve(info, score[..., None])[..., 0]
    except np.linalg.LinAlgError:
        pass
    delta = np.full(score.shape, np.nan)
    for j in range(info.shape[0]):
        try:
            delta[j] = spd_solve(info[j], score[j])
        except np.linalg.LinAlgError:
            pass
    return delta


def fit_glm(X, response, link: Link) -> GlmFit:
    """Fit a canonical-link GLM by maximum likelihood.

    Parameters
    ----------
    X : array-like, shape (n, p)
        Model matrix, with the intercept column (if any) included by the
        caller; at least one column, every entry finite.
    response : array-like, shape (n,)
        Outcome ``Z``; must lie in [0, 1] for the logit link.
    link : Link
        ``Link.IDENTITY`` (closed-form least squares) or ``Link.LOGIT``
        (Newton iteration with step-halving).

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
    ValueError
        Invalid input, or an identity-link score whose terms' magnitudes
        overflow float64, so that no tolerance can certify it.
    """
    link = Link(link)
    X, z = _validate(X, response, link)
    tol_abs = DEFAULT_SCORE_TOLERANCE * (1.0 + X.shape[0])
    if link is Link.IDENTITY:
        beta, score, iterations = _fit_identity(X, z, tol_abs)
    else:
        beta, score, iterations = _fit_logit(X, z, tol_abs)
    return GlmFit(
        coefficients=beta,
        iterations=iterations,
        score_residuals=score,
        link=link,
    )


def predict(fit: GlmFit, X) -> np.ndarray:
    """Response-scale predictions ``g^{-1}(X @ coefficients)``.

    ``X`` has the columns of the matrix ``fit`` was fit on. Logit-link
    outputs are clipped to stay strictly inside (0, 1).
    """
    X = np.asarray(X, dtype=float)
    p = fit.coefficients.shape[0]
    if X.ndim != 2 or X.shape[1] != p:
        raise ValueError(f"model matrix has shape {X.shape}, expected "
                         f"(n, {p}) as in the fit")
    eta = X @ fit.coefficients
    if fit.link is Link.IDENTITY:
        return eta
    return np.clip(expit(eta), _PROB_EPS, 1.0 - _PROB_EPS)
