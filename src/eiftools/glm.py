"""Maximum-likelihood fitting of canonical-link GLMs on a model matrix.

A fit takes the model matrix ``X`` as it is, one row per observation and
one column per parameter; the caller includes any intercept column. Two
links are supported: identity (least squares, solved in closed form) and
logit (Newton iteration with step-halving, on a stack of models at once;
``fit_glm`` fits one model as a stack of one). Both solvers drive the
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

import math
from dataclasses import dataclass
from enum import Enum
from typing import List, Union

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
def _fit_identity(X, z) -> GlmFit:
    tol_abs = DEFAULT_SCORE_TOLERANCE * (1.0 + X.shape[0])
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
    return GlmFit(beta, iterations, score, Link.IDENTITY)


def fit_logit_stack(X: np.ndarray, Z: np.ndarray
                    ) -> List[Union[GlmFit, GlmError]]:
    """Logit fits of a stack of models in one Newton solve.

    ``X`` is an ``(R, n, p)`` stack of model matrices and ``Z`` an
    ``(R, n)`` stack of responses in [0, 1], all finite and C-contiguous
    (a stack of one may have any layout); neither is checked (``fit_glm``
    checks one model, then fits it as a stack of one). Entry ``i`` is
    slice ``i``'s ``GlmFit``, or the ``GlmError`` its fit fails with: a
    non-finite or singular information matrix, a non-finite Newton step,
    separation, or the iteration cap.

    A slice's fit does not depend on the other slices: numpy's ``matmul``,
    ``sum`` over the last axis, ``cholesky`` and ``solve`` give each slice
    of a C-contiguous stack, and a stack of one of any layout, the bits of
    the 2-D call on that slice (the tests pin both). A slice that rejects
    the full Newton step finishes its step-halving alone, and a slice
    leaves the stack as soon as it converges or fails.
    """
    R, n, p = X.shape
    tol_abs = DEFAULT_SCORE_TOLERANCE * (1.0 + n)
    out: List[Union[GlmFit, GlmError, None]] = [None] * R
    live = list(range(R))  # each stacked slice's index in the input
    # Coefficients, responses and linear predictors are columns, so that
    # each product is one (R, m, k) @ (R, k, 1) matmul. X @ 0 is +-0 in
    # every row, and neither expit nor the log-likelihood sees the sign.
    Xt, Zc = X.transpose(0, 2, 1), Z[..., None]
    beta = np.zeros((R, p, 1))
    size = [0.0] * R  # each slice's largest |coefficient|
    loglik = _bernoulli_loglik(np.zeros((R, n)), Z)
    mu = np.full((R, n, 1), 0.5)  # expit(+-0)
    with np.errstate(over="ignore", invalid="ignore"):  # as info below
        score = Xt @ (Zc - mu)
    for iteration in range(DEFAULT_MAX_ITERATIONS + 1):
        # The last step's separation, then convergence, then the cap.
        settled = {}  # stacked index -> its slice's GlmFit or error
        for j, s in enumerate(np.abs(score).max(axis=(1, 2)).tolist()):
            if size[j] > SEPARATION_NORM:
                settled[j] = SeparationError(
                    "logit coefficients diverged beyond "
                    f"{SEPARATION_NORM:g}; data look separated")
            elif s <= tol_abs:
                settled[j] = GlmFit(coefficients=beta[j, :, 0],
                                    iterations=iteration,
                                    score_residuals=score[j, :, 0],
                                    link=Link.LOGIT)
            elif iteration == DEFAULT_MAX_ITERATIONS:
                settled[j] = NonConvergenceError(
                    f"logit fit did not converge in {iteration} "
                    "iterations", beta[j, :, 0], score[j, :, 0], iteration)
        if settled:
            if len(settled) == len(live):
                break
            live, X, Z, beta, loglik, mu, score = _drop(
                settled, out, live, X, Z, beta, loglik, mu, score)
            Xt, Zc = X.transpose(0, 2, 1), Z[..., None]
        # A sum is finite only if every term is, and neither overflow
        # nor inf - inf warns here: a non-finite slice fails below.
        with np.errstate(over="ignore", invalid="ignore"):
            info = Xt @ (X * (mu * (1.0 - mu)))
            delta, singular = _spd_solve_stack(info, score)
            finite = math.isfinite(info.sum() + delta.sum())
        if not finite:
            # A non-finite, then a singular information matrix, then step.
            bad_info = ~np.isfinite(info).all(axis=(1, 2))
            settled = {j: SingularDesignError("logit-link " + (
                "information matrix is not finite" if bad_info[j] else
                "information matrix is singular" if j in singular else
                "Newton step is not finite")) for j in np.flatnonzero(
                    bad_info | ~np.isfinite(delta).all(axis=(1, 2)))}
            if len(settled) == len(live):
                break
            live, X, Z, beta, loglik, delta = _drop(
                settled, out, live, X, Z, beta, loglik, delta)
            Xt, Zc = X.transpose(0, 2, 1), Z[..., None]
        cand = beta + delta  # the full step: beta + 1.0 * delta
        eta = X @ cand
        loglik_cand = _bernoulli_loglik(eta[..., 0], Z)
        for j, (new, old) in enumerate(zip(loglik_cand.tolist(),
                                           loglik.tolist())):
            if not new >= old - 1e-12 * (1.0 + abs(old)):
                cand[j], eta[j], loglik_cand[j] = _halve_step(
                    X[j], Z[j], beta[j], delta[j], old)
        beta, loglik = cand, loglik_cand
        # Every step is finite, so max over Python floats is numpy's max.
        size = [max(map(abs, b)) for b in beta[..., 0].tolist()]
        mu = expit(eta)
        with np.errstate(over="ignore", invalid="ignore"):
            score = Xt @ (Zc - mu)
    for j, result in settled.items():
        out[live[j]] = result
    return out


def _drop(settled: dict, out: list, live: list, *stacks):
    """Record each slice of ``settled`` (stacked index -> result) in
    ``out``, and return ``live`` and each stack without those slices."""
    for j, result in settled.items():
        out[live[j]] = result
    keep = [j for j in range(len(live)) if j not in settled]
    return ([live[j] for j in keep],) + tuple(a[keep] for a in stacks)


def _halve_step(X, z, beta, delta, loglik: float):
    """Step-halving after a rejected full Newton step: the first of 39
    candidates ``beta + step * delta``, ``step`` halving from 1/2, that
    does not decrease the Bernoulli log-likelihood ``loglik`` at
    ``beta``, else the last one; returned with its linear predictor and
    log-likelihood. ``beta`` and ``delta`` are ``(p, 1)`` columns."""
    step = 0.5
    for _ in range(39):
        cand = beta + step * delta
        eta_cand = X @ cand
        loglik_cand = float(_bernoulli_loglik(eta_cand[:, 0], z))
        if loglik_cand >= loglik - 1e-12 * (1.0 + abs(loglik)):
            break
        step *= 0.5
    return cand, eta_cand, loglik_cand


def _spd_solve_stack(info: np.ndarray, score: np.ndarray):
    """``spd_solve(info[i], score[i])`` for each slice of a stack of
    ``(p, 1)`` columns, and the indices of the slices where it raises,
    whose columns are NaN. When the stack's solve raises, each slice is
    solved alone."""
    try:
        return spd_solve(info, score), ()
    except np.linalg.LinAlgError:
        pass
    delta, singular = np.full(score.shape, np.nan), []
    for j in range(info.shape[0]):
        try:
            delta[j] = spd_solve(info[j], score[j])
        except np.linalg.LinAlgError:
            singular.append(j)
    return delta, singular


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
    if link is Link.IDENTITY:
        return _fit_identity(X, z)
    fit = fit_logit_stack(X[None], z[None])[0]
    if isinstance(fit, GlmError):
        raise fit
    return fit


def predict(fit: GlmFit, X) -> np.ndarray:
    """Response-scale predictions ``g^{-1}(X @ coefficients)``.

    ``X`` has the columns of the matrix ``fit`` was fit on. Logit-link
    outputs, an overflowing predictor's too, are clipped to stay strictly
    inside (0, 1); callers reject a non-finite identity-link prediction.
    """
    X = np.asarray(X, dtype=float)
    p = fit.coefficients.shape[0]
    if X.ndim != 2 or X.shape[1] != p:
        raise ValueError(f"model matrix has shape {X.shape}, expected "
                         f"(n, {p}) as in the fit")
    with np.errstate(over="ignore", invalid="ignore"):
        eta = X @ fit.coefficients
    if fit.link is Link.IDENTITY:
        return eta
    return np.clip(expit(eta), _PROB_EPS, 1.0 - _PROB_EPS)
