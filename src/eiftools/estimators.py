"""Point-treatment estimators of the untreated mean E(Y^0).

All estimators target psi = E(E(Y | A=0, W)) and share one influence
function:

    phi_i = I(A_i=0)/g_i * (Y_i - mu_i) + mu_i - psi,

where mu_i estimates E(Y | A=0, W_i) and g_i estimates P(A=0 | W_i).

``gcomp`` averages mu_i. ``one_step`` adds the empirical mean of the
influence function. ``tmle`` first replaces mu with a targeted version
mu* chosen by a one-parameter maximum-likelihood fluctuation so that the
inverse-probability score sum(H_i * (Y_i - mu*_i)) is zero, then averages
mu*. Three fluctuations are implemented; the weighted logistic one keeps
mu* and psi inside the outcome bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from ._numeric import expit, logit
from .data import Dataset
from .glm import (DEFAULT_MAX_ITERATIONS, DEFAULT_SCORE_TOLERANCE,
                  SEPARATION_NORM, GlmError, NonConvergenceError,
                  SeparationError, SingularDesignError, _bernoulli_loglik)
from .nuisance import NuisanceEstimates

__all__ = [
    "TMLE_VARIANTS",
    "Z975",
    "EstimateResult",
    "FluctuationFit",
    "DegenerateOutcomeError",
    "eif_values",
    "wald_inference",
    "fluctuate",
    "gcomp",
    "one_step",
    "tmle",
]

# Standard-normal 97.5% quantile used for all Wald intervals.
Z975 = 1.959964

TMLE_VARIANTS = ("covariate_linear", "weighted_linear", "weighted_logistic")

# Scaled initial predictions are clipped here before logit().
_SCALED_PRED_CLIP = 1e-6


class DegenerateOutcomeError(Exception):
    """Outcome bounds collapse to a point; logistic targeting is undefined."""


@dataclass(frozen=True)
class FluctuationFit:
    """One solved targeting model.

    ``coefficient`` is the fluctuation parameter (delta for the covariate
    variant, gamma for the weighted ones); ``targeted_pred`` is mu*;
    ``score_residual`` is the targeting score sum at the solution (on the
    scaled outcome for the logistic variant).
    """

    variant: str
    coefficient: float
    targeted_pred: np.ndarray
    score_residual: float


@dataclass
class EstimateResult:
    """Point estimate with influence-function-based Wald inference."""

    estimator: str
    psi_hat: float
    se: float
    ci95: Tuple[float, float]
    eif: np.ndarray
    diagnostics: Dict[str, object] = field(default_factory=dict)
    fluctuation: Optional[FluctuationFit] = None

    def to_json_dict(self) -> Dict[str, object]:
        """JSON-ready summary (drops the per-observation vectors)."""
        return {
            "estimator": self.estimator,
            "psi_hat": self.psi_hat,
            "se": self.se,
            "ci95": [self.ci95[0], self.ci95[1]],
            "diagnostics": dict(self.diagnostics),
        }


def eif_values(data: Dataset, outcome_pred, propensity_pred,
               psi: float) -> np.ndarray:
    """Influence-function values phi_i at the given nuisances and psi."""
    mu = np.asarray(outcome_pred, dtype=float)
    g = np.asarray(propensity_pred, dtype=float)
    if mu.shape != (data.n_obs,) or g.shape != (data.n_obs,):
        raise ValueError("nuisance predictions must have one value per row")
    if np.any(g <= 0.0) or np.any(g >= 1.0):
        raise ValueError("propensity predictions must lie strictly in (0, 1)")
    h = (data.treatment == 0.0).astype(float) / g
    return h * (data.outcome - mu) + mu - float(psi)


def wald_inference(eif: np.ndarray, psi_hat: float
                   ) -> Tuple[float, Tuple[float, float]]:
    """Standard error and 95% CI from the influence-function values.

    se = sqrt(sample variance (n-1 divisor) of the values / n).
    """
    phi = np.asarray(eif, dtype=float)
    n = phi.shape[0]
    if n < 2:
        raise ValueError("influence-function inference needs n >= 2")
    se = float(np.sqrt(np.var(phi, ddof=1) / n))
    return se, (psi_hat - Z975 * se, psi_hat + Z975 * se)


def _check_sizes(data: Dataset, nuisance: NuisanceEstimates) -> None:
    if nuisance.n_obs != data.n_obs:
        raise ValueError("nuisance estimates do not match the dataset size")


def _clever_covariate(data: Dataset, nuisance: NuisanceEstimates) -> np.ndarray:
    _check_sizes(data, nuisance)
    return (data.treatment == 0.0).astype(float) / nuisance.propensity_pred


def _result(estimator: str, data: Dataset, mu_for_eif: np.ndarray,
            nuisance: NuisanceEstimates, psi: float,
            extra: Optional[Dict[str, object]] = None,
            fluctuation: Optional[FluctuationFit] = None) -> EstimateResult:
    phi = eif_values(data, mu_for_eif, nuisance.propensity_pred, psi)
    se, ci = wald_inference(phi, psi)
    diagnostics: Dict[str, object] = {
        "mean_eif": float(np.mean(phi)),
        "n_truncated": nuisance.n_truncated,
        "outcome_learner": nuisance.outcome_learner,
        "propensity_learner": nuisance.propensity_learner,
        "cross_fitted": nuisance.fold_assignment is not None,
    }
    if extra:
        diagnostics.update(extra)
    return EstimateResult(estimator=estimator, psi_hat=psi, se=se, ci95=ci,
                          eif=phi, diagnostics=diagnostics,
                          fluctuation=fluctuation)


def gcomp(data: Dataset, nuisance: NuisanceEstimates) -> EstimateResult:
    """Plug-in estimator: the mean of the outcome-model predictions.

    The reported standard error evaluates the influence function at the
    plug-in solution. With data-adaptive nuisance learners this interval
    has no general validity guarantee; the caveat is flagged in
    diagnostics.
    """
    _check_sizes(data, nuisance)
    psi = float(np.mean(nuisance.outcome_pred))
    return _result(
        "gcomp", data, nuisance.outcome_pred, nuisance, psi,
        extra={"inference_caveat":
               "plug-in estimator; influence-function interval is not "
               "theoretically valid with data-adaptive nuisance learners"},
    )


def one_step(data: Dataset, nuisance: NuisanceEstimates) -> EstimateResult:
    """One-step (AIPW) estimator: plug-in plus the mean influence function.

    psi_hat = mean( H_i (Y_i - mu_i) + mu_i ) with H_i = I(A_i=0)/g_i.
    The influence function for inference is evaluated at the plug-in
    nuisances and this psi_hat, where its mean is zero by construction.
    """
    h = _clever_covariate(data, nuisance)
    mu = nuisance.outcome_pred
    psi = float(np.mean(h * (data.outcome - mu) + mu))
    return _result("one_step", data, mu, nuisance, psi)


def _scaling_bounds(variant: str, data, y_bounds: Optional[Tuple[float, float]]
                    ) -> Optional[Tuple[float, float]]:
    """Bounds of ``weighted_logistic`` targeting: ``y_bounds``, else the
    data's outcome range. None for the other variants."""
    if variant != "weighted_logistic":
        return None
    lo, hi = y_bounds if y_bounds is not None else data.outcome_bounds()
    if not hi > lo:
        raise DegenerateOutcomeError(
            f"outcome bounds ({lo}, {hi}) have zero width; logistic "
            "targeting needs y_min < y_max")
    return float(lo), float(hi)


def _solve_linear(z, b, w, x, tol: float) -> float:
    """Root c of sum(w (z - b - c x)) = 0 in closed form, with up to
    three refinement rounds if rounding leaves the score above ``tol``."""
    wx = float(np.sum(w * x))
    c, score = 0.0, float(np.sum(w * (z - b)))
    for _ in range(4):
        c += score / wx
        score = float(np.sum(w * (z - (b + c * x))))
        if abs(score) <= tol:
            return c
    raise NonConvergenceError(
        "weighted least squares did not reach the score tolerance",
        np.array([c]), np.array([score]), 4)


def _solve_logistic(z, b, w, tol: float) -> float:
    """Weighted logistic intercept with offset ``b``, by the Newton
    iteration of :func:`eiftools.glm.fit_glm` for one parameter: start
    at 0, take the step score/information, halve it until the weighted
    Bernoulli log-likelihood of the positive-weight rows does not drop."""
    active = slice(None) if np.all(w > 0) else w > 0
    z_active, w_active = z[active], w[active]
    coef, eta = 0.0, b
    loglik = _bernoulli_loglik(b[active], z_active, w_active)
    for iteration in range(DEFAULT_MAX_ITERATIONS + 1):
        mu = expit(eta)
        score = float(np.sum(w * (z - mu)))
        if abs(score) <= tol:
            return coef
        if iteration == DEFAULT_MAX_ITERATIONS:
            raise NonConvergenceError(
                f"logit fit did not converge in {iteration} iterations",
                np.array([coef]), np.array([score]), iteration)
        info = float(np.sum(w * mu * (1.0 - mu)))
        if not info > 0.0:
            raise SingularDesignError(
                "logit-link information matrix is singular")
        delta = score / info
        if not np.isfinite(delta):
            raise SingularDesignError("logit-link Newton step is not finite")
        step = 1.0
        for _ in range(40):
            cand = coef + step * delta
            eta = b + cand
            loglik_cand = _bernoulli_loglik(eta[active], z_active, w_active)
            if loglik_cand >= loglik - 1e-12 * (1.0 + abs(loglik)):
                break
            step *= 0.5
        coef, loglik = cand, loglik_cand
        if abs(coef) > SEPARATION_NORM:
            raise SeparationError(
                "logit coefficients diverged beyond "
                f"{SEPARATION_NORM:g}; data look separated")


def fluctuate(response, offset, weights, regime_covariate, variant: str,
              bounds: Optional[Tuple[float, float]]) -> FluctuationFit:
    """Solve one targeting fluctuation directly.

    Each variant zeroes sum(weights * (response - targeted)). ``weights``
    carry the regime indicator, so off-regime rows are inert;
    ``regime_covariate`` is the same inverse probability without it.
    ``weighted_linear``: targeted = offset + gamma (a weighted mean).
    ``covariate_linear``: targeted = offset + delta * regime_covariate,
    delta the no-intercept least-squares slope on ``weights``; every row
    is predicted under the regime, since predicting with ``weights``
    would shrink the correction and forfeit double robustness.
    ``weighted_logistic``: a logit-scale intercept on the response
    rescaled by ``bounds = (lo, hi)`` (None for the other variants),
    offset logit(rescaled offset clipped into (1e-6, 1 - 1e-6));
    targeted stays in [lo, hi]; the residual is on the rescaled response.

    The score is certified to ``1e-8 * (1 + sum(weights))``
    (``1e-8 * (1 + n)`` for ``covariate_linear``). Raises ValueError on
    bad inputs and the :mod:`eiftools.glm` errors on solver failure.
    """
    z, b, w = (np.asarray(v, dtype=float) for v in (response, offset, weights))
    if not (all(np.all(np.isfinite(v)) for v in (z, b, w))
            and np.all(w >= 0.0) and np.any(w > 0.0)):
        raise ValueError("fluctuation inputs must be finite, with weights "
                         "nonnegative and not all zero")
    tol = DEFAULT_SCORE_TOLERANCE * (1.0 + float(np.sum(w)))
    if variant == "weighted_logistic":
        lo, hi = bounds
        if np.any(z < lo) or np.any(z > hi):
            raise ValueError("response values fall outside the scaling "
                             "bounds")
        span = hi - lo
        z_sc = (z - lo) / span
        b_sc = logit(np.clip((b - lo) / span, _SCALED_PRED_CLIP,
                             1.0 - _SCALED_PRED_CLIP))
        coef = _solve_logistic(z_sc, b_sc, w, tol)
        targeted_sc = expit(b_sc + coef)
        return FluctuationFit(variant, coef, lo + span * targeted_sc,
                              float(np.sum(w * (z_sc - targeted_sc))))
    if variant == "weighted_linear":
        coef = _solve_linear(z, b, w, 1.0, tol)
        targeted = b + coef
    elif variant == "covariate_linear":
        coef = _solve_linear(z, b, w, w,
                             DEFAULT_SCORE_TOLERANCE * (1.0 + z.shape[0]))
        targeted = b + coef * np.asarray(regime_covariate, dtype=float)
    else:
        raise ValueError(f"unknown TMLE variant {variant!r}; "
                         f"expected one of {TMLE_VARIANTS}")
    return FluctuationFit(variant, coef, targeted,
                          float(np.sum(w * (z - targeted))))


def _labelled_fluctuation(label: str, *args) -> FluctuationFit:
    """:func:`fluctuate`, with ``label`` prefixed to a failure's message."""
    try:
        return fluctuate(*args)
    except (GlmError, ValueError) as exc:
        exc.args = (f"{label}: {exc.args[0]}",) + exc.args[1:]
        raise


def tmle(data: Dataset, nuisance: NuisanceEstimates, variant: str,
         y_bounds: Optional[Tuple[float, float]] = None) -> EstimateResult:
    """Targeted maximum likelihood estimator of the untreated mean.

    Parameters
    ----------
    data : Dataset
    nuisance : NuisanceEstimates
        Initial outcome and (truncated) propensity predictions.
    variant : str
        ``covariate_linear``: no-intercept linear fluctuation with the
        clever covariate H as regressor and mu as offset.
        ``weighted_linear``: intercept-only linear fluctuation with
        offset mu, weighted by H.
        ``weighted_logistic``: intercept-only logistic fluctuation on the
        [0, 1]-rescaled outcome, weighted by H; keeps the targeted
        predictions and psi_hat inside the outcome bounds.
    y_bounds : (float, float), optional
        Scaling bounds for ``weighted_logistic``; default is the
        dataset's declared or observed outcome range.

    Returns
    -------
    EstimateResult
        psi_hat = mean(mu*), influence function evaluated at
        (mu*, psi_hat), targeting diagnostics attached.

    Raises
    ------
    DegenerateOutcomeError
        ``weighted_logistic`` with y_min = y_max.
    GlmError, ValueError
        Targeting-model failure, annotated with the variant.
    """
    h = _clever_covariate(data, nuisance)
    fluct = _labelled_fluctuation(
        f"targeting step ({variant})", data.outcome, nuisance.outcome_pred,
        h, 1.0 / nuisance.propensity_pred, variant,
        _scaling_bounds(variant, data, y_bounds))
    psi = float(np.mean(fluct.targeted_pred))
    return _result(
        f"tmle_{variant}", data, fluct.targeted_pred, nuisance, psi,
        extra={
            "variant": variant,
            "fluctuation_coefficient": fluct.coefficient,
            "score_residual": fluct.score_residual,
            "score_scale": float(1.0 + np.sum(h)),
            "targeted_pred_min": float(np.min(fluct.targeted_pred)),
            "targeted_pred_max": float(np.max(fluct.targeted_pred)),
        },
        fluctuation=fluct,
    )
