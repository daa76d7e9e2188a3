"""Point-treatment estimators of the untreated mean E(Y^0), and what
the estimators of both designs share.

The influence function of both designs is written once, in
:func:`_pseudo_outcome`: a pseudo-outcome over the clever weights W_k
and regressions Q_k, last period first,

    sum_k W_k (Q_{k+1} - Q_k) + Q_1   (Q_{K+1} = Y),

minus psi. Here it is H (Y - mu) + mu - psi for psi = E(E(Y | A=0, W)),
with H = I(A=0)/g, mu estimating E(Y | A=0, W) and g P(A=0 | W). The
point estimators are its one-period case, and :func:`_result` assembles
every estimate of both designs from it. ``gcomp`` averages mu and
``one_step`` the pseudo-outcome. ``tmle`` first fluctuates mu to mu* so
that sum(H (Y - mu*)) is zero, then averages mu*; of its three
fluctuations, the weighted logistic one keeps mu* and psi inside the
outcome bounds. Each targeting step of both designs runs through
:func:`_targeting_step`, which names the step in a failure's message.

The clever weights are derived once per (data, nuisances) pair and
shared by every estimator of that pair. The estimators trust what the
``Dataset`` and ``NuisanceEstimates`` constructors checked, so the point
targeting step skips :func:`fluctuate`'s input checks unless sum(H)
overflows; the two-period steps keep them, since their offsets come
from fits and may overflow. The public functions keep their checks:
:func:`eif_values` checks the lengths and that g lies strictly in
(0, 1), :func:`fluctuate` that its inputs are finite with weights
nonnegative and not all zero, and :func:`wald_inference` that there are
two or more values with a finite variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, NamedTuple, Optional, Tuple, Union

import numpy as np

from ._numeric import expit, logit, softplus
from .data import Dataset, LongDataset
from .glm import (DEFAULT_MAX_ITERATIONS, DEFAULT_SCORE_TOLERANCE,
                  SEPARATION_NORM, GlmError, NonConvergenceError,
                  SeparationError, SingularDesignError)
from .nuisance import OUTCOME_PROB_CLIP, NuisanceEstimates

__all__ = [
    "TMLE_VARIANTS",
    "Z975",
    "EstimateResult",
    "FluctuationFit",
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
    if not (0.0 < g.min() and g.max() < 1.0):
        raise ValueError("propensity predictions must lie strictly in (0, 1)")
    h = (data.treatment == 0.0).astype(float) / g
    return _pseudo_outcome((h,), data.outcome, (mu,)) - float(psi)


def wald_inference(eif: np.ndarray, psi_hat: float
                   ) -> Tuple[float, Tuple[float, float]]:
    """Standard error and 95% CI from the influence-function values.

    se = sqrt(sample variance (n-1 divisor) of the values / n). Raises
    ValueError when that variance overflows, so no interval is infinite.
    """
    phi = np.asarray(eif, dtype=float)
    n = phi.shape[0]
    if n < 2:
        raise ValueError("influence-function inference needs n >= 2")
    # The arithmetic of np.var(phi, ddof=1), without its per-call cost.
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        dev = phi - phi.sum() / n
        se = math.sqrt((dev * dev).sum() / (n - 1) / n)
    if not math.isfinite(se):
        raise ValueError("the influence-function variance overflows: the "
                         "standard error is not finite")
    return se, (psi_hat - Z975 * se, psi_hat + Z975 * se)


class _CleverWeight(NamedTuple):
    """One clever weight: ``values`` = I(regime) / p, its regime
    covariate ``inverse`` = 1 / p, and ``total`` = sum(values)."""

    values: np.ndarray
    inverse: np.ndarray
    total: float


def _clever_weights(data: Union[Dataset, LongDataset], nuisance
                    ) -> Tuple[_CleverWeight, ...]:
    """The clever weights of ``nuisance`` on ``data``: (H,) for the point
    design, H = I(A=0)/g; (R, H) for the two-period one,
    R = I(A0=A1=0)/(g0 g1) and H = I(A0=0)/g0.

    They are derived once per (data, nuisance) pair and memoised on
    ``nuisance``, keyed by the identity of ``data``; the key holds
    ``data`` itself, so a later dataset cannot reuse a freed one's id.
    Raises ValueError if ``nuisance`` was fit on a dataset of another
    size.
    """
    memo = getattr(nuisance, "_clever_weights", None)
    if memo is not None and memo[0] is data:
        return memo[1]
    if nuisance.n_obs != data.n_obs:
        raise ValueError("nuisance estimates do not match the dataset size")
    if isinstance(data, LongDataset):
        first = data.a0 == 0.0
        regimes = ((first & (data.a1 == 0.0), nuisance.g0 * nuisance.g1),
                   (first, nuisance.g0))
    else:
        regimes = ((data.treatment == 0.0, nuisance.propensity_pred),)
    weights = []
    for indicator, probability in regimes:
        # indicator * (1/p) rounds as indicator / p: the indicator is 0 or 1.
        inverse = 1.0 / probability
        values = indicator * inverse
        weights.append(_CleverWeight(values, inverse, float(values.sum())))
    memo = (data, tuple(weights))
    object.__setattr__(nuisance, "_clever_weights", memo)
    return memo[1]


def _pseudo_outcome(weights, outcome, predictions) -> np.ndarray:
    """sum_k W_k (Q_{k+1} - Q_k) + Q_1 with Q_{K+1} = ``outcome``, for the
    weight values W_K..W_1 and the regressions Q_K..Q_1, last period
    first: (H,) and (mu,), or (R, H) and (mu, e)."""
    total = weights[0] * (outcome - predictions[0])
    for k in range(1, len(weights)):
        total += weights[k] * (predictions[k - 1] - predictions[k])
    total += predictions[-1]
    return total


def _result(estimator: str, data: Union[Dataset, LongDataset], nuisance,
            predictions, psi: Optional[float], extra: Dict[str, object],
            result: type = EstimateResult, **fields) -> EstimateResult:
    """The estimate of ``estimator``, of either design, as a ``result``
    with the remaining ``fields``: ``psi``, or None for the one-step mean
    of the pseudo-outcome at ``predictions`` (see :func:`_pseudo_outcome`),
    with Wald inference on its influence function, and diagnostics that
    every estimate reports (``mean_eif``; ``n_truncated`` and
    ``cross_fitted`` of ``nuisance``; a point design's learners) followed
    by ``extra``. Raises ValueError when psi or the influence function
    overflowed: each estimator computes them with numpy's overflow and
    invalid-value warnings off, so this check reports it."""
    weights = [w.values for w in _clever_weights(data, nuisance)]
    pseudo = _pseudo_outcome(weights, data.outcome, predictions)
    if psi is None:
        psi = float(pseudo.sum() / data.n_obs)
    phi = pseudo - psi
    # A finite sum has finite terms, so one sum serves this check and
    # mean_eif; a finite phi whose sum overflows fails wald_inference's
    # variance check, as before.
    total = float(phi.sum())
    if not (math.isfinite(psi)
            and (math.isfinite(total) or np.isfinite(phi).all())):
        raise ValueError(f"the estimate overflows: the {estimator} value or "
                         "its influence-function values are not finite")
    se, ci = wald_inference(phi, psi)
    diagnostics: Dict[str, object] = {
        "mean_eif": total / phi.shape[0],
        "n_truncated": nuisance.n_truncated,
        "cross_fitted": nuisance.fold_assignment is not None,
    }
    if isinstance(nuisance, NuisanceEstimates):
        diagnostics["outcome_learner"] = nuisance.outcome_learner
        diagnostics["propensity_learner"] = nuisance.propensity_learner
    diagnostics.update(extra)
    return result(estimator=estimator, psi_hat=psi, se=se, ci95=ci, eif=phi,
                  diagnostics=diagnostics, **fields)


@np.errstate(over="ignore", invalid="ignore")  # see _result
def gcomp(data: Dataset, nuisance: NuisanceEstimates) -> EstimateResult:
    """Plug-in estimator: the mean of the outcome-model predictions.

    The reported standard error evaluates the influence function at the
    plug-in solution. With data-adaptive nuisance learners this interval
    has no general validity guarantee; the caveat is flagged in
    diagnostics.
    """
    mu = nuisance.outcome_pred
    return _result(
        "gcomp", data, nuisance, (mu,), float(mu.sum() / data.n_obs),
        {"inference_caveat":
         "plug-in estimator; influence-function interval is not "
         "theoretically valid with data-adaptive nuisance learners"})


@np.errstate(over="ignore", invalid="ignore")  # see _result
def one_step(data: Dataset, nuisance: NuisanceEstimates) -> EstimateResult:
    """One-step (AIPW) estimator: plug-in plus the mean influence function.

    psi_hat = mean( H_i (Y_i - mu_i) + mu_i ) with H_i = I(A_i=0)/g_i.
    The influence function for inference is evaluated at the plug-in
    nuisances and this psi_hat, where its mean is zero by construction.
    """
    return _result("one_step", data, nuisance, (nuisance.outcome_pred,),
                   None, {})


def _scaling_bounds(variant: str, data, y_bounds: Optional[Tuple[float, float]]
                    ) -> Optional[Tuple[float, float]]:
    """Bounds of ``weighted_logistic`` targeting: ``y_bounds``, else the
    data's outcome range. None for the other variants."""
    if variant != "weighted_logistic":
        return None
    lo, hi = y_bounds if y_bounds is not None else data.outcome_bounds()
    return float(lo), float(hi)


def _solve_linear(z, b, w, x, tol: float) -> float:
    """Root c of sum(w (z - b - c x)) = 0 in closed form, with up to
    three refinement rounds if rounding leaves the score above ``tol``.

    Raises ValueError when the slope sum(w x) or the sum of the score's
    term magnitudes overflows: the score then has no finite rounding
    bound, so no coefficient can be certified (NonConvergenceError
    otherwise)."""
    wx = float((w * x).sum())
    c, score = 0.0, float((w * (z - b)).sum())
    for _ in range(4):
        c += score / wx
        score = float((w * (z - (b + c * x))).sum())
        if abs(score) <= tol:
            return c
    with np.errstate(over="ignore", invalid="ignore"):  # checked here
        magnitude = float(np.abs(w * (z - (b + c * x))).sum())
    if not (math.isfinite(wx) and math.isfinite(magnitude)):
        raise ValueError("the weighted least-squares score overflows: the "
                         "slope or the sum of its terms' magnitudes is not "
                         "finite")
    raise NonConvergenceError(
        "weighted least squares did not reach the score tolerance",
        np.array([c]), np.array([score]), 4)


def _solve_logistic(z, b, w, tol: float) -> float:
    """Weighted logistic intercept with offset ``b``, by the Newton
    iteration of :func:`eiftools.glm.fit_glm`'s logit solver, weighted
    and for one parameter: start at 0, take the step score/information,
    halve it until the weighted Bernoulli log-likelihood of the
    positive-weight rows does not drop."""
    active = slice(None) if w.min() > 0 else w > 0
    z_active, w_active = z[active], w[active]

    def weighted_loglik(eta):  # z*eta - log(1 + exp(eta)) per row
        return float((w_active * (z_active * eta - softplus(eta))).sum())

    coef, eta = 0.0, b
    loglik = weighted_loglik(b[active])
    for iteration in range(DEFAULT_MAX_ITERATIONS + 1):
        mu = expit(eta)
        score = float((w * (z - mu)).sum())
        if abs(score) <= tol:
            return coef
        if iteration == DEFAULT_MAX_ITERATIONS:
            raise NonConvergenceError(
                f"logit fit did not converge in {iteration} iterations",
                np.array([coef]), np.array([score]), iteration)
        info = float((w * mu * (1.0 - mu)).sum())
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
            loglik_cand = weighted_loglik(eta[active])
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
    Bounds of zero width hold one value, so every response equals it and
    it is its own targeted prediction (coefficient and residual 0).

    The score is certified to ``1e-8 * (1 + sum(weights))``
    (``1e-8 * (1 + n)`` for ``covariate_linear``). Raises ValueError on
    bad inputs and the :mod:`eiftools.glm` errors on solver failure.
    """
    z, b, w = (np.asarray(v, dtype=float) for v in (response, offset, weights))
    # ``w.size`` keeps empty weights on this message rather than numpy's
    # zero-size reduction error.
    if not (np.isfinite(z).all() and np.isfinite(b).all()
            and np.isfinite(w).all() and w.size
            and 0.0 <= w.min() and w.max() > 0.0):
        raise ValueError("fluctuation inputs must be finite, with weights "
                         "nonnegative and not all zero")
    return _solve_fluctuation(z, b, w, regime_covariate, variant, bounds,
                              float(w.sum()))


def _solve_fluctuation(z: np.ndarray, b: np.ndarray, w: np.ndarray,
                       regime_covariate, variant: str,
                       bounds: Optional[Tuple[float, float]],
                       w_total: float) -> FluctuationFit:
    """:func:`fluctuate` on inputs that passed its checks, with
    ``w_total`` the sum of the weights ``w``."""
    tol = DEFAULT_SCORE_TOLERANCE * (1.0 + w_total)
    if variant == "weighted_logistic":
        lo, hi = bounds
        if not (lo <= z.min() and z.max() <= hi):
            raise ValueError("response values fall outside the scaling "
                             "bounds")
        span = hi - lo
        if span == 0.0:
            return FluctuationFit(variant, 0.0, np.full(z.shape[0], lo), 0.0)
        z_sc = (z - lo) / span
        b_sc = logit(np.clip((b - lo) / span, OUTCOME_PROB_CLIP,
                             1.0 - OUTCOME_PROB_CLIP))
        coef = _solve_logistic(z_sc, b_sc, w, tol)
        targeted_sc = expit(b_sc + coef)
        return FluctuationFit(variant, coef, lo + span * targeted_sc,
                              float((w * (z_sc - targeted_sc)).sum()))
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
                          float((w * (z - targeted)).sum()))


def _targeting_step(label: str, response, offset, weight: _CleverWeight,
                    variant: str, bounds, checked: bool) -> FluctuationFit:
    """The fluctuation of ``offset`` toward ``response`` with the clever
    weight ``weight``, ``label`` prefixed to a failure's message. A
    ``checked`` step, whose inputs the constructors checked, skips
    :func:`fluctuate`'s checks unless the weight's sum overflows (a
    weight is finite when its sum is)."""
    args = (response, offset, weight.values, weight.inverse, variant, bounds)
    try:
        if checked and math.isfinite(weight.total):
            return _solve_fluctuation(*args, weight.total)
        return fluctuate(*args)
    except (GlmError, ValueError) as exc:
        exc.args = (f"{label}: {exc.args[0]}",) + exc.args[1:]
        raise


@np.errstate(over="ignore", invalid="ignore")  # see _result
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
    GlmError, ValueError
        Targeting-model failure, annotated with the variant.
    """
    (h,) = _clever_weights(data, nuisance)
    # The Dataset and NuisanceEstimates constructors checked y and mu.
    fluct = _targeting_step(f"targeting step ({variant})", data.outcome,
                            nuisance.outcome_pred, h, variant,
                            _scaling_bounds(variant, data, y_bounds), True)
    mu_star = fluct.targeted_pred
    return _result(
        f"tmle_{variant}", data, nuisance, (mu_star,),
        float(mu_star.sum() / data.n_obs),
        {
            "variant": variant,
            "fluctuation_coefficient": fluct.coefficient,
            "score_residual": fluct.score_residual,
            "score_scale": float(1.0 + h.total),
            "targeted_pred_min": float(mu_star.min()),
            "targeted_pred_max": float(mu_star.max()),
        },
        fluctuation=fluct)
