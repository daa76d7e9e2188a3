"""Two-time-point TMLE for the always-untreated mean E(Y^{0,0}).

The estimand is identified by the nested regression

    theta = E( E( E(Y | W0, A0=0, W1, A1=0) | W0, A0=0 ) ),

and the influence function is

    phi_i = R_i (Y_i - mu_i) + H_i (mu_i - e_i) + e_i - theta,
    R_i = I(A0_i=0, A1_i=0) / (g0_i * g1_i),   H_i = I(A0_i=0) / g0_i,

with mu = E(Y | W0, A0=0, W1, A1=0), e = E(mu | W0, A0=0),
g0 = P(A0=0 | W0), g1 = P(A1=0 | W0, A0=0, W1).

Estimation runs in six steps. :func:`fit_sequential_nuisances` fits g0
and g1, then mu. :func:`tmle_long` takes those fits, fluctuates mu so
the R-weighted score over Y is zero (giving mu*), regresses mu* on W0
among the A0=0 rows (giving e), fluctuates e so the H-weighted score
over mu* is zero (giving e*) and reports theta_hat = mean(e*). Both
fluctuations go through :func:`eiftools.estimators.fluctuate`, the point
design's targeting kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from .data import LongDataset
from .estimators import (EstimateResult, _check_sizes, _labelled_fluctuation,
                         _scaling_bounds, wald_inference)
from .glm import Link
from .nuisance import (DEFAULT_TRUNCATION, LearnerSpec, _held_out_predictions,
                       _validate_truncation, fit_outcome, fit_propensity,
                       fold_partition)

__all__ = [
    "LONG_VARIANTS",
    "SequentialNuisances",
    "LongEstimateResult",
    "eif_long",
    "fit_sequential_nuisances",
    "one_step_long",
    "tmle_long",
]

LONG_VARIANTS = ("weighted_linear", "covariate_linear", "weighted_logistic")

_DEFAULT_LEARNER = LearnerSpec("glm_main_terms")


@dataclass(frozen=True)
class SequentialNuisances:
    """Per-observation nuisance vectors for the two-time-point estimand.

    ``g0``, ``g1``, ``mu_hat`` come from the initial fits; an estimator
    returns a copy with ``mu_star``, ``emu_hat``, ``emu_star`` filled in.
    ``g1`` is exactly 1 when the second treatment is identically 0 in the
    fitting stratum (the point-treatment reduction), in which case the
    truncation bounds are deliberately not applied to it.
    """

    g0: np.ndarray
    g1: np.ndarray
    mu_hat: np.ndarray
    truncation_bounds: Tuple[float, float] = DEFAULT_TRUNCATION
    fold_assignment: Optional[np.ndarray] = None
    n_truncated: int = 0
    g1_degenerate: bool = False
    mu_star: Optional[np.ndarray] = None
    emu_hat: Optional[np.ndarray] = None
    emu_star: Optional[np.ndarray] = None

    def __post_init__(self):
        # Shapes only: each estimator rebuilds this object with ``replace``
        # on every call, and the vectors come from the fits.
        shape = self.g0.shape
        if len(shape) != 1 or self.g1.shape != shape \
                or self.mu_hat.shape != shape:
            raise ValueError("g0, g1 and mu_hat must be 1-d arrays of equal "
                             "length")
        if self.fold_assignment is not None \
                and self.fold_assignment.shape != shape:
            raise ValueError("fold_assignment length mismatch")

    @property
    def n_obs(self) -> int:
        return self.g0.shape[0]


def _weights(data: LongDataset, nuis: SequentialNuisances
             ) -> Tuple[np.ndarray, np.ndarray]:
    """Clever weights (R, H) for the two targeting steps.

    Raises ValueError if ``nuis`` was fit on a dataset of another size.
    """
    _check_sizes(data, nuis)
    both = ((data.a0 == 0.0) & (data.a1 == 0.0)).astype(float)
    first = (data.a0 == 0.0).astype(float)
    return both / (nuis.g0 * nuis.g1), first / nuis.g0


def eif_long(data: LongDataset, nuisances: SequentialNuisances, theta: float
             ) -> np.ndarray:
    """Influence-function values for every observation, at the targeted
    outcome-side nuisances ``mu_star``/``emu_star``.

    ``one_step_long`` evaluates it at the initial fits by setting
    ``mu_star = mu_hat`` and ``emu_star = emu_hat``.
    """
    mu, emu = nuisances.mu_star, nuisances.emu_star
    if mu is None or emu is None:
        raise ValueError("requested nuisance vectors have not been computed")
    r, h = _weights(data, nuisances)
    return (r * (data.outcome - mu) + h * (mu - emu) + emu - float(theta))


def fit_sequential_nuisances(
        data: LongDataset,
        g0_learner: LearnerSpec = _DEFAULT_LEARNER,
        g1_learner: LearnerSpec = _DEFAULT_LEARNER,
        mu_learner: LearnerSpec = _DEFAULT_LEARNER,
        truncation: Tuple[float, float] = DEFAULT_TRUNCATION,
        n_folds: Optional[int] = None,
        seed: Optional[int] = None) -> SequentialNuisances:
    """Fit g0, g1 and mu; optionally cross-fit with one shared partition.

    g0 is fit on all rows from W0. g1 is fit on the A0 = 0 rows from
    (W0, W1); when those rows contain no A1 = 1 at all, g1 is the constant
    1 (exact, untruncated), which collapses the estimand to the
    point-treatment one. mu is fit on the A0 = A1 = 0 rows from (W0, W1).
    Predictions are produced for every observation; with ``n_folds``,
    each from models fit without its fold. A0 is constant on the rows of
    g1 and mu, so it is not one of their covariates.
    """
    lo, hi = _validate_truncation(truncation)
    assignment = None if n_folds is None else fold_partition(
        data.n_obs, n_folds, 0 if seed is None else seed)
    history = np.hstack([data.w0, data.w1])
    stage2_rows = data.a0 == 0.0
    mu_rows = stage2_rows & (data.a1 == 0.0)
    g1_degenerate = not (data.a1[stage2_rows] == 1.0).any()

    def held_out(model, learner: LearnerSpec, covariates: np.ndarray,
                 stratum: Optional[np.ndarray], *args) -> np.ndarray:
        x = learner.design_for(covariates)

        def fit(rows):
            if stratum is not None:
                rows = stratum if rows is None else stratum & rows
            return model(learner, x, *args, rows)
        return _held_out_predictions(fit, x, assignment)

    raw = [held_out(fit_propensity, g0_learner, data.w0, None, data.a0)]
    if not g1_degenerate:
        raw.append(held_out(fit_propensity, g1_learner, history,
                            stage2_rows, data.a1))
    mu_hat = held_out(fit_outcome, mu_learner, history, mu_rows, data.a1,
                      data.outcome, data.y_bounds)
    g0 = np.clip(raw[0], lo, hi)
    g1 = np.ones(data.n_obs) if g1_degenerate else np.clip(raw[1], lo, hi)
    return SequentialNuisances(
        g0=g0, g1=g1, mu_hat=mu_hat,
        truncation_bounds=(lo, hi),
        fold_assignment=assignment,
        n_truncated=sum(int(np.count_nonzero((r < lo) | (r > hi)))
                        for r in raw),
        g1_degenerate=g1_degenerate,
    )


def _fit_emu(data: LongDataset, response: np.ndarray, learner: LearnerSpec,
             variant: str, bounds: Optional[Tuple[float, float]],
             assignment: Optional[np.ndarray]) -> np.ndarray:
    """Regress a targeted pseudo-outcome on W0 among the A0 = 0 rows.

    The pseudo-outcome is continuous; the logistic variant fits it on the
    rescaled [0, 1] scale so the later fluctuation gets predictions
    already inside the bounds.
    """
    if variant == "weighted_logistic":
        learner = replace(learner, link=Link.LOGIT)
    x = learner.design_for(data.w0)
    return _held_out_predictions(
        lambda rows: fit_outcome(learner, x, data.a0, response, bounds,
                                 rows),
        x, assignment)


@dataclass
class LongEstimateResult(EstimateResult):
    """Two-time-point estimate; also carries the full nuisance trace."""

    nuisances: Optional[SequentialNuisances] = None


def one_step_long(data: LongDataset, nuisances: SequentialNuisances,
                  emu_learner: LearnerSpec = _DEFAULT_LEARNER
                  ) -> LongEstimateResult:
    """One-step analogue: plug-in plus the mean influence function.

    Uses the untargeted mu_hat and a regression of mu_hat on W0; like the
    point-treatment one-step, the estimate is not constrained to the
    outcome bounds.
    """
    r, h = _weights(data, nuisances)
    emu = _fit_emu(data, nuisances.mu_hat, emu_learner, "weighted_linear",
                   None, nuisances.fold_assignment)
    work = replace(nuisances, mu_star=nuisances.mu_hat, emu_hat=emu,
                   emu_star=emu)
    n = data.n_obs
    plug_in = float(emu.sum() / n)
    theta = plug_in + float(
        (r * (data.outcome - work.mu_hat) + h * (work.mu_hat - emu)).sum() / n)
    phi = eif_long(data, work, theta)
    se, ci = wald_inference(phi, theta)
    return LongEstimateResult(
        estimator="one_step_long", psi_hat=theta, se=se, ci95=ci, eif=phi,
        diagnostics={
            "mean_eif": float(phi.sum() / n),
            "plug_in": plug_in,
            "n_truncated": work.n_truncated,
            "g1_degenerate": work.g1_degenerate,
            "cross_fitted": work.fold_assignment is not None,
        },
        nuisances=work,
    )


def tmle_long(data: LongDataset, nuisances: SequentialNuisances,
              variant: str = "weighted_linear",
              emu_learner: LearnerSpec = _DEFAULT_LEARNER,
              y_bounds: Optional[Tuple[float, float]] = None
              ) -> LongEstimateResult:
    """Two-time-point TMLE of theta = E(Y^{0,0}) from fitted nuisances.

    ``nuisances`` holds the initial fits g0, g1 and mu_hat, as from
    :func:`fit_sequential_nuisances`. The remaining steps: (3) fluctuate
    mu_hat with weights R = I(A0=A1=0)/(g0 g1), zeroing
    sum(R (Y - mu*)); (4) regress mu* on W0 among A0 = 0 rows with
    ``emu_learner``; (5) fluctuate that regression with weights
    H = I(A0=0)/g0, zeroing sum(H (mu* - e*)); (6) theta_hat = mean(e*).
    Inference comes from the influence function evaluated at
    (mu*, e*, theta_hat). With cross-fitted ``nuisances``, step 4 is
    cross-fit on the same partition.

    Parameters
    ----------
    variant : str
        Targeting-model shape for both fluctuations: ``weighted_linear``
        (default), ``covariate_linear``, or ``weighted_logistic`` (keeps
        every targeted quantity inside the outcome bounds).
    y_bounds : (float, float), optional
        Scaling bounds for ``weighted_logistic``; default is the
        dataset's declared or observed outcome range.

    Raises
    ------
    ValueError
        Unknown ``variant``, or ``nuisances`` of another dataset size.
    DegenerateOutcomeError
        ``weighted_logistic`` with y_min = y_max.
    InsufficientDataError, FoldDegeneracyError
        Too little data for the step 4 regression (fold named when
        cross-fitting).
    GlmError
        Model failure, annotated with the step that raised it (as is a
        ``ValueError`` from a targeting step).
    """
    if variant not in LONG_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of "
                         f"{LONG_VARIANTS}")
    bounds = _scaling_bounds(variant, data, y_bounds)
    r, h = _weights(data, nuisances)

    step3 = _labelled_fluctuation(
        "step 3 (fluctuate mu)", data.outcome, nuisances.mu_hat, r,
        1.0 / (nuisances.g0 * nuisances.g1), variant, bounds)
    mu_star = step3.targeted_pred
    emu_hat = _fit_emu(data, mu_star, emu_learner, variant, bounds,
                       nuisances.fold_assignment)
    step5 = _labelled_fluctuation(
        "step 5 (fluctuate the W0 regression)", mu_star, emu_hat,
        h, 1.0 / nuisances.g0, variant, bounds)
    emu_star = step5.targeted_pred
    work = replace(nuisances, mu_star=mu_star, emu_hat=emu_hat,
                   emu_star=emu_star)

    n = data.n_obs
    theta = float(emu_star.sum() / n)
    phi = eif_long(data, work, theta)
    se, ci = wald_inference(phi, theta)
    return LongEstimateResult(
        estimator=f"tmle_long_{variant}", psi_hat=theta, se=se, ci95=ci,
        eif=phi,
        diagnostics={
            "variant": variant,
            "mean_eif": float(phi.sum() / n),
            "step3_coefficient": step3.coefficient,
            "step3_score_residual": step3.score_residual,
            "step3_weight_sum": float(r.sum()),
            "step5_response": "mu_star",
            "step5_coefficient": step5.coefficient,
            "step5_score_residual": step5.score_residual,
            "step5_weight_sum": float(h.sum()),
            "targeted_pred_min": float(emu_star.min()),
            "targeted_pred_max": float(emu_star.max()),
            "mu_star_min": float(mu_star.min()),
            "mu_star_max": float(mu_star.max()),
            "n_truncated": nuisances.n_truncated,
            "g1_degenerate": nuisances.g1_degenerate,
            "cross_fitted": nuisances.fold_assignment is not None,
        },
        fluctuation=step5,
        nuisances=work,
    )

