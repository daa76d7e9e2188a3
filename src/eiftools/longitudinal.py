"""Two-time-point TMLE for the always-untreated mean E(Y^{0,0}).

The estimand is identified by the nested regression

    theta = E( E( E(Y | W0, A0=0, W1, A1=0) | W0, A0=0 ) ),

and its influence function is the pseudo-outcome of
:func:`eiftools.estimators._pseudo_outcome` minus theta,

    phi_i = R_i (Y_i - mu_i) + H_i (mu_i - e_i) + e_i - theta,
    R_i = I(A0_i=0, A1_i=0) / (g0_i * g1_i),   H_i = I(A0_i=0) / g0_i,

with mu = E(Y | W0, A0=0, W1, A1=0), e = E(mu | W0, A0=0),
g0 = P(A0=0 | W0), g1 = P(A1=0 | W0, A0=0, W1).

:func:`fit_sequential_nuisances` fits g0 and g1, then mu.
:func:`tmle_long` fluctuates mu so the R-weighted score over Y is zero
(mu*), regresses mu* on W0 among the A0=0 rows (e), fluctuates e so the
H-weighted score over mu* is zero (e*) and reports mean(e*). Both steps
run through :func:`eiftools.estimators._targeting_step` with
:func:`~eiftools.estimators.fluctuate`'s input checks, since their
offsets come from fits. :func:`one_step_long` is the mean of the
pseudo-outcome at mu_hat and its regression e on W0:
mean(R (Y - mu_hat) + H (mu_hat - e) + e). With no W1 and A1 = 0, g1 is
exactly 1 and both reduce to the point estimators bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from .data import LongDataset
from .estimators import (EstimateResult, _clever_weights, _pseudo_outcome,
                         _result, _scaling_bounds, _targeting_step)
from .glm import Link
from .nuisance import (DEFAULT_TRUNCATION, LearnerSpec, _held_out_predictions,
                       _validate_truncation, fit_outcome, fit_propensity,
                       fold_partition)

__all__ = [
    "SequentialNuisances",
    "LongEstimateResult",
    "eif_long",
    "fit_sequential_nuisances",
    "one_step_long",
    "tmle_long",
]

_DEFAULT_LEARNER = LearnerSpec("glm_main_terms")


@dataclass(frozen=True)
class SequentialNuisances:
    """Per-observation initial fits for the two-time-point estimand.

    ``g0``, ``g1``, ``mu_hat`` come from :func:`fit_sequential_nuisances`;
    the estimators read them and leave them as they are, and keep the
    clever weights they derive from g0 and g1 on this object, per
    dataset, so its arrays must not be changed in place. ``g1`` is
    exactly 1 when the second treatment is identically 0 in the fitting
    stratum (the point-treatment reduction), in which case the truncation
    bounds are deliberately not applied to it.
    """

    g0: np.ndarray
    g1: np.ndarray
    mu_hat: np.ndarray
    fold_assignment: Optional[np.ndarray] = None
    n_truncated: int = 0
    g1_degenerate: bool = False

    def __post_init__(self):
        # Shapes only: the vectors come from the fits.
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


def eif_long(data: LongDataset, nuisances: SequentialNuisances,
             mu: np.ndarray, emu: np.ndarray, theta: float) -> np.ndarray:
    """Influence-function values at the outcome-side nuisances ``mu`` (of
    Y) and ``emu`` (of mu on W0), and the propensities of ``nuisances``."""
    weights = [w.values for w in _clever_weights(data, nuisances)]
    return _pseudo_outcome(weights, data.outcome, (mu, emu)) - float(theta)


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
    g1_degenerate = not (data.a1[stage2_rows] == 1.0).any()
    raw = [_held_out_predictions(fit_propensity, g0_learner, data.w0,
                                 (data.a0,), assignment)]
    if not g1_degenerate:
        raw.append(_held_out_predictions(fit_propensity, g1_learner, history,
                                         (data.a1,), assignment, stage2_rows))
    # The stratum is A0 = A1 = 0, not A0 = 0 with fit_outcome's own A1 = 0
    # filter: a logit-link fit rescales by the outcome range of its rows.
    mu_hat = _held_out_predictions(
        fit_outcome, mu_learner, history, (data.a1, data.outcome,
                                           data.y_bounds),
        assignment, stage2_rows & (data.a1 == 0.0))
    g0 = np.clip(raw[0], lo, hi)
    g1 = np.ones(data.n_obs) if g1_degenerate else np.clip(raw[1], lo, hi)
    return SequentialNuisances(
        g0=g0, g1=g1, mu_hat=mu_hat,
        fold_assignment=assignment,
        n_truncated=sum(int(np.count_nonzero((r < lo) | (r > hi)))
                        for r in raw),
        g1_degenerate=g1_degenerate,
    )


def _fit_emu(data: LongDataset, response: np.ndarray, learner: LearnerSpec,
             variant: str, bounds: Optional[Tuple[float, float]],
             assignment: Optional[np.ndarray]) -> np.ndarray:
    """Regress a targeted pseudo-outcome on W0 among the A0 = 0 rows.

    The pseudo-outcome is continuous; the logistic variant fits a GLM
    learner on the rescaled [0, 1] scale so the later fluctuation gets
    predictions already inside the bounds.
    """
    if variant == "weighted_logistic" and learner.link is not None:
        learner = replace(learner, link=Link.LOGIT)
    return _held_out_predictions(fit_outcome, learner, data.w0,
                                 (data.a0, response, bounds), assignment)


@dataclass
class LongEstimateResult(EstimateResult):
    """Two-time-point estimate with its nuisance trace: the input
    ``nuisances``, the (targeted) regression of Y ``mu_star``, its
    regression on W0 ``emu_hat`` and that one targeted, ``emu_star``.
    The one-step estimator targets neither: mu_hat and ``emu_hat``."""

    nuisances: Optional[SequentialNuisances] = None
    mu_star: Optional[np.ndarray] = None
    emu_hat: Optional[np.ndarray] = None
    emu_star: Optional[np.ndarray] = None


@np.errstate(over="ignore", invalid="ignore")  # see _result
def one_step_long(data: LongDataset, nuisances: SequentialNuisances,
                  emu_learner: LearnerSpec = _DEFAULT_LEARNER
                  ) -> LongEstimateResult:
    """One-step analogue: mean(R (Y - mu_hat) + H (mu_hat - e) + e), the
    plug-in mean(e) plus the mean influence function, with e the
    regression of the untargeted mu_hat on W0. Like the point one-step,
    it is not constrained to the outcome bounds."""
    _clever_weights(data, nuisances)  # checks the sizes before any fit
    mu = nuisances.mu_hat
    emu = _fit_emu(data, mu, emu_learner, "weighted_linear", None,
                   nuisances.fold_assignment)
    return _result(
        "one_step_long", data, nuisances, (mu, emu), None,
        {"plug_in": float(emu.sum() / data.n_obs),
         "g1_degenerate": nuisances.g1_degenerate},
        result=LongEstimateResult, nuisances=nuisances, mu_star=mu,
        emu_hat=emu, emu_star=emu)


@np.errstate(over="ignore", invalid="ignore")  # see _result
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
    InsufficientDataError, FoldDegeneracyError
        Too little data for the step 4 regression (fold named when
        cross-fitting).
    GlmError
        Model failure, annotated with the step that raised it (as is a
        ``ValueError`` from a targeting step).
    """
    bounds = _scaling_bounds(variant, data, y_bounds)
    r, h = _clever_weights(data, nuisances)

    # Offsets from fits may overflow, so both steps keep fluctuate's checks.
    step3 = _targeting_step("step 3 (fluctuate mu)", data.outcome,
                            nuisances.mu_hat, r, variant, bounds, False)
    mu_star = step3.targeted_pred
    emu_hat = _fit_emu(data, mu_star, emu_learner, variant, bounds,
                       nuisances.fold_assignment)
    step5 = _targeting_step("step 5 (fluctuate the W0 regression)", mu_star,
                            emu_hat, h, variant, bounds, False)
    emu_star = step5.targeted_pred
    return _result(
        f"tmle_long_{variant}", data, nuisances, (mu_star, emu_star),
        float(emu_star.sum() / data.n_obs),
        {
            "variant": variant,
            "step3_coefficient": step3.coefficient,
            "step3_score_residual": step3.score_residual,
            "step3_weight_sum": r.total,
            "step5_response": "mu_star",
            "step5_coefficient": step5.coefficient,
            "step5_score_residual": step5.score_residual,
            "step5_weight_sum": h.total,
            "targeted_pred_min": float(emu_star.min()),
            "targeted_pred_max": float(emu_star.max()),
            "mu_star_min": float(mu_star.min()),
            "mu_star_max": float(mu_star.max()),
            "g1_degenerate": nuisances.g1_degenerate,
        },
        result=LongEstimateResult, fluctuation=step5, nuisances=nuisances,
        mu_star=mu_star, emu_hat=emu_hat, emu_star=emu_star)

