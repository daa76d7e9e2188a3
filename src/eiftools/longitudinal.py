"""Two-time-point TMLE for the always-untreated mean E(Y^{0,0}).

The estimand is identified by the nested regression

    theta = E( E( E(Y | W0, A0=0, W1, A1=0) | W0, A0=0 ) ),

and the influence function is

    phi_i = R_i (Y_i - mu_i) + H_i (mu_i - e_i) + e_i - theta,
    R_i = I(A0_i=0, A1_i=0) / (g0_i * g1_i),   H_i = I(A0_i=0) / g0_i,

with mu = E(Y | W0, A0=0, W1, A1=0), e = E(mu | W0, A0=0),
g0 = P(A0=0 | W0), g1 = P(A1=0 | W0, A0=0, W1).

Estimation runs in six steps: fit g0 and g1; fit mu; fluctuate mu so the
R-weighted score over Y is zero (giving mu*); regress mu* on W0 among the
A0=0 rows (giving e); fluctuate e so the H-weighted score over mu* is
zero (giving e*); report theta_hat = mean(e*). Both fluctuations go
through :func:`eiftools.estimators.fluctuate`, the point design's
targeting kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from .data import Dataset, LongDataset
from .estimators import (EstimateResult, _labelled_fluctuation,
                         _scaling_bounds, wald_inference)
from .glm import Link
from .nuisance import (DEFAULT_TRUNCATION, LearnerSpec, _held_out_predictions,
                       _outcome_model, _propensity_model,
                       _validate_truncation, fold_partition)

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


@dataclass
class SequentialNuisances:
    """Per-observation nuisance vectors for the two-time-point estimand.

    ``g0``, ``g1``, ``mu_hat`` come from the initial fits; ``mu_star``,
    ``emu_hat``, ``emu_star`` are filled in as the targeting steps run.
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

    @property
    def n_obs(self) -> int:
        return self.g0.shape[0]


def _weights(data: LongDataset, nuis: SequentialNuisances
             ) -> Tuple[np.ndarray, np.ndarray]:
    """Clever weights (R, H) for the two targeting steps."""
    both = ((data.a0 == 0.0) & (data.a1 == 0.0)).astype(float)
    first = (data.a0 == 0.0).astype(float)
    return both / (nuis.g0 * nuis.g1), first / nuis.g0


def eif_long(data: LongDataset, nuisances: SequentialNuisances, theta: float,
             targeted: bool = True) -> np.ndarray:
    """Influence-function values for every observation.

    With ``targeted`` (the default) the outcome-side nuisances are the
    targeted ``mu_star``/``emu_star``; otherwise the initial
    ``mu_hat``/``emu_hat``.
    """
    mu = nuisances.mu_star if targeted else nuisances.mu_hat
    emu = nuisances.emu_star if targeted else nuisances.emu_hat
    if mu is None or emu is None:
        raise ValueError("requested nuisance vectors have not been computed")
    r, h = _weights(data, nuisances)
    return (r * (data.outcome - mu) + h * (mu - emu) + emu - float(theta))


def _history_dataset(data: LongDataset) -> Dataset:
    """Rows recast as (covariates = W0 + W1, treatment = A1) for g1 and mu.

    The conditioning on A0 = 0 happens through each fit's row mask; A0 is
    constant there so it is not a covariate.
    """
    cols = {name: data.w0[:, j] for j, name in enumerate(data.w0_names)}
    for j, name in enumerate(data.w1_names):
        cols[name] = data.w1[:, j]
    return Dataset.from_columns(cols, data.a1, data.outcome,
                                y_bounds=data.y_bounds)


def _first_stage_dataset(data: LongDataset, response: np.ndarray,
                         y_bounds=None) -> Dataset:
    """Rows recast as (covariates = W0, treatment = A0, outcome = response)."""
    cols = {name: data.w0[:, j] for j, name in enumerate(data.w0_names)}
    return Dataset.from_columns(cols, data.a0, response, y_bounds=y_bounds)


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
    each from models fit without its fold.
    """
    lo, hi = _validate_truncation(truncation)
    assignment = None if n_folds is None else fold_partition(
        data.n_obs, n_folds, 0 if seed is None else seed)
    stage1 = _first_stage_dataset(data, data.outcome)
    stage2 = _history_dataset(data)
    stage2_rows = data.a0 == 0.0
    mu_rows = stage2_rows & (data.a1 == 0.0)
    g1_degenerate = not np.any(data.a1[stage2_rows] == 1.0)

    def held_out(model, stage: Dataset, learner: LearnerSpec,
                 stratum: Optional[np.ndarray] = None) -> np.ndarray:
        def fit(rows):
            if stratum is not None:
                rows = stratum if rows is None else stratum & rows
            return model(stage, learner, rows)
        return _held_out_predictions(fit, stage.covariates, assignment)

    raw = [held_out(_propensity_model, stage1, g0_learner)]
    if not g1_degenerate:
        raw.append(held_out(_propensity_model, stage2, g1_learner,
                            stage2_rows))
    mu_hat = held_out(_outcome_model, stage2, mu_learner, mu_rows)
    g0 = np.clip(raw[0], lo, hi)
    g1 = np.ones(data.n_obs) if g1_degenerate else np.clip(raw[1], lo, hi)
    return SequentialNuisances(
        g0=g0, g1=g1, mu_hat=mu_hat,
        truncation_bounds=(lo, hi),
        fold_assignment=assignment,
        n_truncated=sum(int(np.sum((r < lo) | (r > hi))) for r in raw),
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
    ds = _first_stage_dataset(data, response, y_bounds=bounds)
    return _held_out_predictions(
        lambda rows: _outcome_model(ds, learner, rows), ds.covariates,
        assignment)


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
    emu = _fit_emu(data, nuisances.mu_hat, emu_learner, "weighted_linear",
                   None, nuisances.fold_assignment)
    work = replace(nuisances, mu_star=nuisances.mu_hat, emu_hat=emu,
                   emu_star=emu)
    r, h = _weights(data, work)
    plug_in = float(np.mean(emu))
    theta = plug_in + float(np.mean(
        r * (data.outcome - work.mu_hat) + h * (work.mu_hat - emu)))
    phi = eif_long(data, work, theta)
    se, ci = wald_inference(phi, theta)
    return LongEstimateResult(
        estimator="one_step_long", psi_hat=theta, se=se, ci95=ci, eif=phi,
        diagnostics={
            "mean_eif": float(np.mean(phi)),
            "plug_in": plug_in,
            "n_truncated": work.n_truncated,
            "g1_degenerate": work.g1_degenerate,
            "cross_fitted": work.fold_assignment is not None,
        },
        nuisances=work,
    )


def tmle_long(data: LongDataset,
              g0_learner: LearnerSpec = _DEFAULT_LEARNER,
              g1_learner: LearnerSpec = _DEFAULT_LEARNER,
              mu_learner: LearnerSpec = _DEFAULT_LEARNER,
              emu_learner: LearnerSpec = _DEFAULT_LEARNER,
              truncation: Tuple[float, float] = DEFAULT_TRUNCATION,
              variant: str = "weighted_linear",
              y_bounds: Optional[Tuple[float, float]] = None,
              n_folds: Optional[int] = None,
              seed: Optional[int] = None,
              nuisances: Optional[SequentialNuisances] = None
              ) -> LongEstimateResult:
    """Two-time-point TMLE of theta = E(Y^{0,0}).

    Steps: (1) fit g0; (2) fit g1; (3) fit mu on the A0 = A1 = 0 rows and
    fluctuate it with weights R = I(A0=A1=0)/(g0 g1), zeroing
    sum(R (Y - mu*)); (4) regress mu* on W0 among A0 = 0 rows; (5)
    fluctuate that regression with weights H = I(A0=0)/g0, zeroing
    sum(H (mu* - e*)); (6) theta_hat = mean(e*). Inference comes from the
    influence function evaluated at (mu*, e*, theta_hat).

    Parameters
    ----------
    variant : str
        Targeting-model shape for both fluctuations: ``weighted_linear``
        (default), ``covariate_linear``, or ``weighted_logistic`` (keeps
        every targeted quantity inside the outcome bounds).
    y_bounds : (float, float), optional
        Scaling bounds for ``weighted_logistic``; default is the
        dataset's declared or observed outcome range.
    n_folds, seed : optional
        Cross-fit all nuisance regressions on one shared seeded partition.
    nuisances : SequentialNuisances, optional
        Reuse precomputed g0/g1/mu_hat (learner and fold arguments for
        those fits are then ignored).

    Raises
    ------
    DegenerateOutcomeError
        ``weighted_logistic`` with y_min = y_max.
    InsufficientDataError, FoldDegeneracyError
        Too little data in a required stratum (fold named when
        cross-fitting).
    GlmError
        Model failure, annotated with the step that raised it (as is a
        ``ValueError`` from a targeting step).
    """
    if variant not in LONG_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of "
                         f"{LONG_VARIANTS}")
    bounds = _scaling_bounds(variant, data, y_bounds)

    if nuisances is None:
        nuisances = fit_sequential_nuisances(
            data, g0_learner, g1_learner, mu_learner, truncation,
            n_folds=n_folds, seed=seed)
    r, h = _weights(data, nuisances)

    step3 = _labelled_fluctuation(
        "step 3 (fluctuate mu)", data.outcome, nuisances.mu_hat, r,
        1.0 / (nuisances.g0 * nuisances.g1), variant, bounds)
    work = replace(nuisances, mu_star=step3.targeted_pred)
    work.emu_hat = _fit_emu(data, work.mu_star, emu_learner, variant, bounds,
                            work.fold_assignment)
    step5 = _labelled_fluctuation(
        "step 5 (fluctuate the W0 regression)", work.mu_star, work.emu_hat,
        h, 1.0 / work.g0, variant, bounds)
    work.emu_star = step5.targeted_pred

    theta = float(np.mean(work.emu_star))
    phi = eif_long(data, work, theta)
    se, ci = wald_inference(phi, theta)
    return LongEstimateResult(
        estimator=f"tmle_long_{variant}", psi_hat=theta, se=se, ci95=ci,
        eif=phi,
        diagnostics={
            "variant": variant,
            "mean_eif": float(np.mean(phi)),
            "step3_coefficient": step3.coefficient,
            "step3_score_residual": step3.score_residual,
            "step3_weight_sum": float(np.sum(r)),
            "step5_response": "mu_star",
            "step5_coefficient": step5.coefficient,
            "step5_score_residual": step5.score_residual,
            "step5_weight_sum": float(np.sum(h)),
            "targeted_pred_min": float(np.min(work.emu_star)),
            "targeted_pred_max": float(np.max(work.emu_star)),
            "mu_star_min": float(np.min(work.mu_star)),
            "mu_star_max": float(np.max(work.mu_star)),
            "n_truncated": work.n_truncated,
            "g1_degenerate": work.g1_degenerate,
            "cross_fitted": work.fold_assignment is not None,
        },
        fluctuation=step5,
        nuisances=work,
    )

