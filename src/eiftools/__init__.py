"""Doubly robust estimation of treatment-free outcome means.

Implements the plug-in (g-computation), one-step/AIPW, and targeted
maximum likelihood estimators of E(Y^0) for a binary point treatment,
the two-time-point sequential TMLE of E(Y^{0,0}), one direct solver for
their one-parameter targeting steps, GLMs fit on plain model matrices,
pluggable nuisance learners that build each model matrix once per call and
fit and predict on row subsets of it (with optional cross-fitting), and a
simulation harness with known-truth oracles.

Estimation runs in two stages. ``fit_nuisance``/``crossfit`` (point) and
``fit_sequential_nuisances`` (two periods) fit the initial nuisances, each
model through ``fit_outcome`` or ``fit_propensity``; every estimator
(``gcomp``, ``one_step``, ``tmle``, ``one_step_long``, ``tmle_long``) then
takes the data and those fitted nuisances.
"""

from .data import Dataset, LongDataset
from .glm import (GlmError, GlmFit, Link, NonConvergenceError,
                  SeparationError, SingularDesignError, fit_glm, predict)
from .nuisance import (DEFAULT_TRUNCATION, FoldDegeneracyError,
                       InsufficientDataError, LearnerSpec, NuisanceError,
                       NuisanceEstimates, crossfit, fit_nuisance, fit_outcome,
                       fit_propensity)
from .estimators import (TMLE_VARIANTS, Z975, EstimateResult, FluctuationFit,
                         eif_values, fluctuate, gcomp, one_step, tmle,
                         wald_inference)
from .longitudinal import (LongEstimateResult, SequentialNuisances, eif_long,
                           fit_sequential_nuisances, one_step_long, tmle_long)
from .simulation import (DgpConfig, DgpValidationError, EstimationPlan,
                         ExperimentReport, TruthResult, generate,
                         run_experiment, true_value)

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "LongDataset",
    "GlmError",
    "GlmFit",
    "Link",
    "NonConvergenceError",
    "SeparationError",
    "SingularDesignError",
    "fit_glm",
    "predict",
    "DEFAULT_TRUNCATION",
    "FoldDegeneracyError",
    "InsufficientDataError",
    "LearnerSpec",
    "NuisanceError",
    "NuisanceEstimates",
    "crossfit",
    "fit_nuisance",
    "fit_outcome",
    "fit_propensity",
    "TMLE_VARIANTS",
    "Z975",
    "EstimateResult",
    "FluctuationFit",
    "eif_values",
    "fluctuate",
    "gcomp",
    "one_step",
    "tmle",
    "wald_inference",
    "LongEstimateResult",
    "SequentialNuisances",
    "eif_long",
    "fit_sequential_nuisances",
    "one_step_long",
    "tmle_long",
    "DgpConfig",
    "DgpValidationError",
    "EstimationPlan",
    "ExperimentReport",
    "TruthResult",
    "generate",
    "run_experiment",
    "true_value",
    "__version__",
]
