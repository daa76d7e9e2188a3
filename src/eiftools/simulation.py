"""The replication harness over the DGPs of :mod:`eiftools.dgp`, whose
public names it re-exports, and the one analysis path of both designs.

``run_experiment`` replays an estimation plan over many replicates with
independent, order-insensitive seed streams and reports bias, empirical
and estimated standard errors, CI coverage, bound violations, and
failures (never silently dropped). The true value is computed first,
on the caller's thread, and the GLM propensity models of a block of
replicates are fit in one stacked solve, each with the same bytes out.

``fit_plan_nuisance`` and ``run_estimator`` are the one path from a
dataset of either design to its estimates, for ``run_experiment`` and
the ``estimate`` command alike; they choose by the data's type. Each
replicate's draw carries the plan's ``y_bounds``, as ``estimate``'s CSV
does, so both commands analyse one draw alike.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .data import Dataset, LongDataset, _outcome_bounds
from . import dgp as _dgp, estimators as est
from . import longitudinal as long_est
from .dgp import (AnalyticTruthError, CovariateSpec, DgpConfig,
                  DgpValidationError, LinearModel, NoiseSpec, OutcomeSpec,
                  TruthResult, generate, true_value)
from .nuisance import (DEFAULT_TRUNCATION, GLM_KINDS, LearnerSpec,
                       NuisanceError, _validate_truncation, check_fold_count,
                       crossfit, fit_nuisance, stacked_propensity_predictions)
from .glm import GlmError

__all__ = [
    *_dgp.__all__,
    "EstimationPlan",
    "ReplicateRecord",
    "EstimatorSummary",
    "ExperimentReport",
    "POINT_ESTIMATORS",
    "LONG_ESTIMATORS",
    "run_experiment",
    "replicate_seed",
    "check_estimators",
    "fit_plan_nuisance",
    "run_estimator",
]

POINT_ESTIMATORS = ("gcomp", "one_step",
                    *(f"tmle_{v}" for v in est.TMLE_VARIANTS))
LONG_ESTIMATORS = ("one_step_long",
                   *(f"tmle_long_{v}" for v in est.TMLE_VARIANTS))


@dataclass(frozen=True)
class EstimationPlan:
    """How each replicate is analyzed.

    ``outcome_covariates`` / ``propensity_covariates`` restrict the
    respective model to a subset of covariate columns — the concrete
    misspecification device (omit a confounder). A wrong link on
    ``outcome_learner`` is the other one. ``None`` means use every
    covariate.
    """

    outcome_learner: LearnerSpec = LearnerSpec("glm_main_terms")
    propensity_learner: LearnerSpec = LearnerSpec("glm_main_terms")
    truncation: Tuple[float, float] = DEFAULT_TRUNCATION
    n_folds: Optional[int] = None
    outcome_covariates: Optional[Tuple[str, ...]] = None
    propensity_covariates: Optional[Tuple[str, ...]] = None
    y_bounds: Optional[Tuple[float, float]] = None

    def __post_init__(self):
        _validate_truncation(self.truncation)
        if self.y_bounds is not None:
            _outcome_bounds(self.y_bounds)

    def check_data(self, design: str, n_obs: int, names: Sequence[str]):
        """Raise ValueError unless the plan fits data of ``design`` with
        ``n_obs`` rows and covariates ``names``: the fold count lies in
        [2, ``n_obs``], and the covariate restrictions name covariates of
        the data (the longitudinal design supports none)."""
        if self.n_folds is not None:
            check_fold_count(self.n_folds, n_obs)
        restrictions = (("outcome", self.outcome_covariates),
                        ("propensity", self.propensity_covariates))
        for role, cols in restrictions:
            if cols is None:
                continue
            if design != "point":
                raise ValueError("covariate restrictions are not supported "
                                 "for the longitudinal design")
            unknown = [c for c in cols if c not in names]
            if unknown:
                raise ValueError(
                    f"unknown {role} covariates {unknown}; the data have "
                    f"{list(names)}")

    def to_dict(self) -> Dict[str, object]:
        return {
            "outcome_learner": self.outcome_learner.describe(),
            "propensity_learner": self.propensity_learner.describe(),
            "truncation": [self.truncation[0], self.truncation[1]],
            "folds": self.n_folds,
            "outcome_covariates":
                list(self.outcome_covariates)
                if self.outcome_covariates is not None else None,
            "propensity_covariates":
                list(self.propensity_covariates)
                if self.propensity_covariates is not None else None,
            "y_bounds": list(self.y_bounds)
            if self.y_bounds is not None else None,
        }


@dataclass
class ReplicateRecord:
    """One estimator's outcome on one replicate."""

    replicate: int
    estimator: str
    psi_hat: Optional[float] = None
    se: Optional[float] = None
    ci_lo: Optional[float] = None
    ci_hi: Optional[float] = None
    covered: Optional[bool] = None
    out_of_bounds: Optional[bool] = None
    error: Optional[str] = None


@dataclass
class EstimatorSummary:
    """Aggregated performance of one estimator across replicates; the
    statistics are None with fewer than 2 successful replicates."""

    estimator: str
    n_success: int
    n_failed: int
    mean_bias: Optional[float] = None
    empirical_se: Optional[float] = None
    mean_se: Optional[float] = None
    coverage: Optional[float] = None
    mean_ci_width: Optional[float] = None
    prop_out_of_bounds: Optional[float] = None


@dataclass
class ExperimentReport:
    """Everything measured by one simulation experiment."""

    design: str
    n: int
    replications: int
    seed: int
    truth: TruthResult
    plan: EstimationPlan
    summaries: List[EstimatorSummary]
    replicates: List[ReplicateRecord]

    def summary_for(self, estimator: str) -> EstimatorSummary:
        for s in self.summaries:
            if s.estimator == estimator:
                return s
        raise KeyError(f"no summary for estimator {estimator!r}")

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "schema_version": 1,
            "design": self.design,
            "n": self.n,
            "replications": self.replications,
            "seed": self.seed,
            "truth": self.truth.to_dict(),
            "plan": self.plan.to_dict(),
            "estimators": [asdict(s) for s in self.summaries],
        }


def replicate_seed(master_seed: int, replicate: int) -> np.random.SeedSequence:
    """Independent, order-insensitive stream for one replicate."""
    return np.random.SeedSequence(master_seed, spawn_key=(replicate,))


def check_estimators(design: str, names: Sequence[str]):
    """Raise ValueError unless every name is an estimator of ``design``
    and none is named twice."""
    valid = POINT_ESTIMATORS if design == "point" else LONG_ESTIMATORS
    unknown = [name for name in names if name not in valid]
    if unknown:
        raise ValueError(
            f"unknown estimators for the {design} design: {unknown}; "
            f"valid names: {list(valid)}")
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ValueError(f"estimators named more than once: {repeated}")


def fit_plan_nuisance(data: Union[Dataset, LongDataset],
                      plan: EstimationPlan, fold_seed: int = 0,
                      raw_propensity: Optional[np.ndarray] = None):
    """Nuisance estimates under the plan, for data of either design.

    Raises ValueError unless ``EstimationPlan.check_data`` accepts the
    data. ``raw_propensity``, the data's entry of
    ``nuisance.stacked_propensity_predictions``, stands for the propensity
    fit of a point plan without folds."""
    long_design = isinstance(data, LongDataset)
    plan.check_data("longitudinal" if long_design else "point", data.n_obs,
                    () if long_design else data.covariate_names)
    if raw_propensity is not None and (long_design
                                       or plan.n_folds is not None):
        raise ValueError("given propensity predictions need a point plan "
                         "without folds")
    if long_design:
        return long_est.fit_sequential_nuisances(
            data, plan.outcome_learner, plan.propensity_learner,
            plan.truncation, plan.n_folds, fold_seed)
    if plan.n_folds is not None:
        return crossfit(data, plan.outcome_learner, plan.propensity_learner,
                        plan.n_folds, fold_seed, plan.truncation,
                        outcome_covariates=plan.outcome_covariates,
                        propensity_covariates=plan.propensity_covariates)
    return fit_nuisance(data, plan.outcome_learner,
                        plan.propensity_learner, plan.truncation,
                        outcome_covariates=plan.outcome_covariates,
                        propensity_covariates=plan.propensity_covariates,
                        raw_propensity=raw_propensity)


def run_estimator(name: str, data: Union[Dataset, LongDataset], nuis
                  ) -> est.EstimateResult:
    """Run one estimator of the data's design by its name, on nuisances
    from :func:`fit_plan_nuisance`."""
    long_design = isinstance(data, LongDataset)
    check_estimators("longitudinal" if long_design else "point", (name,))
    if name == "gcomp":
        return est.gcomp(data, nuis)
    if name == "one_step":
        return est.one_step(data, nuis)
    if name == "one_step_long":
        return long_est.one_step_long(data, nuis)
    if long_design:
        return long_est.tmle_long(data, nuis, name[len("tmle_long_"):])
    return est.tmle(data, nuis, name[len("tmle_"):])


# Failures of one replicate's draw, nuisance fit or estimator; each is
# recorded on the replicate instead of ending the experiment.
_REPLICATE_FAILURES = (GlmError, NuisanceError, ValueError)


def _failure(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


# Replicates are analysed in blocks of at most this many entries of the
# stacked propensity model matrices (128 KB of float64), so a block's
# Newton solve pays numpy's per-call cost once for all its members while
# its working memory stays bounded; 16 replicates at n=500 under
# glm_main_terms on one covariate.
_BLOCK_ENTRIES = 1 << 14


def _replicates_per_block(dgp: DgpConfig, n: int,
                          plan: EstimationPlan) -> int:
    """Replicates per block: 1 unless the plan's propensity models are
    stacked (a point design, no folds, a GLM propensity learner)."""
    learner = plan.propensity_learner
    if (dgp.design != "point" or plan.n_folds is not None
            or learner.kind not in GLM_KINDS):
        return 1
    m = len(plan.propensity_covariates if plan.propensity_covariates
            is not None else dgp.w0_names)
    # The learner's column count, read off its model matrix of one row.
    p = learner.design_for(np.zeros((1, m))).shape[1]
    return max(1, _BLOCK_ENTRIES // (n * p))


def _generate_replicate(dgp: DgpConfig, n: int, seed: int, r: int
                        ) -> Union[Dataset, LongDataset, Exception]:
    """Replicate ``r``'s dataset, or the failure that its draw raised."""
    try:
        return generate(dgp, n, replicate_seed(seed, r))
    except _REPLICATE_FAILURES as exc:
        # a draw can be too degenerate to estimate from (e.g. fewer than
        # 2 rows on the regime of interest); record, don't crash
        return exc


def _replicate_records(r: int, data, raw_propensity: Optional[np.ndarray],
                       seed: int, plan: EstimationPlan,
                       estimator_names: Sequence[str],
                       bounds: Optional[Tuple[float, float]], truth: float
                       ) -> List[ReplicateRecord]:
    """One record per estimator for replicate ``r``, whose draw ``data``
    is a dataset or the failure it raised, scored against the true value
    ``truth``."""
    def failed(exc: Exception) -> List[ReplicateRecord]:
        return [ReplicateRecord(replicate=r, estimator=name,
                                error=_failure(exc))
                for name in estimator_names]

    if isinstance(data, Exception):
        return failed(data)
    fold_seed = 0  # read only by a cross-fitted plan
    if plan.n_folds is not None:
        fold_seed = int(np.random.SeedSequence(
            seed, spawn_key=(r, 1)).generate_state(1)[0])
    try:
        if plan.y_bounds is not None:
            # the bounds that ``estimate`` gives the draw's CSV
            data = replace(data, y_bounds=plan.y_bounds)
        nuis = fit_plan_nuisance(data, plan, fold_seed, raw_propensity)
    except _REPLICATE_FAILURES as exc:
        return failed(exc)
    records = []
    for name in estimator_names:
        try:
            res = run_estimator(name, data, nuis)
        except _REPLICATE_FAILURES as exc:
            records.append(ReplicateRecord(replicate=r, estimator=name,
                                           error=_failure(exc)))
            continue
        lo, hi = res.ci95
        rec = ReplicateRecord(replicate=r, estimator=name,
                              psi_hat=res.psi_hat, se=res.se, ci_lo=lo,
                              ci_hi=hi, covered=bool(lo <= truth <= hi))
        if bounds is not None:
            rec.out_of_bounds = bool(res.psi_hat < bounds[0]
                                     or res.psi_hat > bounds[1])
        records.append(rec)
    return records


def run_experiment(dgp: DgpConfig, n: int, replications: int,
                   estimator_names: Sequence[str], plan: EstimationPlan,
                   seed: int, truth_method: str = "analytic",
                   mc_draws: int = 1_000_000) -> ExperimentReport:
    """Measure estimator performance over seeded replicates.

    Each replicate r draws its data from an independent stream derived
    from (seed, r), fits nuisances per the plan, and runs every
    requested estimator. Failures (separation, degenerate folds, ...)
    are recorded on the replicate and excluded from the aggregates; they
    are never silently dropped. A failed draw or nuisance fit fails every
    estimator of the replicate; an estimator's own failure fails only
    that estimator's record.

    The true value comes first: :func:`true_value` runs once, on the
    calling thread, before replicate 0, so an error in the truth
    arguments and a truth that overflows are raised before any replicate
    is drawn, and each record's coverage is scored as it is built. A
    ``monte_carlo`` truth draws from its own stream, derived from
    (seed, 2**31), so no replicate's draws depend on it.

    Replicates run in blocks of consecutive replicates, sized so that the
    stacked propensity model matrices hold at most ``_BLOCK_ENTRIES``
    entries (16 replicates at n=500 under ``glm_main_terms`` on one
    covariate). For a point design without folds whose propensity
    learner is a GLM, a block draws all its datasets, hands them to
    ``nuisance.stacked_propensity_predictions`` (a failed draw as None)
    for one stacked Newton solve of their propensity models, and then
    gives each replicate its own ``fit_plan_nuisance`` call, handed its
    entry, and its estimators. The outcome models, every other plan and
    the ``estimate`` command fit one dataset at a time. A failed draw, a
    one-level treatment and a propensity fit that fails in the stack are
    fit alone, by the same code as without blocks. ``fit_glm`` fits one
    model by the same stacked solve, and a slice's fit does not depend on
    the other slices, so the report does not depend on the block size.
    """
    if replications < 2:
        raise ValueError("replications must be at least 2")
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    plan.check_data(dgp.design, n, dgp.w0_names)
    check_estimators(dgp.design, estimator_names)
    implied = dgp.implied_y_bounds()
    if plan.y_bounds is not None and implied is not None and not (
            plan.y_bounds[0] <= implied[0] and implied[1] <= plan.y_bounds[1]):
        raise ValueError(
            f"y_bounds {tuple(plan.y_bounds)} do not contain the outcome "
            f"bounds {implied} of the DGP")
    truth = true_value(dgp, truth_method, mc_draws,
                       np.random.SeedSequence(seed, spawn_key=(2**31,)))
    bounds = plan.y_bounds if plan.y_bounds is not None else implied

    per_block = _replicates_per_block(dgp, n, plan)
    records: List[ReplicateRecord] = []
    for start in range(0, replications, per_block):
        block = range(start, min(start + per_block, replications))
        drawn = [_generate_replicate(dgp, n, seed, r) for r in block]
        raw_propensities = (stacked_propensity_predictions(
            plan.propensity_learner,
            [None if isinstance(d, Exception) else d for d in drawn],
            plan.propensity_covariates)
            if per_block > 1 else [None] * len(drawn))
        for r, data, raw_propensity in zip(block, drawn, raw_propensities):
            records += _replicate_records(
                r, data, raw_propensity, seed, plan, estimator_names,
                bounds, truth.value)

    summaries = []
    for name in estimator_names:
        rows = [rec for rec in records if rec.estimator == name]
        ok = [rec for rec in rows if rec.error is None]
        n_ok = len(ok)
        if n_ok >= 2:
            psis = np.array([rec.psi_hat for rec in ok])
            ses = np.array([rec.se for rec in ok])
            widths = np.array([rec.ci_hi - rec.ci_lo for rec in ok])
            # np.std(psis, ddof=1), written out as in wald_inference.
            dev = psis - psis.sum() / n_ok
            summaries.append(EstimatorSummary(
                estimator=name, n_success=n_ok, n_failed=len(rows) - n_ok,
                mean_bias=float(psis.sum() / n_ok - truth.value),
                empirical_se=math.sqrt((dev * dev).sum() / (n_ok - 1)),
                mean_se=float(ses.sum() / n_ok),
                coverage=sum(rec.covered for rec in ok) / n_ok,
                mean_ci_width=float(widths.sum() / n_ok),
                prop_out_of_bounds=(
                    sum(rec.out_of_bounds for rec in ok) / n_ok
                    if bounds is not None else None),
            ))
        else:
            summaries.append(EstimatorSummary(
                estimator=name, n_success=n_ok, n_failed=len(rows) - n_ok))

    return ExperimentReport(
        design=dgp.design, n=n, replications=replications, seed=seed,
        truth=truth, plan=plan, summaries=summaries, replicates=records)
