"""Nuisance-function estimation: outcome regressions and propensity scores.

Learners are deliberately simple (GLMs with optional basis expansion, and
k-nearest-neighbors); the point is pluggability and determinism, not
predictive power. Outcome models condition on the untreated subset
(``A == 0``) because that is the only regression the target mean needs.
Propensity models predict ``P(A = 0 | W)`` and are truncated into a
positivity interval.

Cross-fitting splits the sample into seeded folds and gives each
observation predictions from models that never saw its fold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from .data import Dataset
from .glm import GlmFit, Link, fit_glm, predict

__all__ = [
    "LearnerSpec",
    "NuisanceEstimates",
    "OutcomeFit",
    "PropensityFit",
    "NuisanceError",
    "InsufficientDataError",
    "FoldDegeneracyError",
    "fit_outcome",
    "fit_propensity",
    "fit_nuisance",
    "crossfit",
    "check_fold_count",
    "DEFAULT_TRUNCATION",
]

DEFAULT_TRUNCATION = (0.01, 0.99)

# Probability-scale outcome predictions are clipped here so that
# logit(prediction) stays finite for the logistic targeting model.
OUTCOME_PROB_CLIP = 1e-6

GLM_KINDS = ("glm_main_terms", "glm_with_basis")
LEARNER_KINDS = GLM_KINDS + ("k_nearest_neighbors",)

# The learner kinds that each option of ``LearnerSpec.parse`` applies to.
_OPTION_KINDS = {"degree": ("glm_with_basis",),
                 "interactions": ("glm_with_basis",),
                 "k": ("k_nearest_neighbors",),
                 "link": GLM_KINDS}


class NuisanceError(Exception):
    """Base class for nuisance-fitting failures."""


class InsufficientDataError(NuisanceError):
    """Too few observations in the required stratum to fit a model."""


class FoldDegeneracyError(NuisanceError):
    """A cross-fitting fold's training complement cannot support the fits."""


@dataclass(frozen=True)
class LearnerSpec:
    """Configuration of one nuisance learner.

    Parameters
    ----------
    kind : str
        ``glm_main_terms``, ``glm_with_basis``, or ``k_nearest_neighbors``.
    link : Link
        Scale of a GLM outcome model. ``identity`` regresses the raw
        outcome; ``logit`` regresses the outcome rescaled into [0, 1].
        Ignored by kNN; propensity models always use ``logit``.
    degree : int
        Polynomial degree for ``glm_with_basis``.
    interactions : bool
        Add pairwise products for ``glm_with_basis``.
    k : int, optional
        Neighbor count for ``k_nearest_neighbors``.
    """

    kind: str
    link: Link = Link.IDENTITY
    degree: int = 1
    interactions: bool = False
    k: Optional[int] = None

    def __post_init__(self):
        if self.kind not in LEARNER_KINDS:
            raise ValueError(
                f"unknown learner kind {self.kind!r}; expected one of {LEARNER_KINDS}"
            )
        object.__setattr__(self, "link", Link(self.link))
        if self.kind == "glm_with_basis":
            if int(self.degree) < 1:
                raise ValueError("glm_with_basis needs degree >= 1")
            object.__setattr__(self, "degree", int(self.degree))
        if self.kind == "k_nearest_neighbors":
            if self.k is None or int(self.k) < 1:
                raise ValueError("k_nearest_neighbors needs k >= 1")
            object.__setattr__(self, "k", int(self.k))

    @classmethod
    def parse(cls, text: str) -> "LearnerSpec":
        """Parse a CLI-style learner string.

        Examples: ``glm_main_terms``, ``glm_main_terms:link=logit``,
        ``glm_with_basis:degree=2,interactions=true``,
        ``k_nearest_neighbors:k=25``. An option is accepted only for the
        kinds that use it (``k`` for kNN, ``degree`` and ``interactions``
        for ``glm_with_basis``, ``link`` for the GLMs), so every accepted
        string round-trips through ``describe``.
        """
        head, _, tail = text.strip().partition(":")
        kwargs: Dict[str, object] = {}
        if tail:
            for item in tail.split(","):
                key, sep, value = item.partition("=")
                key = key.strip()
                value = value.strip()
                if not sep or not key or not value:
                    raise ValueError(f"malformed learner option {item!r}")
                if key in ("degree", "k"):
                    kwargs[key] = int(value)
                elif key == "interactions":
                    if value.lower() not in ("true", "false"):
                        raise ValueError(
                            f"interactions must be true or false, got {value!r}")
                    kwargs[key] = value.lower() == "true"
                elif key == "link":
                    kwargs[key] = Link(value)
                else:
                    raise ValueError(f"unknown learner option {key!r}")
        spec = cls(kind=head, **kwargs)
        for key in kwargs:
            if spec.kind not in _OPTION_KINDS[key]:
                raise ValueError(f"{spec.kind} takes no {key!r} option")
        return spec

    def describe(self) -> str:
        """Canonical string form; ``parse(describe())`` round-trips."""
        parts = []
        if self.kind == "glm_with_basis":
            parts.append(f"degree={self.degree}")
            parts.append(f"interactions={'true' if self.interactions else 'false'}")
        if self.kind == "k_nearest_neighbors":
            parts.append(f"k={self.k}")
        if self.kind in GLM_KINDS and self.link is not Link.IDENTITY:
            parts.append(f"link={self.link.value}")
        if parts:
            return f"{self.kind}:{','.join(parts)}"
        return self.kind

    def design_for(self, matrix: np.ndarray) -> np.ndarray:
        """This learner's model matrix on the raw covariates ``matrix``.

        GLMs: an intercept column, then each covariate and its powers up
        to ``degree``, then pairwise products if ``interactions``. kNN:
        ``matrix`` itself. Each row depends on its own covariates only, so
        callers build it once and fit and predict on row subsets. Raises
        NuisanceError if an entry is not finite (an overflowing power).
        """
        if self.kind == "k_nearest_neighbors":
            x = matrix
        else:
            basis = self.kind == "glm_with_basis"
            cols = [np.ones(matrix.shape[0])]
            with np.errstate(over="ignore"):  # reported below
                for j in range(matrix.shape[1]):
                    cols.append(matrix[:, j])
                    if basis:
                        cols += [matrix[:, j] ** d
                                 for d in range(2, self.degree + 1)]
                if basis and self.interactions:
                    cols += [matrix[:, i] * matrix[:, j]
                             for i in range(matrix.shape[1])
                             for j in range(i + 1, matrix.shape[1])]
            x = np.column_stack(cols)
        if not np.all(np.isfinite(x)):
            raise NuisanceError(
                f"{self.describe()}: model matrix contains non-finite "
                "values (a covariate overflows the learner's basis)")
        return x


class _GlmPredictor:
    """GLM fit that predicts on rows of its learner's ``design_for`` matrix."""

    def __init__(self, fit: GlmFit):
        self.fit = fit

    def predict(self, matrix: np.ndarray) -> np.ndarray:
        return predict(self.fit, matrix)


# Query rows are searched in blocks of about this many float64 entries
# (256 KB), so working memory does not grow with the query size.
_KNN_BLOCK_ENTRIES = 1 << 15

# numpy's float64 sum over a row adds fewer than this many terms left to
# right and groups more in pairwise blocks. Narrower rows are summed one
# column at a time, which rounds the same way and avoids a reduction over
# a short last axis, several times slower on a few covariates.
_SEQUENTIAL_SUM_TERMS = 8


def _squared_distances(train_x: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """(query, train) squared distances, rounded as a per-row ``np.sum``."""
    if train_x.shape[1] >= _SEQUENTIAL_SUM_TERMS:
        return np.sum((train_x[None] - xb[:, None]) ** 2, axis=2)
    d2 = np.zeros((xb.shape[0], train_x.shape[0]))
    for j in range(train_x.shape[1]):
        d2 += (train_x[None, :, j] - xb[:, j, None]) ** 2
    return d2


def _nearest(d2: np.ndarray, k: int) -> np.ndarray:
    """Per row, the k smallest entries ordered by (distance, column index)."""
    chosen = np.argpartition(d2, k - 1, axis=1)[:, :k]
    chosen.sort(axis=1)
    dist = np.take_along_axis(d2, chosen, axis=1)
    chosen = np.take_along_axis(
        chosen, np.argsort(dist, axis=1, kind="stable"), axis=1)
    # A row with more than k entries at or below its k-th distance has a
    # tie that argpartition may have broken the wrong way.
    tied = np.count_nonzero(d2 <= dist.max(axis=1)[:, None], axis=1) > k
    if tied.any():
        chosen[tied] = np.argsort(d2[tied], axis=1, kind="stable")[:, :k]
    return chosen


class _KnnPredictor:
    """Exact k-nearest-neighbor mean by brute force, with deterministic ties.

    Distances are Euclidean on per-column standardized covariates
    (training mean/scale; constant columns get scale 1). Neighbors are
    ranked by (distance, training-row index), so ties go to the lowest
    training index. Every query row is compared with every training row,
    so time is O(n_train * n_query); query rows are processed in blocks
    of about ``_KNN_BLOCK_ENTRIES`` entries, which bounds memory.
    """

    def __init__(self, k: int, train_x: np.ndarray, train_z: np.ndarray):
        self.k = k
        self.center = train_x.mean(axis=0) if train_x.shape[1] else np.zeros(0)
        scale = train_x.std(axis=0) if train_x.shape[1] else np.zeros(0)
        self.scale = np.where(scale > 0, scale, 1.0)
        self.train_x = (train_x - self.center) / self.scale
        self.train_z = train_z

    def predict(self, matrix: np.ndarray) -> np.ndarray:
        x = (matrix - self.center) / self.scale
        m, d = self.train_x.shape
        # The pairwise-sum path holds every (query, train, column) term.
        per_row = m * d if d >= _SEQUENTIAL_SUM_TERMS else m
        step = max(1, _KNN_BLOCK_ENTRIES // per_row)
        out = np.empty(x.shape[0])
        for start in range(0, x.shape[0], step):
            d2 = _squared_distances(self.train_x, x[start:start + step])
            out[start:start + step] = np.mean(
                self.train_z[_nearest(d2, self.k)], axis=1)
        return out


class _ConstantPredictor:
    def __init__(self, value: float):
        self.value = value

    def predict(self, matrix: np.ndarray) -> np.ndarray:
        return np.full(matrix.shape[0], self.value)


@dataclass
class OutcomeFit:
    """Fitted outcome regression Ê(Y | A=0, W).

    ``predictions`` holds the full-sample predictions from
    ``fit_outcome``; it is empty for fits made only to predict held-out
    rows through ``predict``.
    """

    learner: LearnerSpec
    predictions: np.ndarray
    n_fit: int
    _predictor: object
    _bounds: Optional[Tuple[float, float]]

    def predict(self, matrix: np.ndarray) -> np.ndarray:
        """Predictions on rows of ``learner.design_for(covariates)``."""
        raw = self._predictor.predict(np.asarray(matrix, dtype=float))
        if self._bounds is None:
            return raw
        lo, hi = self._bounds
        p = np.clip(raw, OUTCOME_PROB_CLIP, 1.0 - OUTCOME_PROB_CLIP)
        return lo + (hi - lo) * p


@dataclass
class PropensityFit:
    """Fitted propensity model P̂(A = 0 | W), truncated into ``truncation``."""

    learner: LearnerSpec
    predictions: np.ndarray
    truncation: Tuple[float, float]
    n_truncated: int
    _predictor: object

    def predict(self, matrix: np.ndarray) -> np.ndarray:
        """Predictions on rows of ``learner.design_for(covariates)``."""
        raw = self._predictor.predict(np.asarray(matrix, dtype=float))
        return np.clip(raw, self.truncation[0], self.truncation[1])


@dataclass(frozen=True)
class NuisanceEstimates:
    """Per-observation nuisance predictions feeding the estimators.

    ``outcome_pred[i]`` estimates E(Y | A=0, W_i) and ``propensity_pred[i]``
    estimates P(A=0 | W_i), already truncated into ``truncation_bounds``.
    When ``fold_assignment`` is present, row ``i``'s predictions come from
    models fit without fold ``fold_assignment[i]``.
    """

    outcome_pred: np.ndarray
    propensity_pred: np.ndarray
    truncation_bounds: Tuple[float, float] = DEFAULT_TRUNCATION
    fold_assignment: Optional[np.ndarray] = None
    n_truncated: int = 0
    outcome_learner: Optional[str] = None
    propensity_learner: Optional[str] = None

    def __post_init__(self):
        mu = np.asarray(self.outcome_pred, dtype=float)
        g = np.asarray(self.propensity_pred, dtype=float)
        if mu.ndim != 1 or g.shape != mu.shape:
            raise ValueError("outcome_pred and propensity_pred must be "
                             "1-d arrays of equal length")
        if not np.all(np.isfinite(mu)):
            raise ValueError("outcome predictions contain non-finite values")
        lo, hi = _validate_truncation(self.truncation_bounds)
        if np.any(g < lo) or np.any(g > hi):
            raise ValueError("propensity predictions violate the truncation bounds")
        fa = self.fold_assignment
        if fa is not None:
            fa = np.asarray(fa, dtype=int)
            if fa.shape != mu.shape:
                raise ValueError("fold_assignment length mismatch")
        object.__setattr__(self, "outcome_pred", mu)
        object.__setattr__(self, "propensity_pred", g)
        object.__setattr__(self, "fold_assignment", fa)

    @property
    def n_obs(self) -> int:
        return self.outcome_pred.shape[0]


def _validate_truncation(truncation) -> Tuple[float, float]:
    lo, hi = float(truncation[0]), float(truncation[1])
    if not (0.0 < lo < hi < 1.0):
        raise ValueError(f"truncation bounds ({lo}, {hi}) must satisfy 0 < lo < hi < 1")
    return lo, hi


def _outcome_model(learner: LearnerSpec, x: np.ndarray,
                   treatment: np.ndarray, outcome: np.ndarray,
                   y_bounds: Optional[Tuple[float, float]],
                   rows: Optional[np.ndarray] = None) -> OutcomeFit:
    """Fit Ê(Y | A=0, W) on the untreated rows of mask ``rows`` (None: all).

    ``x`` is ``learner.design_for`` of the model's covariates on all rows.
    Without declared ``y_bounds``, logit scaling bounds are the outcome
    range of ``rows``. The returned fit's ``predictions`` is empty; call
    its ``predict`` on the rows of ``x`` whose predictions are kept.
    """
    untreated = treatment == 0.0
    if rows is not None:
        untreated &= rows
    n_fit = int(untreated.sum())
    if n_fit < 2:
        raise InsufficientDataError(
            f"need at least 2 untreated observations, found {n_fit}"
        )
    x_fit = x[untreated]
    y_fit = outcome[untreated]

    if learner.kind == "k_nearest_neighbors":
        if learner.k > n_fit:
            raise InsufficientDataError(
                f"k={learner.k} exceeds the {n_fit} untreated observations"
            )
        predictor: object = _KnnPredictor(learner.k, x_fit, y_fit)
        bounds = None
    elif learner.link is Link.LOGIT:
        seen = outcome if rows is None else outcome[rows]
        lo, hi = y_bounds or (float(np.min(seen)), float(np.max(seen)))
        if hi <= lo:
            # Constant outcome: the scaled response is undefined, but the
            # regression it stands in for is the constant itself.
            predictor = _ConstantPredictor(lo)
            bounds = None
        else:
            z = (y_fit - lo) / (hi - lo)
            predictor = _GlmPredictor(fit_glm(x_fit, z, Link.LOGIT))
            bounds = (lo, hi)
    else:
        predictor = _GlmPredictor(fit_glm(x_fit, y_fit, Link.IDENTITY))
        bounds = None

    return OutcomeFit(learner=learner, predictions=np.empty(0),
                      n_fit=n_fit, _predictor=predictor, _bounds=bounds)


def fit_outcome(data: Dataset, learner: LearnerSpec,
                covariates: Optional[Sequence[str]] = None) -> OutcomeFit:
    """Fit Ê(Y | A=0, W) on the untreated subset; predict for every row.

    Parameters
    ----------
    data : Dataset
    learner : LearnerSpec
        GLM learners regress Y on the expanded design; with
        ``link=logit`` the response is first rescaled into [0, 1] using
        the dataset's outcome bounds and predictions are mapped back.
        kNN averages the outcomes of the k nearest untreated neighbors.
    covariates : sequence of str, optional
        Restrict the model to these columns (used to force deliberate
        misspecification in simulations). Predictions still cover all rows.

    Raises
    ------
    InsufficientDataError
        Fewer than 2 untreated observations.
    """
    x = learner.design_for(data.covariate_matrix(covariates))
    out = _outcome_model(learner, x, data.treatment, data.outcome,
                         data.y_bounds)
    out.predictions = out.predict(x)
    return out


def _propensity_model(learner: LearnerSpec, x: np.ndarray,
                      treatment: np.ndarray,
                      rows: Optional[np.ndarray] = None) -> object:
    """Fit the untruncated P̂(A = 0 | W) on mask ``rows`` (None: all).

    ``x`` is ``learner.design_for`` of the model's covariates on all rows;
    the returned predictor's ``predict`` gives raw, unclipped
    probabilities on rows of ``x``.
    """
    a = treatment
    if rows is not None:
        a, x = a[rows], x[rows]
    if len(np.unique(a)) < 2:
        raise InsufficientDataError(
            "both treatment levels are required to fit a propensity model"
        )
    z = (a == 0.0).astype(float)
    if learner.kind == "k_nearest_neighbors":
        if learner.k > a.shape[0]:
            raise InsufficientDataError(
                f"k={learner.k} exceeds the {a.shape[0]} observations"
            )
        return _KnnPredictor(learner.k, x, z)
    return _GlmPredictor(fit_glm(x, z, Link.LOGIT))


def fit_propensity(data: Dataset, learner: LearnerSpec,
                   truncation: Tuple[float, float] = DEFAULT_TRUNCATION,
                   covariates: Optional[Sequence[str]] = None) -> PropensityFit:
    """Fit P̂(A = 0 | W) on all rows and truncate predictions.

    GLM learners model the untreated indicator with a logit link
    (regardless of the learner's declared outcome link); kNN averages the
    indicator over neighbors. Raw predictions are clipped into
    ``truncation`` and the number of clipped rows is recorded.

    Raises
    ------
    InsufficientDataError
        Only one treatment level present.
    """
    lo, hi = _validate_truncation(truncation)
    x = learner.design_for(data.covariate_matrix(covariates))
    predictor = _propensity_model(learner, x, data.treatment)
    raw = predictor.predict(x)
    n_trunc = int(np.sum((raw < lo) | (raw > hi)))
    return PropensityFit(learner=learner,
                         predictions=np.clip(raw, lo, hi),
                         truncation=(lo, hi),
                         n_truncated=n_trunc,
                         _predictor=predictor)


def _held_out_predictions(fit: Callable[[Optional[np.ndarray]], object],
                          x: np.ndarray,
                          assignment: Optional[np.ndarray]) -> np.ndarray:
    """Predict every row of ``x`` from a model fit without that row's fold.

    ``fit(rows)`` returns a model with ``predict``, fit on the boolean
    row mask ``rows`` (None: all rows). Without an ``assignment``, no
    cross-fitting is the single split whose training and held-out rows
    are both the whole sample. A fold's ``InsufficientDataError`` becomes
    a ``FoldDegeneracyError`` naming the fold.
    """
    if assignment is None:
        return fit(None).predict(x)
    out = np.empty(x.shape[0])
    for fold in range(int(assignment.max()) + 1):
        held = assignment == fold
        try:
            model = fit(~held)
        except InsufficientDataError as exc:
            raise FoldDegeneracyError(f"fold {fold}: {exc}") from exc
        out[held] = model.predict(x[held])
    return out


def _point_nuisances(data: Dataset, outcome_learner: LearnerSpec,
                     propensity_learner: LearnerSpec,
                     truncation: Tuple[float, float],
                     outcome_covariates: Optional[Sequence[str]],
                     propensity_covariates: Optional[Sequence[str]],
                     assignment: Optional[np.ndarray]) -> NuisanceEstimates:
    """Both point nuisances, predicted on held-out rows of ``assignment``."""
    lo, hi = _validate_truncation(truncation)
    a = data.treatment
    x_out = outcome_learner.design_for(
        data.covariate_matrix(outcome_covariates))
    outcome_pred = _held_out_predictions(
        lambda rows: _outcome_model(outcome_learner, x_out, a, data.outcome,
                                    data.y_bounds, rows),
        x_out, assignment)
    x_prop = propensity_learner.design_for(
        data.covariate_matrix(propensity_covariates))
    raw = _held_out_predictions(
        lambda rows: _propensity_model(propensity_learner, x_prop, a, rows),
        x_prop, assignment)
    return NuisanceEstimates(
        outcome_pred=outcome_pred,
        propensity_pred=np.clip(raw, lo, hi),
        truncation_bounds=(lo, hi),
        fold_assignment=assignment,
        n_truncated=int(np.sum((raw < lo) | (raw > hi))),
        outcome_learner=outcome_learner.describe(),
        propensity_learner=propensity_learner.describe(),
    )


def fit_nuisance(data: Dataset, outcome_learner: LearnerSpec,
                 propensity_learner: LearnerSpec,
                 truncation: Tuple[float, float] = DEFAULT_TRUNCATION,
                 outcome_covariates: Optional[Sequence[str]] = None,
                 propensity_covariates: Optional[Sequence[str]] = None,
                 ) -> NuisanceEstimates:
    """Fit both nuisances on the full sample (no cross-fitting)."""
    return _point_nuisances(data, outcome_learner, propensity_learner,
                            truncation, outcome_covariates,
                            propensity_covariates, None)


def check_fold_count(n_folds: int, n_obs: int) -> None:
    """Raise ValueError unless ``n_folds`` lies in [2, ``n_obs``]."""
    if not (2 <= n_folds <= n_obs):
        raise ValueError(f"fold count {n_folds} must be in [2, {n_obs}]")


def fold_partition(n_obs: int, n_folds: int, seed: int) -> np.ndarray:
    """Seeded near-equal fold assignment; returns fold index per row."""
    check_fold_count(n_folds, n_obs)
    rng = np.random.default_rng(seed)
    order = rng.permutation(n_obs)
    assignment = np.empty(n_obs, dtype=int)
    for fold, rows in enumerate(np.array_split(order, n_folds)):
        assignment[rows] = fold
    return assignment


def crossfit(data: Dataset, outcome_learner: LearnerSpec,
             propensity_learner: LearnerSpec, n_folds: int, seed: int,
             truncation: Tuple[float, float] = DEFAULT_TRUNCATION,
             outcome_covariates: Optional[Sequence[str]] = None,
             propensity_covariates: Optional[Sequence[str]] = None,
             ) -> NuisanceEstimates:
    """Cross-fitted nuisance estimates.

    The sample is split into ``n_folds`` seeded, near-equal folds. For
    each fold, both models are fit on the complement and predict that
    fold's rows, so no observation's prediction depends on its own fold.

    Raises
    ------
    FoldDegeneracyError
        Some fold's training complement lacks a treatment level or has
        too few untreated rows for the learner; the message names the fold.
    """
    return _point_nuisances(data, outcome_learner, propensity_learner,
                            truncation, outcome_covariates,
                            propensity_covariates,
                            fold_partition(data.n_obs, n_folds, seed))
