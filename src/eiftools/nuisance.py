"""Nuisance-function estimation: outcome regressions and propensity scores.

Learners are deliberately simple (GLMs with optional basis expansion, and
k-nearest-neighbors); the point is pluggability and determinism, not
predictive power. Outcome models condition on the untreated subset
(``A == 0``) because that is the only regression the target mean needs.
Propensity models predict ``P(A = 0 | W)`` and are truncated into a
positivity interval.

``fit_outcome`` and ``fit_propensity`` fit one model on rows of a
learner's model matrix and return its predictor; they are the only way
a nuisance model is fit on one dataset. ``fit_nuisance`` and ``crossfit``
drive them over the folds of a point dataset, and
``longitudinal.fit_sequential_nuisances`` over the strata of a
two-period one. ``stacked_propensity_predictions`` fits the GLM
propensity models of several datasets of one size in one Newton solve,
with ``fit_propensity``'s bits, for ``fit_nuisance`` to take.

Cross-fitting splits the sample into seeded folds and gives each
observation predictions from models that never saw its fold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .data import Dataset
from .glm import GlmFit, Link, fit_glm, fit_logit_stack, predict

__all__ = [
    "LearnerSpec",
    "NuisanceEstimates",
    "NuisanceError",
    "InsufficientDataError",
    "FoldDegeneracyError",
    "fit_outcome",
    "fit_propensity",
    "stacked_propensity_predictions",
    "fit_nuisance",
    "crossfit",
    "check_fold_count",
    "DEFAULT_TRUNCATION",
]

DEFAULT_TRUNCATION = (0.01, 0.99)

# Probability-scale outcome predictions, and the scaled predictions of the
# logistic targeting step, are clipped here so that logit() stays finite.
OUTCOME_PROB_CLIP = 1e-6

GLM_KINDS = ("glm_main_terms", "glm_with_basis")
LEARNER_KINDS = GLM_KINDS + ("k_nearest_neighbors",)

# Each ``LearnerSpec`` option: the learner kinds that take it, and its
# default on those kinds. Any other kind holds it as None.
_OPTIONS = {"degree": (("glm_with_basis",), 1),
            "interactions": (("glm_with_basis",), False),
            "k": (("k_nearest_neighbors",), None),
            "link": (GLM_KINDS, Link.IDENTITY)}


class NuisanceError(Exception):
    """Base class for nuisance-fitting failures."""


class InsufficientDataError(NuisanceError):
    """Too few observations in the required stratum to fit a model."""


class FoldDegeneracyError(NuisanceError):
    """A cross-fitting fold's training complement cannot support the fits."""


@dataclass(frozen=True)
class LearnerSpec:
    """Configuration of one nuisance learner. It holds only the options
    its kind takes; setting any other raises ValueError.

    Parameters
    ----------
    kind : str
        ``glm_main_terms``, ``glm_with_basis``, or ``k_nearest_neighbors``.
    link : Link, optional
        Scale of a GLM outcome model (default ``identity``). ``identity``
        regresses the raw outcome; ``logit`` regresses the outcome
        rescaled into [0, 1]. Propensity models always use ``logit``.
    degree : int, optional
        Polynomial degree for ``glm_with_basis`` (default 1).
    interactions : bool, optional
        Add pairwise products for ``glm_with_basis`` (default False).
    k : int
        Neighbor count for ``k_nearest_neighbors``; required.
    """

    kind: str
    link: Optional[Link] = None
    degree: Optional[int] = None
    interactions: Optional[bool] = None
    k: Optional[int] = None

    def __post_init__(self):
        if self.kind not in LEARNER_KINDS:
            raise ValueError(
                f"unknown learner kind {self.kind!r}; expected one of {LEARNER_KINDS}"
            )
        for key, (kinds, default) in _OPTIONS.items():
            if self.kind not in kinds:
                if getattr(self, key) is not None:
                    raise ValueError(f"{self.kind} takes no {key!r} option")
            elif getattr(self, key) is None:
                object.__setattr__(self, key, default)
        if self.kind in GLM_KINDS:
            object.__setattr__(self, "link", Link(self.link))
        if self.kind == "glm_with_basis":
            if int(self.degree) < 1:
                raise ValueError("glm_with_basis needs degree >= 1")
            object.__setattr__(self, "degree", int(self.degree))
            object.__setattr__(self, "interactions", bool(self.interactions))
        if self.kind == "k_nearest_neighbors":
            if self.k is None or int(self.k) < 1:
                raise ValueError("k_nearest_neighbors needs k >= 1")
            object.__setattr__(self, "k", int(self.k))

    @classmethod
    def parse(cls, text: str) -> "LearnerSpec":
        """Parse a CLI-style learner string into the spec it names.

        Examples: ``glm_main_terms``, ``glm_main_terms:link=logit``,
        ``glm_with_basis:degree=2,interactions=true``,
        ``k_nearest_neighbors:k=25``. An option given twice is an error,
        and the constructor rejects an option that the kind does not take.
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
                if key in kwargs:
                    raise ValueError(f"learner option {key!r} given twice")
                if key in ("degree", "k"):
                    try:
                        kwargs[key] = int(value)
                    except ValueError:
                        raise ValueError(f"{key} must be an integer, "
                                         f"got {value!r}") from None
                elif key == "interactions":
                    if value.lower() not in ("true", "false"):
                        raise ValueError(
                            f"interactions must be true or false, got {value!r}")
                    kwargs[key] = value.lower() == "true"
                elif key == "link":
                    kwargs[key] = Link(value)
                else:
                    raise ValueError(f"unknown learner option {key!r}")
        return cls(kind=head, **kwargs)

    def describe(self) -> str:
        """Canonical string form, naming every option the spec holds but
        the identity link; ``parse(describe())`` round-trips."""
        values = {key: getattr(self, key) for key in _OPTIONS}
        parts = [f"{key}={getattr(v, 'value', str(v).lower())}"
                 for key, v in values.items() if v not in (None, Link.IDENTITY)]
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
            n, m = matrix.shape
            degree = self.degree if basis else 1
            pairs = ([(i, j) for i in range(m) for j in range(i + 1, m)]
                     if basis and self.interactions else [])
            # Filled in place, in np.column_stack's layout: covariate j's
            # powers 1 to degree are columns 1 + j * degree onwards.
            x = np.empty((n, 1 + m * degree + len(pairs)))
            x[:, 0] = 1.0
            x[:, 1:1 + m * degree:degree] = matrix
            with np.errstate(over="ignore"):  # reported below
                for j in range(m):
                    for d in range(2, degree + 1):
                        x[:, j * degree + d] = matrix[:, j] ** d
                for k, (i, j) in enumerate(pairs, 1 + m * degree):
                    x[:, k] = matrix[:, i] * matrix[:, j]
        if not np.isfinite(x).all():
            raise NuisanceError(
                f"{self.describe()}: model matrix contains non-finite "
                "values (a covariate overflows the learner's basis)")
        return x


class _GlmPredictor:
    """GLM fit that predicts on rows of its learner's ``design_for`` matrix.

    With ``bounds`` (lo, hi) the fit regresses the outcome rescaled into
    [0, 1] with a logit link, and predictions are mapped back onto
    [lo, hi] after clipping by ``OUTCOME_PROB_CLIP``.
    """

    def __init__(self, fit: GlmFit,
                 bounds: Optional[Tuple[float, float]] = None):
        self.fit = fit
        self.bounds = bounds

    def predict(self, matrix: np.ndarray) -> np.ndarray:
        raw = predict(self.fit, matrix)
        if self.bounds is None:
            return raw
        lo, hi = self.bounds
        p = np.clip(raw, OUTCOME_PROB_CLIP, 1.0 - OUTCOME_PROB_CLIP)
        return lo + (hi - lo) * p


# Query rows are searched in blocks whose full-width distance matrix
# holds about this many float64 entries (256 KB), so working memory does
# not grow with the query size.
_KNN_BLOCK_ENTRIES = 1 << 15

# Largest |standardized covariate| of a predicted row. Training rows lie
# within sqrt(m) standard deviations, so a squared distance then sums one
# square of about (1e150)^2 at most per covariate, far below the float64
# maximum of about 1.8e308.
_KNN_MAX_STANDARDIZED = 1e150

# numpy's float64 sum over a row adds fewer than this many terms left to
# right and groups more in pairwise blocks. Narrower rows are summed one
# column at a time, which rounds the same way and avoids a reduction over
# a short last axis, several times slower on a few covariates.
_SEQUENTIAL_SUM_TERMS = 8


def _first_coordinate(x: np.ndarray) -> np.ndarray:
    """Column 0 of ``x``; zeros when it has no columns."""
    return x[:, 0] if x.shape[1] else np.zeros(x.shape[0])


class _KnnPredictor:
    """Exact k-nearest-neighbor mean by a sorted-projection search.

    Distances are Euclidean on per-column standardized covariates
    (training mean/scale; constant columns get scale 1). Neighbors are
    ranked by (distance, training-row index), so ties go to the lowest
    training index, and every prediction is bit-identical to comparing
    each query row with every training row.

    The search follows Friedman, Baskett & Shustek (1975), "An algorithm
    for finding nearest neighbors". Training rows are kept sorted on
    their first coordinate, and query rows sorted the same way are
    walked in blocks sized by ``_KNN_BLOCK_ENTRIES``, which bounds
    memory. A block computes distances only to the window of training
    rows whose first coordinate lies within the previous block's
    largest k-th distance of the block's own first-coordinate range;
    the first block's window is every row. A query row is settled when
    its k-th squared distance is strictly below the squared
    first-coordinate gap to each window edge. Every row outside the
    window is then strictly farther than its k-th neighbor, because a
    rounded sum of nonnegative squares is at least each of its terms.
    The rows left unsettled are searched again, together after the walk,
    over every training row.

    When every training response is +0.0 or 1.0, a row's mean is the
    number of ones among its k nearest over k. A sum of zeros and ones
    is exact in any order, so this skips the ranking with the same bits.
    """

    def __init__(self, k: int, train_x: np.ndarray, train_z: np.ndarray):
        self.k = k
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            self.center = (train_x.mean(axis=0) if train_x.shape[1]
                           else np.zeros(0))
            scale = train_x.std(axis=0) if train_x.shape[1] else np.zeros(0)
        if not np.isfinite(scale).all():
            raise NuisanceError(
                f"k_nearest_neighbors:k={k}: a covariate's standard "
                "deviation overflows, so it cannot be standardized")
        self.scale = np.where(scale > 0, scale, 1.0)
        x = (train_x - self.center) / self.scale
        self.order = np.argsort(_first_coordinate(x), kind="stable")
        x = x[self.order]
        self.key = _first_coordinate(x)
        # Laid out as the distance kernel reads it: one contiguous row per
        # column for the column-wise sum, the rows for the pairwise sum.
        self.train_x = (x if x.shape[1] >= _SEQUENTIAL_SUM_TERMS
                        else np.ascontiguousarray(x.T))
        self.train_z = train_z[self.order]
        # Set when the mean is a count (see the class docstring): every
        # propensity model, and binary outcomes. A -0.0 response is ranked,
        # since the sign of a sum of -0.0 terms depends on the numpy
        # version (+0.0 where the sum starts from 0.0, -0.0 where it
        # starts from the first term).
        z = self.train_z
        binary = (z == 0.0) | (z == 1.0)
        self.ones = (z == 1.0 if binary.all() and not np.signbit(z).any()
                     else None)

    def predict(self, matrix: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):  # checked below
            x = (matrix - self.center) / self.scale
        if x.size and not np.abs(x).max() <= _KNN_MAX_STANDARDIZED:
            raise NuisanceError(
                f"k_nearest_neighbors:k={self.k}: a predicted row lies more "
                f"than {_KNN_MAX_STANDARDIZED:g} standard deviations from "
                "the training rows, so its distances overflow")
        q0 = _first_coordinate(x)
        by_q0 = np.argsort(q0, kind="stable")
        x, q0 = x[by_q0], q0[by_q0]
        m, d = len(self.key), x.shape[1]
        # The pairwise-sum path holds every (query, train, column) term.
        per_row = m * d if d >= _SEQUENTIAL_SUM_TERMS else m
        step = max(1, _KNN_BLOCK_ENTRIES // per_row)
        terms, dist = np.empty(step * per_row), np.empty(step * m)
        means, settled = np.empty(x.shape[0]), np.ones(x.shape[0], dtype=bool)
        # The radius only sizes windows; exactness rests on the per-row
        # check against the window edges.
        rad = np.inf
        for start in range(0, x.shape[0], step):
            xb, qb = x[start:start + step], q0[start:start + step]
            lo = int(np.searchsorted(self.key, qb[0] - rad, "left"))
            hi = int(np.searchsorted(self.key, qb[-1] + rad, "right"))
            if hi - lo < self.k:
                lo, hi = 0, m
            kth, means[start:start + step] = self._nearest_mean(
                self._distances(xb, lo, hi, terms, dist), lo)
            block = settled[start:start + step]
            if lo > 0:
                gap = self.key[lo - 1] - qb
                block &= kth < gap * gap
            if hi < m:
                gap = self.key[hi] - qb
                block &= kth < gap * gap
            rad = np.sqrt(kth.max())
        unsettled = np.flatnonzero(~settled)
        for start in range(0, len(unsettled), step):
            rows = unsettled[start:start + step]
            means[rows] = self._nearest_mean(
                self._distances(x[rows], 0, m, terms, dist), 0)[1]
        # A count over k is finite; a mean of responses can overflow.
        if self.ones is None and not np.isfinite(means).all():
            raise NuisanceError(
                f"k_nearest_neighbors:k={self.k}: a mean of the nearest "
                "rows' responses overflows")
        out = np.empty(x.shape[0])
        out[by_q0] = means
        return out

    def _distances(self, xb: np.ndarray, lo: int, hi: int,
                   terms: np.ndarray, dist: np.ndarray) -> np.ndarray:
        """(query, train) squared distances from the rows ``xb`` to sorted
        training rows [lo, hi), written into the buffer ``dist`` with
        ``terms`` as working space. Each entry is rounded as a per-row
        ``np.sum`` of squared differences, so it does not depend on the
        window."""
        b, w, d = xb.shape[0], hi - lo, xb.shape[1]
        d2 = dist[:b * w].reshape(b, w)
        if d >= _SEQUENTIAL_SUM_TERMS:
            diff = terms[:b * w * d].reshape(b, w, d)
            np.subtract(self.train_x[None, lo:hi], xb[:, None], out=diff)
            np.multiply(diff, diff, out=diff)
            return np.sum(diff, axis=2, out=d2)
        if d == 0:
            d2.fill(0.0)
            return d2
        # Column 0's squares go straight into d2: 0.0 + s is s for every
        # square s, NaN included. Each difference is the training row
        # copied across the block, less the query column in place.
        d2[...] = self.train_x[0, lo:hi]
        d2 -= xb[:, 0, None]
        d2 *= d2
        diff = terms[:b * w].reshape(b, w)
        for j in range(1, d):
            diff[...] = self.train_x[j, lo:hi]
            diff -= xb[:, j, None]
            diff *= diff
            d2 += diff
        return d2

    def _nearest_mean(self, d2: np.ndarray,
                      lo: int) -> Tuple[np.ndarray, np.ndarray]:
        """Per row of the distances ``d2`` to sorted training rows from
        ``lo`` on: the k-th smallest distance, and the mean response of
        the k nearest rows taken in (distance, training index) order."""
        k, w = self.k, d2.shape[1]
        kth = np.partition(d2, k - 1, axis=1)[:, k - 1]
        near = d2 <= kth[:, None]
        # A row with more than k entries at or below its k-th distance has
        # a tie (one with fewer, a NaN distance): its k nearest are the
        # first k of a full stable sort in training-index order.
        odd = np.count_nonzero(near, axis=1) != k
        if odd.any():
            by_index = np.argsort(self.order[lo:lo + w])
            near[odd] = False
            near[np.flatnonzero(odd)[:, None], by_index[np.argsort(
                d2[odd][:, by_index], axis=1, kind="stable")[:, :k]]] = True
        if self.ones is not None:
            return kth, np.count_nonzero(near & self.ones[lo:lo + w],
                                         axis=1) / k
        flat = np.flatnonzero(near).reshape(-1, k)
        column = flat % w + lo
        rank = np.lexsort((self.order[column], d2.ravel()[flat]), axis=1)
        z = self.train_z[column]
        with np.errstate(over="ignore", invalid="ignore"):  # see predict
            return kth, np.mean(z[np.arange(len(z))[:, None], rank], axis=1)


class _ConstantPredictor:
    def __init__(self, value: float):
        self.value = value

    def predict(self, matrix: np.ndarray) -> np.ndarray:
        return np.full(matrix.shape[0], self.value)


@dataclass(frozen=True)
class NuisanceEstimates:
    """Per-observation nuisance predictions feeding the estimators.

    ``outcome_pred[i]`` estimates E(Y | A=0, W_i) and ``propensity_pred[i]``
    estimates P(A=0 | W_i), already truncated into ``truncation_bounds``.
    When ``fold_assignment`` is present, row ``i``'s predictions come from
    models fit without fold ``fold_assignment[i]``. The estimators keep
    the clever weights they derive from ``propensity_pred`` on this
    object, per dataset, so its arrays must not be changed in place.
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
        if not np.isfinite(mu).all():
            raise ValueError("outcome predictions contain non-finite values")
        lo, hi = _validate_truncation(self.truncation_bounds)
        # NaN fails the comparisons, so it is rejected too.
        if g.size and not (lo <= g.min() and g.max() <= hi):
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


def fit_outcome(learner: LearnerSpec, x: np.ndarray, treatment: np.ndarray,
                outcome: np.ndarray, y_bounds: Optional[Tuple[float, float]],
                rows: Optional[np.ndarray] = None) -> object:
    """Fit Ê(Y | A=0, W) on the untreated rows of mask ``rows`` (None: all).

    ``x`` is ``learner.design_for`` of the model's covariates on all rows;
    the returned predictor's ``predict`` gives outcome-scale predictions
    on rows of ``x``. GLM learners regress Y on ``x``; with ``link=logit``
    the response is first rescaled into [0, 1] by ``y_bounds`` (None: the
    outcome range of ``rows``) and predictions are mapped back. kNN
    averages the outcomes of the k nearest untreated rows.

    Raises
    ------
    InsufficientDataError
        Fewer than 2 untreated rows, or fewer than kNN's k.
    """
    untreated = treatment == 0.0
    if rows is not None:
        untreated &= rows
    n_fit = int(np.count_nonzero(untreated))
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
        return _KnnPredictor(learner.k, x_fit, y_fit)
    if learner.link is Link.LOGIT:
        seen = outcome if rows is None else outcome[rows]
        lo, hi = y_bounds or (float(seen.min()), float(seen.max()))
        if hi <= lo:
            # Constant outcome: the scaled response is undefined, but the
            # regression it stands in for is the constant itself.
            return _ConstantPredictor(lo)
        z = (y_fit - lo) / (hi - lo)
        return _GlmPredictor(fit_glm(x_fit, z, Link.LOGIT), bounds=(lo, hi))
    return _GlmPredictor(fit_glm(x_fit, y_fit, Link.IDENTITY))


def fit_propensity(learner: LearnerSpec, x: np.ndarray,
                   treatment: np.ndarray,
                   rows: Optional[np.ndarray] = None) -> object:
    """Fit the untruncated P̂(A = 0 | W) on mask ``rows`` (None: all).

    ``x`` is ``learner.design_for`` of the model's covariates on all rows;
    the returned predictor's ``predict`` gives raw, unclipped
    probabilities on rows of ``x``. GLM learners model the untreated
    indicator with a logit link (whatever the learner's declared outcome
    link); kNN averages the indicator over neighbors.

    Raises
    ------
    InsufficientDataError
        Only one treatment level among ``rows``, or fewer rows than kNN's k.
    """
    a = treatment
    if rows is not None:
        a, x = a[rows], x[rows]
    if not a.size or a.min() == a.max():
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


def stacked_propensity_predictions(learner: LearnerSpec,
                                   datasets: Sequence[Optional[Dataset]],
                                   covariates: Optional[Sequence[str]]
                                   ) -> List[Optional[np.ndarray]]:
    """Full-sample GLM propensity predictions of several datasets with one
    row count, from one stacked Newton solve (``glm.fit_logit_stack``,
    the solver ``fit_glm`` fits one model with).

    Each dataset's model is fit on its columns ``covariates`` (None:
    all), and its entry is what ``fit_nuisance(..., raw_propensity=...)``
    takes: ``fit_propensity(learner, x, data.treatment).predict(x)``,
    with ``x = learner.design_for(data.covariate_matrix(covariates))``,
    bit for bit. An entry is None for a None member (a failed draw) and
    when that call would raise (its model matrix is not finite, its
    treatment has one level, or its fit fails): fit alone, it raises its
    error.
    """
    if learner.kind not in GLM_KINDS:
        raise ValueError(f"{learner.describe()} is not a GLM learner")
    members, xs, zs = [], [], []
    for i, data in enumerate(datasets):
        if data is None:
            continue
        try:
            x = learner.design_for(data.covariate_matrix(covariates))
        except NuisanceError:
            continue
        a = data.treatment
        if a.min() == a.max():
            continue
        members.append(i)
        xs.append(x)
        zs.append((a == 0.0).astype(float))
    out: List[Optional[np.ndarray]] = [None] * len(datasets)
    if not members:
        return out
    for i, x, fit in zip(members, xs,
                         fit_logit_stack(np.stack(xs), np.stack(zs))):
        if isinstance(fit, GlmFit):
            out[i] = _GlmPredictor(fit).predict(x)
    return out


def _held_out_predictions(model: Callable[..., object], learner: LearnerSpec,
                          covariates: np.ndarray, args: Tuple,
                          assignment: Optional[np.ndarray],
                          stratum: Optional[np.ndarray] = None) -> np.ndarray:
    """Predict every row from a model fit without that row's fold.

    ``model(learner, x, *args, rows)`` is ``fit_outcome`` or
    ``fit_propensity``: it fits on the boolean row mask ``rows`` (None:
    all rows) of ``x``, the learner's model matrix on ``covariates``, and
    returns a model with ``predict``. Fits see only the rows of
    ``stratum`` (None: all rows). Without an ``assignment``, no
    cross-fitting is the single split whose training and held-out rows
    are both the whole sample. A fold's ``InsufficientDataError`` becomes
    a ``FoldDegeneracyError`` naming the fold.
    """
    x = learner.design_for(covariates)

    def fit(rows):
        if stratum is not None:
            rows = stratum if rows is None else stratum & rows
        return model(learner, x, *args, rows)

    if assignment is None:
        return fit(None).predict(x)
    out = np.empty(x.shape[0])
    for fold in range(int(assignment.max()) + 1):
        held = assignment == fold
        try:
            fitted = fit(~held)
        except InsufficientDataError as exc:
            raise FoldDegeneracyError(f"fold {fold}: {exc}") from exc
        out[held] = fitted.predict(x[held])
    return out


def _point_nuisances(data: Dataset, outcome_learner: LearnerSpec,
                     propensity_learner: LearnerSpec,
                     truncation: Tuple[float, float],
                     outcome_covariates: Optional[Sequence[str]],
                     propensity_covariates: Optional[Sequence[str]],
                     assignment: Optional[np.ndarray],
                     raw_propensity: Optional[np.ndarray] = None
                     ) -> NuisanceEstimates:
    """Both point nuisances, predicted on held-out rows of ``assignment``;
    a given ``raw_propensity`` stands for the propensity model's."""
    lo, hi = _validate_truncation(truncation)
    a = data.treatment
    outcome_pred = _held_out_predictions(
        fit_outcome, outcome_learner,
        data.covariate_matrix(outcome_covariates),
        (a, data.outcome, data.y_bounds), assignment)
    raw = raw_propensity
    if raw is None:
        raw = _held_out_predictions(
            fit_propensity, propensity_learner,
            data.covariate_matrix(propensity_covariates), (a,), assignment)
    return NuisanceEstimates(
        outcome_pred=outcome_pred,
        propensity_pred=np.clip(raw, lo, hi),
        truncation_bounds=(lo, hi),
        fold_assignment=assignment,
        n_truncated=int(np.count_nonzero((raw < lo) | (raw > hi))),
        outcome_learner=outcome_learner.describe(),
        propensity_learner=propensity_learner.describe(),
    )


def fit_nuisance(data: Dataset, outcome_learner: LearnerSpec,
                 propensity_learner: LearnerSpec,
                 truncation: Tuple[float, float] = DEFAULT_TRUNCATION,
                 outcome_covariates: Optional[Sequence[str]] = None,
                 propensity_covariates: Optional[Sequence[str]] = None,
                 raw_propensity: Optional[np.ndarray] = None,
                 ) -> NuisanceEstimates:
    """Fit both nuisances on the full sample (no cross-fitting).

    Each model is a ``fit_outcome``/``fit_propensity`` fit on its
    learner's model matrix, and predicts every row. Raw propensity
    predictions are clipped into ``truncation`` and the clipped rows are
    counted in ``n_truncated``. ``outcome_covariates`` and
    ``propensity_covariates`` restrict a model to those columns (used to
    force deliberate misspecification in simulations).
    ``raw_propensity``, this dataset's entry of
    ``stacked_propensity_predictions``, stands for the propensity fit.

    Raises
    ------
    InsufficientDataError
        Fewer than 2 untreated rows, only one treatment level, or fewer
        rows than a kNN learner's k.
    """
    return _point_nuisances(data, outcome_learner, propensity_learner,
                            truncation, outcome_covariates,
                            propensity_covariates, None, raw_propensity)


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
