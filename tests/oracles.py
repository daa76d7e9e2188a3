"""Independent oracles used by the test suite.

Everything here is deliberately computed by a different route than the
library: bisection instead of Newton, brute-force stratum enumeration
instead of model fits, two-pass arithmetic instead of vectorized
shortcuts. Tests compare the library against these.
"""

import codecs
import csv
import io

import numpy as np
from scipy.special import expit, logit

from eiftools import _numeric, glm
from eiftools import nuisance as nu
from eiftools.data import Dataset
from eiftools.glm import (SEPARATION_NORM, Link, NonConvergenceError,
                          SeparationError, SingularDesignError, fit_glm)

SCALED_CLIP = 1e-6


def bisect_root(f, lo, hi, iterations=200):
    """Plain bisection; requires a sign change on [lo, hi]."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if np.sign(flo) == np.sign(fhi):
        raise ValueError(f"no sign change on [{lo}, {hi}]: f={flo}, {fhi}")
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if np.sign(fmid) == np.sign(flo):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
    return 0.5 * (lo + hi)


def fluctuation_root(variant, response, offset_pred, weights, bounds=None,
                     bracket=50.0):
    """Root of the targeting score equation, solved by bisection.

    covariate_linear: sum(w_i (y_i - off_i - c*w_i)) = 0 (w as covariate)
    weighted_linear:  sum(w_i (y_i - off_i - c)) = 0
    weighted_logistic (on the rescaled outcome):
                      sum(w_i (y_sc_i - expit(logit(off_sc_i) + c))) = 0
    """
    y = np.asarray(response, float)
    off = np.asarray(offset_pred, float)
    w = np.asarray(weights, float)
    if variant == "covariate_linear":
        def score(c):
            return float(np.sum(w * (y - off - c * w)))
    elif variant == "weighted_linear":
        def score(c):
            return float(np.sum(w * (y - off - c)))
    elif variant == "weighted_logistic":
        lo, hi = bounds
        span = hi - lo
        y_sc = (y - lo) / span
        off_sc = np.clip((off - lo) / span, SCALED_CLIP, 1.0 - SCALED_CLIP)
        eta = logit(off_sc)

        def score(c):
            return float(np.sum(w * (y_sc - expit(eta + c))))
    else:
        raise ValueError(variant)
    return bisect_root(score, -bracket, bracket)


def stratum_point_value(w_matrix, treatment, outcome):
    """Nonparametric MLE: sum over observed W strata of
    P_hat(stratum) * mean(Y | A=0, stratum)."""
    w = np.asarray(w_matrix, float)
    a = np.asarray(treatment, float)
    y = np.asarray(outcome, float)
    n = a.shape[0]
    keys = [tuple(row) for row in w]
    total = 0.0
    for key in sorted(set(keys)):
        rows = np.array([k == key for k in keys])
        untreated = rows & (a == 0.0)
        if not np.any(untreated):
            raise ValueError(f"stratum {key} has no untreated rows")
        total += (rows.sum() / n) * float(np.mean(y[untreated]))
    return total


def stratum_long_value(w0, a0, w1, a1, outcome):
    """Nested g-formula by brute-force stratum enumeration:
    sum_{s0} P_hat(s0) sum_{s1} P_hat(s1 | s0, A0=0) mean(Y | s0,0,s1,0)."""
    w0 = np.asarray(w0, float)
    w1 = np.asarray(w1, float)
    a0 = np.asarray(a0, float)
    a1 = np.asarray(a1, float)
    y = np.asarray(outcome, float)
    n = a0.shape[0]
    keys0 = [tuple(row) for row in w0]
    keys1 = [tuple(row) for row in w1]
    total = 0.0
    for s0 in sorted(set(keys0)):
        in0 = np.array([k == s0 for k in keys0])
        base = in0 & (a0 == 0.0)
        if not np.any(base):
            raise ValueError(f"stratum {s0} has no A0=0 rows")
        inner = 0.0
        for s1 in sorted({keys1[i] for i in np.flatnonzero(base)}):
            in1 = base & np.array([k == s1 for k in keys1])
            final = in1 & (a1 == 0.0)
            if not np.any(final):
                raise ValueError(f"stratum {s0},{s1} has no A1=0 rows")
            inner += (in1.sum() / base.sum()) * float(np.mean(y[final]))
        total += (in0.sum() / n) * inner
    return total


def knn_mean_brute_force(train_x, train_z, query_x, k):
    """k-nearest-neighbor means, one query row at a time.

    Covariates are standardized by the training mean and standard
    deviation (scale 1 for constant columns). For each query row every
    training row is ranked by a full stable sort of its squared distance,
    so ties go to the lowest training index, and the first k responses
    are averaged.
    """
    train_x = np.asarray(train_x, float)
    query_x = np.asarray(query_x, float)
    center = train_x.mean(axis=0)
    scale = train_x.std(axis=0)
    scale = np.where(scale > 0, scale, 1.0)
    train = (train_x - center) / scale
    query = (query_x - center) / scale
    train_z = np.asarray(train_z, float)
    out = np.empty(query.shape[0])
    for i in range(query.shape[0]):
        d2 = np.sum((train - query[i]) ** 2, axis=1)
        nearest = np.argsort(d2, kind="stable")[:k]
        out[i] = float(np.mean(train_z[nearest]))
    return out


def two_pass_variance(values):
    """Textbook two-pass sample variance with the n-1 divisor."""
    x = [float(v) for v in values]
    n = len(x)
    mean = sum(x) / n
    return sum((v - mean) ** 2 for v in x) / (n - 1)


def eif_by_hand(w_row_treated, y, mu, g, psi):
    """Single-observation influence function, spelled out."""
    indicator = 0.0 if w_row_treated else 1.0
    return indicator / g * (y - mu) + mu - psi


def read_csv_columns_per_cell(path):
    """Float columns of a CSV file, read by one csv.reader pass and one
    float() per cell.

    This is the reference for every accepted input and every error
    message of the CLI reader; errors are raised as ValueError carrying
    the message the CLI reports.
    """
    with open(path, "rb") as f:
        raw = f.read()
    # A leading byte-order mark is dropped; error offsets are the file's.
    bom = len(codecs.BOM_UTF8) if raw.startswith(codecs.BOM_UTF8) else 0
    try:
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc.reason} at byte "
                         f"{exc.start + bom}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError(f"{path}: empty file, expected a header row")
    if len(set(header)) != len(header):
        raise ValueError(f"{path}: duplicate column names in header")
    columns = {name: [] for name in header}
    for lineno, row in enumerate(reader, start=2):
        if len(row) != len(header):
            raise ValueError(f"{path}:{lineno}: expected {len(header)} "
                             f"fields, got {len(row)}")
        for name, cell in zip(header, row):
            if cell.strip() == "":
                raise ValueError(
                    f"{path}:{lineno}: missing value in column {name!r}")
            try:
                columns[name].append(float(cell))
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: non-numeric value {cell!r} in "
                    f"column {name!r}") from None
    if not columns or not next(iter(columns.values())):
        raise ValueError(f"{path}: no data rows")
    return {name: np.array(values, dtype=float)
            for name, values in columns.items()}


def fit_logit_two_logaddexp(X, z, b, wt, tol_abs, max_iterations=100):
    """Weighted logistic Newton iteration with offset ``b`` and
    step-halving, evaluating the log-likelihood as
    z*log(mu) + (1-z)*log(1-mu) with two logaddexp passes over the
    positive-weight rows.

    It takes ``expit`` and the positive-definite solve from
    ``eiftools._numeric``, as the library does, so that equal iterates pin
    the iteration itself; ``tests/test_numeric.py`` pins those primitives
    against scipy.

    Returns (coefficients, iterations). Fails as the library's solvers
    do: SingularDesignError for a singular information matrix,
    SeparationError for coefficients beyond SEPARATION_NORM and
    NonConvergenceError when the score sums do not reach ``tol_abs``.
    """
    def loglik(eta):
        active = wt > 0
        e, zz, ww = eta[active], z[active], wt[active]
        log_mu = -np.logaddexp(0.0, -e)
        log_1m = -np.logaddexp(0.0, e)
        return float(np.sum(ww * (zz * log_mu + (1.0 - zz) * log_1m)))

    beta = np.zeros(X.shape[1])
    eta = b + X @ beta
    ll = loglik(eta)
    score = X.T @ (wt * (z - _numeric.expit(eta)))
    for iteration in range(max_iterations):
        if np.max(np.abs(score)) <= tol_abs:
            return beta, iteration
        mu = _numeric.expit(eta)
        info = X.T @ (X * (wt * mu * (1.0 - mu))[:, None])
        try:
            delta = _numeric.spd_solve(info, score)
        except np.linalg.LinAlgError:
            raise SingularDesignError("singular information") from None
        step = 1.0
        for _ in range(40):
            cand = beta + step * delta
            eta_cand = b + X @ cand
            ll_cand = loglik(eta_cand)
            if ll_cand >= ll - 1e-12 * (1.0 + abs(ll)):
                break
            step *= 0.5
        beta, eta, ll = cand, eta_cand, ll_cand
        if np.max(np.abs(beta)) > SEPARATION_NORM:
            raise SeparationError("coefficients diverged")
        score = X.T @ (wt * (z - _numeric.expit(eta)))
    if np.max(np.abs(score)) <= tol_abs:
        return beta, max_iterations
    raise NonConvergenceError("no convergence", beta, score, max_iterations)


def fit_logit_reference(X, z, tol_abs):
    """The single-model logit Newton loop that ``fit_glm`` ran before it
    fit through ``glm.fit_logit_stack``, kept as the bit-level reference
    for the stacked solve.

    Returns (coefficients, score sums, iterations), or raises the
    ``GlmError`` of a failed fit. It takes ``expit``, the positive-definite
    solve and the log-likelihood from the library, and reads the
    iteration cap from ``eiftools.glm`` at call time, so a test that
    lowers the cap lowers it here too.
    """
    expit, spd_solve = _numeric.expit, _numeric.spd_solve
    _bernoulli_loglik = glm._bernoulli_loglik
    DEFAULT_MAX_ITERATIONS = glm.DEFAULT_MAX_ITERATIONS
    _halve_step = _halve_step_reference
    beta = np.zeros(X.shape[1])
    eta = X @ beta
    loglik = float(_bernoulli_loglik(eta, z))
    mu = expit(eta)
    score = X.T @ (z - mu)
    for iteration in range(DEFAULT_MAX_ITERATIONS + 1):
        if np.abs(score).max() <= tol_abs:
            return beta, score, iteration
        if iteration == DEFAULT_MAX_ITERATIONS:
            raise NonConvergenceError(
                f"logit fit did not converge in {iteration} iterations",
                beta, score, iteration)
        with np.errstate(over="ignore"):  # reported below
            info = X.T @ (X * (mu * (1.0 - mu))[:, None])
        if not np.isfinite(info).all():
            raise SingularDesignError(
                "logit-link information matrix is not finite")
        try:
            delta = spd_solve(info, score)
        except np.linalg.LinAlgError:
            raise SingularDesignError(
                "logit-link information matrix is singular") from None
        if not np.isfinite(delta).all():
            raise SingularDesignError(
                "logit-link Newton step is not finite"
            )
        beta, eta, loglik = _halve_step(X, z, beta, delta, loglik, 1.0, 40)
        if np.abs(beta).max() > SEPARATION_NORM:
            raise SeparationError(
                "logit coefficients diverged beyond "
                f"{SEPARATION_NORM:g}; data look separated"
            )
        mu = expit(eta)
        score = X.T @ (z - mu)


def _halve_step_reference(X, z, beta, delta, loglik: float, step: float,
                          tries: int):
    """Step-halving from ``step``: the first of ``tries`` candidates
    ``beta + step * delta``, halving ``step`` each time, that does not
    decrease the Bernoulli log-likelihood, else the last one; returned
    with its linear predictor and log-likelihood."""
    for _ in range(tries):
        cand = beta + step * delta
        eta_cand = X @ cand
        loglik_cand = float(glm._bernoulli_loglik(eta_cand, z))
        if loglik_cand >= loglik - 1e-12 * (1.0 + abs(loglik)):
            break
        step *= 0.5
    return cand, eta_cand, loglik_cand


def _one_column_fit(x, z, b, wt, logistic=False):
    """Coefficient of the one-column GLM ``z ~ offset(b) + x`` weighted by
    ``wt``: least squares on the square-root-weighted system, or the
    weighted Newton iteration above. Raises ValueError when no weight is
    positive, or when ``x`` has no nonzero entry (no parameter to fit)."""
    if not np.any(wt > 0):
        raise ValueError("at least one weight must be strictly positive")
    if not np.any(x != 0.0):
        raise ValueError("design has no effective parameters: no intercept "
                         "and no nonzero column")
    X = x[:, None]
    if logistic:
        beta, _ = fit_logit_two_logaddexp(X, z, b, wt,
                                          1e-8 * (1.0 + np.sum(wt)))
    else:
        sw = np.sqrt(wt)
        beta = np.linalg.lstsq(X * sw[:, None], (z - b) * sw, rcond=None)[0]
    return float(beta[0])


def fluctuate_point_fit_glm(y, mu, g, treatment, variant, bounds=None):
    """The point design's targeting fluctuation as a general weighted GLM
    fit on a one-column model matrix, the way ``tmle`` solved it (through
    ``fit_glm``'s former offset and weights) before it had a direct
    one-parameter solver.

    ``h = I(A=0)/g`` enters as the weights (or, for ``covariate_linear``,
    as the regressor); ``bounds`` are the logistic scaling bounds.
    Returns (coefficient, targeted predictions, score residual).
    """
    h = (treatment == 0.0).astype(float) / g
    n = y.shape[0]
    if variant == "covariate_linear":
        delta = _one_column_fit(h, y, mu, np.ones(n))
        mu_star = mu + delta / g
        return delta, mu_star, float(np.sum(h * (y - mu_star)))
    if variant == "weighted_linear":
        gamma = _one_column_fit(np.ones(n), y, mu, h)
        mu_star = mu + gamma
        return gamma, mu_star, float(np.sum(h * (y - mu_star)))
    lo, hi = bounds
    if np.any(y < lo) or np.any(y > hi):
        raise ValueError("outcome values fall outside the scaling bounds")
    span = hi - lo
    y_sc = (y - lo) / span
    offset = logit(np.clip((mu - lo) / span, SCALED_CLIP, 1.0 - SCALED_CLIP))
    gamma = _one_column_fit(np.ones(n), y_sc, offset, h, logistic=True)
    targeted_sc = expit(offset + gamma)
    return (gamma, lo + span * targeted_sc,
            float(np.sum(h * (y_sc - targeted_sc))))


def fluctuate_long_fit_glm(response, offset_pred, weights, regime_covariate,
                           variant, bounds=None):
    """The longitudinal design's targeting fluctuation (steps 3 and 5) as
    a general weighted GLM fit, the way ``tmle_long`` solved it before it
    had a direct one-parameter solver. Returns (coefficient, targeted
    predictions, score residual)."""
    n = response.shape[0]
    if variant == "weighted_linear":
        coef = _one_column_fit(np.ones(n), response, offset_pred, weights)
        targeted = offset_pred + coef
        return coef, targeted, float(np.sum(weights * (response - targeted)))
    if variant == "covariate_linear":
        coef = _one_column_fit(weights, response, offset_pred, np.ones(n))
        targeted = offset_pred + coef * regime_covariate
        return coef, targeted, float(np.sum(weights * (response - targeted)))
    lo, hi = bounds
    span = hi - lo
    resp_sc = (response - lo) / span
    if np.any(resp_sc < 0.0) or np.any(resp_sc > 1.0):
        raise ValueError("response values fall outside the scaling bounds")
    off = logit(np.clip((offset_pred - lo) / span, SCALED_CLIP,
                        1.0 - SCALED_CLIP))
    coef = _one_column_fit(np.ones(n), resp_sc, off, weights, logistic=True)
    targeted_sc = expit(off + coef)
    return (coef, lo + span * targeted_sc,
            float(np.sum(weights * (resp_sc - targeted_sc))))


def linear_fluctuation_reference(response, offset, weights,
                                 regime_covariate, variant):
    """A linear targeting fluctuation in the arithmetic ``fluctuate`` used
    before each linear solve returned its own predictions and score: the
    closed-form root c of sum(w (z - b - c x)) = 0, refined up to three
    times against the tolerance, with x = 1 for ``weighted_linear`` and
    x = the weights themselves for ``covariate_linear``; then the
    predictions b + c (b + c * regime_covariate) and the residual
    recomputed at them. Returns (coefficient, predictions, residual);
    raises NonConvergenceError if the score stays above the tolerance."""
    z, b, w = (np.asarray(v, dtype=float)
               for v in (response, offset, weights))
    if variant == "weighted_linear":
        x, shift = 1.0, 1.0
        tol = 1e-8 * (1.0 + float(w.sum()))
    else:
        x, shift = w, np.asarray(regime_covariate, dtype=float)
        tol = 1e-8 * (1.0 + z.shape[0])
    wx = float((w * x).sum())
    c, score = 0.0, float((w * (z - b)).sum())
    for _ in range(4):
        c += score / wx
        score = float((w * (z - (b + c * x))).sum())
        if abs(score) <= tol:
            targeted = b + c * shift
            return c, targeted, float((w * (z - targeted)).sum())
    raise NonConvergenceError("reference did not converge", np.array([c]),
                              np.array([score]), 4)


# The nuisance fits as they were written before the fit-on-train /
# predict-on-held driver: every fit receives a ``Dataset`` copy of its
# training rows, each caller keeps its own fold loop and its own
# degeneracy checks, and each fit and each prediction builds its learner's
# model matrix on just the rows it is given. The two-period stages are
# ``Dataset``s rebuilt from the ``LongDataset``. The learners themselves
# are the library's.

def subset(data, index):
    """``data`` restricted to rows ``index``, validated as a new Dataset."""
    return Dataset(covariate_names=data.covariate_names,
                   covariates=data.covariates[index],
                   treatment=data.treatment[index],
                   outcome=data.outcome[index], y_bounds=data.y_bounds)


def first_stage_dataset(data, response, y_bounds=None):
    """Rows recast as (covariates = W0, treatment = A0, outcome = response)."""
    cols = {name: data.w0[:, j] for j, name in enumerate(data.w0_names)}
    return Dataset.from_columns(cols, data.a0, response, y_bounds=y_bounds)


def history_dataset(data):
    """Rows recast as (covariates = W0 + W1, treatment = A1) for g1 and mu."""
    cols = {name: data.w0[:, j] for j, name in enumerate(data.w0_names)}
    for j, name in enumerate(data.w1_names):
        cols[name] = data.w1[:, j]
    return Dataset.from_columns(cols, data.a1, data.outcome,
                                y_bounds=data.y_bounds)


class _OnCovariates:
    """A fitted library predictor that predicts on raw covariates, building
    its learner's model matrix on exactly the rows it is asked for. With
    ``bounds`` (lo, hi), its [0, 1]-scale predictions are clipped away
    from 0 and 1 and mapped onto [lo, hi]."""

    def __init__(self, predictor, learner, bounds=None):
        self.predictor, self.learner = predictor, learner
        self.bounds = bounds

    def predict(self, covariates):
        raw = self.predictor.predict(self.learner.design_for(covariates))
        if self.bounds is None:
            return raw
        lo, hi = self.bounds
        clip = nu.OUTCOME_PROB_CLIP
        return lo + (hi - lo) * np.clip(raw, clip, 1.0 - clip)


def outcome_model_on_subset(data, learner):
    """Ê(Y | A=0, W) fit on ``data``'s untreated rows; logit scaling uses
    ``data``'s own outcome range."""
    untreated = data.treatment == 0.0
    if int(untreated.sum()) < 2:
        raise nu.InsufficientDataError(
            f"need at least 2 untreated observations, found "
            f"{int(untreated.sum())}")
    x_fit = data.covariates[untreated]
    y_fit = data.outcome[untreated]
    bounds = None
    if learner.kind == "k_nearest_neighbors":
        if learner.k > x_fit.shape[0]:
            raise nu.InsufficientDataError(f"k={learner.k} exceeds the pool")
        predictor = nu._KnnPredictor(learner.k, x_fit, y_fit)
    elif learner.link is Link.LOGIT:
        lo, hi = data.outcome_bounds()
        if hi <= lo:
            predictor = nu._ConstantPredictor(lo)
        else:
            fit = fit_glm(learner.design_for(x_fit), (y_fit - lo) / (hi - lo),
                          Link.LOGIT)
            predictor = nu._GlmPredictor(fit)
            bounds = (lo, hi)
    else:
        predictor = nu._GlmPredictor(
            fit_glm(learner.design_for(x_fit), y_fit, Link.IDENTITY))
    return _OnCovariates(predictor, learner, bounds)


def propensity_model_on_subset(data, learner):
    """Raw P̂(A = 0 | W) fit on every row of ``data``."""
    if len(np.unique(data.treatment)) < 2:
        raise nu.InsufficientDataError("both treatment levels are required")
    z = (data.treatment == 0.0).astype(float)
    if learner.kind == "k_nearest_neighbors":
        if learner.k > data.n_obs:
            raise nu.InsufficientDataError(f"k={learner.k} exceeds the pool")
        return nu._KnnPredictor(learner.k, data.covariates, z)
    return _OnCovariates(nu._GlmPredictor(
        fit_glm(learner.design_for(data.covariates), z, Link.LOGIT)), learner)


def restricted(data, covariates):
    """``data`` on the named covariate columns, rebuilt as a new Dataset."""
    if covariates is None:
        return data
    cols = {name: data.covariate_column(name) for name in covariates}
    return Dataset.from_columns(cols, data.treatment, data.outcome,
                                y_bounds=data.y_bounds)


def point_nuisances_by_subsets(data, outcome_learner, propensity_learner,
                               truncation, outcome_covariates,
                               propensity_covariates, n_folds, seed):
    """Point nuisances without folds (``n_folds`` None) or cross-fitted.

    Returns (outcome predictions, truncated propensities, truncation
    count, fold assignment)."""
    lo, hi = truncation
    if n_folds is None:
        out_data = restricted(data, outcome_covariates)
        outcome = outcome_model_on_subset(out_data, outcome_learner)
        prop_data = restricted(data, propensity_covariates)
        raw = propensity_model_on_subset(prop_data, propensity_learner
                                         ).predict(prop_data.covariates)
        return (outcome.predict(out_data.covariates), np.clip(raw, lo, hi),
                int(np.sum((raw < lo) | (raw > hi))), None)
    assignment = nu.fold_partition(data.n_obs, n_folds, seed)
    x_out = restricted(data, outcome_covariates).covariates
    x_prop = restricted(data, propensity_covariates).covariates
    outcome_pred = np.empty(data.n_obs)
    propensity_pred = np.empty(data.n_obs)
    n_truncated = 0
    for fold in range(n_folds):
        held_out = assignment == fold
        train = subset(data, ~held_out)
        if len(np.unique(train.treatment)) < 2:
            raise nu.FoldDegeneracyError(f"fold {fold}: single level")
        if int(np.sum(train.treatment == 0.0)) < 2:
            raise nu.FoldDegeneracyError(f"fold {fold}: < 2 untreated")
        try:
            out = outcome_model_on_subset(
                restricted(train, outcome_covariates), outcome_learner)
            prop = propensity_model_on_subset(
                restricted(train, propensity_covariates), propensity_learner)
        except nu.InsufficientDataError as exc:
            raise nu.FoldDegeneracyError(f"fold {fold}: {exc}") from exc
        outcome_pred[held_out] = out.predict(x_out[held_out])
        raw = prop.predict(x_prop[held_out])
        n_truncated += int(np.sum((raw < lo) | (raw > hi)))
        propensity_pred[held_out] = np.clip(raw, lo, hi)
    return outcome_pred, propensity_pred, n_truncated, assignment


def sequential_nuisances_by_subsets(data, g0_learner, g1_learner, mu_learner,
                                    truncation, n_folds, seed):
    """g0, g1 and mu of the two-period design without folds or cross-fitted
    on one partition. Returns (g0, g1, mu_hat, truncation count,
    g1_degenerate, fold assignment)."""
    lo, hi = truncation
    n = data.n_obs
    stage1 = first_stage_dataset(data, data.outcome)
    stage2 = history_dataset(data)
    stage2_rows = data.a0 == 0.0
    mu_rows = stage2_rows & (data.a1 == 0.0)
    g1_degenerate = not np.any(data.a1[stage2_rows] == 1.0)

    def clip_count(raw):
        return np.clip(raw, lo, hi), int(np.sum((raw < lo) | (raw > hi)))

    if n_folds is None:
        g0, n_trunc = clip_count(propensity_model_on_subset(
            stage1, g0_learner).predict(stage1.covariates))
        g1 = np.ones(n)
        if not g1_degenerate:
            g1, hits = clip_count(propensity_model_on_subset(
                subset(stage2, stage2_rows), g1_learner
            ).predict(stage2.covariates))
            n_trunc += hits
        mu_hat = outcome_model_on_subset(subset(stage2, mu_rows), mu_learner
                                         ).predict(stage2.covariates)
        return g0, g1, mu_hat, n_trunc, g1_degenerate, None
    assignment = nu.fold_partition(n, n_folds, seed)
    for fold in range(n_folds):
        train = assignment != fold
        if len(np.unique(data.a0[train])) < 2:
            raise nu.FoldDegeneracyError(f"fold {fold}: single A0 level")
        if int(np.sum(train & mu_rows)) < 2:
            raise nu.FoldDegeneracyError(f"fold {fold}: < 2 A0 = A1 = 0")
    g0, g1, mu_hat = np.empty(n), np.ones(n), np.empty(n)
    n_trunc = 0
    for fold in range(n_folds):
        held = assignment == fold
        train = ~held
        try:
            g0_model = propensity_model_on_subset(subset(stage1, train),
                                                  g0_learner)
            if not g1_degenerate:
                g1_model = propensity_model_on_subset(
                    subset(stage2, train & stage2_rows), g1_learner)
            mu_model = outcome_model_on_subset(
                subset(stage2, train & mu_rows), mu_learner)
        except nu.InsufficientDataError as exc:
            raise nu.FoldDegeneracyError(f"fold {fold}: {exc}") from exc
        g0[held], hits = clip_count(g0_model.predict(stage1.covariates[held]))
        n_trunc += hits
        if not g1_degenerate:
            g1[held], hits = clip_count(
                g1_model.predict(stage2.covariates[held]))
            n_trunc += hits
        mu_hat[held] = mu_model.predict(stage2.covariates[held])
    return g0, g1, mu_hat, n_trunc, g1_degenerate, assignment


def emu_by_subsets(data, response, learner, bounds, assignment):
    """Regression of ``response`` on W0 among the A0 = 0 rows, fit on all
    rows or on each fold's complement; ``bounds`` are the declared
    scaling bounds of a logit learner."""
    ds = first_stage_dataset(data, response, y_bounds=bounds)
    if assignment is None:
        return outcome_model_on_subset(ds, learner).predict(ds.covariates)
    out = np.empty(data.n_obs)
    for fold in range(int(assignment.max()) + 1):
        held = assignment == fold
        try:
            model = outcome_model_on_subset(subset(ds, ~held), learner)
        except nu.InsufficientDataError as exc:
            raise nu.FoldDegeneracyError(f"fold {fold}: {exc}") from exc
        out[held] = model.predict(ds.covariates[held])
    return out


# The DGP draws and Monte Carlo truth as they were before they drew into
# reused buffers: every step allocates its own batch arrays. They are the
# bit-level reference for ``eiftools.dgp``'s in-place draw path, and take
# ``expit`` from the library.

def _eta_reference(model, values):
    out = model.intercept
    for name, coef in model.coefs.items():
        out = out + coef * values[name]
    return out


def _covariate_reference(c, rng, n, context=None):
    if c.dist == "bernoulli":
        if c.model is not None:
            prob = _numeric.expit(np.broadcast_to(
                np.asarray(_eta_reference(c.model, context), dtype=float),
                (n,)))
        else:
            prob = np.full(n, float(c.p))
        return (rng.random(n) < prob).astype(float)
    if c.dist == "uniform":
        return rng.uniform(float(c.low), float(c.high), n)
    return rng.normal(float(c.mean), float(c.sd), n)


def _noise_reference(noise, rng, n):
    if noise.kind == "normal" and float(noise.sd) > 0:
        return rng.normal(0.0, float(noise.sd), n)
    if noise.kind == "uniform" and float(noise.half_width) > 0:
        return rng.uniform(-float(noise.half_width),
                           float(noise.half_width), n)
    return np.zeros(n)


def draw_reference(dgp, rng, n, observed):
    """Every variable of ``n`` draws, keyed by name, and the outcome."""
    values = {}
    for c in dgp.covariates:
        values[c.name] = _covariate_reference(c, rng, n)

    def treatment(model):
        if not observed:
            return 0.0
        p_untreated = _numeric.expit(np.broadcast_to(
            np.asarray(_eta_reference(model, values), dtype=float), (n,)))
        return (rng.random(n) >= p_untreated).astype(float)

    if dgp.design == "point":
        values["a"] = treatment(dgp.treatment)
    else:
        values["a0"] = treatment(dgp.treatment)
        for c in dgp.w1_covariates:
            values[c.name] = _covariate_reference(c, rng, n, context=values)
        values["a1"] = treatment(dgp.a1_model)
    with np.errstate(over="ignore", invalid="ignore"):
        eta = _eta_reference(dgp.outcome.mean_model, values)
        mean = _numeric.expit(eta) if dgp.outcome.scale == "logit" else eta
        mean = np.broadcast_to(np.asarray(mean, dtype=float), (n,))
        if dgp.outcome.kind == "binary":
            y = (rng.random(n) < mean).astype(float)
        else:
            y = mean + _noise_reference(dgp.outcome.noise, rng, n)
    if not (np.isfinite(mean).all() and np.isfinite(y).all()):
        raise ValueError("the outcome overflows: a drawn outcome mean or "
                         "value is not finite")
    return values, y


def generate_reference(dgp, n, seed):
    """``eiftools.dgp.generate`` on ``draw_reference``."""
    from eiftools.data import LongDataset
    values, y = draw_reference(dgp, np.random.default_rng(seed), n,
                               observed=True)
    w0_cols = {name: values[name] for name in dgp.w0_names}
    if dgp.design == "point":
        return Dataset.from_columns(w0_cols, values["a"], y,
                                    y_bounds=dgp.implied_y_bounds())
    w1_cols = {name: values[name] for name in dgp.w1_names}
    return LongDataset.from_columns(w0_cols, values["a0"], w1_cols,
                                    values["a1"], y,
                                    y_bounds=dgp.implied_y_bounds())


def monte_carlo_truth_reference(dgp, draws, seed):
    """(value, Monte Carlo standard error) of ``draws`` counterfactual
    outcomes, in batches of 200 000 on one stream, by raw sums of y and
    y squared."""
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < draws:
        n = min(200_000, draws - done)
        y = draw_reference(dgp, rng, n, observed=False)[1]
        with np.errstate(over="ignore"):
            total += float(y.sum())
            total_sq += float((y * y).sum())
        done += n
    mean = total / draws
    var = max(total_sq / draws - mean * mean, 0.0)
    return mean, float(np.sqrt(var / draws))
