"""GLM solver tests: closed-form oracles, frozen values, failure modes.

``fit_glm`` and ``predict`` take the model matrix as it is; the tests
build it with the intercept column first, as the nuisance learners do.
"""

import re

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import expit

from eiftools.glm import (
    Link,
    NonConvergenceError,
    SeparationError,
    SingularDesignError,
    fit_glm,
    predict,
)
from oracles import bisect_root, fit_logit_two_logaddexp

# Root of 2*(1 - expit(0.2 + c)) - expit(-0.1 + c) = 0, computed once by
# bisection to machine precision and frozen here.
FROZEN_LOGIT_GAMMA = 0.5963687987672498
FROZEN_LOGIT_PROBS = (0.6891971966294974, 0.6216056067410052)


def _with_intercept(*columns):
    """Model matrix: a column of ones, then ``columns``."""
    return np.column_stack([np.ones(len(columns[0])), *columns])


def _random_identity_problem(rng, n=40, p=3):
    design = _with_intercept(*(rng.normal(size=n) for _ in range(p)))
    z = rng.normal(size=n)
    b = rng.normal(size=n) * 0.5
    wt = rng.uniform(0.1, 3.0, size=n)
    return design, z, b, wt


def _random_logit_problem(rng, n=80, p=2):
    design = _with_intercept(*(rng.normal(size=n) for _ in range(p)))
    eta = 0.3 + design[:, 1:] @ rng.uniform(-0.8, 0.8, size=p)
    z = (rng.random(n) < expit(eta)).astype(float)
    b = rng.normal(size=n) * 0.3
    wt = rng.uniform(0.2, 2.0, size=n)
    return design, z, b, wt


def test_identity_matches_normal_equations():
    rng = np.random.default_rng(11)
    for _ in range(20):
        design, z, b, wt = _random_identity_problem(rng)
        fit = fit_glm(design, z, Link.IDENTITY, offset=b, weights=wt)
        X = design
        beta_oracle = np.linalg.solve(
            X.T @ (X * wt[:, None]), X.T @ (wt * (z - b)))
        np.testing.assert_allclose(fit.coefficients, beta_oracle,
                                   rtol=1e-10, atol=1e-12)
        assert np.max(np.abs(fit.score_residuals)) <= 1e-8 * (1 + wt.sum())


def test_identity_intercept_only_is_weighted_mean():
    design = np.ones((4, 1))
    z = np.array([1.0, 2.0, 3.0, 10.0])
    b = np.array([0.5, 0.0, 1.0, 0.0])
    wt = np.array([1.0, 2.0, 1.0, 0.0])
    fit = fit_glm(design, z, Link.IDENTITY, offset=b, weights=wt)
    expected = np.sum(wt * (z - b)) / wt.sum()
    assert fit.coefficients[0] == pytest.approx(expected, abs=1e-12)


def test_identity_offset_shifts_response():
    rng = np.random.default_rng(5)
    design, z, b, wt = _random_identity_problem(rng)
    with_offset = fit_glm(design, z, Link.IDENTITY, offset=b, weights=wt)
    shifted = fit_glm(design, z - b, Link.IDENTITY, weights=wt)
    np.testing.assert_allclose(with_offset.coefficients, shifted.coefficients,
                               rtol=0, atol=1e-10)


def test_logit_frozen_two_point_example():
    design = np.ones((2, 1))
    z = np.array([1.0, 0.0])
    b = np.array([0.2, -0.1])
    wt = np.array([2.0, 1.0])
    # Default tolerance certifies the score equation, so the coefficient
    # sits within (score tol) / (information) of the exact root.
    fit = fit_glm(design, z, Link.LOGIT, offset=b, weights=wt)
    assert fit.coefficients[0] == pytest.approx(FROZEN_LOGIT_GAMMA, abs=1e-6)
    tight = fit_glm(design, z, Link.LOGIT, offset=b, weights=wt,
                    score_tolerance=1e-14)
    assert tight.coefficients[0] == pytest.approx(FROZEN_LOGIT_GAMMA,
                                                  abs=1e-12)
    np.testing.assert_allclose(predict(tight, design, offset=b),
                               FROZEN_LOGIT_PROBS, rtol=0, atol=1e-12)


def test_frozen_value_agrees_with_live_bisection():
    def score(c):
        return 2.0 * (1.0 - expit(0.2 + c)) - expit(-0.1 + c)

    live = bisect_root(score, -20.0, 20.0)
    assert live == pytest.approx(FROZEN_LOGIT_GAMMA, abs=1e-12)


def test_logit_matches_scipy_minimize():
    rng = np.random.default_rng(101)
    for _ in range(10):
        design, z, b, wt = _random_logit_problem(rng)
        fit = fit_glm(design, z, Link.LOGIT, offset=b, weights=wt)
        X = design

        def nll(beta):
            eta = b + X @ beta
            return -np.sum(wt * (z * -np.logaddexp(0.0, -eta)
                                 + (1 - z) * -np.logaddexp(0.0, eta)))

        def grad(beta):
            return -(X.T @ (wt * (z - expit(b + X @ beta))))

        res = minimize(nll, np.zeros(X.shape[1]), jac=grad, method="BFGS",
                       options={"gtol": 1e-10, "maxiter": 500})
        np.testing.assert_allclose(fit.coefficients, res.x,
                                   rtol=0, atol=1e-6)


def test_score_residuals_zero_at_fit_nonzero_off_fit():
    # GlmFit.score_residuals are the score sums at the returned
    # coefficients, evaluated here by hand; perturbed coefficients expose
    # a residual.
    rng = np.random.default_rng(7)
    design, z, b, wt = _random_logit_problem(rng)
    fit = fit_glm(design, z, Link.LOGIT, offset=b, weights=wt)

    def score(beta):
        return design.T @ (wt * (z - expit(b + design @ beta)))

    at_fit = score(fit.coefficients)
    np.testing.assert_allclose(at_fit, fit.score_residuals, rtol=0, atol=1e-12)
    assert np.max(np.abs(at_fit)) <= 1e-8 * (1 + wt.sum())
    off_fit = score(fit.coefficients + 0.25)
    assert np.max(np.abs(off_fit)) > 1e-3


def test_separation_raises():
    # Tiny covariate gap: the score tolerance is unreachable before the
    # coefficient norm guard trips.
    x = np.array([-0.02, -0.01, 0.01, 0.02])
    z = (x > 0).astype(float)
    design = _with_intercept(x)
    with pytest.raises(SeparationError):
        fit_glm(design, z, Link.LOGIT)


def test_duplicate_column_is_singular():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    design = _with_intercept(x, x)
    z = np.array([0.1, 0.9, 2.2, 2.8])
    with pytest.raises(SingularDesignError):
        fit_glm(design, z, Link.IDENTITY)
    with pytest.raises(SingularDesignError,
                       match="information matrix is singular"):
        fit_glm(design, np.array([0.0, 1.0, 0.0, 1.0]), Link.LOGIT)


def test_nonconvergence_carries_last_iterate():
    design = np.ones((2, 1))
    z = np.array([1.0, 0.0])
    b = np.array([0.2, -0.1])
    wt = np.array([2.0, 1.0])
    with pytest.raises(NonConvergenceError) as excinfo:
        fit_glm(design, z, Link.LOGIT, offset=b, weights=wt, max_iterations=1)
    err = excinfo.value
    assert err.iterations == 1
    assert err.coefficients.shape == (1,)
    assert err.score_residuals.shape == (1,)
    assert np.max(np.abs(err.score_residuals)) > 1e-8 * (1 + wt.sum())


def test_predict_clips_extreme_probabilities():
    design = np.ones((2, 1))
    z = np.array([1.0, 0.0])
    fit = fit_glm(design, z, Link.LOGIT)
    wild = np.array([2000.0, -2000.0])
    p = predict(fit, design, offset=wild)
    assert p[0] == 1.0 - 1e-15
    assert p[1] == 1e-15


def test_zero_weight_rows_are_inert():
    rng = np.random.default_rng(19)
    design, z, b, wt = _random_logit_problem(rng, n=50)
    full = fit_glm(design, z, Link.LOGIT, offset=b, weights=wt)

    extra = np.vstack([design, _with_intercept(*rng.normal(size=(5, 2)).T)])
    z2 = np.concatenate([z, np.array([1.0, 0.0, 1.0, 1.0, 0.0])])
    b2 = np.concatenate([b, np.full(5, 3.0)])
    wt2 = np.concatenate([wt, np.zeros(5)])
    padded = fit_glm(extra, z2, Link.LOGIT, offset=b2, weights=wt2)
    np.testing.assert_allclose(padded.coefficients, full.coefficients,
                               rtol=0, atol=1e-9)


def test_fit_is_deterministic():
    rng = np.random.default_rng(23)
    design, z, b, wt = _random_logit_problem(rng)
    first = fit_glm(design, z, Link.LOGIT, offset=b, weights=wt)
    second = fit_glm(design, z, Link.LOGIT, offset=b, weights=wt)
    assert np.array_equal(first.coefficients, second.coefficients)
    assert first.iterations == second.iterations


def test_input_validation():
    design = _with_intercept([0.0, 1.0, 2.0])
    z = np.array([0.0, 1.0, 0.0])
    with pytest.raises(ValueError, match="response"):
        fit_glm(design, np.array([1.0, 2.0]), Link.IDENTITY)
    with pytest.raises(ValueError, match="offset"):
        fit_glm(design, z, Link.IDENTITY, offset=np.array([1.0]))
    with pytest.raises(ValueError, match="weights"):
        fit_glm(design, z, Link.IDENTITY, weights=np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="nonnegative"):
        fit_glm(design, z, Link.IDENTITY, weights=np.array([1.0, -1.0, 1.0]))
    with pytest.raises(ValueError, match="strictly positive"):
        fit_glm(design, z, Link.IDENTITY, weights=np.zeros(3))
    with pytest.raises(ValueError, match="non-finite"):
        fit_glm(design, np.array([0.0, np.nan, 1.0]), Link.IDENTITY)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        fit_glm(design, np.array([0.0, 1.5, 1.0]), Link.LOGIT)


NAN, INF = float("nan"), float("inf")

# (response, link, weights, offset, full message): each input fault and
# which check reports it first. A NaN weight is non-finite, not a sign
# error, unless another weight is negative or none is positive.
INPUT_ERRORS = [
    ([0.0, 1.0, 0.0], "identity", [1.0, NAN, 1.0], None,
     "weights contains non-finite values"),
    ([0.0, 1.0, 0.0], "identity", [1.0, NAN, -1.0], None,
     "weights must be nonnegative"),
    ([0.0, 1.0, 0.0], "identity", [NAN, NAN, NAN], None,
     "at least one weight must be strictly positive"),
    ([0.0, 1.0, 0.0], "identity", [NAN, 0.0, 0.0], None,
     "at least one weight must be strictly positive"),
    ([0.0, 1.0, 0.0], "identity", [1.0, -INF, 1.0], None,
     "weights must be nonnegative"),
    ([0.0, 1.0, 0.0], "identity", [1.0, INF, 1.0], None,
     "weights contains non-finite values"),
    ([0.0, NAN, 0.0], "identity", [1.0, -1.0, 1.0], None,
     "weights must be nonnegative"),
    ([0.0, 1.0, 0.0], "identity", None, [0.0, -INF, 0.0],
     "offset contains non-finite values"),
    ([0.0, NAN, 0.0], "logit", None, None,
     "response contains non-finite values"),
    ([0.0, -INF, 0.0], "logit", None, None,
     "response contains non-finite values"),
    ([0.0, 1.0, -0.5], "logit", None, None,
     "logit link requires response values in [0, 1]"),
    ([0.0, 1.0, 1.5], "logit", None, None,
     "logit link requires response values in [0, 1]"),
]


@pytest.mark.parametrize("response, link, weights, offset, message",
                         INPUT_ERRORS)
def test_input_errors_keep_their_precedence(response, link, weights, offset,
                                            message):
    design = _with_intercept([0.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        fit_glm(design, np.array(response), link, offset=offset,
                weights=weights)


def test_design_validation():
    # The model matrix must be 2-D with at least one column, all finite.
    z = np.array([0.0, 1.0, 0.0])
    for bad, message in ((np.ones(3), "shape"),
                         (np.empty((3, 0)), "shape"),
                         (np.array([[1.0], [np.inf], [1.0]]), "non-finite")):
        with pytest.raises(ValueError, match=message):
            fit_glm(bad, z, Link.IDENTITY)
    only = fit_glm(np.ones((5, 1)), np.arange(5.0), Link.IDENTITY)
    assert only.coefficients.shape == (1,)
    wide = fit_glm(_with_intercept([1.0, 2.0, 0.0], [3.0, 4.0, 4.0]),
                   z, Link.IDENTITY)
    assert wide.coefficients.shape == (3,)


def test_predict_rejects_mismatched_design():
    design = _with_intercept([0.0, 1.0, 2.0])
    fit = fit_glm(design, np.array([0.0, 1.0, 2.0]), Link.IDENTITY)
    np.testing.assert_allclose(predict(fit, design[1:]), [1.0, 2.0],
                               rtol=0, atol=1e-12)
    for other in (np.ones((3, 1)), _with_intercept([0.0], [1.0]),
                  np.ones(2)):
        with pytest.raises(ValueError, match="as in the fit"):
            predict(fit, other)


def _logit_oracle_problems(rng, case, count=25):
    """Random logit problems for one weighting case. Two in three
    offsets are shifted by 6 away from the data, which makes the first
    Newton steps overshoot, so step-halving is exercised."""
    for _ in range(count):
        n = int(rng.integers(20, 400))
        p = int(rng.integers(1, 4))
        design = _with_intercept(*(rng.normal(size=n) for _ in range(p)))
        eta = rng.normal() + design[:, 1:] @ rng.uniform(-3.0, 3.0, size=p)
        b = rng.normal(scale=2.0, size=n)
        if case == "continuous":
            z = rng.uniform(0.0, 1.0, size=n)
        else:
            z = (rng.random(n) < expit(eta + b)).astype(float)
        b = b + rng.choice([-6.0, 0.0, 6.0])
        wt = rng.uniform(0.1, 3.0, size=n)
        if case == "zero_weights":
            wt[rng.random(n) < 0.3] = 0.0
            wt[0] = 1.0
        yield design, z, b, wt


@pytest.mark.parametrize("case", ["positive", "zero_weights", "continuous"])
def test_logit_iterates_match_two_logaddexp_oracle(case):
    # The log-likelihood only decides which Newton steps are accepted, so
    # the one-logaddexp form must give the two-logaddexp iterates exactly.
    rng = np.random.default_rng({"positive": 43, "zero_weights": 47,
                                 "continuous": 53}[case])
    for design, z, b, wt in _logit_oracle_problems(rng, case):
        try:
            fit = fit_glm(design, z, Link.LOGIT, offset=b, weights=wt)
        except SeparationError:
            continue
        tol_abs = 1e-8 * (1.0 + wt.sum())
        beta, iterations = fit_logit_two_logaddexp(
            design, z, b, wt, tol_abs)
        assert np.array_equal(fit.coefficients, beta)
        assert fit.iterations == iterations
