"""The direct targeting kernel against the general GLM fit it replaced.

``estimators.fluctuate`` solves each one-parameter fluctuation in closed
form (linear variants) or by a scalar Newton iteration (logistic). The
oracles in ``tests/oracles.py`` solve the same fluctuations the way both
designs did before, as a weighted GLM fit with an offset on a one-column
model matrix: least squares on the square-root-weighted system, or the
weighted Newton iteration of ``fit_logit_two_logaddexp``. On random
problems the two must give the same coefficient and targeted predictions
to 1e-12 (relative above 1) and the same score residual to 1e-12 of the
score scale 1 + sum(weights), or raise the same exception type.
"""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.special import expit

import eiftools.estimators as est
from eiftools.data import Dataset
from eiftools.estimators import TMLE_VARIANTS, fluctuate, tmle
from eiftools.glm import NonConvergenceError
from eiftools.nuisance import NuisanceEstimates
from oracles import (bisect_root, fluctuate_long_fit_glm,
                     fluctuate_point_fit_glm, linear_fluctuation_reference)

RTOL = 1e-12

# Root of 2*(1 - expit(0.2 + c)) - expit(-0.1 + c) = 0, computed once by
# bisection to machine precision and frozen here.
FROZEN_LOGIT_GAMMA = 0.5963687987672498
FROZEN_LOGIT_PROBS = (0.6891971966294974, 0.6216056067410052)


@st.composite
def problems(draw):
    """One targeting problem: response, offset predictions, propensities
    down to ``floor``, the untreated indicator (treated rows get weight
    0) and the logistic scaling bounds. Offsets are shifted by -6, 0 or
    +6 (on the logit scale of the bounds for the logistic variant), so
    the first Newton steps overshoot and step-halving runs."""
    variant = draw(st.sampled_from(TMLE_VARIANTS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 80))
    floor = draw(st.sampled_from([1e-3, 0.02, 0.2]))
    treated_share = draw(st.sampled_from([0.0, 0.3, 0.8, 0.95]))
    shift = draw(st.sampled_from([-6.0, 0.0, 6.0]))
    lo, hi = draw(st.sampled_from([(0.0, 1.0), (-2.0, 3.0)]))
    span = hi - lo
    g = np.exp(rng.uniform(np.log(floor), np.log(0.999), n))
    untreated = (rng.random(n) >= treated_share).astype(float)
    if draw(st.booleans()):
        y = lo + span * (rng.random(n) < rng.random()).astype(float)
    else:
        y = lo + span * rng.random(n)
    eta = rng.normal(scale=1.5, size=n) + shift
    if variant == "weighted_logistic":
        offset = lo + span * expit(eta)
    else:
        offset = lo + span * eta
    return variant, y, offset, g, untreated, (lo, hi)


def _close(got, want):
    got, want = np.asarray(got, float), np.asarray(want, float)
    assert got.shape == want.shape
    error = np.abs(got - want)
    assert np.all(error <= RTOL * np.maximum(1.0, np.abs(want))), error.max()


def _check(variant, solve, oracle, weights, bounds):
    try:
        want = oracle()
    except Exception as exc:  # the kernel must fail the same way
        with pytest.raises(type(exc)):
            solve()
        return
    fit = solve()
    assert fit.variant == variant
    _close(fit.coefficient, want[0])
    _close(fit.targeted_pred, want[1])
    # At the root the residual is rounding noise of order
    # eps * sum(|w (y - mu)|), about 1e-10 with weights near 1000, for
    # either solver; so it is compared on the certificate's scale.
    scale = 1.0 + float(np.sum(weights))
    assert abs(fit.score_residual) <= 1e-8 * scale
    assert abs(fit.score_residual - want[2]) <= RTOL * scale
    if variant == "weighted_logistic":
        lo, hi = bounds
        assert np.all((fit.targeted_pred >= lo) & (fit.targeted_pred <= hi))


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(problem=problems())
def test_point_tmle_matches_fit_glm_fluctuation(problem):
    variant, y, mu, g, untreated, bounds = problem
    if not np.any(untreated):
        untreated[0] = 1.0  # a point dataset needs an untreated row
    data = Dataset.from_columns({"w": np.zeros(y.shape[0])}, 1.0 - untreated,
                                y, y_bounds=bounds)
    nuisance = NuisanceEstimates(mu, g, truncation_bounds=(5e-4, 0.9995))
    _check(variant,
           lambda: tmle(data, nuisance, variant).fluctuation,
           lambda: fluctuate_point_fit_glm(y, mu, g, data.treatment, variant,
                                           bounds),
           untreated / g, bounds)


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(problem=problems())
def test_kernel_matches_longitudinal_fit_glm_fluctuation(problem):
    variant, response, offset, g, indicator, bounds = problem
    weights, regime = indicator / g, 1.0 / g
    args = (response, offset, weights, regime, variant, bounds)
    _check(variant, lambda: fluctuate(*args),
           lambda: fluctuate_long_fit_glm(*args), weights, bounds)


def test_logit_frozen_two_point_example():
    # Logit-scale offsets 0.2 and -0.1 with weights 2 and 1. The default
    # tolerance certifies the score equation, so the coefficient sits
    # within (score tol) / (information) of the exact root.
    fit = fluctuate(np.array([1.0, 0.0]), expit(np.array([0.2, -0.1])),
                    np.array([2.0, 1.0]), np.ones(2), "weighted_logistic",
                    (0.0, 1.0))
    assert fit.coefficient == pytest.approx(FROZEN_LOGIT_GAMMA, abs=1e-6)
    np.testing.assert_allclose(fit.targeted_pred, FROZEN_LOGIT_PROBS,
                               rtol=0, atol=1e-6)


def test_frozen_value_agrees_with_live_bisection():
    def score(c):
        return 2.0 * (1.0 - expit(0.2 + c)) - expit(-0.1 + c)

    live = bisect_root(score, -20.0, 20.0)
    assert live == pytest.approx(FROZEN_LOGIT_GAMMA, abs=1e-12)


NAN, INF = float("nan"), float("inf")
BAD_INPUTS = "fluctuation inputs must be finite, with weights nonnegative " \
             "and not all zero"
OUTSIDE = "response values fall outside the scaling bounds"


# (response, offset, weights): each fails the input check of every
# variant; the empty case must not become numpy's zero-size error. The
# last weights are finite, but their sum is not, so the tolerance
# 1e-8 (1 + sum(weights)) would be infinite and certify any score.
BAD_CASES = [
    ([], [], []),
    ([0.5, NAN], [0.5, 0.5], [1.0, 1.0]),
    ([0.5, 0.5], [0.5, -INF], [1.0, 1.0]),
    ([0.5, 0.5], [0.5, 0.5], [1.0, INF]),
    ([0.5, 0.5], [0.5, 0.5], [1.0, NAN]),
    ([0.5, 0.5], [0.5, 0.5], [1.0, -1.0]),
    ([0.5, 0.5], [0.5, 0.5], [0.0, 0.0]),
    ([1.0, 0.0, 0.5], [0.9, 0.1, 0.5], [1e308, 1e308, 0.0]),
]


@pytest.mark.parametrize("variant, response, offset, weights, message", [
    *((variant, *case, BAD_INPUTS) for variant in TMLE_VARIANTS
      for case in BAD_CASES),
    ("weighted_logistic", [0.5, -0.5], [0.5, 0.5], [1.0, 1.0], OUTSIDE),
    ("weighted_logistic", [0.5, 1.5], [0.5, 0.5], [1.0, 1.0], OUTSIDE),
])
def test_input_errors(variant, response, offset, weights, message):
    bounds = (0.0, 1.0) if variant == "weighted_logistic" else None
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        fluctuate(np.array(response), np.array(offset), np.array(weights),
                  np.ones(len(weights)), variant, bounds)


def test_underflowing_slope_is_an_input_error():
    # Positive weights and covariate whose products underflow to 0: the
    # closed-form root would divide by a zero slope.
    tiny = np.full(2, 1e-200)
    with pytest.raises(ValueError, match=re.escape(
            "the weighted least-squares slope sum(w x) = 0.0 is not "
            "positive")):
        fluctuate(np.array([1.0, 0.0]), np.full(2, 0.5), tiny, tiny,
                  "covariate_linear", None)


REGIME = "the regime covariate must be a positive, finite vector with one " \
         "value per row"


@pytest.mark.parametrize("regime_covariate", [
    None, [1.0, INF, 1.0], [1.0, NAN, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0],
    [[1.0, 1.0, 1.0]]])
def test_covariate_fluctuation_needs_a_regime_covariate(regime_covariate):
    with pytest.raises(ValueError, match="^" + re.escape(REGIME) + "$"):
        fluctuate(np.array([1.0, 0.0, 0.0]), np.full(3, 0.5), np.ones(3),
                  regime_covariate, "covariate_linear", None)


def test_covariate_fluctuation_certifies_the_covariate_it_predicts_with():
    # The slope is taken on the regime covariate, so the residual of the
    # returned predictions is certified, not that of the weights' fit.
    response = np.array([1.0, 0.0, 0.0])
    fit = fluctuate(response, np.full(3, 0.5), np.ones(3), np.full(3, 2.0),
                    "covariate_linear", None)
    np.testing.assert_array_equal(fit.targeted_pred,
                                  0.5 + 2.0 * fit.coefficient)
    assert fit.score_residual == float((response - fit.targeted_pred).sum())
    assert abs(fit.score_residual) <= 1e-8 * (1 + 3)


@st.composite
def linear_problems(draw):
    """A linear targeting problem posed as the estimators pose it: the
    weights are the regime covariate 1/g on the regime rows and +0 off
    them. Some draws fit exactly, with residual 0: the response equals
    the offset on the regime rows, or is +0 against an offset of -0 (the
    predictions -0 + 0 x are +0). Some give the off-regime rows offsets
    of +-1e300."""
    variant = draw(st.sampled_from(("covariate_linear", "weighted_linear")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 60))
    floor = draw(st.sampled_from([1e-3, 0.02, 0.2]))
    inverse = 1.0 / np.exp(rng.uniform(np.log(floor), np.log(0.999), n))
    indicator = (rng.random(n) >= draw(st.sampled_from([0.0, 0.3, 0.8])))
    indicator[0] = True
    weights = indicator * inverse
    offset = rng.normal(scale=2.0, size=n)
    response = rng.normal(size=n)
    fit = draw(st.sampled_from(["none", "exact", "signed_zero"]))
    if fit == "exact":
        response[indicator] = offset[indicator]
    elif fit == "signed_zero":
        response[:], offset[:] = 0.0, -0.0
    if draw(st.booleans()):
        off = ~indicator
        offset[off] = 1e300 * np.where(rng.random(off.sum()) < 0.5, -1, 1)
    return variant, response, offset, weights, inverse


def _hex(values):
    return [float(v).hex() for v in np.atleast_1d(values)]


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(problem=linear_problems())
def test_linear_fluctuation_keeps_the_bits_of_the_reference(problem):
    # The solve now takes its slope on the regime covariate and returns
    # the score it computed; on the estimators' weights, which equal the
    # covariate on the regime rows and are zero elsewhere, every
    # coefficient, prediction and residual keeps its bits (float.hex
    # tells the signs of zeros apart).
    variant, response, offset, weights, regime = problem
    args = (response, offset, weights, regime, variant)
    try:
        want = linear_fluctuation_reference(*args)
    except NonConvergenceError:
        with pytest.raises(NonConvergenceError):
            fluctuate(*args, None)
        return
    fit = fluctuate(*args, None)
    assert _hex(fit.coefficient) == _hex(want[0])
    assert _hex(fit.targeted_pred) == _hex(want[1])
    assert _hex(fit.score_residual) == _hex(want[2])


@pytest.mark.parametrize("seed", range(5))
def test_logistic_offset_clip_keeps_the_bits_of_np_clip(seed):
    # The rescaled offset is clipped into (1e-6, 1 - 1e-6) by two ufuncs;
    # every offset below, at, near and above the bounds must give the
    # fit that np.clip's offset gives, bit for bit.
    rng = np.random.default_rng(seed)
    lo, hi = (0.0, 1.0) if seed % 2 else (-2.0, 3.0)
    span = hi - lo
    edges = lo + span * np.array([-1.0, 0.0, 5e-7, 1e-6, 2e-6, 1 - 1e-6,
                                  1 - 5e-7, 1.0, 2.0])
    offset = np.concatenate([edges, lo + span * rng.random(31)])
    response = lo + span * (rng.random(offset.shape[0]) < 0.4)
    weights = rng.random(offset.shape[0]) * (rng.random(offset.shape[0]) < 0.7)
    weights[0] = 1.0
    tol = 1e-8 * (1.0 + float(weights.sum()))
    want = est._solve_logistic((response - lo) / span, est.logit(np.clip(
        (offset - lo) / span, 1e-6, 1.0 - 1e-6)), weights, tol)
    fit = fluctuate(response, offset, weights, None, "weighted_logistic",
                    (lo, hi))
    assert _hex(fit.coefficient) == _hex(want[0])
    assert _hex(fit.targeted_pred) == _hex(lo + span * want[1])
    assert _hex(fit.score_residual) == _hex(want[2])
