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

from eiftools.data import Dataset
from eiftools.estimators import TMLE_VARIANTS, fluctuate, tmle
from eiftools.nuisance import NuisanceEstimates
from oracles import (bisect_root, fluctuate_long_fit_glm,
                     fluctuate_point_fit_glm)

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
                                y)
    nuisance = NuisanceEstimates(mu, g, truncation_bounds=(5e-4, 0.9995))
    _check(variant,
           lambda: tmle(data, nuisance, variant, y_bounds=bounds).fluctuation,
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
# variant; the empty case must not become numpy's zero-size error.
BAD_CASES = [
    ([], [], []),
    ([0.5, NAN], [0.5, 0.5], [1.0, 1.0]),
    ([0.5, 0.5], [0.5, -INF], [1.0, 1.0]),
    ([0.5, 0.5], [0.5, 0.5], [1.0, INF]),
    ([0.5, 0.5], [0.5, 0.5], [1.0, NAN]),
    ([0.5, 0.5], [0.5, 0.5], [1.0, -1.0]),
    ([0.5, 0.5], [0.5, 0.5], [0.0, 0.0]),
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
