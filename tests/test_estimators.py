"""Point-treatment estimator tests: identities, oracles, bounding, and the
clever weights that the estimators of both designs share."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

import eiftools.estimators as est
import eiftools.longitudinal as lng
from eiftools.data import Dataset
from eiftools.estimators import (
    TMLE_VARIANTS,
    Z975,
    eif_values,
    fluctuate,
    gcomp,
    one_step,
    tmle,
    wald_inference,
)
from eiftools.glm import GlmError, NonConvergenceError, SingularDesignError
from eiftools.nuisance import LearnerSpec, NuisanceEstimates, fit_nuisance
from helpers import random_long_dataset, random_point_dataset
from oracles import (
    eif_by_hand,
    fluctuation_root,
    stratum_point_value,
    subset,
    two_pass_variance,
)

SATURATED = Dataset.from_columns(
    {"w": [0.0, 0.0, 1.0, 1.0]},
    [0.0, 1.0, 0.0, 1.0],
    [1.0, 0.0, 0.0, 1.0],
)


def _main_terms_nuisance(data, truncation=(0.01, 0.99)):
    return fit_nuisance(data, LearnerSpec("glm_main_terms"),
                        LearnerSpec("glm_main_terms"), truncation=truncation)


def test_eif_values_match_hand_computation():
    data = Dataset.from_columns(
        {"w": [0.0, 1.0]}, [0.0, 1.0], [2.0, 7.0])
    mu = np.array([1.0, 1.5])
    g = np.array([0.5, 0.25])
    phi = eif_values(data, mu, g, psi=1.0)
    expected = [
        eif_by_hand(False, 2.0, 1.0, 0.5, 1.0),
        eif_by_hand(True, 7.0, 1.5, 0.25, 1.0),
    ]
    np.testing.assert_allclose(phi, expected, atol=1e-15)
    np.testing.assert_allclose(phi, [2.0, 0.5], atol=1e-15)


def test_eif_values_on_saturated_example():
    mu = np.array([1.0, 1.0, 0.0, 0.0])
    g = np.full(4, 0.5)
    phi = eif_values(SATURATED, mu, g, psi=0.5)
    np.testing.assert_allclose(phi, [0.5, 0.5, -0.5, -0.5], atol=1e-15)
    assert abs(phi.mean()) < 1e-15


def test_eif_values_validation():
    for bad in (1.0, 0.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="strictly"):
            eif_values(SATURATED, np.zeros(4), np.array([0.5, bad, 0.5, 0.5]),
                       0.0)
    with pytest.raises(ValueError, match="one value per row"):
        eif_values(SATURATED, np.zeros(3), np.full(4, 0.5), 0.0)


def test_wald_inference_formulas():
    se, ci = wald_inference(np.array([1.0, -1.0]), psi_hat=0.3)
    assert se == pytest.approx(1.0, abs=1e-15)
    assert ci[0] == pytest.approx(0.3 - Z975, abs=1e-12)
    assert ci[1] == pytest.approx(0.3 + Z975, abs=1e-12)

    se0, ci0 = wald_inference(np.zeros(5), psi_hat=2.0)
    assert se0 == 0.0
    assert ci0 == (2.0, 2.0)

    rng = np.random.default_rng(3)
    phi = rng.normal(size=31)
    se_r, _ = wald_inference(phi, 0.0)
    assert se_r == pytest.approx(
        np.sqrt(two_pass_variance(phi) / 31), rel=1e-12)

    with pytest.raises(ValueError, match="n >= 2"):
        wald_inference(np.array([1.0]), 0.0)

    # Squared deviations, or the sum itself, overflow: an error, not an
    # infinite interval (nor a warning, which the test settings raise).
    for phi in ([1e160, -1e160, 0.0], [1e308, 1e308]):
        with pytest.raises(ValueError, match="variance overflows"):
            wald_inference(np.array(phi), 0.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(2, 5000), seed=st.integers(0, 2**32 - 1),
       exponent=st.integers(0, 100))
def test_means_and_wald_se_are_bit_exact(n, seed, exponent):
    """Means are sum / n and the Wald se is written out; both must equal
    numpy's np.mean and sqrt(np.var(ddof=1) / n) bit for bit on mixed
    signs and magnitudes spanning 10**-exponent to 10**exponent."""
    rng = np.random.default_rng(seed)
    wide = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(
        -exponent, exponent + 1, n)
    se, _ = wald_inference(wide, 0.0)
    assert se == float(np.sqrt(np.var(wide, ddof=1) / n))

    treatment = (rng.random(n) < 0.5).astype(float)
    treatment[0] = 0.0
    data = Dataset.from_columns({"w": np.zeros(n)}, treatment,
                                rng.normal(size=n))
    g = rng.uniform(0.05, 0.95, n)
    nuisance = NuisanceEstimates(wide, g)
    # Targeting certifies its score to an absolute tolerance, so it runs
    # on outcome-scale predictions.
    on_scale = NuisanceEstimates(rng.normal(size=n), g)
    results = [gcomp(data, nuisance), one_step(data, nuisance),
               tmle(data, on_scale, "weighted_linear")]
    plug_ins = [wide, (treatment == 0.0) / g * (data.outcome - wide) + wide,
                results[2].fluctuation.targeted_pred]
    for result, values in zip(results, plug_ins):
        assert result.psi_hat == float(np.mean(values))
        assert result.diagnostics["mean_eif"] == float(np.mean(result.eif))
        assert result.se == float(np.sqrt(np.var(result.eif, ddof=1) / n))


def test_one_step_equals_gcomp_plus_mean_eif():
    rng = np.random.default_rng(404)
    for _ in range(25):
        data = random_point_dataset(rng)
        nuis = _main_terms_nuisance(data)
        plug = gcomp(data, nuis)
        shift = float(np.mean(eif_values(
            data, nuis.outcome_pred, nuis.propensity_pred, plug.psi_hat)))
        os_fit = one_step(data, nuis)
        assert os_fit.psi_hat == pytest.approx(plug.psi_hat + shift,
                                               abs=1e-12)
        assert abs(os_fit.diagnostics["mean_eif"]) < 1e-12


def test_tmle_coefficient_zero_when_outcome_model_is_exact():
    rng = np.random.default_rng(9)
    data = random_point_dataset(rng, n=40, binary_y=True,
                                y_bounds=(0.0, 1.0))
    untreated = data.treatment == 0.0
    # Nudge outcomes strictly inside the bounds so the logistic rescaling
    # does not clip, then feed the outcomes back as their own predictions.
    y = np.where(data.outcome > 0.5, 0.9, 0.1)
    data = Dataset.from_columns({"w0": data.covariate_column("w0"),
                                 "w1": data.covariate_column("w1")},
                                data.treatment, y, y_bounds=(0.0, 1.0))
    mu = np.where(untreated, y, 0.42)
    nuis = NuisanceEstimates(mu, np.full(data.n_obs, 0.6))
    for variant in TMLE_VARIANTS:
        fit = tmle(data, nuis, variant)
        assert abs(fit.diagnostics["fluctuation_coefficient"]) < 1e-8
        assert fit.psi_hat == pytest.approx(float(np.mean(mu)), abs=1e-8)


def test_all_estimators_agree_on_saturated_example():
    nuis = _main_terms_nuisance(SATURATED)
    oracle = stratum_point_value(SATURATED.covariates, SATURATED.treatment,
                                 SATURATED.outcome)
    assert oracle == pytest.approx(0.5, abs=1e-15)
    results = [gcomp(SATURATED, nuis), one_step(SATURATED, nuis)]
    results += [tmle(SATURATED, nuis, v) for v in TMLE_VARIANTS]
    for res in results:
        assert res.psi_hat == pytest.approx(0.5, abs=1e-10), res.estimator


def test_saturated_fits_equal_stratum_oracle():
    rng = np.random.default_rng(88)
    for _ in range(20):
        data = random_point_dataset(rng, n=int(rng.integers(20, 61)),
                                    binary_w=True, n_cov=1)
        strata = data.covariates[:, 0]
        # Keep every stratum populated on both arms so the saturated
        # propensity stays inside the default truncation interval.
        ok = all(
            np.any((strata == s) & (data.treatment == 0.0))
            and np.any((strata == s) & (data.treatment == 1.0))
            for s in np.unique(strata)
        )
        if not ok:
            continue
        oracle = stratum_point_value(data.covariates, data.treatment,
                                     data.outcome)
        nuis = _main_terms_nuisance(data)
        assert gcomp(data, nuis).psi_hat == pytest.approx(oracle, abs=1e-10)
        assert one_step(data, nuis).psi_hat == pytest.approx(oracle, abs=1e-10)
        for variant in ("covariate_linear", "weighted_linear"):
            assert tmle(data, nuis, variant).psi_hat == pytest.approx(
                oracle, abs=1e-10)


def test_fluctuation_coefficients_match_bisection():
    rng = np.random.default_rng(505)
    for _ in range(25):
        data = random_point_dataset(rng, binary_y=True, y_bounds=(0.0, 1.0))
        # Intercept-only outcome model: crude on purpose so the targeting
        # step has real work to do.
        nuis = fit_nuisance(data, LearnerSpec("glm_main_terms"),
                            LearnerSpec("glm_main_terms"),
                            outcome_covariates=())
        h = (data.treatment == 0.0) / nuis.propensity_pred
        for variant in TMLE_VARIANTS:
            fit = tmle(data, nuis, variant)
            root = fluctuation_root(
                variant, data.outcome, nuis.outcome_pred, h,
                bounds=(0.0, 1.0))
            assert fit.diagnostics["fluctuation_coefficient"] == pytest.approx(
                root, abs=1e-6), variant


def test_targeting_solves_its_score_equation():
    rng = np.random.default_rng(71)
    for _ in range(10):
        data = random_point_dataset(rng, binary_y=True, y_bounds=(0.0, 1.0))
        nuis = fit_nuisance(data, LearnerSpec("glm_main_terms"),
                            LearnerSpec("glm_main_terms"),
                            outcome_covariates=())
        h = (data.treatment == 0.0) / nuis.propensity_pred
        scale = 1.0 + float(np.sum(h))
        for variant in TMLE_VARIANTS:
            fit = tmle(data, nuis, variant)
            assert abs(fit.diagnostics["score_residual"]) <= 1e-8 * scale
            # Influence-function mean at the targeted fit: zero for the
            # linear variants by the same score equation.
            if variant != "weighted_logistic":
                assert abs(fit.diagnostics["mean_eif"]) <= 1e-10 * scale


def test_weighted_logistic_keeps_psi_inside_bounds():
    rng = np.random.default_rng(2024)
    for _ in range(40):
        n = 30
        w = rng.normal(size=n) * 3.0
        a = (rng.random(n) < 0.8).astype(float)
        if (a == 0).sum() < 2:
            continue
        y = (rng.random(n) < 0.05).astype(float)
        data = Dataset.from_columns({"w": w}, a, y, y_bounds=(0.0, 1.0))
        nuis = fit_nuisance(data, LearnerSpec("glm_main_terms"),
                            LearnerSpec("glm_main_terms"))
        fit = tmle(data, nuis, "weighted_logistic")
        assert 0.0 <= fit.psi_hat <= 1.0
        assert fit.diagnostics["targeted_pred_min"] >= 0.0
        assert fit.diagnostics["targeted_pred_max"] <= 1.0


def test_estimates_are_permutation_invariant():
    rng = np.random.default_rng(606)
    data = random_point_dataset(rng, n=70)
    perm = rng.permutation(70)
    shuffled = subset(data, perm)
    for point in (gcomp, one_step):
        a = point(data, _main_terms_nuisance(data)).psi_hat
        b = point(shuffled, _main_terms_nuisance(shuffled)).psi_hat
        assert a == pytest.approx(b, abs=1e-12)
    for variant in TMLE_VARIANTS:
        a = tmle(data, _main_terms_nuisance(data), variant).psi_hat
        b = tmle(shuffled, _main_terms_nuisance(shuffled), variant).psi_hat
        assert a == pytest.approx(b, abs=1e-12)


def test_affine_equivariance_of_location_scale():
    rng = np.random.default_rng(707)
    data = random_point_dataset(rng, n=60)
    scale, shift = 2.5, -3.0
    cols = {n: data.covariate_column(n) for n in data.covariate_names}
    moved = Dataset.from_columns(cols, data.treatment,
                                 shift + scale * data.outcome)
    nuis = _main_terms_nuisance(data)
    nuis_m = _main_terms_nuisance(moved)
    pairs = [
        (gcomp(data, nuis), gcomp(moved, nuis_m)),
        (one_step(data, nuis), one_step(moved, nuis_m)),
        (tmle(data, nuis, "covariate_linear"),
         tmle(moved, nuis_m, "covariate_linear")),
        (tmle(data, nuis, "weighted_linear"),
         tmle(moved, nuis_m, "weighted_linear")),
    ]
    for base, transformed in pairs:
        assert transformed.psi_hat == pytest.approx(
            shift + scale * base.psi_hat, rel=1e-9, abs=1e-9)
        assert transformed.se == pytest.approx(scale * base.se, rel=1e-9)

    lo, hi = data.outcome_bounds()
    base = tmle(data, nuis, "weighted_logistic", y_bounds=(lo, hi))
    transformed = tmle(moved, nuis_m, "weighted_logistic",
                       y_bounds=(shift + scale * lo, shift + scale * hi))
    assert transformed.psi_hat == pytest.approx(
        shift + scale * base.psi_hat, rel=1e-6, abs=1e-6)


def test_constant_outcome_gives_the_constant_for_every_variant():
    # The logistic variant's bounds have zero width: the one value they
    # hold is its own targeted prediction.
    data = Dataset.from_columns(
        {"w": [0.0, 1.0, 0.0, 1.0]},
        [0.0, 0.0, 1.0, 1.0],
        [2.0, 2.0, 2.0, 2.0],
    )
    nuis = NuisanceEstimates(np.full(4, 2.0), np.full(4, 0.5))
    for variant in TMLE_VARIANTS:
        fit = tmle(data, nuis, variant)
        assert fit.psi_hat == pytest.approx(2.0, abs=1e-12)
        assert fit.se == 0.0


def test_logistic_variant_rejects_outcomes_outside_bounds():
    data = Dataset.from_columns(
        {"w": [0.0, 1.0, 0.0]}, [0.0, 0.0, 1.0], [0.2, 0.8, 0.5])
    nuis = NuisanceEstimates(np.full(3, 0.5), np.full(3, 0.5))
    with pytest.raises(ValueError, match="scaling bounds"):
        tmle(data, nuis, "weighted_logistic", y_bounds=(0.3, 1.0))


def test_targeting_glm_failure_is_annotated(monkeypatch):
    def boom(*args, **kwargs):
        raise GlmError("solver failed")

    monkeypatch.setattr(est, "_solve_linear", boom)
    nuis = NuisanceEstimates(np.zeros(4), np.full(4, 0.5))
    with pytest.raises(GlmError,
                       match=r"targeting step \(weighted_linear\)"):
        tmle(SATURATED, nuis, "weighted_linear")


def test_logistic_fluctuation_stops_at_the_iteration_cap(monkeypatch):
    # The root is logit(1/3); one Newton step from 0 falls short of it.
    monkeypatch.setattr(est, "DEFAULT_MAX_ITERATIONS", 1)
    with pytest.raises(NonConvergenceError, match=r"^logit fit did not "
                       r"converge in 1 iterations$") as excinfo:
        fluctuate([1.0, 0.0, 0.0], np.full(3, 0.5), np.ones(3), None,
                  "weighted_logistic", (0.0, 1.0))
    err = excinfo.value
    assert err.iterations == 1
    assert abs(err.score_residuals[0]) > 1e-8 * (1 + 3)


def test_logistic_fluctuation_rejects_a_newton_step_that_overflows():
    # One row's mean is the smallest positive expit (about 7e-309) and
    # the other's is 0: against a score of about 2, the step
    # score / information overflows.
    with pytest.raises(SingularDesignError,
                       match=r"^logit-link Newton step is not finite$"):
        est._solve_logistic(np.ones(2), np.array([-709.5, -800.0]),
                            np.ones(2), 1e-8 * 3)


def test_unknown_variant_and_size_mismatch():
    nuis = NuisanceEstimates(np.zeros(4), np.full(4, 0.5))
    with pytest.raises(ValueError, match="unknown TMLE variant"):
        tmle(SATURATED, nuis, "quadratic")
    short = NuisanceEstimates(np.zeros(3), np.full(3, 0.5))
    with pytest.raises(ValueError, match="do not match"):
        tmle(SATURATED, short, "weighted_linear")
    with pytest.raises(ValueError, match="do not match"):
        gcomp(SATURATED, short)


@pytest.mark.parametrize("variant", TMLE_VARIANTS)
def test_clever_weights_that_overflow_fail_fluctuate_input_check(variant):
    # A truncation bound below 1/DBL_MAX lets 1/g overflow to inf. The
    # point TMLE then runs fluctuate's input checks, which it skips when
    # the weight sum is finite.
    nuis = NuisanceEstimates(np.zeros(4), np.full(4, 1e-320),
                             truncation_bounds=(1e-320, 0.5))
    with pytest.raises(ValueError, match=rf"^targeting step \({variant}\): "
                       "fluctuation inputs must be finite"):
        tmle(SATURATED, nuis, variant)


def test_result_json_shape():
    nuis = _main_terms_nuisance(SATURATED)
    fit = tmle(SATURATED, nuis, "weighted_logistic")
    blob = fit.to_json_dict()
    assert set(blob) == {"estimator", "psi_hat", "se", "ci95", "diagnostics"}
    assert blob["estimator"] == "tmle_weighted_logistic"
    assert isinstance(blob["ci95"], list) and len(blob["ci95"]) == 2
    assert "eif" not in blob
    assert blob["diagnostics"]["variant"] == "weighted_logistic"


def test_covariate_fluctuation_predicts_under_the_regime():
    # the covariate-shape update fits on H = I(A=0)/g but must shift every
    # row's prediction by coefficient / g when predicting the untreated
    # regime; shifting by H instead shrinks the correction by roughly
    # E[1/g] and loses double robustness under outcome misspecification
    rng = np.random.default_rng(404)
    n = 40_000
    w = (rng.random(n) < 0.5).astype(float)
    g = expit(0.4 - 0.8 * w)
    a = (rng.random(n) >= g).astype(float)
    p_y = 0.2 + 0.4 * w
    y = (rng.random(n) < p_y).astype(float)
    data = Dataset.from_columns({"w": w}, a, y)
    truth = 0.4

    learner = LearnerSpec.parse("glm_main_terms")
    nuis = fit_nuisance(data, learner, learner, outcome_covariates=())
    fit = tmle(data, nuis, "covariate_linear")
    np.testing.assert_allclose(
        fit.fluctuation.targeted_pred - nuis.outcome_pred,
        fit.fluctuation.coefficient / nuis.propensity_pred,
        atol=1e-12)
    assert abs(fit.psi_hat - truth) < 3.0 * fit.se
    # the same misspecified outcome model leaves the plug-in visibly biased
    plug_in = gcomp(data, nuis)
    assert abs(plug_in.psi_hat - truth) > 6.0 * fit.se


# Each design's estimators, as functions of (data, nuisances), and a
# builder of (data, nuisances) from a seed; every estimator of a
# (data, nuisances) pair reads the clever weights derived for that pair.
_DESIGNS = {
    "point": (
        [gcomp, one_step] + [lambda d, n, v=v: tmle(d, n, v)
                             for v in TMLE_VARIANTS],
        lambda seed: random_point_dataset(np.random.default_rng(seed), n=120),
        _main_terms_nuisance),
    "longitudinal": (
        [lng.one_step_long] + [lambda d, n, v=v: lng.tmle_long(d, n, v)
                               for v in TMLE_VARIANTS],
        lambda seed: random_long_dataset(np.random.default_rng(seed), n=120,
                                         binary_y=False),
        lng.fit_sequential_nuisances),
}


def _assert_bit_equal(result, expected):
    """Everything two estimates report is equal, each float to the bit."""
    assert ([float.hex(v) for v in (result.psi_hat, result.se, *result.ci95)]
            == [float.hex(v) for v in (expected.psi_hat, expected.se,
                                       *expected.ci95)])
    assert np.array_equal(result.eif, expected.eif)
    assert result.to_json_dict() == expected.to_json_dict()


@pytest.mark.parametrize("design", sorted(_DESIGNS))
def test_estimators_in_any_order_equal_each_one_alone(design):
    estimators, draw, fit = _DESIGNS[design]
    data = draw(31)
    nuis = fit(data)
    # Each alone, on nuisances built afresh (replace builds a new object).
    alone = [run(data, replace(nuis)) for run in estimators]
    rng = np.random.default_rng(5)
    for _ in range(4):
        shared = replace(nuis)
        for i in rng.permutation(len(estimators)):
            _assert_bit_equal(estimators[i](data, shared), alone[i])


@pytest.mark.parametrize("design", sorted(_DESIGNS))
def test_one_nuisances_object_follows_the_dataset_it_is_given(design):
    # Nuisances fit on one dataset, used with another of the same size:
    # each call reads the weights of the dataset it is given.
    estimators, draw, fit = _DESIGNS[design]
    first, second = draw(32), draw(33)
    assert first.n_obs == second.n_obs
    nuis = fit(first)
    for data in (first, second, first, second):
        for run in estimators:
            _assert_bit_equal(run(data, nuis), run(data, replace(nuis)))


@pytest.mark.parametrize("design", sorted(_DESIGNS))
@pytest.mark.parametrize("seed", [34, 35, 36])
def test_each_estimate_reports_the_wald_interval_of_its_eif(design, seed):
    # The assembly hands the shared Wald core the influence-function sum
    # it already took; the interval is wald_inference's, to the bit.
    estimators, draw, fit = _DESIGNS[design]
    data = draw(seed)
    nuis = fit(data)
    for run in estimators:
        result = run(data, nuis)
        se, ci = wald_inference(result.eif, result.psi_hat)
        assert ([float.hex(v) for v in (result.se, *result.ci95)]
                == [float.hex(v) for v in (se, *ci)])
