"""DGP validation, generation, truth oracles, and the experiment harness."""

import json
import pathlib

import numpy as np
import pytest
from scipy.special import expit

from eiftools.nuisance import LearnerSpec
from eiftools.simulation import (
    AnalyticTruthError,
    CovariateSpec,
    DgpConfig,
    DgpValidationError,
    EstimationPlan,
    LONG_ESTIMATORS,
    LinearModel,
    NoiseSpec,
    OutcomeSpec,
    POINT_ESTIMATORS,
    generate,
    replicate_seed,
    run_experiment,
    true_value,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def load_fixture(name):
    with open(FIXTURES / name, "r", encoding="utf-8") as fh:
        return DgpConfig.from_dict(json.load(fh))


def simple_point_dgp(**outcome_kwargs):
    outcome = dict(scale="identity", kind="binary",
                   mean_model=LinearModel(0.2, {"w": 0.4, "a": 0.2}))
    outcome.update(outcome_kwargs)
    return DgpConfig(
        design="point",
        covariates=(CovariateSpec(name="w", dist="bernoulli", p=0.5),),
        treatment=LinearModel(0.4, {"w": -0.8}),
        outcome=OutcomeSpec(**outcome),
    )


def test_fixture_configs_validate():
    assert load_fixture("dgp_binary.json").validate() == []
    assert load_fixture("dgp_long.json").validate() == []


def test_validation_collects_every_problem():
    dgp = DgpConfig(
        design="point",
        covariates=(CovariateSpec(name="w", dist="triangular"),),
        treatment=LinearModel(0.0, {"ghost": 1.0}),
        outcome=OutcomeSpec(scale="cubic", kind="binary",
                            mean_model=LinearModel(0.2, {})),
    )
    problems = dgp.validate()
    assert len(problems) >= 3
    text = "; ".join(problems)
    assert "unknown distribution" in text
    assert "unknown terms" in text
    assert "identity or logit" in text
    with pytest.raises(DgpValidationError) as err:
        dgp.check()
    assert err.value.violations == problems


def test_unbounded_covariate_in_treatment_model_rejected():
    dgp = DgpConfig(
        design="point",
        covariates=(CovariateSpec(name="w", dist="normal", mean=0.0, sd=1.0),),
        treatment=LinearModel(0.0, {"w": 0.5}),
        outcome=OutcomeSpec(scale="logit", kind="binary",
                            mean_model=LinearModel(0.0, {"w": 0.3})),
    )
    problems = dgp.validate()
    assert any("arbitrarily extreme" in p for p in problems)
    # Zero coefficient on the unbounded covariate is fine.
    ok = DgpConfig(
        design="point",
        covariates=(CovariateSpec(name="w", dist="normal", mean=0.0, sd=1.0),),
        treatment=LinearModel(0.3, {"w": 0.0}),
        outcome=OutcomeSpec(scale="logit", kind="binary",
                            mean_model=LinearModel(0.0, {"w": 0.3})),
    )
    assert ok.validate() == []


def test_propensity_interval_must_respect_floor():
    dgp = simple_point_dgp()
    steep = DgpConfig(
        design=dgp.design, covariates=dgp.covariates,
        treatment=LinearModel(0.0, {"w": 6.0}),
        outcome=dgp.outcome, positivity_floor=0.05,
    )
    problems = steep.validate()
    assert any("positivity floor" in p for p in problems)


def test_binary_identity_mean_must_fit_unit_interval():
    bad = simple_point_dgp(mean_model=LinearModel(0.9, {"w": 0.4, "a": 0.2}))
    problems = bad.validate()
    assert any("outside [0, 1]" in p for p in problems)


def test_declared_y_bounds_checked_against_mean_and_noise():
    base = dict(
        design="point",
        covariates=(CovariateSpec(name="w", dist="bernoulli", p=0.5),),
        treatment=LinearModel(0.2, {"w": -0.4}),
    )
    normal_noise = DgpConfig(
        outcome=OutcomeSpec(scale="identity", kind="continuous",
                            mean_model=LinearModel(1.0, {"w": 0.5}),
                            noise=NoiseSpec(kind="normal", sd=0.3)),
        y_bounds=(0.0, 2.0), **base)
    assert any("unbounded" in p for p in normal_noise.validate())

    tight = DgpConfig(
        outcome=OutcomeSpec(scale="identity", kind="continuous",
                            mean_model=LinearModel(1.0, {"w": 0.5}),
                            noise=NoiseSpec(kind="uniform", half_width=0.4)),
        y_bounds=(0.0, 2.0), **base)
    assert tight.validate() == []

    wide_noise = DgpConfig(
        outcome=OutcomeSpec(scale="identity", kind="continuous",
                            mean_model=LinearModel(1.0, {"w": 0.5}),
                            noise=NoiseSpec(kind="uniform", half_width=1.5)),
        y_bounds=(0.0, 2.0), **base)
    assert any("outside the declared y_bounds" in p
               for p in wide_noise.validate())


def test_config_round_trips_through_dict():
    for name in ("dgp_binary.json", "dgp_long.json"):
        dgp = load_fixture(name)
        again = DgpConfig.from_dict(dgp.to_dict())
        assert again.to_dict() == dgp.to_dict()
    with pytest.raises(DgpValidationError, match="unknown config keys"):
        DgpConfig.from_dict({"design": "point", "covariates": [],
                             "treatment": {}, "outcome": {}, "bogus": 1})
    with pytest.raises(DgpValidationError, match="missing config keys"):
        DgpConfig.from_dict({"design": "point"})


def test_generate_is_deterministic_and_respects_draw_order():
    dgp = simple_point_dgp()
    a = generate(dgp, 500, seed=7)
    b = generate(dgp, 500, seed=7)
    np.testing.assert_array_equal(a.covariates, b.covariates)
    np.testing.assert_array_equal(a.treatment, b.treatment)
    np.testing.assert_array_equal(a.outcome, b.outcome)
    assert not np.array_equal(a.outcome, generate(dgp, 500, seed=8).outcome)
    # Outcome settings must not disturb the covariate/treatment draws.
    other = simple_point_dgp(mean_model=LinearModel(0.3, {"w": 0.1, "a": 0.2}))
    c = generate(other, 500, seed=7)
    np.testing.assert_array_equal(a.covariates, c.covariates)
    np.testing.assert_array_equal(a.treatment, c.treatment)


def test_generate_marginals_and_noise_free_identity():
    flat = DgpConfig(
        design="point",
        covariates=(CovariateSpec(name="w", dist="bernoulli", p=0.5),),
        treatment=LinearModel(0.0, {}),
        outcome=OutcomeSpec(scale="identity", kind="continuous",
                            mean_model=LinearModel(1.0, {"w": 2.0, "a": -0.5})),
    )
    data = generate(flat, 10_000, seed=3)
    assert abs(np.mean(data.treatment == 0.0) - 0.5) <= 3.0 / np.sqrt(10_000)
    expected = 1.0 + 2.0 * data.covariates[:, 0] - 0.5 * data.treatment
    np.testing.assert_array_equal(data.outcome, expected)


def test_analytic_truth_values():
    assert true_value(load_fixture("dgp_binary.json")).value == 0.4

    constant = DgpConfig(
        design="point",
        covariates=(CovariateSpec(name="w", dist="bernoulli", p=0.5),),
        treatment=LinearModel(0.2, {}),
        outcome=OutcomeSpec(scale="identity", kind="continuous",
                            mean_model=LinearModel(2.5, {})),
    )
    assert true_value(constant).value == 2.5

    nested = DgpConfig(
        design="longitudinal",
        covariates=(CovariateSpec(name="w0", dist="bernoulli", p=0.5),),
        treatment=LinearModel(0.3, {"w0": 0.3}),
        w1_covariates=(CovariateSpec(
            name="w1", dist="bernoulli",
            model=LinearModel(-0.2, {"w0": 0.5, "a0": 0.3})),),
        a1_model=LinearModel(0.4, {"w0": 0.2, "w1": -0.3}),
        outcome=OutcomeSpec(scale="identity", kind="continuous",
                            mean_model=LinearModel(0.2, {"w0": 0.3,
                                                         "w1": 0.2})),
    )
    # Hand computation: theta = sum_w0 0.5 * (0.2 + 0.3 w0
    #   + 0.2 * expit(-0.2 + 0.5 w0)), the a0 term dropping out at a0=0.
    by_hand = 0.35 + 0.1 * (expit(-0.2) + expit(0.3))
    assert true_value(nested).value == pytest.approx(by_hand, abs=1e-14)


def test_analytic_truth_requires_discrete_support():
    dgp = DgpConfig(
        design="point",
        covariates=(CovariateSpec(name="w", dist="uniform", low=0.0,
                                  high=1.0),),
        treatment=LinearModel(0.2, {"w": 0.3}),
        outcome=OutcomeSpec(scale="identity", kind="continuous",
                            mean_model=LinearModel(1.0, {"w": 0.5})),
    )
    with pytest.raises(AnalyticTruthError):
        true_value(dgp, method="analytic")
    mc = true_value(dgp, method="monte_carlo", mc_draws=200_000, mc_seed=1)
    # E(1 + 0.5 W) with W ~ U(0, 1) is 1.25.
    assert abs(mc.value - 1.25) <= 4.0 * mc.mc_se


def test_monte_carlo_truth_cross_checks_analytic():
    for name in ("dgp_binary.json", "dgp_long.json"):
        dgp = load_fixture(name)
        exact = true_value(dgp).value
        mc = true_value(dgp, method="monte_carlo", mc_draws=300_000, mc_seed=9)
        assert abs(mc.value - exact) <= 4.0 * mc.mc_se, name


def test_replicate_seed_streams_are_stable_and_distinct():
    dgp = simple_point_dgp()
    a = generate(dgp, 100, replicate_seed(42, 3))
    b = generate(dgp, 100, replicate_seed(42, 3))
    c = generate(dgp, 100, replicate_seed(42, 4))
    np.testing.assert_array_equal(a.outcome, b.outcome)
    assert not np.array_equal(a.outcome, c.outcome)


def test_run_experiment_structure_and_determinism():
    dgp = load_fixture("dgp_binary.json")
    plan = EstimationPlan()
    report = run_experiment(dgp, n=150, replications=8,
                            estimator_names=POINT_ESTIMATORS, plan=plan,
                            seed=42)
    assert report.design == "point"
    assert len(report.replicates) == 8 * len(POINT_ESTIMATORS)
    for name in POINT_ESTIMATORS:
        s = report.summary_for(name)
        assert s.n_success + s.n_failed == 8
        assert s.prop_out_of_bounds is not None
    blob = report.to_json_dict()
    assert blob["schema_version"] == 1
    assert blob["truth"] == {"value": 0.4, "method": "analytic"}
    with pytest.raises(KeyError):
        report.summary_for("nope")

    again = run_experiment(dgp, n=150, replications=8,
                           estimator_names=POINT_ESTIMATORS, plan=plan,
                           seed=42)
    assert again.to_json_dict() == blob
    assert again.replicate_rows() == report.replicate_rows()


def test_failures_are_recorded_not_dropped():
    dgp = DgpConfig.from_dict({
        "design": "point",
        "covariates": [{"name": "w", "dist": "bernoulli", "p": 0.5}],
        "treatment": {"intercept": 2.2, "coefs": {"w": 0.2}},
        "outcome": {"scale": "identity", "kind": "binary",
                    "intercept": 0.3, "coefs": {"w": 0.3, "a": 0.1},
                    "noise": {"kind": "none"}},
    })
    report = run_experiment(dgp, n=12, replications=20,
                            estimator_names=("one_step",),
                            plan=EstimationPlan(n_folds=4), seed=11)
    s = report.summary_for("one_step")
    assert s.n_failed > 0
    assert s.n_success >= 2
    assert s.n_success + s.n_failed == 20
    assert s.mean_bias is not None
    error_rows = [r for r in report.replicates if r.error]
    assert len(error_rows) == s.n_failed
    assert all(r.psi_hat is None for r in error_rows)
    assert all("Error" in r.error for r in error_rows)


def test_one_estimator_failing_keeps_the_others(monkeypatch):
    from eiftools import estimators, longitudinal, simulation
    from eiftools.glm import SeparationError
    from eiftools.nuisance import NuisanceError

    real_tmle, real_tmle_long = estimators.tmle, longitudinal.tmle_long
    real_fit = simulation.fit_plan_nuisance
    fits = []

    def tmle(data, nuis, variant, **kwargs):
        if variant == "weighted_logistic":
            raise SeparationError("targeting failed")
        return real_tmle(data, nuis, variant, **kwargs)

    def tmle_long(data, **kwargs):
        if kwargs["variant"] == "covariate_linear":
            raise ValueError("step 3 failed")
        return real_tmle_long(data, **kwargs)

    def fit_plan_nuisance(*args):
        fits.append(args)
        if len(fits) == 1:
            raise NuisanceError("first replicate's nuisances fail")
        return real_fit(*args)

    monkeypatch.setattr(estimators, "tmle", tmle)
    monkeypatch.setattr(longitudinal, "tmle_long", tmle_long)
    monkeypatch.setattr(simulation, "fit_plan_nuisance", fit_plan_nuisance)

    report = run_experiment(load_fixture("dgp_binary.json"), n=150,
                            replications=4, estimator_names=POINT_ESTIMATORS,
                            plan=EstimationPlan(), seed=3)
    for rec in report.replicates:
        if rec.replicate == 0:
            assert rec.error == ("NuisanceError: first replicate's "
                                 "nuisances fail")
        elif rec.estimator == "tmle_weighted_logistic":
            assert rec.error == "SeparationError: targeting failed"
            assert rec.psi_hat is None
        else:
            assert rec.error is None and rec.psi_hat is not None
    assert report.summary_for("gcomp").n_success == 3
    assert report.summary_for("tmle_weighted_logistic").n_failed == 4

    report = run_experiment(load_fixture("dgp_long.json"), n=200,
                            replications=3, estimator_names=LONG_ESTIMATORS,
                            plan=EstimationPlan(), seed=5)
    for name in LONG_ESTIMATORS:
        failed = name == "tmle_long_covariate_linear"
        assert report.summary_for(name).n_failed == (3 if failed else 0)


def test_covariate_omission_biases_gcomp_but_not_tmle():
    dgp = load_fixture("dgp_binary.json")
    plan = EstimationPlan(outcome_covariates=())
    report = run_experiment(dgp, n=4000, replications=40,
                            estimator_names=("gcomp", "tmle_weighted_linear"),
                            plan=plan, seed=7)
    g = report.summary_for("gcomp")
    t = report.summary_for("tmle_weighted_linear")
    g_band = g.empirical_se / np.sqrt(g.n_success)
    t_band = t.empirical_se / np.sqrt(t.n_success)
    assert abs(g.mean_bias) > 5.0 * g_band
    assert abs(t.mean_bias) <= 4.0 * t_band


def test_bias_shrinks_with_sample_size():
    dgp = load_fixture("dgp_binary.json")
    plan = EstimationPlan()
    biases, bands = [], []
    for n in (250, 1000, 4000):
        report = run_experiment(dgp, n=n, replications=60,
                                estimator_names=("one_step",), plan=plan,
                                seed=13)
        s = report.summary_for("one_step")
        biases.append(abs(s.mean_bias))
        bands.append(s.empirical_se / np.sqrt(s.n_success))
    for k in (1, 2):
        slack = 3.0 * np.hypot(bands[k - 1], bands[k])
        assert biases[k] <= biases[k - 1] + slack


def test_long_experiment_runs_all_estimators():
    dgp = load_fixture("dgp_long.json")
    report = run_experiment(dgp, n=400, replications=4,
                            estimator_names=LONG_ESTIMATORS,
                            plan=EstimationPlan(), seed=5)
    truth = true_value(dgp).value
    for name in LONG_ESTIMATORS:
        s = report.summary_for(name)
        assert s.n_success == 4
        assert abs(s.mean_bias) < 0.15
    assert report.truth.value == pytest.approx(truth, abs=1e-14)


def test_estimator_names_validated_per_design():
    point = load_fixture("dgp_binary.json")
    with pytest.raises(ValueError, match="unknown estimators"):
        run_experiment(point, n=100, replications=2,
                       estimator_names=("one_step_long",),
                       plan=EstimationPlan(), seed=1)
    with pytest.raises(ValueError, match="replications"):
        run_experiment(point, n=100, replications=1,
                       estimator_names=("one_step",),
                       plan=EstimationPlan(), seed=1)


def test_plan_round_trips_through_dict():
    plan = EstimationPlan(
        outcome_learner=LearnerSpec.parse(
            "glm_with_basis:degree=2,interactions=true"),
        propensity_learner=LearnerSpec.parse("k_nearest_neighbors:k=10"),
        truncation=(0.02, 0.98), n_folds=5,
        outcome_covariates=("w",), propensity_covariates=(),
        y_bounds=(0.0, 1.0))
    again = EstimationPlan.from_dict(plan.to_dict())
    assert again == plan
    with pytest.raises(ValueError, match="unknown plan keys"):
        EstimationPlan.from_dict({"bogus": 1})
