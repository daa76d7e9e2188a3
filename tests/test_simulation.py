"""DGP validation, generation, truth oracles, and the experiment harness."""

import copy
import json
import pathlib
import re
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import numpy.random
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
    check_estimators,
    fit_plan_nuisance,
    generate,
    replicate_seed,
    run_estimator,
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


def violations(build, **fields):
    """The violations ``build(**fields)`` raises on construction."""
    with pytest.raises(DgpValidationError) as err:
        build(**fields)
    return err.value.violations


def test_fixture_configs_validate():
    # Construction validates, so a usable config simply builds.
    assert load_fixture("dgp_binary.json").design == "point"
    assert load_fixture("dgp_long.json").design == "longitudinal"


def test_validation_collects_every_problem():
    with pytest.raises(DgpValidationError) as err:
        DgpConfig(
            design="point",
            covariates=(CovariateSpec(name="w", dist="triangular"),),
            treatment=LinearModel(0.0, {"ghost": 1.0}),
            outcome=OutcomeSpec(scale="cubic", kind="binary",
                                mean_model=LinearModel(0.2, {})),
        )
    problems = err.value.violations
    assert len(problems) >= 3
    text = "; ".join(problems)
    assert "unknown distribution" in text
    assert "unknown terms" in text
    assert "identity or logit" in text
    assert str(err.value) == text


def test_unbounded_covariate_in_treatment_model_rejected():
    problems = violations(
        DgpConfig,
        design="point",
        covariates=(CovariateSpec(name="w", dist="normal", mean=0.0, sd=1.0),),
        treatment=LinearModel(0.0, {"w": 0.5}),
        outcome=OutcomeSpec(scale="logit", kind="binary",
                            mean_model=LinearModel(0.0, {"w": 0.3})),
    )
    assert any("arbitrarily extreme" in p for p in problems)
    # Zero coefficient on the unbounded covariate is fine.
    DgpConfig(
        design="point",
        covariates=(CovariateSpec(name="w", dist="normal", mean=0.0, sd=1.0),),
        treatment=LinearModel(0.3, {"w": 0.0}),
        outcome=OutcomeSpec(scale="logit", kind="binary",
                            mean_model=LinearModel(0.0, {"w": 0.3})),
    )


def test_propensity_interval_must_respect_floor():
    dgp = simple_point_dgp()
    problems = violations(
        DgpConfig,
        design=dgp.design, covariates=dgp.covariates,
        treatment=LinearModel(0.0, {"w": 6.0}),
        outcome=dgp.outcome, positivity_floor=0.05,
    )
    assert any("positivity floor" in p for p in problems)


def test_binary_identity_mean_must_fit_unit_interval():
    problems = violations(
        simple_point_dgp,
        mean_model=LinearModel(0.9, {"w": 0.4, "a": 0.2}))
    assert any("outside [0, 1]" in p for p in problems)


def test_declared_y_bounds_checked_against_mean_and_noise():
    base = dict(
        design="point",
        covariates=(CovariateSpec(name="w", dist="bernoulli", p=0.5),),
        treatment=LinearModel(0.2, {"w": -0.4}),
    )
    normal_noise = violations(
        DgpConfig,
        outcome=OutcomeSpec(scale="identity", kind="continuous",
                            mean_model=LinearModel(1.0, {"w": 0.5}),
                            noise=NoiseSpec(kind="normal", sd=0.3)),
        y_bounds=(0.0, 2.0), **base)
    assert any("unbounded" in p for p in normal_noise)

    # Uniform noise that stays inside the bounds is accepted.
    DgpConfig(
        outcome=OutcomeSpec(scale="identity", kind="continuous",
                            mean_model=LinearModel(1.0, {"w": 0.5}),
                            noise=NoiseSpec(kind="uniform", half_width=0.4)),
        y_bounds=(0.0, 2.0), **base)

    wide_noise = violations(
        DgpConfig,
        outcome=OutcomeSpec(scale="identity", kind="continuous",
                            mean_model=LinearModel(1.0, {"w": 0.5}),
                            noise=NoiseSpec(kind="uniform", half_width=1.5)),
        y_bounds=(0.0, 2.0), **base)
    assert any("outside the declared y_bounds" in p for p in wide_noise)


def test_config_from_dict_rejects_unknown_and_missing_keys():
    with pytest.raises(DgpValidationError, match="unknown config keys"):
        DgpConfig.from_dict({"design": "point", "covariates": [],
                             "treatment": {}, "outcome": {}, "bogus": 1})
    with pytest.raises(DgpValidationError, match="missing config keys"):
        DgpConfig.from_dict({"design": "point"})


# Minimal valid configs of each design: continuous outcomes on the
# identity scale without noise or y_bounds.
POINT = {"design": "point",
         "covariates": [{"name": "w", "dist": "bernoulli", "p": 0.5}],
         "treatment": {"intercept": 0.2, "coefs": {"w": -0.4}},
         "outcome": {"intercept": 1.0, "coefs": {"w": 0.5, "a": 0.2}}}
LONG = {"design": "longitudinal",
        "covariates": [{"name": "w", "dist": "bernoulli", "p": 0.5}],
        "treatment": {"intercept": 0.2, "coefs": {"w": -0.4}},
        "w1_covariates": [{"name": "v", "dist": "bernoulli",
                           "model": {"coefs": {"w": 0.5, "a0": 0.3}}}],
        "a1": {"coefs": {"w": 0.2, "v": -0.3, "a0": 0.5}},
        "outcome": {"coefs": {"w": 0.5, "v": 0.4, "a1": -0.6}}}
DROP = object()
NORMAL_W = {"name": "w", "dist": "normal", "mean": 0.0, "sd": 1.0}
BERNOULLI = {"name": "u", "dist": "bernoulli", "p": 0.5}


def edited(base, edits):
    """A copy of ``base`` with each dotted path of ``edits`` (list items
    by index) set to its value, or deleted where the value is DROP."""
    config = copy.deepcopy(base)
    for path, value in edits.items():
        *parents, last = [int(key) if key.isdigit() else key
                          for key in path.split(".")]
        target = config
        for key in parents:
            target = target[key]
        if value is DROP:
            del target[last]
        else:
            target[last] = value
    return config


def test_edited_copies_sets_and_drops():
    config = edited(LONG, {"w1_covariates.0.model.intercept": 0.1,
                           "a1": DROP})
    assert config["w1_covariates"][0]["model"] == {
        "coefs": {"w": 0.5, "a0": 0.3}, "intercept": 0.1}
    assert "a1" not in config and "a1" in LONG
    assert "intercept" not in LONG["w1_covariates"][0]["model"]


def test_minimal_configs_build():
    assert DgpConfig.from_dict(POINT).design == "point"
    assert DgpConfig.from_dict(LONG).design == "longitudinal"


# Each case breaks one validation rule of a minimal config, and pins the
# exact violations that it reports.
VALIDATION_RULES = [
    pytest.param(POINT, {"design": "cross"},
                 ["design must be point or longitudinal, got 'cross'"],
                 id="design"),
    pytest.param(POINT, {"covariates": [], "treatment.coefs": {},
                         "outcome.coefs": {"a": 0.2}},
                 ["at least one covariate is required"], id="no-covariates"),
    pytest.param(POINT, {"covariates.0.dist": "triangular"},
                 ["covariates[0] (w): unknown distribution 'triangular'"],
                 id="distribution"),
    pytest.param(POINT, {"covariates.0.p": DROP},
                 ["covariates[0] (w): bernoulli needs exactly one of p or "
                  "model"], id="bernoulli-p-or-model"),
    pytest.param(POINT, {"covariates.0.p": 1.5},
                 ["covariates[0] (w): p=1.5 outside [0, 1]"], id="p-range"),
    pytest.param(LONG, {"w1_covariates.0.dist": "uniform",
                        "w1_covariates.0.low": 0.0,
                        "w1_covariates.0.high": 1.0},
                 ["w1_covariates[0] (v): model is only valid for bernoulli"],
                 id="model-on-uniform"),
    pytest.param(POINT, {"covariates.0.dist": "uniform",
                         "covariates.0.low": 0.0, "covariates.0.high": 1.0,
                         "covariates.0.sd": 1.0},
                 ["covariates[0] (w): p is only valid for bernoulli",
                  "covariates[0] (w): sd is only valid for normal"],
                 id="uniform-ignored-keys"),
    pytest.param(POINT, {"covariates.0.mean": 0.5, "covariates.0.low": 0.0},
                 ["covariates[0] (w): low is only valid for uniform",
                  "covariates[0] (w): mean is only valid for normal"],
                 id="bernoulli-ignored-keys"),
    pytest.param(POINT, {"covariates.0": dict(NORMAL_W, high=1.0),
                         "treatment.coefs": {}},
                 ["covariates[0] (w): high is only valid for uniform"],
                 id="normal-ignored-keys"),
    pytest.param(POINT, {"covariates.0.p": DROP,
                         "covariates.0.dist": "uniform",
                         "covariates.0.high": 1.0},
                 ["covariates[0] (w): uniform needs low and high"],
                 id="uniform-ends"),
    pytest.param(POINT, {"covariates.0.p": DROP,
                         "covariates.0.dist": "uniform",
                         "covariates.0.low": 1.0, "covariates.0.high": 0.0},
                 ["covariates[0] (w): uniform needs low < high"],
                 id="uniform-order"),
    pytest.param(POINT, {"covariates.0.p": DROP,
                         "covariates.0.dist": "uniform",
                         "covariates.0.low": -1e308,
                         "covariates.0.high": 1e308},
                 ["covariates[0] (w): uniform needs a finite width "
                  "high - low"], id="uniform-width"),
    pytest.param(POINT, {"covariates.0.p": DROP,
                         "covariates.0.dist": "normal",
                         "covariates.0.mean": 0.0},
                 ["covariates[0] (w): normal needs mean and sd"],
                 id="normal-parameters"),
    pytest.param(POINT, {"covariates.0.p": DROP,
                         "covariates.0.dist": "normal",
                         "covariates.0.mean": 0.0, "covariates.0.sd": -1.0},
                 ["covariates[0] (w): normal needs sd >= 0"], id="normal-sd"),
    pytest.param(POINT, {"covariates.0.p": DROP,
                         "covariates.0.model": {"intercept": 0.1}},
                 ["covariates[0] (w): conditional bernoulli models are only "
                  "allowed for second-period covariates"],
                 id="first-period-model"),
    pytest.param(POINT, {"a1": {}},
                 ["point design must not define w1_covariates or a1_model"],
                 id="point-second-period"),
    pytest.param(LONG, {"a1": DROP}, ["longitudinal design needs a1_model"],
                 id="a1-missing"),
    pytest.param(POINT, {"covariates": [BERNOULLI, BERNOULLI],
                         "treatment.coefs": {}, "outcome.coefs": {}},
                 ["covariate names must be unique"], id="names-unique"),
    pytest.param(POINT, {"covariates.0.name": "a0", "treatment.coefs": {},
                         "outcome.coefs": {}},
                 ["covariate names ['a0'] are reserved"],
                 id="names-reserved"),
    pytest.param(POINT, {"treatment.coefs.ghost": 1.0},
                 ["treatment model references unknown terms ['ghost']"],
                 id="treatment-terms"),
    pytest.param(LONG, {"w1_covariates.0.model.coefs.a1": 1.0},
                 ["w1_covariates[0] (v): model references unknown terms "
                  "['a1']"], id="w1-model-terms"),
    pytest.param(LONG, {"a1.coefs.a1": 1.0},
                 ["a1 model references unknown terms ['a1']"],
                 id="a1-terms"),
    pytest.param(POINT, {"outcome.coefs.a0": 1.0},
                 ["outcome model references unknown terms ['a0']"],
                 id="outcome-terms"),
    pytest.param(POINT, {"outcome.scale": "cubic"},
                 ["outcome scale must be identity or logit, got 'cubic'"],
                 id="outcome-scale"),
    pytest.param(POINT, {"outcome.kind": "count"},
                 ["outcome kind must be binary or continuous, got 'count'"],
                 id="outcome-kind"),
    pytest.param(POINT, {"outcome.noise": {"kind": "cauchy"}},
                 ["outcome.noise: unknown noise kind 'cauchy'"],
                 id="noise-kind"),
    pytest.param(POINT, {"outcome.noise": {"kind": "normal", "sd": -1.0}},
                 ["outcome.noise: normal noise needs sd >= 0"],
                 id="noise-sd"),
    pytest.param(POINT, {"outcome.noise": {"kind": "uniform",
                                           "half_width": -1.0}},
                 ["outcome.noise: uniform noise needs half_width >= 0"],
                 id="noise-half-width"),
    # Uniform noise whose width 2 * half_width overflows float64, so no
    # draw of it is finite.
    pytest.param(POINT, {"outcome.noise": {"kind": "uniform",
                                           "half_width": 1e308}},
                 ["outcome.noise: uniform noise needs a finite width "
                  "2 * half_width"], id="noise-width"),
    pytest.param(POINT, {"outcome.noise": {"kind": "normal", "sd": 1.0,
                                           "half_width": 0.5}},
                 ["outcome.noise: half_width must be 0 for noise kind "
                  "'normal'"], id="noise-ignored-half-width"),
    pytest.param(POINT, {"outcome.noise": {"kind": "uniform", "sd": 1.0,
                                           "half_width": 0.5}},
                 ["outcome.noise: sd must be 0 for noise kind 'uniform'"],
                 id="noise-ignored-sd"),
    pytest.param(POINT, {"outcome.noise": {"sd": -1.0, "half_width": 0.5}},
                 ["outcome.noise: sd must be 0 for noise kind 'none'",
                  "outcome.noise: half_width must be 0 for noise kind "
                  "'none'"], id="noise-none-ignored"),
    pytest.param(POINT, {"outcome.kind": "binary", "outcome.intercept": 0.2,
                         "outcome.noise": {"kind": "uniform",
                                           "half_width": 0.1}},
                 ["binary outcomes cannot carry additive noise"],
                 id="binary-noise"),
    pytest.param(POINT, {"positivity_floor": 0.5},
                 ["positivity_floor 0.5 must be in (0, 0.5)"],
                 id="positivity-floor-range"),
    pytest.param(POINT, {"covariates.0": NORMAL_W},
                 ["treatment model: coefficient on unbounded covariate 'w' "
                  "makes propensities arbitrarily extreme"],
                 id="treatment-unbounded"),
    pytest.param(LONG, {"w1_covariates.0": dict(NORMAL_W, name="v")},
                 ["a1 model: coefficient on unbounded covariate 'v' makes "
                  "propensities arbitrarily extreme"], id="a1-unbounded"),
    pytest.param(POINT, {"treatment.coefs.w": 6.0, "positivity_floor": 0.05},
                 ["treatment model: implied propensities span [0.549834, "
                  "0.997975], outside the positivity floor [0.05, 0.95]"],
                 id="treatment-floor"),
    pytest.param(LONG, {"a1.intercept": 5.0},
                 ["a1 model: implied propensities span [0.990987, 0.996665], "
                  "outside the positivity floor [0.01, 0.99]"],
                 id="a1-floor"),
    pytest.param(POINT, {"covariates.0": NORMAL_W, "treatment.coefs": {},
                         "outcome.kind": "binary", "outcome.intercept": 0.2,
                         "outcome.coefs": {"w": 0.1}},
                 ["binary outcome on the identity scale with an unbounded "
                  "covariate cannot keep the mean in [0, 1]"],
                 id="binary-unbounded"),
    pytest.param(POINT, {"outcome.kind": "binary", "outcome.intercept": 0.9},
                 ["binary outcome mean spans [0.9, 1.6], outside [0, 1]"],
                 id="binary-mean"),
    pytest.param(POINT, {"outcome.kind": "binary", "outcome.intercept": 0.2,
                         "y_bounds": [0, 2]},
                 ["binary outcomes have bounds (0, 1); drop y_bounds or set "
                  "them to [0, 1]"], id="binary-y-bounds"),
    pytest.param(POINT, {"y_bounds": [1, 0]},
                 ["y_bounds (1.0, 0.0) need lo < hi"], id="y-bounds-order"),
    pytest.param(POINT, {"outcome.noise": {"kind": "normal", "sd": 0.3},
                         "y_bounds": [0, 2]},
                 ["normal outcome noise is unbounded and violates the "
                  "declared y_bounds"], id="y-bounds-normal-noise"),
    pytest.param(POINT, {"covariates.0": NORMAL_W, "treatment.coefs": {},
                         "y_bounds": [0, 2]},
                 ["outcome mean uses an unbounded covariate and violates the "
                  "declared y_bounds"], id="y-bounds-unbounded-mean"),
    pytest.param(POINT, {"outcome.noise": {"kind": "uniform",
                                           "half_width": 1.5},
                         "y_bounds": [0, 2]},
                 ["outcome values span [-0.5, 3.2], outside the declared "
                  "y_bounds [0, 2]"], id="y-bounds-span"),
    pytest.param(POINT, {"bogus": 1}, ["unknown config keys ['bogus']"],
                 id="config-keys-unknown"),
    pytest.param(POINT, {"outcome": DROP}, ["missing config keys ['outcome']"],
                 id="config-keys-missing"),
    pytest.param(POINT, {"covariates.0.bogus": 1},
                 ["covariates[0]: unknown keys ['bogus']"],
                 id="object-keys-unknown"),
    pytest.param(POINT, {"covariates.0.name": DROP},
                 ["covariates[0]: need name and dist"], id="name-and-dist"),
    pytest.param(POINT, {"y_bounds": [0, 1, 2]},
                 ["y_bounds: expected [lo, hi], got [0, 1, 2]"],
                 id="y-bounds-shape"),
    pytest.param(POINT, {"y_bounds": 5}, ["y_bounds: expected a list, got 5"],
                 id="type-list"),
    pytest.param(POINT, {"treatment": []},
                 ["treatment: expected an object, got []"], id="type-object"),
    pytest.param(POINT, {"outcome.noise": {"kind": "normal", "sd": "1"}},
                 ["outcome.noise.sd: expected a number, got '1'"],
                 id="type-number"),
    pytest.param(POINT, {"covariates.0.name": None},
                 ["covariates[0].name: expected a string, got None"],
                 id="type-string-name"),
    pytest.param(POINT, {"outcome.noise": {"kind": 0}},
                 ["outcome.noise.kind: expected a string, got 0"],
                 id="type-string-noise-kind"),
]


@pytest.mark.parametrize("base, edits, expected", VALIDATION_RULES)
def test_each_validation_rule_reports_its_message(base, edits, expected):
    assert violations(DgpConfig.from_dict, d=edited(base, edits)) == expected


NAN, INF = float("nan"), float("inf")
# Two covariates on [2, 3]: coefficients of 1e308 and -1e308 on them give
# an implied range of inf - inf, which is NaN, from finite numbers.
UV = [{"name": "w", "dist": "bernoulli", "p": 0.5},
      {"name": "u", "dist": "uniform", "low": 2.0, "high": 3.0},
      {"name": "v", "dist": "uniform", "low": 2.0, "high": 3.0}]


# json.loads reads NaN and Infinity; each number a config holds must be
# finite, and no range comparison lets NaN through.
@pytest.mark.parametrize("base, edits, expected", [
    pytest.param(POINT, {"treatment.coefs.w": NAN},
                 ["treatment model: coefficient on 'w' must be finite, "
                  "got nan"], id="treatment-coefficient"),
    pytest.param(POINT, {"treatment.intercept": -INF},
                 ["treatment model: intercept must be finite, got -inf"],
                 id="treatment-intercept"),
    pytest.param(LONG, {"w1_covariates.0.model.intercept": NAN},
                 ["w1_covariates[0] (v): model: intercept must be finite, "
                  "got nan"], id="w1-model-intercept"),
    pytest.param(LONG, {"a1.coefs.v": INF},
                 ["a1 model: coefficient on 'v' must be finite, got inf"],
                 id="a1-coefficient"),
    pytest.param(POINT, {"outcome.intercept": NAN},
                 ["outcome model: intercept must be finite, got nan"],
                 id="outcome-intercept"),
    pytest.param(POINT, {"outcome.coefs.a": -INF},
                 ["outcome model: coefficient on 'a' must be finite, "
                  "got -inf"], id="outcome-coefficient"),
    pytest.param(POINT, {"covariates.0": dict(NORMAL_W, mean=INF),
                         "treatment.coefs": {}},
                 ["covariates[0] (w): mean must be finite, got inf"],
                 id="covariate-mean"),
    pytest.param(POINT, {"covariates.0": dict(NORMAL_W, sd=NAN),
                         "treatment.coefs": {}},
                 ["covariates[0] (w): normal needs sd >= 0",
                  "covariates[0] (w): sd must be finite, got nan"],
                 id="covariate-sd"),
    pytest.param(POINT, {"outcome.noise": {"kind": "normal", "sd": INF}},
                 ["outcome.noise: sd must be finite, got inf"],
                 id="noise-sd"),
    pytest.param(POINT, {"outcome.noise": {"kind": "uniform",
                                           "half_width": NAN}},
                 ["outcome.noise: half_width must be finite, got nan",
                  "outcome.noise: uniform noise needs half_width >= 0"],
                 id="noise-half-width"),
    pytest.param(POINT, {"y_bounds": [-INF, INF]},
                 ["y_bounds: lo must be finite, got -inf",
                  "y_bounds: hi must be finite, got inf"], id="y-bounds"),
    pytest.param(POINT, {"covariates.0.p": NAN},
                 ["covariates[0] (w): p=nan outside [0, 1]"], id="p"),
    pytest.param(POINT, {"covariates.0.p": DROP,
                         "covariates.0.dist": "uniform",
                         "covariates.0.low": NAN, "covariates.0.high": 1.0},
                 ["covariates[0] (w): uniform needs low < high"],
                 id="uniform-low"),
    pytest.param(POINT, {"positivity_floor": NAN},
                 ["positivity_floor nan must be in (0, 0.5)"],
                 id="positivity-floor"),
    pytest.param(POINT, {"covariates": UV,
                         "treatment.coefs": {"u": 1e308, "v": -1e308}},
                 ["treatment model: implied propensities span [nan, nan], "
                  "outside the positivity floor [0.01, 0.99]"],
                 id="propensity-range"),
    pytest.param(POINT, {"covariates": UV, "outcome.kind": "binary",
                         "outcome.coefs": {"u": 1e308, "v": -1e308}},
                 ["binary outcome mean spans [nan, nan], outside [0, 1]"],
                 id="outcome-range"),
    # json.loads reads an integer of any size; one float() cannot hold is
    # rejected where it is read.
    pytest.param(POINT, {"treatment.intercept": 10**400},
                 ["treatment.intercept: expected a number, got an integer "
                  "too large for a float"], id="integer-overflow"),
])
def test_non_finite_numbers_are_violations(base, edits, expected):
    assert violations(DgpConfig.from_dict, d=edited(base, edits)) == expected


NOISY = edited(POINT, {"outcome.noise": {}})
BOUNDED = edited(POINT, {"y_bounds": [0, 2]})
# Every key of the five config objects: a base config, the key's edit path
# there, its path in messages, its JSON type, a value of another type, and
# whether it may be null. A base leaves out each key that may be null.
CONFIG_KEYS = [
    (POINT, "design", "design", "a string", 5, False),
    (POINT, "covariates", "covariates", "a list", {"name": "w"}, False),
    (POINT, "treatment", "treatment", "an object", [0.2], False),
    (POINT, "outcome", "outcome", "an object", "y", False),
    (POINT, "w1_covariates", "w1_covariates", "a list", {}, False),
    (POINT, "a1", "a1", "an object", [0.5], True),
    (POINT, "y_bounds", "y_bounds", "a list", 1.0, True),
    (BOUNDED, "y_bounds.0", "y_bounds", "a number", "0", False),
    (BOUNDED, "y_bounds.1", "y_bounds", "a number", [2], False),
    (POINT, "positivity_floor", "positivity_floor", "a number", "0.05",
     False),
    (POINT, "covariates.0.name", "covariates[0].name", "a string", 1, False),
    (POINT, "covariates.0.dist", "covariates[0].dist", "a string",
     ["bernoulli"], False),
    (LONG, "w1_covariates.0.p", "w1_covariates[0].p", "a number", "0.5",
     True),
    (POINT, "covariates.0.low", "covariates[0].low", "a number", True, True),
    (POINT, "covariates.0.high", "covariates[0].high", "a number", "1", True),
    (POINT, "covariates.0.mean", "covariates[0].mean", "a number", [0.0],
     True),
    (POINT, "covariates.0.sd", "covariates[0].sd", "a number", {"v": 1},
     True),
    (POINT, "covariates.0.model", "covariates[0].model", "an object", 0.5,
     True),
    (POINT, "treatment.intercept", "treatment.intercept", "a number", "0.2",
     False),
    (POINT, "treatment.coefs", "treatment.coefs", "an object", ["w"], False),
    (POINT, "treatment.coefs.w", "treatment.coefs.w", "a number", False,
     False),
    (LONG, "a1.intercept", "a1.intercept", "a number", [], False),
    (LONG, "w1_covariates.0.model.coefs.a0",
     "w1_covariates[0].model.coefs.a0", "a number", "0.3", False),
    (POINT, "outcome.scale", "outcome.scale", "a string", 1, False),
    (POINT, "outcome.kind", "outcome.kind", "a string", True, False),
    (POINT, "outcome.intercept", "outcome.intercept", "a number", "1", False),
    (POINT, "outcome.coefs", "outcome.coefs", "an object", 0.5, False),
    (POINT, "outcome.coefs.a", "outcome.coefs.a", "a number", "0.2", False),
    (POINT, "outcome.noise", "outcome.noise", "an object", "none", False),
    (NOISY, "outcome.noise.kind", "outcome.noise.kind", "a string", 0, False),
    (NOISY, "outcome.noise.sd", "outcome.noise.sd", "a number", "1", False),
    (NOISY, "outcome.noise.half_width", "outcome.noise.half_width",
     "a number", [0.5], False),
]


@pytest.mark.parametrize("base, path, where, kind, wrong, nullable",
                         CONFIG_KEYS, ids=[row[1] for row in CONFIG_KEYS])
def test_each_config_key_checks_its_json_type(base, path, where, kind, wrong,
                                             nullable):
    assert violations(DgpConfig.from_dict, d=edited(base, {path: wrong})) == [
        f"{where}: expected {kind}, got {wrong!r}"]
    if nullable:
        assert DgpConfig.from_dict(edited(base, {path: None})) == \
            DgpConfig.from_dict(base)
    else:
        assert violations(DgpConfig.from_dict,
                          d=edited(base, {path: None})) == [
            f"{where}: expected {kind}, got None"]


@pytest.mark.parametrize("path, expected", [
    ("design", "missing config keys ['design']"),
    ("covariates", "missing config keys ['covariates']"),
    ("treatment", "missing config keys ['treatment']"),
    ("outcome", "missing config keys ['outcome']"),
    ("covariates.0.name", "covariates[0]: need name and dist"),
    ("covariates.0.dist", "covariates[0]: need name and dist"),
])
def test_a_required_key_left_out_is_named(path, expected):
    assert violations(DgpConfig.from_dict,
                      d=edited(POINT, {path: DROP})) == [expected]


# Each optional key left out: the config, and what the built DGP reads.
@pytest.mark.parametrize("config, read, expected", [
    pytest.param(POINT, lambda d: d.w1_covariates, (), id="w1_covariates"),
    pytest.param(POINT, lambda d: d.a1_model, None, id="a1"),
    pytest.param(POINT, lambda d: d.y_bounds, None, id="y_bounds"),
    pytest.param(POINT, lambda d: d.positivity_floor, 0.01,
                 id="positivity_floor"),
    pytest.param(LONG, lambda d: d.w1_covariates[0].p, None, id="p"),
    pytest.param(POINT, lambda d: d.covariates[0].low, None, id="low"),
    pytest.param(POINT, lambda d: d.covariates[0].high, None, id="high"),
    pytest.param(POINT, lambda d: d.covariates[0].mean, None, id="mean"),
    pytest.param(POINT, lambda d: d.covariates[0].sd, None, id="sd"),
    pytest.param(POINT, lambda d: d.covariates[0].model, None, id="model"),
    pytest.param(LONG, lambda d: d.a1_model.intercept, 0.0,
                 id="model-intercept"),
    pytest.param(edited(POINT, {"treatment.coefs": DROP}),
                 lambda d: d.treatment.coefs, {}, id="model-coefs"),
    pytest.param(POINT, lambda d: d.outcome.scale, "identity", id="scale"),
    pytest.param(POINT, lambda d: d.outcome.kind, "continuous",
                 id="outcome-kind"),
    pytest.param(LONG, lambda d: d.outcome.mean_model.intercept, 0.0,
                 id="outcome-intercept"),
    pytest.param(edited(POINT, {"outcome.coefs": DROP}),
                 lambda d: d.outcome.mean_model.coefs, {}, id="outcome-coefs"),
    pytest.param(POINT, lambda d: d.outcome.noise,
                 NoiseSpec(kind="none", sd=0.0, half_width=0.0), id="noise"),
    pytest.param(NOISY, lambda d: d.outcome.noise.kind, "none",
                 id="noise-kind"),
    pytest.param(NOISY, lambda d: d.outcome.noise.sd, 0.0, id="noise-sd"),
    pytest.param(NOISY, lambda d: d.outcome.noise.half_width, 0.0,
                 id="noise-half-width"),
])
def test_an_optional_key_left_out_takes_its_default(config, read, expected):
    assert read(DgpConfig.from_dict(config)) == expected


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


@pytest.mark.parametrize("intercept", [1e8, 1e9])
def test_monte_carlo_se_does_not_cancel_at_a_large_mean(intercept):
    # N(intercept, 1) outcomes: raw sums of y and y squared cancel to an
    # SE of 0.0 at 1e8, and ten times too large at 1e9.
    dgp = simple_point_dgp(kind="continuous",
                           mean_model=LinearModel(intercept, {}),
                           noise=NoiseSpec(kind="normal", sd=1.0))
    draws = 450_001
    mc = true_value(dgp, method="monte_carlo", mc_draws=draws, mc_seed=4)
    assert mc.mc_se == pytest.approx(np.sqrt(1.0 / draws), rel=0.02)
    assert abs(mc.value - intercept) <= 4.0 * mc.mc_se


def test_monte_carlo_truth_works_in_two_batch_buffers():
    # numpy.random is imported above, so its first import's allocations
    # are not counted. The 10^6-draw truth of the two-covariate benchmark
    # DGP draws every batch into two 200 000-draw float64 buffers.
    path = FIXTURES.parents[1] / "bench" / "inputs"
    dgp = DgpConfig.from_dict(json.loads(
        (path / "dgp_adversarial_long.json").read_text()))
    tracemalloc.start()
    try:
        true_value(dgp, method="monte_carlo", mc_draws=10**6, mc_seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 200_000 * 8 + 500_000


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
    assert again.replicates == report.replicates


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
    # The summaries are numpy's statistics of the successful rows, bit
    # for bit.
    ok = [r for r in report.replicates if not r.error]
    psis = np.array([r.psi_hat for r in ok])
    assert s.mean_bias == float(np.mean(psis) - report.truth.value)
    assert s.empirical_se == float(np.std(psis, ddof=1))
    assert s.mean_se == float(np.mean([r.se for r in ok]))
    assert s.coverage == float(np.mean([r.covered for r in ok]))
    assert s.mean_ci_width == float(np.mean([r.ci_hi - r.ci_lo for r in ok]))
    assert s.prop_out_of_bounds == float(np.mean([r.out_of_bounds
                                                  for r in ok]))


def test_overflowing_standard_error_fails_the_replicate():
    # Outcome noise of sd 1e160 overflows the influence-function variance
    # of every estimate: each replicate records the failure, where it
    # once reported an infinite se (and the test settings turn the
    # overflow warning into an error).
    dgp = DgpConfig.from_dict({
        "design": "point",
        "covariates": [{"name": "w", "dist": "bernoulli", "p": 0.5}],
        "treatment": {"intercept": 0.4, "coefs": {"w": -0.8}},
        "outcome": {"scale": "identity", "kind": "continuous",
                    "intercept": 0.2, "coefs": {"w": 0.4, "a": 0.2},
                    "noise": {"kind": "normal", "sd": 1e160}},
    })
    plan = EstimationPlan(
        outcome_learner=LearnerSpec("k_nearest_neighbors", k=3))
    report = run_experiment(dgp, n=40, replications=2,
                            estimator_names=("gcomp", "one_step"), plan=plan,
                            seed=1)
    assert [r.error for r in report.replicates] == 4 * [
        "ValueError: the influence-function variance overflows: the "
        "standard error is not finite"]


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

    def tmle_long(data, nuis, variant, **kwargs):
        if variant == "covariate_linear":
            raise ValueError("step 3 failed")
        return real_tmle_long(data, nuis, variant, **kwargs)

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


def test_run_estimator_serves_only_the_datas_design():
    plan = EstimationPlan()
    for config, names, foreign, design in (
            ("dgp_binary.json", POINT_ESTIMATORS, "one_step_long", "point"),
            ("dgp_long.json", LONG_ESTIMATORS, "gcomp", "longitudinal")):
        data = generate(load_fixture(config), 300, 1)
        nuis = fit_plan_nuisance(data, plan)
        for name in names:
            assert run_estimator(name, data, nuis, plan).estimator == name
        with pytest.raises(ValueError) as want:
            check_estimators(design, [foreign])
        assert str(want.value).startswith(
            f"unknown estimators for the {design} design: ['{foreign}']")
        with pytest.raises(ValueError) as got:
            run_estimator(foreign, data, nuis, plan)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("n_folds", [None, 3])
def test_every_estimate_reports_its_own_eif_mean_and_nuisance_facts(n_folds):
    # One assembly reports these for the estimators of both designs.
    plan = EstimationPlan(truncation=(0.45, 0.55), n_folds=n_folds)
    for config, names in (("dgp_binary.json", POINT_ESTIMATORS),
                          ("dgp_long.json", LONG_ESTIMATORS)):
        data = generate(load_fixture(config), 300, 2)
        nuis = fit_plan_nuisance(data, plan, fold_seed=4)
        assert nuis.n_truncated > 0
        for name in names:
            res = run_estimator(name, data, nuis, plan)
            d = res.diagnostics
            assert d["mean_eif"] == float(np.mean(res.eif)), name
            assert d["n_truncated"] == nuis.n_truncated, name
            assert d["cross_fitted"] is (n_folds is not None), name


def test_fit_plan_nuisance_rejects_longitudinal_restrictions():
    data = generate(load_fixture("dgp_long.json"), 100, 1)
    with pytest.raises(ValueError, match="covariate restrictions are not "
                                         "supported for the longitudinal"):
        fit_plan_nuisance(data, EstimationPlan(outcome_covariates=("w0",)))


@pytest.mark.parametrize("n_folds", [None, 2])
def test_fit_plan_nuisance_checks_the_plan_on_either_design(n_folds):
    # A point plan naming a missing column once raised a bare KeyError;
    # both designs now raise check_data's ValueError, with or without
    # folds.
    point = generate(load_fixture("dgp_binary.json"), 100, 1)
    for role in ("outcome", "propensity"):
        plan = EstimationPlan(n_folds=n_folds,
                              **{f"{role}_covariates": ("w", "zz")})
        with pytest.raises(ValueError, match=re.escape(
                f"unknown {role} covariates ['zz']; the data have "
                f"{list(point.covariate_names)}")):
            fit_plan_nuisance(point, plan)
    long_data = generate(load_fixture("dgp_long.json"), 100, 1)
    with pytest.raises(ValueError, match="^covariate restrictions are not "
                                         "supported for the longitudinal "
                                         "design$"):
        fit_plan_nuisance(long_data, EstimationPlan(
            n_folds=n_folds, propensity_covariates=("zz",)))


def test_unknown_estimator_message_is_one_text(tmp_path):
    # run_experiment and both commands list unknown names in the order
    # given, with the same words.
    from eiftools.cli import main
    names = ("zz", "gcomp", "aa")
    with pytest.raises(ValueError) as exc:
        run_experiment(load_fixture("dgp_binary.json"), n=100,
                       replications=2, estimator_names=names,
                       plan=EstimationPlan(), seed=1)
    assert str(exc.value) == (
        "unknown estimators for the point design: ['zz', 'aa']; valid "
        f"names: {list(POINT_ESTIMATORS)}")
    out = tmp_path / "err.json"
    for argv in (["simulate", "--config", FIXTURES / "dgp_binary.json",
                  "--n", "100", "--replications", "2", "--seed", "1"],
                 ["estimate", "--data", FIXTURES / "saturated_4row.csv"]):
        code = main([str(a) for a in argv]
                    + ["--estimators", ",".join(names), "--out", str(out)])
        assert code == 2
        error = json.loads(out.read_text(encoding="utf-8"))["error"]
        assert error == {"type": "UsageError", "message": str(exc.value)}


def test_repeated_estimator_name_is_rejected(tmp_path, monkeypatch):
    # A repeated name would be run and summarised twice.
    from eiftools import cli
    names = ("gcomp", "one_step", "gcomp")
    with pytest.raises(ValueError) as exc:
        run_experiment(load_fixture("dgp_binary.json"), n=100,
                       replications=2, estimator_names=names,
                       plan=EstimationPlan(), seed=1)
    assert str(exc.value) == "estimators named more than once: ['gcomp']"

    def no_run(*args, **kwargs):
        raise AssertionError("the names are checked before any replicate")
    monkeypatch.setattr(cli, "run_experiment", no_run)
    out = tmp_path / "err.json"
    for argv in (["simulate", "--config", FIXTURES / "dgp_binary.json",
                  "--n", "100", "--replications", "2", "--seed", "1"],
                 ["estimate", "--data", FIXTURES / "saturated_4row.csv"]):
        code = cli.main([str(a) for a in argv]
                        + ["--estimators", ",".join(names), "--out", str(out)])
        assert code == 2
        error = json.loads(out.read_text(encoding="utf-8"))["error"]
        assert error == {"type": "UsageError", "message": str(exc.value)}


def test_plan_y_bounds_must_contain_the_dgps_outcome_bounds(tmp_path):
    from eiftools.cli import main
    binary = load_fixture("dgp_binary.json")
    names = ("gcomp", "tmle_weighted_logistic")
    with pytest.raises(ValueError, match=r"y_bounds \(0\.2, 0\.5\) do not "
                                         r"contain the outcome bounds "
                                         r"\(0\.0, 1\.0\) of the DGP"):
        run_experiment(binary, n=100, replications=2, estimator_names=names,
                       plan=EstimationPlan(y_bounds=(0.2, 0.5)), seed=1)
    out = tmp_path / "r.json"
    code = main(["simulate", "--config", str(FIXTURES / "dgp_binary.json"),
                 "--n", "100", "--replications", "2", "--seed", "1",
                 "--y-bounds", "0.2,0.5", "--out", str(out)])
    assert code == 2
    error = json.loads(out.read_text(encoding="utf-8"))["error"]
    assert error["type"] == "UsageError"
    assert not (tmp_path / "r.csv").exists()
    # Wider bounds, and any bounds on a DGP without implied ones, still run.
    report = run_experiment(binary, n=100, replications=2,
                            estimator_names=names,
                            plan=EstimationPlan(y_bounds=(-1.0, 2.0)), seed=1)
    assert report.summary_for("tmle_weighted_logistic").n_failed == 0
    unbounded = simple_point_dgp(kind="continuous")
    assert unbounded.implied_y_bounds() is None
    run_experiment(unbounded, n=100, replications=2,
                   estimator_names=("gcomp",),
                   plan=EstimationPlan(y_bounds=(0.2, 0.5)), seed=1)


def _normal_noise_config(tmp_path):
    """A continuous-outcome DGP without implied outcome bounds, as a file."""
    path = tmp_path / "normal.json"
    path.write_text(json.dumps({
        "design": "point",
        "covariates": [{"name": "w", "dist": "bernoulli", "p": 0.5}],
        "treatment": {"intercept": 0.4, "coefs": {"w": -0.8}},
        "outcome": {"scale": "identity", "kind": "continuous",
                    "intercept": 1.0, "coefs": {"w": 0.5, "a": 0.3},
                    "noise": {"kind": "normal", "sd": 1.0}},
    }), encoding="utf-8")
    return path


@pytest.mark.parametrize("text, bounds", [("3,1", (3.0, 1.0)),
                                          ("nan,1", (float("nan"), 1.0))])
def test_invalid_plan_y_bounds_exit_2_before_any_replicate(
        tmp_path, monkeypatch, capsys, text, bounds):
    from eiftools import cli, simulation
    message = f"invalid outcome bounds ({bounds[0]}, {bounds[1]})"
    # The Dataset rule, and its message, hold for a plan as well.
    with pytest.raises(ValueError, match=r"^invalid outcome bounds"):
        EstimationPlan(y_bounds=bounds)

    def no_work(*args, **kwargs):
        raise AssertionError("work ran before the bounds were checked")

    for module in (simulation, cli):
        for name in ("generate", "fit_plan_nuisance", "true_value"):
            monkeypatch.setattr(module, name, no_work)
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("w,a,y\n0,0,1.5\n1,0,0.5\n0,1,2.0\n1,1,1.0\n",
                        encoding="utf-8")
    runs = (["simulate", "--config", str(_normal_noise_config(tmp_path)),
             "--n", "100", "--replications", "2", "--seed", "1",
             "--truth-method", "monte_carlo", "--mc-draws", "1000"],
            ["estimate", "--data", str(csv_path)])
    for argv in runs:
        assert cli.main(argv + ["--y-bounds", text]) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error == {"type": "UsageError", "message": message}


def _mc_truth_dgp():
    return DgpConfig(
        design="point",
        covariates=(CovariateSpec(name="w", dist="uniform", low=0.0,
                                  high=1.0),),
        treatment=LinearModel(0.2, {"w": 0.3}),
        outcome=OutcomeSpec(scale="identity", kind="continuous",
                            mean_model=LinearModel(1.0, {"w": 0.5})))


def test_truth_runs_on_the_main_thread_before_the_first_draw(monkeypatch):
    from eiftools import simulation
    real_true_value, real_generate = simulation.true_value, simulation.generate
    calls = []

    def spy(name, real):
        def call(*args, **kwargs):
            calls.append((name, threading.current_thread()))
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr(simulation, "true_value",
                        spy("true_value", real_true_value))
    monkeypatch.setattr(simulation, "generate", spy("generate", real_generate))
    seed = 13
    runs = [("dgp_long.json", LONG_ESTIMATORS, EstimationPlan(n_folds=2),
             "monte_carlo"),
            ("dgp_binary.json", POINT_ESTIMATORS, EstimationPlan(),
             "analytic")]
    for fixture, names, plan, method in runs:
        dgp = load_fixture(fixture)
        calls.clear()
        report = run_experiment(dgp, n=200, replications=3,
                                estimator_names=names, plan=plan, seed=seed,
                                truth_method=method, mc_draws=50_000)
        # One truth, on the caller's thread, before replicate 0's draw.
        assert calls == [("true_value", threading.main_thread())] + [
            ("generate", threading.main_thread())] * 3
        assert report.truth == real_true_value(
            dgp, method, 50_000,
            np.random.SeedSequence(seed, spawn_key=(2**31,)))
        ok = [rec for rec in report.replicates if rec.error is None]
        assert len(ok) == 3 * len(names)
        for rec in ok:
            assert rec.covered == (rec.ci_lo <= report.truth.value
                                   <= rec.ci_hi)


def test_truth_argument_errors_come_before_any_replicate(monkeypatch):
    from eiftools import simulation

    def generate(*args, **kwargs):
        raise AssertionError("a replicate was drawn")

    monkeypatch.setattr(simulation, "generate", generate)
    args = dict(n=100, replications=2, estimator_names=("gcomp",),
                plan=EstimationPlan(), seed=1)
    with pytest.raises(AnalyticTruthError):
        run_experiment(_mc_truth_dgp(), truth_method="analytic", **args)
    with pytest.raises(ValueError, match=r"^mc_draws must be at least 2$"):
        run_experiment(_mc_truth_dgp(), truth_method="monte_carlo",
                       mc_draws=1, **args)
    with pytest.raises(ValueError, match=r"^unknown truth method 'exact'$"):
        run_experiment(_mc_truth_dgp(), truth_method="exact", **args)


_IMPORT_PROBE = """
import sys
from eiftools.cli import main

def loaded():
    return [m for m in ("concurrent.futures", "logging") if m in sys.modules]

out, draw, config = sys.argv[1:]
seen = [loaded()]
sim = ["simulate", "--config", config, "--n", "100", "--replications", "2",
       "--seed", "1", "--out", out]
assert main([*sim, "--emit-data", draw]) == 0
seen.append(loaded())
assert main(["estimate", "--data", draw, "--out", out]) == 0
seen.append(loaded())
assert main([*sim, "--truth-method", "monte_carlo", "--mc-draws", "100"]) == 0
seen.append(loaded())
print(seen)
"""


def test_no_run_loads_concurrent_futures_or_logging(tmp_path):
    # The program starts no thread: importing the CLI, an estimate and a
    # simulate with either truth method load neither module.
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(tmp_path / "out.json"),
         str(tmp_path / "draw.csv"), str(FIXTURES / "dgp_binary.json")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str([[], [], [], []])


def test_plan_to_dict_reports_every_field():
    plan = EstimationPlan(
        outcome_learner=LearnerSpec.parse(
            "glm_with_basis:degree=2,interactions=true"),
        propensity_learner=LearnerSpec.parse("k_nearest_neighbors:k=10"),
        truncation=(0.02, 0.98), n_folds=5,
        outcome_covariates=("w",), propensity_covariates=(),
        y_bounds=(0.0, 1.0))
    assert plan.to_dict() == {
        "outcome_learner": "glm_with_basis:degree=2,interactions=true",
        "propensity_learner": "k_nearest_neighbors:k=10",
        "truncation": [0.02, 0.98],
        "folds": 5,
        "outcome_covariates": ["w"],
        "propensity_covariates": [],
        "y_bounds": [0.0, 1.0],
    }
    assert EstimationPlan().to_dict()["outcome_covariates"] is None


def test_normal_covariate_draw_has_its_mean_and_sd():
    n = 40_000
    w = CovariateSpec(name="w", dist="normal", mean=2.0, sd=3.0).draw(
        np.random.default_rng(5), n)
    assert w.shape == (n,)
    # Four standard errors of the sample mean and of the sample sd.
    assert abs(w.mean() - 2.0) < 4 * 3.0 / np.sqrt(n)
    assert abs(w.std(ddof=1) - 3.0) < 4 * 3.0 / np.sqrt(2 * n)


def test_logit_mean_interval_is_expit_of_the_eta_interval():
    outcome = OutcomeSpec(scale="logit", kind="binary",
                          mean_model=LinearModel(0.3, {"w": -1.2, "v": 0.5}))
    intervals = {"w": (0.0, 1.0), "v": (-2.0, 3.0)}
    eta_lo, eta_hi = outcome.mean_model.eta_interval(intervals)
    assert (eta_lo, eta_hi) == (0.3 - 1.2 - 1.0, 0.3 + 1.5)
    lo, hi = outcome.mean_interval(intervals)
    assert type(lo) is float and type(hi) is float
    assert lo == pytest.approx(expit(eta_lo), rel=1e-15, abs=0.0)
    assert hi == pytest.approx(expit(eta_hi), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("n", [1, 0, -3])
def test_generate_rejects_fewer_than_two_rows(n):
    with pytest.raises(ValueError, match=r"^n must be at least 2$"):
        generate(load_fixture("dgp_binary.json"), n, 1)


@pytest.mark.parametrize("low, high", [(-1e308, 1e308), (-np.inf, 1.0),
                                       (0.0, np.inf)])
def test_uniform_covariate_width_must_be_finite(low, high):
    config = json.loads((FIXTURES / "dgp_overflow_width.json").read_text())
    config["covariates"][0].update(low=low, high=high)
    assert violations(DgpConfig.from_dict, d=config) == [
        "covariates[0] (w): uniform needs a finite width high - low"]


# (fixture, truth method, message): each truth that overflows float64 is
# an input error, with no overflow warning on the way.
OVERFLOWING_TRUTHS = [
    ("dgp_overflow_noise.json", "monte_carlo",
     "the true value overflows: its Monte Carlo standard error is not "
     "finite"),
    ("dgp_overflow_coef.json", "monte_carlo",
     "the true value overflows: the monte_carlo value is not finite"),
    ("dgp_overflow_exact.json", "analytic",
     "the true value overflows: the analytic value is not finite"),
    ("dgp_overflow_exact.json", "monte_carlo",
     "the outcome overflows: a drawn outcome mean or value is not finite"),
]


@pytest.mark.parametrize("fixture, method, message", OVERFLOWING_TRUTHS)
def test_overflowing_truth_is_an_input_error(monkeypatch, fixture, method,
                                             message):
    from eiftools import simulation
    match = "^" + re.escape(message) + "$"
    with pytest.raises(ValueError, match=match):
        true_value(load_fixture(fixture), method, mc_draws=2000, mc_seed=1)
    # run_experiment raises it before any replicate is drawn.
    drawn = []
    monkeypatch.setattr(simulation, "generate",
                        lambda *args: drawn.append(args))
    with pytest.raises(ValueError, match=match):
        run_experiment(load_fixture(fixture), n=50, replications=2,
                       estimator_names=("gcomp",), plan=EstimationPlan(),
                       seed=1, truth_method=method, mc_draws=2000)
    assert drawn == []


def test_truth_whose_sums_overflow_both_ways_is_an_input_error():
    # Outcomes span about +-0.8e308, so partial sums overflow to +inf and
    # -inf, and the value is NaN.
    config = json.loads((FIXTURES / "dgp_overflow_coef.json").read_text())
    config["outcome"].update(intercept=-0.8e308, coefs={"w": 1.6e308})
    with pytest.raises(ValueError, match=r"^the true value overflows: the "
                       r"monte_carlo value is not finite$"):
        true_value(DgpConfig.from_dict(config), "monte_carlo",
                   mc_draws=2000, mc_seed=1)


def test_overflowing_draw_is_an_input_error():
    # w = 1 gives the mean 1e308 + 1e308. A replicate records the error as
    # a failed draw.
    with pytest.raises(ValueError, match=r"^the outcome overflows: a drawn "
                       r"outcome mean or value is not finite$"):
        generate(load_fixture("dgp_overflow_exact.json"), 30, 1)


# (fixture, simulate flags, a failure the report must hold). At n=12 the
# logit outcome models fail on some replicates; at n=40 on the
# adversarial DGP some draws fail, some outcome fits lack untreated rows
# and one propensity fit separates inside its block's stacked solve.
BLOCK_CASES = [
    ("dgp_binary.json", ["--n", "500", "--replications", "40", "--seed",
                         "3"], None),
    ("dgp_binary.json", ["--n", "12", "--replications", "40", "--seed", "3",
                         "--outcome-learner", "glm_main_terms:link=logit"],
     "SingularDesignError"),
    ("dgp_adversarial_point.json", ["--n", "40", "--replications", "40",
                                    "--seed", "10", "--truth-method",
                                    "monte_carlo", "--mc-draws", "20000"],
     "SeparationError"),
    ("dgp_constant_point.json", ["--n", "50", "--replications", "20",
                                 "--seed", "3"], None),
]


@pytest.mark.parametrize("fixture, flags, failure", BLOCK_CASES)
def test_reports_do_not_depend_on_the_block_size(tmp_path, monkeypatch,
                                                 capsys, fixture, flags,
                                                 failure):
    from eiftools import cli, nuisance, simulation
    dgp, n = load_fixture(fixture), int(flags[1])
    stacked_fit = nuisance.fit_logit_stack
    stacks = []

    def spy(X, Z):
        stacks.append(X.shape[0])
        return stacked_fit(X, Z)
    monkeypatch.setattr(nuisance, "fit_logit_stack", spy)
    default = simulation._BLOCK_ENTRIES
    outputs = {}
    for size in (1, 2, 3, None):
        # Every fixture here has one covariate: 2 propensity columns.
        monkeypatch.setattr(simulation, "_BLOCK_ENTRIES",
                            default if size is None else size * n * 2)
        # The propensity learner, which sizes the blocks, is the default.
        per_block = simulation._replicates_per_block(dgp, n,
                                                     EstimationPlan())
        assert per_block == (size or default // (n * 2))
        stacks.clear()
        out = tmp_path / f"block_{size}.json"
        assert cli.main(["simulate", "--config", str(FIXTURES / fixture),
                         *flags, "--out", str(out)]) == 0
        capsys.readouterr()
        outputs[size] = (out.read_bytes(),
                         out.with_suffix(".csv").read_bytes())
        # Blocks of one fit alone; larger ones stack their members, a
        # last block of one member included.
        assert (not stacks) == (per_block == 1)
        assert all(1 <= r <= per_block for r in stacks)
    for size in (2, 3, None):
        assert outputs[size] == outputs[1]
    if failure is not None:
        assert failure.encode() in outputs[1][1]


def test_given_propensity_predictions_need_a_point_plan_without_folds():
    data = generate(load_fixture("dgp_binary.json"), 60, 2)
    raw = np.full(60, 0.5)
    with pytest.raises(ValueError, match="point plan without folds"):
        fit_plan_nuisance(data, EstimationPlan(n_folds=2), 1, raw)
    long_data = generate(load_fixture("dgp_long.json"), 60, 2)
    with pytest.raises(ValueError, match="point plan without folds"):
        fit_plan_nuisance(long_data, EstimationPlan(), 0, raw)
    given = fit_plan_nuisance(data, EstimationPlan(), 0, raw)
    assert np.array_equal(given.propensity_pred, raw)
