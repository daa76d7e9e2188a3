"""Nuisance learner tests: saturated oracles, kNN ties, cross-fitting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eiftools.data import Dataset
from eiftools.glm import Link
from eiftools.nuisance import (
    _KNN_BLOCK_ENTRIES,
    _KnnPredictor,
    DEFAULT_TRUNCATION,
    FoldDegeneracyError,
    InsufficientDataError,
    LearnerSpec,
    NuisanceEstimates,
    crossfit,
    fit_nuisance,
    fit_outcome,
    fit_propensity,
    fold_partition,
)
from helpers import count_predicted_rows, random_point_dataset
from oracles import knn_mean_brute_force


def test_learner_spec_round_trips():
    for text in (
        "glm_main_terms",
        "glm_main_terms:link=logit",
        "glm_with_basis:degree=2,interactions=true",
        "glm_with_basis:degree=3,interactions=false",
        "k_nearest_neighbors:k=25",
    ):
        spec = LearnerSpec.parse(text)
        assert spec.describe() == text
        assert LearnerSpec.parse(spec.describe()) == spec


def test_learner_spec_rejects_malformed_text():
    for bad in (
        "unknown_kind",
        "glm_with_basis:degree",
        "glm_with_basis:degree=",
        "glm_main_terms:foo=1",
        "glm_with_basis:interactions=maybe",
        "glm_with_basis:degree=0",
        "k_nearest_neighbors",
        "k_nearest_neighbors:k=0",
        "glm_main_terms:k=3",
        "glm_main_terms:degree=2",
        "k_nearest_neighbors:k=3,link=logit",
        "k_nearest_neighbors:k=3,degree=4,link=logit",
    ):
        with pytest.raises(ValueError):
            LearnerSpec.parse(bad)


_OPTION_VALUES = {"k": ("1", "3", "0", "-2", "x"),
                  "degree": ("1", "2", "0", "2.5"),
                  "interactions": ("true", "FALSE", "maybe"),
                  "link": ("identity", "logit", "probit"),
                  "foo": ("1",)}


def _accepts(kind, options):
    """Whether ``parse`` should accept these (key, value) options."""
    if kind not in ("glm_main_terms", "glm_with_basis",
                    "k_nearest_neighbors"):
        return False
    uses = {"k": kind == "k_nearest_neighbors",
            "degree": kind == "glm_with_basis",
            "interactions": kind == "glm_with_basis",
            "link": kind != "k_nearest_neighbors"}
    valid = {"k": lambda v: v.lstrip("-").isdigit(),
             "degree": lambda v: v.lstrip("-").isdigit(),
             "interactions": lambda v: v.lower() in ("true", "false"),
             "link": lambda v: v in ("identity", "logit")}
    chosen = {}
    for key, value in options:
        if not uses.get(key, False) or not valid[key](value):
            return False
        chosen[key] = value
    if kind == "k_nearest_neighbors":
        return int(chosen.get("k", "0")) >= 1
    return int(chosen.get("degree", "1")) >= 1


@st.composite
def learner_texts(draw):
    if draw(st.integers(0, 9)) == 0:
        return draw(st.text(alphabet="gk_:=,lmnt13 ", max_size=20)), None
    kind = draw(st.sampled_from(["glm_main_terms", "glm_with_basis",
                                 "k_nearest_neighbors", "glm"]))
    keys = draw(st.lists(st.sampled_from(sorted(_OPTION_VALUES)),
                         max_size=3))
    options = [(key, draw(st.sampled_from(_OPTION_VALUES[key])))
               for key in keys]
    text = kind + (":" + ",".join(f"{k}={v}" for k, v in options)
                   if options else "")
    return text, _accepts(kind, options)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(case=learner_texts())
def test_learner_spec_parse_accepts_exactly_what_round_trips(case):
    text, accepted = case
    try:
        spec = LearnerSpec.parse(text)
    except ValueError:
        assert not accepted
        return
    assert accepted is not False
    canonical = spec.describe()
    assert LearnerSpec.parse(canonical) == spec
    assert LearnerSpec.parse(canonical).describe() == canonical


def test_basis_design_column_names():
    spec = LearnerSpec("glm_with_basis", degree=3, interactions=True)
    matrix = np.arange(8.0).reshape(4, 2)
    design = spec.design_for(("u", "v"), matrix)
    assert design.names == ("u", "u^2", "u^3", "v", "v^2", "v^3", "u:v")
    np.testing.assert_array_equal(design.matrix[:, 1], matrix[:, 0] ** 2)
    np.testing.assert_array_equal(design.matrix[:, 6],
                                  matrix[:, 0] * matrix[:, 1])


def test_outcome_fit_matches_stratum_means_on_saturated_data():
    data = Dataset.from_columns(
        {"w": [0.0, 0.0, 1.0, 1.0, 0.0, 1.0]},
        [0.0, 0.0, 0.0, 0.0, 1.0, 1.0],
        [1.0, 3.0, 5.0, 7.0, 100.0, -50.0],
    )
    out = fit_outcome(data, LearnerSpec("glm_main_terms"))
    # Untreated stratum means: w=0 -> 2, w=1 -> 6. Treated outcomes are inert.
    np.testing.assert_allclose(out.predictions,
                               [2.0, 2.0, 6.0, 6.0, 2.0, 6.0], atol=1e-10)
    assert out.n_fit == 4


def test_outcome_logit_link_maps_back_to_outcome_scale():
    data = Dataset.from_columns(
        {"w": [0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0]},
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
        [2.0, 6.0, 6.0, 2.0, 2.0, 6.0, 4.0],
        y_bounds=(2.0, 6.0),
    )
    out = fit_outcome(data, LearnerSpec("glm_main_terms", link=Link.LOGIT))
    # Saturated binary design: fitted scaled probabilities are the stratum
    # means of the scaled outcome, so back-scaling recovers stratum means.
    np.testing.assert_allclose(out.predictions[:3], 2.0 + 4.0 * (2.0 / 3.0),
                               atol=1e-7)
    np.testing.assert_allclose(out.predictions[3:6], 2.0 + 4.0 * (1.0 / 3.0),
                               atol=1e-7)
    assert np.all(out.predictions >= 2.0)
    assert np.all(out.predictions <= 6.0)


def test_outcome_constant_with_logit_link():
    data = Dataset.from_columns(
        {"w": [0.0, 1.0, 0.0, 1.0]},
        [0.0, 0.0, 1.0, 1.0],
        [3.5, 3.5, 3.5, 3.5],
    )
    out = fit_outcome(data, LearnerSpec("glm_main_terms", link=Link.LOGIT))
    np.testing.assert_array_equal(out.predictions, np.full(4, 3.5))


def test_knn_outcome_mean_and_tie_break():
    data = Dataset.from_columns(
        {"w": [0.0, 0.0, 5.0, 5.0]},
        [0.0, 0.0, 1.0, 1.0],
        [5.0, 9.0, -1.0, -1.0],
    )
    k2 = fit_outcome(data, LearnerSpec("k_nearest_neighbors", k=2))
    np.testing.assert_allclose(k2.predictions, np.full(4, 7.0))
    # k=1 with two untreated rows at identical covariates: the tie goes to
    # the lowest training-row index, whose outcome is 5.
    k1 = fit_outcome(data, LearnerSpec("k_nearest_neighbors", k=1))
    np.testing.assert_allclose(k1.predictions[:2], [5.0, 5.0])


@pytest.mark.parametrize("kind, n_cov, n_train, n_query, k", [
    ("binary", 3, 60, 40, 7),          # tie-heavy
    ("rounded", 2, 80, 50, 10),
    ("continuous", 3, 90, 30, 25),
    ("continuous", 4, 30, 20, 30),     # k == n_train
    ("binary", 0, 25, 10, 5),          # no covariate columns
    ("continuous", 3, 200, 2 * (_KNN_BLOCK_ENTRIES // 200) + 3, 5),
    ("three_level", 9, 50, 200, 12),   # 8+ terms: numpy sums pairwise
    ("three_level", 10, 30, 200, 5),
])
def test_knn_matches_brute_force_oracle(kind, n_cov, n_train, n_query, k):
    rng = np.random.default_rng(n_train * 1000 + n_query)

    def draw(rows):
        if kind == "binary":
            return (rng.random((rows, n_cov)) < 0.5).astype(float)
        if kind == "rounded":
            return np.round(rng.normal(size=(rows, n_cov)), 1)
        if kind == "three_level":
            return rng.integers(-1, 2, size=(rows, n_cov)).astype(float)
        return rng.normal(size=(rows, n_cov))

    train_x, query_x = draw(n_train), draw(n_query)
    for train_z in ((rng.random(n_train) < 0.4).astype(float),
                    rng.normal(scale=3.0, size=n_train)):
        got = _KnnPredictor(k, train_x, train_z).predict(query_x)
        np.testing.assert_array_equal(
            got, knn_mean_brute_force(train_x, train_z, query_x, k))


def test_knn_k_larger_than_untreated_pool():
    data = Dataset.from_columns(
        {"w": [0.0, 1.0, 2.0, 3.0]},
        [0.0, 0.0, 1.0, 1.0],
        [1.0, 2.0, 3.0, 4.0],
    )
    with pytest.raises(InsufficientDataError, match="k=3"):
        fit_outcome(data, LearnerSpec("k_nearest_neighbors", k=3))


def test_outcome_needs_two_untreated_rows():
    data = Dataset.from_columns(
        {"w": [0.0, 1.0, 2.0]}, [0.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(InsufficientDataError, match="untreated"):
        fit_outcome(data, LearnerSpec("glm_main_terms"))


def test_propensity_matches_stratum_frequencies():
    data = Dataset.from_columns(
        {"w": [0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0]},
        [0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 1.0],
        np.zeros(7),
    )
    prop = fit_propensity(data, LearnerSpec("glm_main_terms"))
    np.testing.assert_allclose(prop.predictions[:3], 2.0 / 3.0, atol=1e-7)
    np.testing.assert_allclose(prop.predictions[3:], 1.0 / 4.0, atol=1e-7)
    assert prop.n_truncated == 0


def test_propensity_truncation_counts_clipped_rows():
    # Three rows whose 3 nearest neighbors are all treated: raw 0 -> 0.01.
    data = Dataset.from_columns(
        {"w": [0.0, 0.1, -0.1, 10.0, 10.1, 9.9]},
        [1.0, 1.0, 1.0, 0.0, 0.0, 1.0],
        np.zeros(6),
    )
    prop = fit_propensity(data, LearnerSpec("k_nearest_neighbors", k=3))
    np.testing.assert_allclose(prop.predictions[:3], 0.01)
    np.testing.assert_allclose(prop.predictions[3:], 2.0 / 3.0)
    assert prop.n_truncated == 3
    assert prop.truncation == DEFAULT_TRUNCATION


def test_propensity_needs_both_levels():
    data = Dataset.from_columns(
        {"w": [0.0, 1.0, 2.0]}, [0.0, 0.0, 0.0], [1.0, 2.0, 3.0])
    with pytest.raises(InsufficientDataError, match="treatment level"):
        fit_propensity(data, LearnerSpec("glm_main_terms"))


def test_truncation_bounds_validated():
    data = random_point_dataset(np.random.default_rng(0), n=30)
    for bad in ((0.0, 0.9), (0.2, 0.2), (0.5, 1.0), (-0.1, 0.5)):
        with pytest.raises(ValueError, match="truncation"):
            fit_propensity(data, LearnerSpec("glm_main_terms"), truncation=bad)


def test_covariate_restriction_forces_marginal_models():
    data = Dataset.from_columns(
        {"w": [0.0, 1.0, 0.0, 1.0, 0.0, 1.0]},
        [0.0, 0.0, 0.0, 1.0, 1.0, 0.0],
        [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
    )
    out = fit_outcome(data, LearnerSpec("glm_main_terms"), covariates=())
    np.testing.assert_allclose(out.predictions, np.full(6, 3.0), atol=1e-10)
    prop = fit_propensity(data, LearnerSpec("glm_main_terms"), covariates=())
    np.testing.assert_allclose(prop.predictions, np.full(6, 4.0 / 6.0),
                               atol=1e-7)
    with pytest.raises(KeyError):
        fit_outcome(data, LearnerSpec("glm_main_terms"), covariates=("nope",))


def test_nuisance_estimates_validation():
    mu = np.array([1.0, 2.0])
    with pytest.raises(ValueError, match="truncation"):
        NuisanceEstimates(mu, np.array([0.5, 0.5]), truncation_bounds=(0.0, 1.0))
    with pytest.raises(ValueError, match="violate"):
        NuisanceEstimates(mu, np.array([0.5, 0.999]),
                          truncation_bounds=(0.01, 0.99))
    with pytest.raises(ValueError, match="non-finite"):
        NuisanceEstimates(np.array([np.nan, 1.0]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="fold_assignment"):
        NuisanceEstimates(mu, np.array([0.5, 0.5]),
                          fold_assignment=np.array([0, 1, 0]))


def test_fold_partition_properties():
    assignment = fold_partition(23, 5, seed=42)
    assert assignment.shape == (23,)
    sizes = np.bincount(assignment, minlength=5)
    assert sizes.min() >= 4 and sizes.max() <= 5
    assert np.array_equal(assignment, fold_partition(23, 5, seed=42))
    assert not np.array_equal(assignment, fold_partition(23, 5, seed=43))
    with pytest.raises(ValueError):
        fold_partition(10, 1, seed=0)
    with pytest.raises(ValueError):
        fold_partition(10, 11, seed=0)


def test_crossfit_predictions_ignore_own_fold_outcomes():
    rng = np.random.default_rng(31)
    data = random_point_dataset(rng, n=60)
    fit = crossfit(data, LearnerSpec("glm_main_terms"),
                   LearnerSpec("glm_main_terms"), n_folds=4, seed=7)
    fold0 = fit.fold_assignment == 0
    bumped_y = np.where(fold0, data.outcome + 5.0, data.outcome)
    bumped = Dataset.from_columns(
        {name: data.covariate_column(name) for name in data.covariate_names},
        data.treatment, bumped_y)
    refit = crossfit(bumped, LearnerSpec("glm_main_terms"),
                     LearnerSpec("glm_main_terms"), n_folds=4, seed=7)
    np.testing.assert_array_equal(refit.fold_assignment, fit.fold_assignment)
    np.testing.assert_array_equal(refit.outcome_pred[fold0],
                                  fit.outcome_pred[fold0])
    assert not np.array_equal(refit.outcome_pred[~fold0],
                              fit.outcome_pred[~fold0])


def test_crossfit_deterministic_and_distinct_from_full_sample():
    rng = np.random.default_rng(17)
    data = random_point_dataset(rng, n=80)
    first = crossfit(data, LearnerSpec("glm_main_terms"),
                     LearnerSpec("glm_main_terms"), n_folds=5, seed=3)
    second = crossfit(data, LearnerSpec("glm_main_terms"),
                      LearnerSpec("glm_main_terms"), n_folds=5, seed=3)
    np.testing.assert_array_equal(first.outcome_pred, second.outcome_pred)
    np.testing.assert_array_equal(first.propensity_pred,
                                  second.propensity_pred)
    full = fit_nuisance(data, LearnerSpec("glm_main_terms"),
                        LearnerSpec("glm_main_terms"))
    assert not np.array_equal(first.outcome_pred, full.outcome_pred)
    assert full.fold_assignment is None
    assert first.fold_assignment is not None


def test_crossfit_degenerate_fold_names_the_fold():
    for treatment, seed in (
            ([0.0, 0.0, 0.0, 1.0], 0),
            # one untreated row: a fold complement has none at all (seed 0)
            # or just one (seed 2)
            ([0.0, 1.0, 1.0, 1.0], 0),
            ([0.0, 1.0, 1.0, 1.0], 2)):
        data = Dataset.from_columns(
            {"w": [0.0, 1.0, 2.0, 3.0]}, treatment, [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(FoldDegeneracyError, match="^fold \\d: "):
            crossfit(data, LearnerSpec("glm_main_terms"),
                     LearnerSpec("glm_main_terms"), n_folds=2, seed=seed)


def test_crossfit_leave_pairs_out_runs():
    rng = np.random.default_rng(11)
    data = random_point_dataset(rng, n=24, binary_w=True)
    fit = crossfit(data, LearnerSpec("glm_main_terms"),
                   LearnerSpec("glm_main_terms"), n_folds=12, seed=2)
    assert fit.n_obs == 24
    assert np.bincount(fit.fold_assignment).tolist() == [2] * 12


def test_crossfit_predicts_each_row_once_per_model(monkeypatch):
    rows = count_predicted_rows(monkeypatch)
    data = random_point_dataset(np.random.default_rng(5), n=90)
    crossfit(data, LearnerSpec("k_nearest_neighbors", k=5),
             LearnerSpec("glm_main_terms"), n_folds=4, seed=1)
    assert rows == {"_KnnPredictor": 90, "_GlmPredictor": 90}
