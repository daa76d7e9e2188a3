"""Two-time-point estimator tests: oracles, reduction, certificates."""

from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

import eiftools.estimators as est
import eiftools.longitudinal as lng
from eiftools.data import Dataset, LongDataset
from eiftools.estimators import eif_values, one_step, tmle
from eiftools.glm import GlmError
from eiftools.nuisance import (
    FoldDegeneracyError,
    LearnerSpec,
    NuisanceEstimates,
    crossfit,
    fit_nuisance,
    fold_partition,
)
from eiftools.longitudinal import (
    SequentialNuisances,
    eif_long,
    fit_sequential_nuisances,
    one_step_long,
    tmle_long,
)
from helpers import (count_predicted_rows, random_long_dataset,
                     random_point_dataset, saturated_long_dataset)
from oracles import stratum_long_value

SATURATED_STAGE2 = LearnerSpec("glm_with_basis", degree=1, interactions=True)


def _hand_long_dataset():
    return LongDataset.from_columns(
        {"w0": [0.0, 0.0, 1.0, 1.0]},
        [0.0, 0.0, 0.0, 1.0],
        {"w1": [0.0, 1.0, 0.0, 1.0]},
        [0.0, 0.0, 1.0, 1.0],
        [2.0, 1.0, 9.0, 7.0],
    )


def test_eif_long_by_hand():
    data = _hand_long_dataset()
    nuis = SequentialNuisances(
        g0=np.array([0.5, 0.5, 0.5, 0.8]),
        g1=np.array([0.5, 0.5, 0.25, 0.9]),
        mu_hat=np.array([1.5, 1.0, 3.0, 6.0]),
    )
    # Row by row with theta = 1:
    #  r1: R=4, H=2 -> 4*(2-1.5) + 2*(1.5-1) + 1 - 1 = 3
    #  r2: R=4, H=2 -> 4*(1-1)   + 2*(1-1)   + 1 - 1 = 0
    #  r3: R=0, H=2 -> 0         + 2*(3-2)   + 2 - 1 = 3
    #  r4: R=0, H=0 -> 0         + 0         + 5 - 1 = 4
    phi = eif_long(data, nuis, nuis.mu_hat, np.array([1.0, 1.0, 2.0, 5.0]),
                   theta=1.0)
    np.testing.assert_allclose(phi, [3.0, 0.0, 3.0, 4.0], atol=1e-14)


def test_sequential_nuisances_are_frozen():
    # The shape check runs on construction only, so a field swapped in
    # afterwards could not be checked; assignment is refused instead.
    data = random_long_dataset(np.random.default_rng(3), 200)
    nuis = fit_sequential_nuisances(data)
    with pytest.raises(FrozenInstanceError):
        nuis.mu_hat = nuis.mu_hat[:150]
    before = nuis.mu_hat.copy()
    result = tmle_long(data, nuis)
    assert result.nuisances is nuis
    assert np.array_equal(nuis.mu_hat, before)
    assert not np.array_equal(result.mu_star, before)


def test_saturated_long_matches_nested_stratum_oracle():
    rng = np.random.default_rng(314)
    for _ in range(10):
        data = saturated_long_dataset(rng, n=int(rng.integers(50, 81)))
        oracle = stratum_long_value(data.w0, data.a0, data.w1, data.a1,
                                    data.outcome)
        nuis = fit_sequential_nuisances(data, SATURATED_STAGE2,
                                        SATURATED_STAGE2)
        for variant in ("weighted_linear", "covariate_linear"):
            fit = tmle_long(data, nuis, variant=variant)
            assert fit.psi_hat == pytest.approx(oracle, abs=1e-10), variant


def test_saturated_fluctuations_have_zero_coefficients():
    rng = np.random.default_rng(159)
    data = saturated_long_dataset(rng, n=60)
    nuis = fit_sequential_nuisances(data, SATURATED_STAGE2, SATURATED_STAGE2)
    fit = tmle_long(data, nuis, variant="weighted_linear")
    assert abs(fit.diagnostics["step3_coefficient"]) < 1e-10
    assert abs(fit.diagnostics["step5_coefficient"]) < 1e-10


def test_reduction_to_point_treatment():
    rng = np.random.default_rng(271)
    for _ in range(8):
        n = int(rng.integers(30, 80))
        while True:
            w0 = (rng.random(n) < 0.5).astype(float)
            a0 = (rng.random(n) < 0.4).astype(float)
            if (a0 == 0).sum() >= 2 and (a0 == 1).sum() >= 1:
                break
        y = 1.0 + 0.8 * w0 + rng.normal(scale=0.5, size=n) * (1 - a0) \
            + a0 * rng.normal(scale=0.5, size=n)
        data = LongDataset.from_columns({"w0": w0}, a0, {}, np.zeros(n), y)

        long_fit = tmle_long(data, fit_sequential_nuisances(data),
                             variant="weighted_linear")
        assert long_fit.diagnostics["g1_degenerate"]

        point_data = Dataset.from_columns({"w0": w0}, a0, y)
        point_nuis = fit_nuisance(point_data, LearnerSpec("glm_main_terms"),
                                  LearnerSpec("glm_main_terms"))
        point_fit = tmle(point_data, point_nuis, "weighted_linear")

        assert long_fit.psi_hat == pytest.approx(point_fit.psi_hat,
                                                 abs=1e-10)
        assert long_fit.se == pytest.approx(point_fit.se, abs=1e-10)


def _one_period_pair(seed):
    """A point Dataset and the LongDataset of the same rows with no W1
    and A1 = 0, on which g1 is exactly 1."""
    point = random_point_dataset(np.random.default_rng(seed), n=120)
    columns = {name: point.covariates[:, j]
               for j, name in enumerate(point.covariate_names)}
    return point, LongDataset.from_columns(
        columns, point.treatment, {}, np.zeros(point.n_obs), point.outcome)


# The point TMLE is step 3 of tmle_long with g1 = 1, and the point
# influence function is eif_long with e = mu: both bit for bit.
@pytest.mark.parametrize("n_folds", [None, 2])
@pytest.mark.parametrize("learner", ["glm_main_terms",
                                     "k_nearest_neighbors:k=5"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_one_period_case_is_the_point_design_bit_for_bit(seed, learner,
                                                         n_folds):
    point, data = _one_period_pair(seed)
    spec, glm = LearnerSpec.parse(learner), LearnerSpec("glm_main_terms")
    nuis = fit_sequential_nuisances(data, spec, n_folds=n_folds, seed=4)
    point_nuis = (fit_nuisance(point, spec, glm) if n_folds is None
                  else crossfit(point, spec, glm, n_folds, 4))
    assert nuis.g1_degenerate
    for variant in est.TMLE_VARIANTS:
        long_fit = tmle_long(data, nuis, variant=variant)
        point_fit = tmle(point, point_nuis, variant)
        diagnostics = long_fit.diagnostics
        assert np.array_equal(long_fit.mu_star,
                              point_fit.fluctuation.targeted_pred)
        assert diagnostics["step3_coefficient"] == \
            point_fit.diagnostics["fluctuation_coefficient"]
        assert diagnostics["step3_score_residual"] == \
            point_fit.diagnostics["score_residual"]
    psi = one_step(point, point_nuis).psi_hat
    assert np.array_equal(
        eif_long(data, nuis, nuis.mu_hat, nuis.mu_hat, psi),
        eif_values(point, point_nuis.outcome_pred,
                   point_nuis.propensity_pred, psi))


def test_score_equation_certificates_and_mean_eif_identity():
    rng = np.random.default_rng(432)
    for _ in range(10):
        data = random_long_dataset(rng)
        n = data.n_obs
        nuis = fit_sequential_nuisances(data)
        for variant in est.TMLE_VARIANTS:
            fit = tmle_long(data, nuis, variant=variant)
            d = fit.diagnostics
            assert abs(d["step3_score_residual"]) <= \
                1e-8 * (1.0 + d["step3_weight_sum"])
            assert abs(d["step5_score_residual"]) <= \
                1e-8 * (1.0 + d["step5_weight_sum"])
            # theta is exactly the mean of the final targeted regression.
            assert fit.psi_hat == pytest.approx(
                float(np.mean(fit.emu_star)), abs=1e-14)
            # The influence-function mean decomposes into the two residuals
            # (rescaled to the outcome scale for the logistic variant).
            span = 1.0 if variant != "weighted_logistic" else 1.0 - 0.0
            expected_mean = span * (d["step3_score_residual"]
                                    + d["step5_score_residual"]) / n
            assert d["mean_eif"] == pytest.approx(expected_mean, abs=1e-12)


def test_mu_star_shift_identities():
    rng = np.random.default_rng(55)
    data = random_long_dataset(rng, n=80)
    nuis = fit_sequential_nuisances(data)

    wl = tmle_long(data, nuis, variant="weighted_linear")
    np.testing.assert_allclose(
        wl.mu_star - nuis.mu_hat,
        np.full(data.n_obs, wl.diagnostics["step3_coefficient"]),
        atol=1e-12)

    # the covariate-shape update predicts under the regime: the shift is
    # coefficient / (g0 g1) on every row, not just the on-regime ones
    cl = tmle_long(data, nuis, variant="covariate_linear")
    np.testing.assert_allclose(
        cl.mu_star - nuis.mu_hat,
        cl.diagnostics["step3_coefficient"] / (nuis.g0 * nuis.g1),
        atol=1e-12)


def test_logistic_variant_keeps_everything_in_bounds():
    rng = np.random.default_rng(86)
    for _ in range(15):
        data = random_long_dataset(rng)
        fit = tmle_long(data, fit_sequential_nuisances(data),
                        variant="weighted_logistic")
        d = fit.diagnostics
        assert 0.0 <= fit.psi_hat <= 1.0
        assert d["mu_star_min"] >= 0.0 and d["mu_star_max"] <= 1.0
        assert d["targeted_pred_min"] >= 0.0
        assert d["targeted_pred_max"] <= 1.0
        assert d["step5_response"] == "mu_star"


def test_one_step_long_identity_and_zero_mean_eif():
    rng = np.random.default_rng(99)
    data = random_long_dataset(rng, n=120)
    nuis = fit_sequential_nuisances(data)
    fit = one_step_long(data, nuis)
    r = ((data.a0 == 0.0) & (data.a1 == 0.0)) / (nuis.g0 * nuis.g1)
    h = (data.a0 == 0.0) / nuis.g0
    emu = fit.emu_hat
    assert fit.emu_star is emu and fit.mu_star is nuis.mu_hat
    by_hand = float(np.mean(emu) + np.mean(
        r * (data.outcome - nuis.mu_hat) + h * (nuis.mu_hat - emu)))
    assert fit.psi_hat == pytest.approx(by_hand, abs=1e-13)
    assert abs(fit.diagnostics["mean_eif"]) < 1e-12
    assert fit.diagnostics["plug_in"] == pytest.approx(float(np.mean(emu)),
                                                       abs=1e-14)


def test_crossfit_uses_one_shared_partition():
    rng = np.random.default_rng(121)
    data = random_long_dataset(rng, n=150)

    def crossfit_tmle(seed):
        nuis = fit_sequential_nuisances(data, n_folds=3, seed=seed)
        return tmle_long(data, nuis, variant="weighted_linear")

    fit = crossfit_tmle(9)
    expected = fold_partition(data.n_obs, 3, seed=9)
    np.testing.assert_array_equal(fit.nuisances.fold_assignment, expected)
    assert fit.diagnostics["cross_fitted"]
    again = crossfit_tmle(9)
    assert fit.psi_hat == again.psi_hat
    other_seed = crossfit_tmle(10)
    assert fit.psi_hat != other_seed.psi_hat


@pytest.mark.parametrize("n_folds", [None, 2])
def test_each_model_predicts_each_row_once(monkeypatch, n_folds):
    rows = count_predicted_rows(monkeypatch)
    data = random_long_dataset(np.random.default_rng(8), n=120)
    knn = LearnerSpec("k_nearest_neighbors", k=3)
    glm = LearnerSpec("glm_main_terms")
    nuis = fit_sequential_nuisances(data, knn, glm, n_folds=n_folds, seed=4)
    assert not nuis.g1_degenerate
    # g0 and g1 are GLMs, mu is kNN
    assert rows == {"_GlmPredictor": 240, "_KnnPredictor": 120}

    rows.clear()
    assignment = fold_partition(data.n_obs, 2, seed=4)
    for learner in (knn, glm):
        lng._fit_emu(data, nuis.mu_hat, learner, "weighted_linear", None,
                     assignment)
    assert rows == {"_GlmPredictor": 120, "_KnnPredictor": 120}


def test_crossfit_degenerate_fold_is_named():
    data = LongDataset.from_columns(
        {"w0": [0.0, 1.0, 0.0, 1.0, 0.0, 1.0]},
        [0.0, 0.0, 1.0, 1.0, 1.0, 1.0],
        {"w1": [0.0, 1.0, 0.0, 1.0, 0.0, 1.0]},
        [0.0, 0.0, 1.0, 1.0, 1.0, 1.0],
        [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
    )
    with pytest.raises(FoldDegeneracyError, match="fold \\d"):
        fit_sequential_nuisances(data, n_folds=3, seed=0)


def test_g1_degenerate_path_sets_exact_ones():
    n = 40
    rng = np.random.default_rng(7)
    w0 = (rng.random(n) < 0.5).astype(float)
    a0 = (rng.random(n) < 0.4).astype(float)
    a0[:2] = 0.0
    a1 = a0.copy()  # treated stay treated; untreated never start
    w1 = (rng.random(n) < 0.5).astype(float)
    y = rng.normal(size=n)
    data = LongDataset.from_columns({"w0": w0}, a0, {"w1": w1}, a1, y)
    nuis = fit_sequential_nuisances(data)
    assert nuis.g1_degenerate
    assert np.all(nuis.g1 == 1.0)
    crossed = fit_sequential_nuisances(data, n_folds=2, seed=1)
    assert crossed.g1_degenerate
    assert np.all(crossed.g1 == 1.0)


def test_step_label_annotates_glm_errors(monkeypatch):
    data = random_long_dataset(np.random.default_rng(3), n=60)
    nuis = fit_sequential_nuisances(data)

    def boom(*args, **kwargs):
        raise GlmError("solver failed")

    monkeypatch.setattr(est, "_solve_linear", boom)
    with pytest.raises(GlmError, match=r"step 3 \(fluctuate mu\)"):
        tmle_long(data, nuis, variant="weighted_linear")


def test_degenerate_outcome_and_unknown_variant():
    data = LongDataset.from_columns(
        {"w0": [0.0, 1.0, 0.0, 1.0]},
        [0.0, 0.0, 1.0, 0.0],
        {"w1": [0.0, 0.0, 1.0, 1.0]},
        [0.0, 0.0, 1.0, 1.0],
        [2.0, 2.0, 2.0, 2.0],
    )
    nuis = SequentialNuisances(g0=np.full(4, 0.5), g1=np.full(4, 0.5),
                               mu_hat=np.full(4, 2.0))
    fit = tmle_long(data, nuis, variant="weighted_logistic")
    assert (fit.psi_hat, fit.se) == (2.0, 0.0)
    with pytest.raises(ValueError, match=r"^step 3 \(fluctuate mu\): "
                       "unknown TMLE variant 'cubic'"):
        tmle_long(data, nuis, variant="cubic")


def test_nuisances_of_another_dataset_size_are_rejected(monkeypatch):
    small = random_long_dataset(np.random.default_rng(12), n=150)
    large = random_long_dataset(np.random.default_rng(13), n=200)
    nuis = fit_sequential_nuisances(small)

    def no_fit(*args):
        raise AssertionError("the size check runs before any fit")
    monkeypatch.setattr(lng, "_fit_emu", no_fit)
    message = "nuisance estimates do not match the dataset size"
    with pytest.raises(ValueError, match=message):
        one_step_long(large, nuis)
    for variant in est.TMLE_VARIANTS:
        with pytest.raises(ValueError, match=message):
            tmle_long(large, nuis, variant=variant)


def test_nuisance_vectors_of_unequal_length_are_rejected():
    data = random_long_dataset(np.random.default_rng(14), n=200)
    nuis = fit_sequential_nuisances(data, n_folds=2, seed=0)
    lengths = "^g0, g1 and mu_hat must be 1-d arrays of equal length$"
    cases = [(dict(mu_hat=nuis.mu_hat[:150]), lengths),
             (dict(g1=nuis.g1[:150]), lengths),
             (dict(g0=nuis.g0[:150]), lengths),
             (dict(g0=nuis.g0[:, None]), lengths),
             (dict(fold_assignment=nuis.fold_assignment[:150]),
              "^fold_assignment length mismatch$")]
    for change, message in cases:
        with pytest.raises(ValueError, match=message):
            one_step_long(data, replace(nuis, **change))
        with pytest.raises(ValueError, match=message):
            tmle_long(data, replace(nuis, **change))


NON_FINITE = "^outcome predictions contain non-finite values$"


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_outcome_predictions_are_rejected_where_made(
        monkeypatch, bad):
    # mu_hat and e, the offsets of the two targeting steps, are checked
    # by the container and by the step that fits e, with the message of
    # NuisanceEstimates, so neither step checks them again.
    mu_hat = np.array([0.5, bad, 0.5, 0.5])
    with pytest.raises(ValueError, match=NON_FINITE):
        SequentialNuisances(g0=np.full(4, 0.5), g1=np.full(4, 0.5),
                            mu_hat=mu_hat)
    with pytest.raises(ValueError, match=NON_FINITE):
        NuisanceEstimates(mu_hat, np.full(4, 0.5))

    class Stub:
        def predict(self, x):
            return np.full(x.shape[0], bad)

    data = random_long_dataset(np.random.default_rng(15), n=80)
    nuis = fit_sequential_nuisances(data)
    monkeypatch.setattr(lng, "fit_outcome", lambda *args: Stub())
    for fit in (lambda: one_step_long(data, nuis),
                lambda: tmle_long(data, nuis, "weighted_linear")):
        with pytest.raises(ValueError, match=NON_FINITE):
            fit()
