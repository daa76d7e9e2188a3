"""The fit-on-train/predict-on-held driver against the fold loops it replaced.

``nuisance._held_out_predictions`` fits every nuisance model on a row mask
of one model matrix, built once per model by ``LearnerSpec.design_for``;
no cross-fitting is its single split where training and held-out rows are
both the whole sample. The oracles in ``tests/oracles.py`` are the loops
written before it: each fit received a ``Dataset`` copy of its training
rows and built its model matrix on those rows alone, and each caller kept
its own degeneracy checks. On random problems both must give
bit-identical prediction vectors and truncation counts, or raise the same
exception type.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eiftools import longitudinal as lng
from eiftools.data import Dataset, LongDataset
from eiftools.glm import GlmError, Link
from eiftools.nuisance import (FoldDegeneracyError, LearnerSpec,
                               NuisanceError, crossfit, fit_nuisance,
                               fit_outcome, fit_propensity)
from oracles import (emu_by_subsets, outcome_model_on_subset,
                     point_nuisances_by_subsets, propensity_model_on_subset,
                     restricted, sequential_nuisances_by_subsets)

OUTCOME_LEARNERS = ("glm_main_terms", "glm_main_terms:link=logit",
                    "glm_with_basis:degree=2,interactions=true",
                    "glm_with_basis:degree=2,link=logit",
                    "k_nearest_neighbors:k=1", "k_nearest_neighbors:k=4")
PROPENSITY_LEARNERS = ("glm_main_terms", "k_nearest_neighbors:k=3")
TRUNCATIONS = ((0.01, 0.99), (0.1, 0.9))
ESTIMATION_FAILURES = (NuisanceError, GlmError)


def _covariates(rng, draw, n, names):
    if not names:
        return np.empty((n, 0))
    if draw(st.booleans()):
        return (rng.random((n, len(names))) < 0.5).astype(float)
    return rng.normal(size=(n, len(names)))


def _outcome(rng, draw, signal):
    n = signal.shape[0]
    if draw(st.booleans()):
        return (rng.random(n) < 1.0 / (1.0 + np.exp(-signal))).astype(float)
    return 1.0 + signal + rng.normal(scale=0.5, size=n)


def _declared_bounds(draw, y):
    """Undeclared, or declared wider than the observed range."""
    if draw(st.booleans()):
        return None
    return (float(y.min()) - 0.5, float(y.max()) + 1.0)


def _same_failure(oracle, library, folded):
    """Run both; when the oracle raises, the library raises the same type.

    Two exceptions when ``folded``, both failures of the same input: the
    oracle's ``subset`` rejected a fold complement without
    untreated rows as a bare ValueError, where the driver names the fold;
    and where one call meets two faults, each side reports the first it
    meets. The oracle checked every fold for degeneracy up front and then
    fit fold by fold; the driver fits model by model (every fold of the
    outcome model, then of the propensity model; g0, g1, then mu in the
    two-period design). Then both raise an estimation failure. Without
    folds both fit in the same order, so the types must match.
    """
    try:
        want = oracle()
    except ValueError as exc:
        if not folded or "no untreated" not in str(exc):
            raise
        with pytest.raises(FoldDegeneracyError, match=r"^fold \d+: "):
            library()
        return None, None
    except Exception as exc:
        expected = ESTIMATION_FAILURES if folded else type(exc)
        if not isinstance(exc, expected):
            raise
        with pytest.raises(expected):
            library()
        return None, None
    return want, library()


@st.composite
def point_problems(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(6, 60))
    names = tuple(f"w{j}" for j in range(draw(st.integers(0, 3))))
    w = _covariates(rng, draw, n, names)
    first = w[:, 0] if names else np.zeros(n)
    share = draw(st.sampled_from([0.15, 0.5, 0.85]))
    a = (rng.random(n) < share + 0.1 * np.tanh(first)).astype(float)
    a[0] = 0.0
    y = _outcome(rng, draw, 0.8 * first - 0.5 * a)
    data = Dataset.from_columns(dict(zip(names, w.T)), a, y,
                                y_bounds=_declared_bounds(draw, y))
    restrict = draw(st.sampled_from([None, "none", "first", "reversed"]))
    restrictions = {None: None, "none": (), "first": names[:1],
                    "reversed": names[::-1]}
    return dict(
        data=data,
        outcome_learner=LearnerSpec.parse(
            draw(st.sampled_from(OUTCOME_LEARNERS))),
        propensity_learner=LearnerSpec.parse(
            draw(st.sampled_from(PROPENSITY_LEARNERS))),
        truncation=draw(st.sampled_from(TRUNCATIONS)),
        outcome_covariates=restrictions[restrict],
        propensity_covariates=restrictions[
            draw(st.sampled_from([None, "none", "first", "reversed"]))],
    ), draw(st.sampled_from([None, 2, 5])), draw(st.integers(0, 99))


@settings(max_examples=600, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(problem=point_problems())
def test_point_nuisances_match_subset_fold_loop(problem):
    kwargs, n_folds, seed = problem
    if n_folds is None:
        def library():
            return fit_nuisance(**kwargs)
    else:
        def library():
            return crossfit(n_folds=n_folds, seed=seed, **kwargs)
    want, got = _same_failure(
        lambda: point_nuisances_by_subsets(n_folds=n_folds, seed=seed,
                                           **kwargs),
        library, n_folds is not None)
    if want is None:
        return
    outcome, propensity, n_truncated, assignment = want
    assert np.array_equal(got.outcome_pred, outcome)
    assert np.array_equal(got.propensity_pred, propensity)
    assert got.n_truncated == n_truncated
    if assignment is None:
        assert got.fold_assignment is None
    else:
        assert np.array_equal(got.fold_assignment, assignment)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 60),
       order=st.permutations(range(4)), width=st.integers(2, 4))
def test_reordered_restriction_gives_knn_the_oracles_layout(seed, n, order,
                                                           width):
    # kNN standardizes with a column mean and scale, whose rounding
    # depends on the memory layout of the restricted matrix; the oracle
    # rebuilds a Dataset on the named columns, which stores them
    # C-contiguous.
    rng = np.random.default_rng(seed)
    names = ("w0", "w1", "w2", "w3")
    w = rng.normal(size=(n, 4)) * rng.uniform(0.1, 100.0, size=4)
    a = (rng.random(n) < 0.5).astype(float)
    a[:3], a[3] = 0.0, 1.0
    y = rng.normal(size=n)
    data = Dataset.from_columns(dict(zip(names, w.T)), a, y)
    chosen = tuple(names[j] for j in order[:width])
    if chosen == tuple(sorted(chosen)):
        chosen = chosen[::-1]
    rebuilt = restricted(data, chosen)
    learner = LearnerSpec.parse("k_nearest_neighbors:k=2")

    x = learner.design_for(data.covariate_matrix(chosen))
    outcome = fit_outcome(learner, x, data.treatment, data.outcome,
                          data.y_bounds)
    want = outcome_model_on_subset(rebuilt, learner)
    assert np.array_equal(outcome.center, want.predictor.center)
    assert np.array_equal(outcome.scale, want.predictor.scale)
    assert np.array_equal(outcome.predict(x),
                          want.predict(rebuilt.covariates))

    propensity = fit_propensity(learner, x, data.treatment)
    want = propensity_model_on_subset(rebuilt, learner)
    assert np.array_equal(propensity.center, want.center)
    assert np.array_equal(propensity.scale, want.scale)
    assert np.array_equal(propensity.predict(x),
                          want.predict(rebuilt.covariates))


@st.composite
def long_problems(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(8, 60))
    w0_names = tuple(f"w0_{j}" for j in range(draw(st.integers(0, 2))))
    w1_names = tuple(f"w1_{j}" for j in range(draw(st.integers(0, 1))))
    w0 = _covariates(rng, draw, n, w0_names)
    w1 = _covariates(rng, draw, n, w1_names)
    first = w0[:, 0] if w0_names else np.zeros(n)
    a0 = (rng.random(n) < draw(st.sampled_from([0.2, 0.5]))
          + 0.1 * np.tanh(first)).astype(float)
    if draw(st.booleans()):
        a1 = a0.copy()  # A1 never varies among the A0 = 0 rows: g1 = 1
    else:
        a1 = np.where(a0 == 1.0, 1.0, (rng.random(n) < 0.3).astype(float))
    a0[:2] = a1[:2] = 0.0
    y = _outcome(rng, draw, 0.7 * first - 0.6 * a1)
    data = LongDataset.from_columns(
        dict(zip(w0_names, w0.T)), a0, dict(zip(w1_names, w1.T)), a1, y,
        y_bounds=_declared_bounds(draw, y))
    learners = [LearnerSpec.parse(draw(st.sampled_from(PROPENSITY_LEARNERS))),
                LearnerSpec.parse(draw(st.sampled_from(PROPENSITY_LEARNERS))),
                LearnerSpec.parse(draw(st.sampled_from(OUTCOME_LEARNERS)))]
    emu = LearnerSpec.parse(draw(st.sampled_from(OUTCOME_LEARNERS)))
    variant = draw(st.sampled_from(["weighted_linear", "weighted_logistic"]))
    return (data, learners, emu, variant,
            draw(st.sampled_from(TRUNCATIONS)),
            draw(st.sampled_from([None, 2, 5])), draw(st.integers(0, 99)))


@settings(max_examples=500, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(problem=long_problems())
def test_sequential_nuisances_match_subset_fold_loop(problem):
    data, learners, emu_learner, variant, truncation, n_folds, seed = problem
    want, got = _same_failure(
        lambda: sequential_nuisances_by_subsets(data, *learners, truncation,
                                                n_folds, seed),
        lambda: lng.fit_sequential_nuisances(data, *learners, truncation,
                                             n_folds=n_folds, seed=seed),
        n_folds is not None)
    if want is None:
        return
    g0, g1, mu_hat, n_truncated, g1_degenerate, assignment = want
    assert np.array_equal(got.g0, g0)
    assert np.array_equal(got.g1, g1)
    assert np.array_equal(got.mu_hat, mu_hat)
    assert got.n_truncated == n_truncated
    assert got.g1_degenerate == g1_degenerate
    if assignment is None:
        assert got.fold_assignment is None
    else:
        assert np.array_equal(got.fold_assignment, assignment)

    # The W0 regression: the logistic variant fits it on the logit scale
    # within the declared-or-observed outcome bounds.
    bounds = data.outcome_bounds() if variant == "weighted_logistic" else None
    if bounds is not None and bounds[0] == bounds[1]:
        return
    oracle_learner = emu_learner
    if variant == "weighted_logistic":
        oracle_learner = LearnerSpec(emu_learner.kind, Link.LOGIT,
                                     emu_learner.degree,
                                     emu_learner.interactions, emu_learner.k)
    want, got = _same_failure(
        lambda: emu_by_subsets(data, data.outcome, oracle_learner, bounds,
                               assignment),
        lambda: lng._fit_emu(data, data.outcome, emu_learner, variant, bounds,
                             assignment),
        assignment is not None)
    if want is not None:
        assert np.array_equal(got, want)
