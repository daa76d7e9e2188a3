"""GLM solver tests: closed-form and iterate oracles, failure modes.

``fit_glm`` and ``predict`` take the model matrix as it is; the tests
build it with the intercept column first, as the nuisance learners do.
"""

import itertools
import re
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import expit

import eiftools.glm as glm
from eiftools.glm import (
    GlmFit,
    Link,
    NonConvergenceError,
    SeparationError,
    SingularDesignError,
    fit_glm,
    predict,
)
from eiftools._numeric import spd_solve
from oracles import fit_logit_reference, fit_logit_two_logaddexp


def _with_intercept(*columns):
    """Model matrix: a column of ones, then ``columns``."""
    return np.column_stack([np.ones(len(columns[0])), *columns])


def _random_identity_problem(rng, n=40, p=3):
    design = _with_intercept(*(rng.normal(size=n) for _ in range(p)))
    return design, rng.normal(size=n)


def _random_logit_problem(rng, n=80, p=2):
    design = _with_intercept(*(rng.normal(size=n) for _ in range(p)))
    eta = 0.3 + design[:, 1:] @ rng.uniform(-0.8, 0.8, size=p)
    return design, (rng.random(n) < expit(eta)).astype(float)


def test_identity_matches_normal_equations():
    rng = np.random.default_rng(11)
    for _ in range(20):
        X, z = _random_identity_problem(rng)
        fit = fit_glm(X, z, Link.IDENTITY)
        beta_oracle = np.linalg.solve(X.T @ X, X.T @ z)
        np.testing.assert_allclose(fit.coefficients, beta_oracle,
                                   rtol=1e-10, atol=1e-12)
        assert np.max(np.abs(fit.score_residuals)) <= 1e-8 * (1 + len(z))


def test_identity_intercept_only_is_mean():
    z = np.array([1.0, 2.0, 3.0, 10.0])
    fit = fit_glm(np.ones((4, 1)), z, Link.IDENTITY)
    assert fit.coefficients[0] == pytest.approx(np.mean(z), abs=1e-12)
    assert fit.iterations == 1


def test_logit_matches_scipy_minimize():
    rng = np.random.default_rng(101)
    for _ in range(10):
        X, z = _random_logit_problem(rng)
        fit = fit_glm(X, z, Link.LOGIT)

        def nll(beta):
            eta = X @ beta
            return -np.sum(z * -np.logaddexp(0.0, -eta)
                           + (1 - z) * -np.logaddexp(0.0, eta))

        def grad(beta):
            return -(X.T @ (z - expit(X @ beta)))

        res = minimize(nll, np.zeros(X.shape[1]), jac=grad, method="BFGS",
                       options={"gtol": 1e-10, "maxiter": 500})
        np.testing.assert_allclose(fit.coefficients, res.x,
                                   rtol=0, atol=1e-6)


def test_score_residuals_zero_at_fit_nonzero_off_fit():
    # GlmFit.score_residuals are the score sums at the returned
    # coefficients, evaluated here by hand; perturbed coefficients expose
    # a residual.
    rng = np.random.default_rng(7)
    design, z = _random_logit_problem(rng)
    fit = fit_glm(design, z, Link.LOGIT)

    def score(beta):
        return design.T @ (z - expit(design @ beta))

    at_fit = score(fit.coefficients)
    np.testing.assert_allclose(at_fit, fit.score_residuals, rtol=0, atol=1e-12)
    assert np.max(np.abs(at_fit)) <= 1e-8 * (1 + len(z))
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


def test_logit_newton_step_that_overflows_is_singular():
    # Two nearly collinear columns of size about 1e-152 beside one of size
    # about 1e55: the information matrix is finite and passes the Cholesky
    # check, but the first Newton step solved from it overflows. (Found
    # by a seeded random search over small designs; the same under
    # OpenBLAS's Prescott to SkylakeX and Zen kernels.)
    design = np.array([
        [-1.7911240988966296e-152, -1.7911240851376277e-152,
         -6.437415192645489e+53],
        [2.161498565345058e-152, 2.161498548740925e-152,
         7.211497378910566e+55],
        [-3.3274111912102e-152, -3.3274111656497953e-152,
         -9.910458659192848e+54],
        [6.372728305825036e-152, 6.372728256871209e-152,
         -9.888478691004708e+55]])
    with pytest.raises(SingularDesignError,
                       match=r"^logit-link Newton step is not finite$"):
        fit_glm(design, np.array([0.0, 0.0, 1.0, 0.0]), Link.LOGIT)


def _huge_identity_problem():
    # Outcomes near the float64 maximum, as a point DGP with an outcome
    # coefficient of 1e308 draws them: the score sums stay finite, but
    # their rounding error (~1e293) dwarfs any tolerance.
    w = np.arange(150) % 2.0
    noise = np.random.default_rng(7).uniform(-0.3e308, 0.3e308, 150)
    return _with_intercept(w), 0.4e308 + 1e308 * w + noise


@pytest.mark.parametrize("design, z", [
    _huge_identity_problem(),
    # The score sum itself overflows.
    (np.ones((4, 1)), np.array([1.7e308, 1.7e308, -1.7e308, -1.7e308])),
])
def test_identity_score_overflow_is_a_value_error(design, z):
    # Once a RuntimeWarning from the score's matmul, or a
    # NonConvergenceError that blamed the tolerance.
    with pytest.raises(ValueError, match=r"^the least-squares score "
                       r"overflows: the sum of its terms' magnitudes is "
                       r"not finite$"):
        fit_glm(design, z, Link.IDENTITY)


def test_nonconvergence_carries_last_iterate(monkeypatch):
    # The intercept-only root is logit(1/3); one Newton step from 0 falls
    # short of it.
    monkeypatch.setattr(glm, "DEFAULT_MAX_ITERATIONS", 1)
    design = np.ones((3, 1))
    with pytest.raises(NonConvergenceError) as excinfo:
        fit_glm(design, np.array([1.0, 0.0, 0.0]), Link.LOGIT)
    err = excinfo.value
    assert err.iterations == 1
    assert err.coefficients.shape == (1,)
    assert err.score_residuals.shape == (1,)
    assert np.max(np.abs(err.score_residuals)) > 1e-8 * (1 + 3)


def test_predict_clips_extreme_probabilities():
    fit = GlmFit(coefficients=np.array([2000.0]), iterations=0,
                 score_residuals=np.zeros(1), link=Link.LOGIT)
    p = predict(fit, np.array([[1.0], [-1.0]]))
    assert p[0] == 1.0 - 1e-15
    assert p[1] == 1e-15


def test_fit_is_deterministic():
    rng = np.random.default_rng(23)
    design, z = _random_logit_problem(rng)
    first = fit_glm(design, z, Link.LOGIT)
    second = fit_glm(design, z, Link.LOGIT)
    assert np.array_equal(first.coefficients, second.coefficients)
    assert first.iterations == second.iterations


def test_input_validation():
    design = _with_intercept([0.0, 1.0, 2.0])
    z = np.array([0.0, 1.0, 0.0])
    with pytest.raises(ValueError, match="response"):
        fit_glm(design, np.array([1.0, 2.0]), Link.IDENTITY)
    with pytest.raises(ValueError, match="non-finite"):
        fit_glm(design, np.array([0.0, np.nan, 1.0]), Link.IDENTITY)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        fit_glm(design, np.array([0.0, 1.5, 1.0]), Link.LOGIT)


NAN, INF = float("nan"), float("inf")

# (response, link, full message): each input fault and which check
# reports it first. A non-finite response is reported as such, not as
# outside the logit link's [0, 1].
INPUT_ERRORS = [
    ([0.0, NAN, 0.0], "logit", "response contains non-finite values"),
    ([0.0, -INF, 0.0], "logit", "response contains non-finite values"),
    ([0.0, 1.0, -0.5], "logit",
     "logit link requires response values in [0, 1]"),
    ([0.0, 1.0, 1.5], "logit",
     "logit link requires response values in [0, 1]"),
]


@pytest.mark.parametrize("response, link, message", INPUT_ERRORS)
def test_input_errors_keep_their_precedence(response, link, message):
    design = _with_intercept([0.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        fit_glm(design, np.array(response), link)


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
    """Random logit problems for one response type. Two in three
    data-generating intercepts are shifted by 6, so those fits end far
    from the solver's start at 0."""
    for _ in range(count):
        n = int(rng.integers(20, 400))
        p = int(rng.integers(1, 4))
        design = _with_intercept(*(rng.normal(size=n) for _ in range(p)))
        eta = (rng.normal() + rng.choice([-6.0, 0.0, 6.0])
               + design[:, 1:] @ rng.uniform(-3.0, 3.0, size=p)
               + rng.normal(scale=2.0, size=n))
        if case == "continuous":
            z = expit(eta)
        else:
            z = (rng.random(n) < expit(eta)).astype(float)
        yield design, z


def _assert_iterates_match_oracle(design, z):
    # The log-likelihood only decides which Newton steps are accepted, so
    # the one-logaddexp form must give the two-logaddexp iterates exactly,
    # or the same separation failure.
    n = z.shape[0]
    oracle = (design, z, np.zeros(n), np.ones(n), 1e-8 * (1.0 + n))
    try:
        fit = fit_glm(design, z, Link.LOGIT)
    except SeparationError:
        with pytest.raises(SeparationError):
            fit_logit_two_logaddexp(*oracle)
        return
    beta, iterations = fit_logit_two_logaddexp(*oracle)
    assert np.array_equal(fit.coefficients, beta)
    assert fit.iterations == iterations


@pytest.mark.parametrize("case", ["binary", "continuous"])
def test_logit_iterates_match_two_logaddexp_oracle(case):
    rng = np.random.default_rng({"binary": 43, "continuous": 53}[case])
    for design, z in _logit_oracle_problems(rng, case):
        _assert_iterates_match_oracle(design, z)


def test_bernoulli_loglik_is_finite_and_silent_at_extremes():
    # log(1 + exp(eta)) is formed as max(eta, 0) + log1p(exp(-|eta|)):
    # the exponent is never positive, so neither exp overflow nor a lost
    # tiny eta shows, and the value is the logaddexp form's.
    tiny = np.finfo(float).tiny
    eta = np.array([800.0, -800.0, 709.8, -709.8, 0.0, 1e-300, -1e-300,
                    tiny, -tiny])
    rng = np.random.default_rng(17)
    for z in (np.zeros(9), np.ones(9), np.full(9, 0.5), rng.random(9),
              (rng.random(9) < 0.5).astype(float)):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = glm._bernoulli_loglik(eta, z)
            for e, zi in zip(eta, z):
                one = glm._bernoulli_loglik(np.array([e]), np.array([zi]))
                assert np.isfinite(one)
                assert one == pytest.approx(
                    zi * e - np.logaddexp(0.0, e), rel=1e-15, abs=0.0)
        assert np.isfinite(got)
        expected = float((z * eta - np.logaddexp(0.0, eta)).sum())
        assert got == pytest.approx(expected, rel=1e-15, abs=0.0)


def test_halved_step_matches_two_logaddexp_oracle():
    # From the start at 0, Newton steps are rarely halved. On these
    # separated rows the sixth full step drops the log-likelihood from
    # about -0.30 to -10.0, so it is halved; the fit converges after 19
    # steps with coefficients near (231, 31, -1).
    design = _with_intercept([-7.0, 9.0, -8.0, -7.0, -3.0],
                             [-7.0, 4.0, -2.0, -2.0, -3.0])
    _assert_iterates_match_oracle(design, np.array([1.0, 1.0, 0.0, 1.0, 1.0]))


# The stacked solve rests on numpy giving each slice of a C-contiguous
# stack the bits of the 2-D call. Row counts straddle 8 and 128 terms,
# where numpy's float64 summation changes from a plain loop to unrolled
# and then pairwise blocks. np.einsum is not used: it sums in its own
# order.
@pytest.mark.parametrize("n", [3, 7, 8, 9, 127, 128, 129, 500])
def test_stacked_numpy_calls_equal_the_per_slice_calls(n):
    rng = np.random.default_rng(n)
    for p, R in itertools.product((1, 2, 3, 6), (1, 5)):
        X = rng.normal(size=(R, n, p))
        W = X * rng.random((R, n, 1))
        v, u = rng.normal(size=(R, p)), rng.normal(size=(R, n))
        Xt = X.transpose(0, 2, 1)
        assert all(a.flags.c_contiguous for a in (X, W, v, u))
        gemv = X @ v[..., None]
        gemv_t = Xt @ u[..., None]
        gemm = Xt @ W
        sums = u.sum(axis=1)
        info = gemm + n * np.eye(p)
        chol = np.linalg.cholesky(info)
        solved = np.linalg.solve(info, gemv_t)
        for i in range(R):
            assert np.array_equal(gemv[i, :, 0], X[i] @ v[i])
            assert np.array_equal(gemv_t[i, :, 0], X[i].T @ u[i])
            assert np.array_equal(gemm[i], X[i].T @ W[i])
            assert sums[i] == u[i].sum()
            assert np.array_equal(chol[i], np.linalg.cholesky(info[i]))
            assert np.array_equal(solved[i, :, 0],
                                  spd_solve(info[i], gemv_t[i, :, 0]))


# Rows whose sixth full Newton step is halved (see the test above).
# Repeating, permuting, scaling and reflecting them keeps every step's
# halving, since the Newton path is unchanged by these up to rounding.
_HALVING_X = np.array([[-7.0, 9.0, -8.0, -7.0, -3.0],
                       [-7.0, 4.0, -2.0, -2.0, -3.0]]).T
_HALVING_Z = np.array([1.0, 1.0, 0.0, 1.0, 1.0])


def _stack_slice(rng, n, p, kind):
    """One logit problem with ``n`` rows and ``p`` columns (the first the
    intercept): ``kind`` "halving" (n a multiple of 5, p=3), "separated",
    "collinear" (p >= 3), "overflowing" (an information matrix beyond
    float64) or "random"."""
    x = np.ones((n, p))
    if kind == "halving":
        k = n // 5
        rows = rng.permutation(n)
        x[:, 1:] = (np.tile(_HALVING_X, (k, 1))[rows]
                    * rng.uniform(0.5, 2.0, 2) * rng.choice([-1.0, 1.0], 2))
        return x, np.tile(_HALVING_Z, k)[rows]
    if rng.random() < 0.3:
        x[:, 1:] = rng.random((n, p - 1)) < 0.5
    else:
        x[:, 1:] = rng.normal(scale=rng.choice([0.5, 2.0, 8.0]),
                              size=(n, p - 1))
    eta = (rng.normal() + rng.choice([-4.0, 0.0, 4.0])
           + x[:, 1:] @ rng.uniform(-2.0, 2.0, p - 1))
    z = (rng.random(n) < expit(eta)).astype(float)
    if rng.random() < 0.2:
        z = expit(eta)
    if kind == "separated":
        z = (x[:, 1] > np.median(x[:, 1])).astype(float)
    elif kind == "collinear":
        x[:, 2] = x[:, 1]
    elif kind == "overflowing":
        # Two scaled columns of mixed signs make an off-diagonal sum of
        # +inf and -inf terms, a NaN information matrix.
        x[:, 1:3] *= 1e160
    return x, z


def _random_stack(rng):
    """An (R, n, p) stack of logit problems and its responses; one stack in
    four holds slices that step-halve."""
    R = int(rng.integers(2, 7))
    if rng.random() < 0.25:
        n, p = 5 * int(rng.integers(1, 5)), 3
        kinds = rng.choice(["halving", "random"], size=R)
    else:
        n, p = int(rng.integers(5, 301)), int(rng.integers(1, 7))
        kinds = rng.choice(["random", "separated", "collinear",
                            "overflowing"], size=R, p=[0.7, 0.1, 0.1, 0.1])
        if p < 3:
            kinds[kinds == "collinear"] = "random"
        if p < 2:
            kinds[:] = "random"
    slices = [_stack_slice(rng, n, p, kind) for kind in kinds]
    return (np.stack([x for x, _ in slices]),
            np.stack([z for _, z in slices]))


def _assert_same_fit(got, reference):
    """``got`` (a ``GlmFit`` or ``GlmError``) is ``reference`` (the
    oracle's (coefficients, score sums, iterations) or its error) to the
    bit, error payload and message included."""
    if isinstance(reference, glm.GlmError):
        assert type(got) is type(reference)
        assert str(got) == str(reference)
        for field in ("coefficients", "score_residuals", "iterations"):
            assert np.array_equal(getattr(got, field, None),
                                  getattr(reference, field, None))
        return
    assert isinstance(got, GlmFit) and got.link is Link.LOGIT
    beta, score, iterations = reference
    assert np.array_equal(got.coefficients, beta)
    assert np.array_equal(got.score_residuals, score)
    assert got.iterations == iterations


def _assert_stack_matches_reference(X, Z, failures,
                                    fit_stack=glm.fit_logit_stack):
    """Each slice's fit, in the stack (by ``fit_stack``), as a stack of one
    and alone through ``fit_glm``, is the reference Newton loop's; returns
    the set of iteration counts of the slices that converged."""
    fits = fit_stack(X, Z)
    assert len(fits) == X.shape[0]
    iterations = set()
    for i, fit in enumerate(fits):
        try:
            reference = fit_logit_reference(
                X[i], Z[i], glm.DEFAULT_SCORE_TOLERANCE * (1 + X.shape[1]))
        except glm.GlmError as exc:
            reference = exc
            failures.append(type(exc).__name__)
        else:
            iterations.add(reference[2])
        try:
            alone = fit_glm(X[i], Z[i], Link.LOGIT)
        except glm.GlmError as exc:
            alone = exc
        for got in (fit, glm.fit_logit_stack(X[i:i + 1], Z[i:i + 1])[0],
                    alone):
            _assert_same_fit(got, reference)
    return iterations


def test_stacked_logit_fits_equal_fit_glm_bit_for_bit(monkeypatch):
    # Only the halvings inside a whole stack count, not those of the
    # stacks of one that refit each slice.
    halved, in_stack = [], []
    halve_step = glm._halve_step

    def counted(X, z, beta, delta, loglik):
        if in_stack:
            halved.append(loglik)
        return halve_step(X, z, beta, delta, loglik)

    def whole_stack(X, Z):
        in_stack.append(True)
        try:
            return glm.fit_logit_stack(X, Z)
        finally:
            in_stack.clear()
    monkeypatch.setattr(glm, "_halve_step", counted)
    rng = np.random.default_rng(2024)
    failures, mixed = [], 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for _ in range(220):
            X, Z = _random_stack(rng)
            mixed += len(_assert_stack_matches_reference(
                X, Z, failures, whole_stack)) > 1
    # The stacks covered what they are meant to: slices converging at
    # different iterations, step-halving, and each failure of the solve.
    assert mixed > 100
    assert len(halved) > 50
    assert {"SeparationError", "SingularDesignError"} <= set(failures)


@pytest.mark.parametrize("layout", ["fortran", "column_slice"])
def test_fit_glm_has_the_reference_bits_on_any_layout(layout):
    # fit_glm fits its X as a stack of one without copying it, so an
    # F-ordered or column-sliced X must round as in the reference loop
    # on the same array (which can differ from a C-ordered copy's bits).
    rng = np.random.default_rng(31)
    for _ in range(100):
        n, p = int(rng.integers(5, 301)), int(rng.integers(2, 7))
        kind = rng.choice(["halving", "random"]) if n % 5 == 0 else "random"
        x, z = _stack_slice(rng, n, 3 if kind == "halving" else p, kind)
        if layout == "fortran":
            x = np.asfortranarray(x)
        else:
            x = np.repeat(x, 2, axis=1)[:, ::2]
        assert not x.flags.c_contiguous
        try:
            reference = fit_logit_reference(
                x, z, glm.DEFAULT_SCORE_TOLERANCE * (1 + n))
        except glm.GlmError as exc:
            reference = exc
        try:
            got = fit_glm(x, z, Link.LOGIT)
        except glm.GlmError as exc:
            got = exc
        _assert_same_fit(got, reference)


def test_stacked_logit_slices_fail_on_the_iteration_cap(monkeypatch):
    monkeypatch.setattr(glm, "DEFAULT_MAX_ITERATIONS", 3)
    rng = np.random.default_rng(8)
    failures = []
    for _ in range(20):
        _assert_stack_matches_reference(*_random_stack(rng), failures)
    assert "NonConvergenceError" in failures
