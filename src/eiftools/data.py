"""Containers for point-treatment and two-time-point observational data."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = ["Dataset", "LongDataset"]


def _as_binary(name: str, values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    if not np.all((arr == 0.0) | (arr == 1.0)):
        raise ValueError(f"{name} must be coded 0/1")
    return arr


def _as_covariates(name: str, columns, n: int) -> Tuple[Tuple[str, ...], np.ndarray]:
    if isinstance(columns, Mapping):
        items = list(columns.items())
    else:
        items = list(columns or [])
    names = tuple(str(k) for k, _ in items)
    if len(set(names)) != len(names):
        raise ValueError(f"{name} column names must be unique")
    if items:
        mat = np.column_stack([np.asarray(v, dtype=float) for _, v in items])
    else:
        mat = np.empty((n, 0))
    if mat.shape[0] != n:
        raise ValueError(f"{name} columns have {mat.shape[0]} rows, expected {n}")
    if not np.all(np.isfinite(mat)):
        raise ValueError(f"{name} contains non-finite values")
    return names, mat


def _check_bounds(bounds, y: np.ndarray) -> Optional[Tuple[float, float]]:
    if bounds is None:
        return None
    lo, hi = float(bounds[0]), float(bounds[1])
    if not (np.isfinite(lo) and np.isfinite(hi)) or lo > hi:
        raise ValueError(f"invalid outcome bounds ({lo}, {hi})")
    if np.any(y < lo) or np.any(y > hi):
        raise ValueError("outcome values fall outside the declared bounds")
    return (lo, hi)


def _as_matrix(name: str, names: Sequence[str], values, n: int
               ) -> Tuple[Tuple[str, ...], np.ndarray]:
    names = tuple(str(v) for v in names)
    if len(set(names)) != len(names):
        raise ValueError(f"{name} column names must be unique")
    mat = np.asarray(values, dtype=float)
    if mat.size == 0:
        mat = np.empty((n, 0)) if len(names) == 0 else mat.reshape(n, len(names))
    if mat.ndim == 1:
        mat = mat[:, None]
    if mat.shape != (n, len(names)):
        raise ValueError(
            f"{name} matrix has shape {mat.shape}, expected ({n}, {len(names)})"
        )
    if not np.all(np.isfinite(mat)):
        raise ValueError(f"{name} contains non-finite values")
    return names, mat


@dataclass(frozen=True)
class Dataset:
    """Point-treatment data: covariates ``W``, binary treatment ``A``, outcome ``Y``.

    The estimand targets the untreated arm, so ``A == 0`` rows are the ones
    the outcome model is fit on and the propensity model predicts
    ``P(A = 0 | W)``.
    """

    covariate_names: Tuple[str, ...]
    covariates: np.ndarray
    treatment: np.ndarray
    outcome: np.ndarray
    y_bounds: Optional[Tuple[float, float]] = None

    def __post_init__(self):
        a = _as_binary("treatment", self.treatment)
        n = a.shape[0]
        y = np.asarray(self.outcome, dtype=float)
        if y.shape != (n,):
            raise ValueError(f"outcome has shape {y.shape}, expected ({n},)")
        if not np.all(np.isfinite(y)):
            raise ValueError("outcome contains non-finite values")
        names, mat = _as_matrix("covariates", self.covariate_names,
                                self.covariates, n)
        object.__setattr__(self, "covariate_names", names)
        object.__setattr__(self, "covariates", mat)
        object.__setattr__(self, "treatment", a)
        object.__setattr__(self, "outcome", y)
        object.__setattr__(self, "y_bounds", _check_bounds(self.y_bounds, y))
        if n < 2:
            raise ValueError("need at least two observations")
        if not np.any(a == 0.0):
            raise ValueError("no untreated (A = 0) rows; the target mean is unidentified")

    @classmethod
    def from_columns(cls, covariates: Mapping[str, Sequence[float]],
                     treatment, outcome,
                     y_bounds: Optional[Tuple[float, float]] = None) -> "Dataset":
        a = _as_binary("treatment", treatment)
        names, mat = _as_covariates("covariates", covariates, a.shape[0])
        return cls(covariate_names=names, covariates=mat,
                   treatment=a, outcome=np.asarray(outcome, dtype=float),
                   y_bounds=y_bounds)

    @property
    def n_obs(self) -> int:
        return self.treatment.shape[0]

    def outcome_bounds(self) -> Tuple[float, float]:
        """Declared outcome range when given, else the observed min/max."""
        if self.y_bounds is not None:
            return self.y_bounds
        return float(np.min(self.outcome)), float(np.max(self.outcome))

    def covariate_column(self, name: str) -> np.ndarray:
        try:
            j = self.covariate_names.index(name)
        except ValueError:
            raise KeyError(f"no covariate named {name!r}") from None
        return self.covariates[:, j]

    def select_covariates(self, names: Sequence[str]) -> "Dataset":
        """Dataset with only the named covariate columns (order as given)."""
        cols = {n: self.covariate_column(n) for n in names}
        return Dataset.from_columns(cols, self.treatment, self.outcome,
                                    y_bounds=self.y_bounds)


@dataclass(frozen=True)
class LongDataset:
    """Two-time-point data: ``W0, A0, W1, A1, Y`` per subject.

    ``W1`` holds covariates measured after ``A0`` and before ``A1``; it may
    be empty. The estimand targets the always-untreated regime
    ``A0 = A1 = 0``.
    """

    w0_names: Tuple[str, ...]
    w0: np.ndarray
    a0: np.ndarray
    w1_names: Tuple[str, ...]
    w1: np.ndarray
    a1: np.ndarray
    outcome: np.ndarray
    y_bounds: Optional[Tuple[float, float]] = None

    def __post_init__(self):
        a0 = _as_binary("a0", self.a0)
        n = a0.shape[0]
        a1 = _as_binary("a1", self.a1)
        if a1.shape != (n,):
            raise ValueError(f"a1 has shape {a1.shape}, expected ({n},)")
        y = np.asarray(self.outcome, dtype=float)
        if y.shape != (n,):
            raise ValueError(f"outcome has shape {y.shape}, expected ({n},)")
        if not np.all(np.isfinite(y)):
            raise ValueError("outcome contains non-finite values")
        w0_names, w0 = _as_matrix("w0", self.w0_names, self.w0, n)
        w1_names, w1 = _as_matrix("w1", self.w1_names, self.w1, n)
        overlap = set(w0_names) & set(w1_names)
        if overlap:
            raise ValueError(f"covariate names appear at both times: {sorted(overlap)}")
        object.__setattr__(self, "w0_names", w0_names)
        object.__setattr__(self, "w0", w0)
        object.__setattr__(self, "a0", a0)
        object.__setattr__(self, "w1_names", w1_names)
        object.__setattr__(self, "w1", w1)
        object.__setattr__(self, "a1", a1)
        object.__setattr__(self, "outcome", y)
        object.__setattr__(self, "y_bounds", _check_bounds(self.y_bounds, y))
        if n < 2:
            raise ValueError("need at least two observations")
        if int(np.sum((a0 == 0.0) & (a1 == 0.0))) < 2:
            raise ValueError(
                "need at least 2 rows following the always-untreated regime "
                "(A0 = A1 = 0)"
            )

    @classmethod
    def from_columns(cls, w0: Mapping[str, Sequence[float]], a0,
                     w1: Mapping[str, Sequence[float]], a1,
                     outcome,
                     y_bounds: Optional[Tuple[float, float]] = None
                     ) -> "LongDataset":
        a0v = _as_binary("a0", a0)
        n = a0v.shape[0]
        w0_names, w0m = _as_covariates("w0", w0, n)
        w1_names, w1m = _as_covariates("w1", w1, n)
        return cls(w0_names=w0_names, w0=w0m, a0=a0v,
                   w1_names=w1_names, w1=w1m,
                   a1=_as_binary("a1", a1),
                   outcome=np.asarray(outcome, dtype=float),
                   y_bounds=y_bounds)

    @property
    def n_obs(self) -> int:
        return self.a0.shape[0]

    def outcome_bounds(self) -> Tuple[float, float]:
        """Declared outcome range when given, else the observed min/max."""
        if self.y_bounds is not None:
            return self.y_bounds
        return float(np.min(self.outcome)), float(np.max(self.outcome))
