"""Data-generating processes with known truth, and a replication harness.

A :class:`DgpConfig` describes independent covariates, a logit-scale
model for the probability of NON-treatment, and an outcome mean on the
identity or logit scale with optional mean-zero noise. Configurations
are validated by interval arithmetic so that implied propensities stay
away from 0 and 1 and binary outcome means stay inside [0, 1];
violations are reported all at once.

The true estimand value is available two ways: exact summation over the
covariate support (discrete covariates only) and Monte Carlo averaging
of counterfactual draws with treatment forced to 0. The two oracles
cross-check each other in the test suite.

``run_experiment`` replays an estimation plan over many replicates with
independent, order-insensitive seed streams and reports bias, empirical
and estimated standard errors, CI coverage, bound violations, and
failures (never silently dropped).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ._numeric import expit
from .data import Dataset, LongDataset
from . import estimators as est
from . import longitudinal as long_est
from .longitudinal import SequentialNuisances
from .nuisance import (DEFAULT_TRUNCATION, LearnerSpec, NuisanceError,
                       _validate_truncation, check_fold_count, crossfit,
                       fit_nuisance)
from .glm import GlmError

__all__ = [
    "CovariateSpec",
    "LinearModel",
    "NoiseSpec",
    "OutcomeSpec",
    "DgpConfig",
    "DgpValidationError",
    "AnalyticTruthError",
    "TruthResult",
    "EstimationPlan",
    "ReplicateRecord",
    "EstimatorSummary",
    "ExperimentReport",
    "POINT_ESTIMATORS",
    "LONG_ESTIMATORS",
    "generate",
    "true_value",
    "run_experiment",
    "replicate_seed",
    "fit_plan_nuisance",
    "fit_plan_nuisance_long",
    "point_estimate",
    "long_estimate",
]

POINT_ESTIMATORS = ("gcomp", "one_step", "tmle_covariate_linear",
                    "tmle_weighted_linear", "tmle_weighted_logistic")
LONG_ESTIMATORS = ("one_step_long", "tmle_long_covariate_linear",
                   "tmle_long_weighted_linear", "tmle_long_weighted_logistic")

# Reserved names usable in coefficient maps besides covariate names.
_TREATMENT_KEYS = {"point": ("a",), "longitudinal": ("a0", "a1")}


class DgpValidationError(Exception):
    """Invalid DGP configuration; ``violations`` lists every problem."""

    def __init__(self, violations: Sequence[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class AnalyticTruthError(Exception):
    """Exact truth requested for a DGP without finite covariate support."""


_JSON_TYPES = {"an object": Mapping, "a list": (list, tuple),
               "a number": numbers.Real}


def _typed(value, kind: str, where: str):
    """``value`` if it has the JSON type ``kind``, else a config error
    (not a TypeError or ValueError deep inside validation)."""
    if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[kind]):
        raise DgpValidationError([f"{where}: expected {kind}, got {value!r}"])
    return value


def _object(d, allowed: Sequence[str], where: str) -> Mapping[str, object]:
    """``d`` if it is a config object with no keys outside ``allowed``."""
    extra = set(_typed(d, "an object", where)) - set(allowed)
    if extra:
        raise DgpValidationError([f"{where}: unknown keys {sorted(extra)}"])
    return d


@dataclass(frozen=True)
class LinearModel:
    """Linear predictor: intercept + sum of coef * term value."""

    intercept: float = 0.0
    coefs: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "intercept", float(self.intercept))
        object.__setattr__(
            self, "coefs",
            {str(k): float(v) for k, v in dict(self.coefs).items()})

    def eta(self, values: Mapping[str, Union[float, np.ndarray]]):
        out = self.intercept
        for name, coef in self.coefs.items():
            out = out + coef * values[name]
        return out

    def eta_interval(self, intervals: Mapping[str, Tuple[float, float]]
                     ) -> Tuple[float, float]:
        lo = hi = self.intercept
        for name, coef in self.coefs.items():
            if coef == 0.0:
                continue
            ilo, ihi = intervals[name]
            a, b = coef * ilo, coef * ihi
            lo += min(a, b)
            hi += max(a, b)
        return lo, hi

    def to_dict(self) -> Dict[str, object]:
        return {"intercept": self.intercept, "coefs": dict(self.coefs)}

    @classmethod
    def from_dict(cls, d: Mapping[str, object], where: str) -> "LinearModel":
        d = _object(d, ("intercept", "coefs"), where)
        coefs = _typed(d.get("coefs", {}), "an object", f"{where}.coefs")
        return cls(intercept=_typed(d.get("intercept", 0.0), "a number",
                                    f"{where}.intercept"),
                   coefs={k: _typed(v, "a number", f"{where}.coefs.{k}")
                          for k, v in coefs.items()})


@dataclass(frozen=True)
class CovariateSpec:
    """One independent covariate.

    ``bernoulli`` takes ``p``, or (second-period covariates only) a
    logit-scale ``model`` over the first-period variables and ``a0``.
    ``uniform`` takes ``low``/``high``; ``normal`` takes ``mean``/``sd``.
    """

    name: str
    dist: str
    p: Optional[float] = None
    low: Optional[float] = None
    high: Optional[float] = None
    mean: Optional[float] = None
    sd: Optional[float] = None
    model: Optional[LinearModel] = None

    @property
    def is_discrete(self) -> bool:
        return self.dist == "bernoulli"

    def support_interval(self) -> Tuple[float, float]:
        if self.dist == "bernoulli":
            return (0.0, 1.0)
        if self.dist == "uniform":
            return (float(self.low), float(self.high))
        return (-np.inf, np.inf)

    def validate(self, where: str) -> List[str]:
        problems = []
        if self.dist not in ("bernoulli", "uniform", "normal"):
            return [f"{where}: unknown distribution {self.dist!r}"]
        if self.dist == "bernoulli":
            if (self.p is None) == (self.model is None):
                problems.append(
                    f"{where}: bernoulli needs exactly one of p or model")
            if self.p is not None and not 0.0 <= float(self.p) <= 1.0:
                problems.append(f"{where}: p={self.p} outside [0, 1]")
        elif self.model is not None:
            problems.append(f"{where}: model is only valid for bernoulli")
        if self.dist == "uniform":
            if self.low is None or self.high is None:
                problems.append(f"{where}: uniform needs low and high")
            elif not float(self.low) < float(self.high):
                problems.append(f"{where}: uniform needs low < high")
        if self.dist == "normal":
            if self.mean is None or self.sd is None:
                problems.append(f"{where}: normal needs mean and sd")
            elif float(self.sd) < 0:
                problems.append(f"{where}: normal needs sd >= 0")
        return problems

    def draw(self, rng: np.random.Generator, n: int,
             context: Optional[Mapping[str, np.ndarray]] = None) -> np.ndarray:
        if self.dist == "bernoulli":
            if self.model is not None:
                prob = expit(np.broadcast_to(
                    np.asarray(self.model.eta(context), dtype=float), (n,)))
            else:
                prob = np.full(n, float(self.p))
            return (rng.random(n) < prob).astype(float)
        if self.dist == "uniform":
            return rng.uniform(float(self.low), float(self.high), n)
        return rng.normal(float(self.mean), float(self.sd), n)

    def to_dict(self) -> Dict[str, object]:
        d: Dict[str, object] = {"name": self.name, "dist": self.dist}
        for key in ("p", "low", "high", "mean", "sd"):
            v = getattr(self, key)
            if v is not None:
                d[key] = float(v)
        if self.model is not None:
            d["model"] = self.model.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: Mapping[str, object], where: str) -> "CovariateSpec":
        d = _object(d, ("name", "dist", "p", "low", "high", "mean", "sd",
                        "model"), where)
        if "name" not in d or "dist" not in d:
            raise DgpValidationError([f"{where}: need name and dist"])
        values = {key: _typed(d[key], "a number", f"{where}.{key}")
                  for key in ("p", "low", "high", "mean", "sd")
                  if d.get(key) is not None}
        model = d.get("model")
        return cls(
            name=str(d["name"]), dist=str(d["dist"]), **values,
            model=LinearModel.from_dict(model, f"{where}.model")
            if model is not None else None,
        )


@dataclass(frozen=True)
class NoiseSpec:
    """Additive mean-zero outcome noise (continuous outcomes only)."""

    kind: str = "none"
    sd: float = 0.0
    half_width: float = 0.0

    def validate(self, where: str) -> List[str]:
        if self.kind not in ("none", "normal", "uniform"):
            return [f"{where}: unknown noise kind {self.kind!r}"]
        problems = []
        if self.kind == "normal" and float(self.sd) < 0:
            problems.append(f"{where}: normal noise needs sd >= 0")
        if self.kind == "uniform" and float(self.half_width) < 0:
            problems.append(f"{where}: uniform noise needs half_width >= 0")
        return problems

    def reach(self) -> float:
        """Largest possible |noise| (inf for normal)."""
        if self.kind == "none":
            return 0.0
        if self.kind == "uniform":
            return float(self.half_width)
        return np.inf if float(self.sd) > 0 else 0.0

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.kind == "normal" and float(self.sd) > 0:
            return rng.normal(0.0, float(self.sd), n)
        if self.kind == "uniform" and float(self.half_width) > 0:
            return rng.uniform(-float(self.half_width),
                               float(self.half_width), n)
        return np.zeros(n)

    def to_dict(self) -> Dict[str, object]:
        d: Dict[str, object] = {"kind": self.kind}
        if self.kind == "normal":
            d["sd"] = float(self.sd)
        if self.kind == "uniform":
            d["half_width"] = float(self.half_width)
        return d

    @classmethod
    def from_dict(cls, d: Mapping[str, object], where: str) -> "NoiseSpec":
        d = _object(d, ("kind", "sd", "half_width"), where)
        return cls(kind=str(d.get("kind", "none")),
                   sd=_typed(d.get("sd", 0.0), "a number", f"{where}.sd"),
                   half_width=_typed(d.get("half_width", 0.0), "a number",
                                     f"{where}.half_width"))


@dataclass(frozen=True)
class OutcomeSpec:
    """Outcome mean model and distribution.

    The mean is ``eta`` (identity scale) or ``expit(eta)`` (logit scale)
    where eta is the linear predictor over covariates and the reserved
    treatment terms (``a`` for the point design; ``a0``/``a1`` for the
    longitudinal one). ``binary`` outcomes are Bernoulli(mean) draws;
    ``continuous`` outcomes are mean plus noise.
    """

    scale: str = "identity"
    kind: str = "continuous"
    mean_model: LinearModel = field(default_factory=LinearModel)
    noise: NoiseSpec = field(default_factory=NoiseSpec)

    def mean(self, values: Mapping[str, Union[float, np.ndarray]]):
        eta = self.mean_model.eta(values)
        if self.scale == "logit":
            return expit(eta)
        return eta

    def mean_interval(self, intervals: Mapping[str, Tuple[float, float]]
                      ) -> Tuple[float, float]:
        lo, hi = self.mean_model.eta_interval(intervals)
        if self.scale == "logit":
            return float(expit(lo)), float(expit(hi))
        return lo, hi

    def to_dict(self) -> Dict[str, object]:
        return {"scale": self.scale, "kind": self.kind,
                "intercept": self.mean_model.intercept,
                "coefs": dict(self.mean_model.coefs),
                "noise": self.noise.to_dict()}

    @classmethod
    def from_dict(cls, d: Mapping[str, object], where: str) -> "OutcomeSpec":
        d = _object(d, ("scale", "kind", "intercept", "coefs", "noise"),
                    where)
        return cls(
            scale=str(d.get("scale", "identity")),
            kind=str(d.get("kind", "continuous")),
            mean_model=LinearModel.from_dict(
                {key: d[key] for key in ("intercept", "coefs") if key in d},
                where),
            noise=NoiseSpec.from_dict(d.get("noise", {"kind": "none"}),
                                      f"{where}.noise"),
        )


@dataclass(frozen=True)
class DgpConfig:
    """A complete data-generating process.

    Point design: ``covariates`` are W, ``treatment`` is the logit-scale
    model for P(A=0 | W), and the outcome mean may use the reserved term
    ``a``. Longitudinal design: ``covariates`` are W0, ``treatment``
    models P(A0=0 | W0), ``w1_covariates`` and ``a1_model``
    (P(A1=0 | W0, a0, W1)) describe the second period, and the outcome
    mean may use ``a0`` and ``a1``.
    """

    design: str
    covariates: Tuple[CovariateSpec, ...]
    treatment: LinearModel
    outcome: OutcomeSpec
    w1_covariates: Tuple[CovariateSpec, ...] = ()
    a1_model: Optional[LinearModel] = None
    y_bounds: Optional[Tuple[float, float]] = None
    positivity_floor: float = 0.01

    def __post_init__(self):
        object.__setattr__(self, "covariates", tuple(self.covariates))
        object.__setattr__(self, "w1_covariates", tuple(self.w1_covariates))
        if self.y_bounds is not None:
            object.__setattr__(self, "y_bounds",
                               (float(self.y_bounds[0]),
                                float(self.y_bounds[1])))

    # -- structure helpers -------------------------------------------------

    @property
    def w0_names(self) -> Tuple[str, ...]:
        return tuple(c.name for c in self.covariates)

    @property
    def w1_names(self) -> Tuple[str, ...]:
        return tuple(c.name for c in self.w1_covariates)

    def implied_y_bounds(self) -> Optional[Tuple[float, float]]:
        """Parameter-space box for the outcome; None when unbounded."""
        if self.outcome.kind == "binary":
            return (0.0, 1.0)
        return self.y_bounds

    def _intervals(self) -> Dict[str, Tuple[float, float]]:
        iv = {c.name: c.support_interval() for c in self.covariates}
        for c in self.w1_covariates:
            iv[c.name] = c.support_interval()
        for key in _TREATMENT_KEYS[self.design] if self.design in _TREATMENT_KEYS else ():
            iv[key] = (0.0, 1.0)
        return iv

    # -- validation --------------------------------------------------------

    def validate(self) -> List[str]:
        """All configuration problems, empty when the DGP is usable."""
        problems: List[str] = []
        if self.design not in ("point", "longitudinal"):
            return [f"design must be point or longitudinal, got {self.design!r}"]
        if not self.covariates:
            problems.append("at least one covariate is required")
        names: List[str] = []
        for i, c in enumerate(self.covariates):
            problems += c.validate(f"covariates[{i}] ({c.name})")
            if c.model is not None:
                problems.append(
                    f"covariates[{i}] ({c.name}): conditional bernoulli "
                    "models are only allowed for second-period covariates")
            names.append(c.name)
        w1_names: List[str] = []
        if self.design == "point":
            if self.w1_covariates or self.a1_model is not None:
                problems.append(
                    "point design must not define w1_covariates or a1_model")
        else:
            for i, c in enumerate(self.w1_covariates):
                where = f"w1_covariates[{i}] ({c.name})"
                problems += c.validate(where)
                if c.model is not None:
                    bad = set(c.model.coefs) - set(names) - {"a0"}
                    if bad:
                        problems.append(
                            f"{where}: model references unknown terms "
                            f"{sorted(bad)}")
                w1_names.append(c.name)
            if self.a1_model is None:
                problems.append("longitudinal design needs a1_model")
        all_names = names + w1_names
        if len(set(all_names)) != len(all_names):
            problems.append("covariate names must be unique")
        reserved = set(_TREATMENT_KEYS.get(self.design, ())) | {"a", "a0", "a1"}
        clash = set(all_names) & reserved
        if clash:
            problems.append(f"covariate names {sorted(clash)} are reserved")

        bad = set(self.treatment.coefs) - set(names)
        if bad:
            problems.append(f"treatment model references unknown terms {sorted(bad)}")
        if self.design == "longitudinal" and self.a1_model is not None:
            bad = set(self.a1_model.coefs) - set(all_names) - {"a0"}
            if bad:
                problems.append(f"a1 model references unknown terms {sorted(bad)}")
        treatment_keys = set(_TREATMENT_KEYS.get(self.design, ()))
        bad = set(self.outcome.mean_model.coefs) - set(all_names) - treatment_keys
        if bad:
            problems.append(f"outcome model references unknown terms {sorted(bad)}")

        if self.outcome.scale not in ("identity", "logit"):
            problems.append(f"outcome scale must be identity or logit, "
                            f"got {self.outcome.scale!r}")
        if self.outcome.kind not in ("binary", "continuous"):
            problems.append(f"outcome kind must be binary or continuous, "
                            f"got {self.outcome.kind!r}")
        problems += self.outcome.noise.validate("outcome.noise")
        if self.outcome.kind == "binary" and self.outcome.noise.kind != "none":
            problems.append("binary outcomes cannot carry additive noise")

        floor = float(self.positivity_floor)
        if not 0.0 < floor < 0.5:
            problems.append(f"positivity_floor {floor} must be in (0, 0.5)")

        if problems:
            # Interval checks below assume a structurally sound config.
            return problems

        intervals = self._intervals()
        problems += self._positivity_problems(intervals, floor)
        problems += self._outcome_range_problems(intervals)
        return problems

    def _positivity_problems(self, intervals, floor: float) -> List[str]:
        problems = []
        models = [("treatment model", self.treatment)]
        if self.design == "longitudinal" and self.a1_model is not None:
            models.append(("a1 model", self.a1_model))
        for label, model in models:
            for name, coef in model.coefs.items():
                ilo, ihi = intervals[name]
                if coef != 0.0 and not (np.isfinite(ilo) and np.isfinite(ihi)):
                    problems.append(
                        f"{label}: coefficient on unbounded covariate "
                        f"{name!r} makes propensities arbitrarily extreme")
        if problems:
            return problems
        for label, model in models:
            lo, hi = model.eta_interval(intervals)
            p_lo, p_hi = float(expit(lo)), float(expit(hi))
            if p_lo < floor or p_hi > 1.0 - floor:
                problems.append(
                    f"{label}: implied propensities span [{p_lo:.6g}, "
                    f"{p_hi:.6g}], outside the positivity floor "
                    f"[{floor:g}, {1.0 - floor:g}]")
        return problems

    def _outcome_range_problems(self, intervals) -> List[str]:
        problems = []
        finite_terms = all(
            np.isfinite(intervals[name][0]) and np.isfinite(intervals[name][1])
            for name, coef in self.outcome.mean_model.coefs.items()
            if coef != 0.0)
        if self.outcome.kind == "binary":
            if self.outcome.scale == "identity":
                if not finite_terms:
                    problems.append(
                        "binary outcome on the identity scale with an "
                        "unbounded covariate cannot keep the mean in [0, 1]")
                else:
                    lo, hi = self.outcome.mean_interval(intervals)
                    if lo < 0.0 or hi > 1.0:
                        problems.append(
                            f"binary outcome mean spans [{lo:.6g}, {hi:.6g}], "
                            "outside [0, 1]")
            if self.y_bounds is not None and self.y_bounds != (0.0, 1.0):
                problems.append("binary outcomes have bounds (0, 1); "
                                "drop y_bounds or set them to [0, 1]")
            return problems
        if self.y_bounds is not None:
            blo, bhi = self.y_bounds
            if not blo < bhi:
                problems.append(f"y_bounds ({blo}, {bhi}) need lo < hi")
                return problems
            reach = self.outcome.noise.reach()
            if not np.isfinite(reach):
                problems.append(
                    "normal outcome noise is unbounded and violates the "
                    "declared y_bounds")
            elif not finite_terms:
                problems.append(
                    "outcome mean uses an unbounded covariate and violates "
                    "the declared y_bounds")
            else:
                lo, hi = self.outcome.mean_interval(intervals)
                if lo - reach < blo or hi + reach > bhi:
                    problems.append(
                        f"outcome values span [{lo - reach:.6g}, "
                        f"{hi + reach:.6g}], outside the declared y_bounds "
                        f"[{blo:g}, {bhi:g}]")
        return problems

    def check(self) -> "DgpConfig":
        problems = self.validate()
        if problems:
            raise DgpValidationError(problems)
        return self

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        d: Dict[str, object] = {
            "design": self.design,
            "covariates": [c.to_dict() for c in self.covariates],
            "treatment": self.treatment.to_dict(),
            "outcome": self.outcome.to_dict(),
            "positivity_floor": float(self.positivity_floor),
        }
        if self.design == "longitudinal":
            d["w1_covariates"] = [c.to_dict() for c in self.w1_covariates]
            d["a1"] = self.a1_model.to_dict() if self.a1_model else None
        if self.y_bounds is not None:
            d["y_bounds"] = [self.y_bounds[0], self.y_bounds[1]]
        return d

    @classmethod
    def from_dict(cls, d: Mapping[str, object]) -> "DgpConfig":
        allowed = {"design", "covariates", "treatment", "outcome",
                   "w1_covariates", "a1", "y_bounds", "positivity_floor"}
        extra = set(_typed(d, "an object", "config")) - allowed
        if extra:
            raise DgpValidationError([f"unknown config keys {sorted(extra)}"])
        missing = {"design", "covariates", "treatment", "outcome"} - set(d)
        if missing:
            raise DgpValidationError(
                [f"missing config keys {sorted(missing)}"])
        y_bounds = d.get("y_bounds")
        if y_bounds is not None:
            if len(_typed(y_bounds, "a list", "y_bounds")) != 2:
                raise DgpValidationError(
                    [f"y_bounds: expected [lo, hi], got {y_bounds!r}"])
            y_bounds = tuple(_typed(v, "a number", "y_bounds")
                             for v in y_bounds)

        def specs(key):
            items = _typed(d.get(key, ()), "a list", key)
            return tuple(CovariateSpec.from_dict(c, f"{key}[{i}]")
                         for i, c in enumerate(items))
        return cls(
            design=str(d["design"]),
            covariates=specs("covariates"),
            treatment=LinearModel.from_dict(d["treatment"], "treatment"),
            outcome=OutcomeSpec.from_dict(d["outcome"], "outcome"),
            w1_covariates=specs("w1_covariates"),
            a1_model=LinearModel.from_dict(d["a1"], "a1")
            if d.get("a1") is not None else None,
            y_bounds=y_bounds,
            positivity_floor=float(_typed(d.get("positivity_floor", 0.01),
                                          "a number", "positivity_floor")),
        )


# ---------------------------------------------------------------------------
# Generation


def _draw_outcome(dgp: DgpConfig, rng: np.random.Generator,
                  values: Dict[str, np.ndarray], n: int) -> np.ndarray:
    mean = np.broadcast_to(np.asarray(dgp.outcome.mean(values), dtype=float),
                           (n,))
    if dgp.outcome.kind == "binary":
        return (rng.random(n) < mean).astype(float)
    return mean + dgp.outcome.noise.draw(rng, n)


def generate(dgp: DgpConfig, n: int,
             seed: Union[int, np.random.SeedSequence, np.random.Generator]
             ) -> Union[Dataset, LongDataset]:
    """Draw a dataset of size ``n``; deterministic given (config, n, seed).

    Draw order is fixed: covariates in declaration order, treatment,
    (longitudinal: second-period covariates, second treatment), outcome.
    """
    dgp.check()
    if n < 2:
        raise ValueError("n must be at least 2")
    rng = np.random.default_rng(seed)
    values: Dict[str, np.ndarray] = {}
    for c in dgp.covariates:
        values[c.name] = c.draw(rng, n)
    p_a0 = expit(np.broadcast_to(
        np.asarray(dgp.treatment.eta(values), dtype=float), (n,)))
    a0 = (rng.random(n) >= p_a0).astype(float)
    if dgp.design == "point":
        values["a"] = a0
        y = _draw_outcome(dgp, rng, values, n)
        w_cols = {name: values[name] for name in dgp.w0_names}
        return Dataset.from_columns(w_cols, a0, y,
                                    y_bounds=dgp.implied_y_bounds())
    values["a0"] = a0
    for c in dgp.w1_covariates:
        values[c.name] = c.draw(rng, n, context=values)
    p_a1 = expit(np.broadcast_to(
        np.asarray(dgp.a1_model.eta(values), dtype=float), (n,)))
    a1 = (rng.random(n) >= p_a1).astype(float)
    values["a1"] = a1
    y = _draw_outcome(dgp, rng, values, n)
    w0_cols = {name: values[name] for name in dgp.w0_names}
    w1_cols = {name: values[name] for name in dgp.w1_names}
    return LongDataset.from_columns(w0_cols, a0, w1_cols, a1, y,
                                    y_bounds=dgp.implied_y_bounds())


# ---------------------------------------------------------------------------
# Truth


@dataclass(frozen=True)
class TruthResult:
    """The estimand's true value and how it was obtained."""

    value: float
    method: str
    mc_se: Optional[float] = None
    mc_draws: Optional[int] = None

    def to_dict(self) -> Dict[str, object]:
        d: Dict[str, object] = {"value": self.value, "method": self.method}
        if self.method == "monte_carlo":
            d["mc_se"] = self.mc_se
            d["mc_draws"] = self.mc_draws
        return d


def _support(specs: Sequence[CovariateSpec]) -> List[Dict[str, float]]:
    """All joint covariate settings (bernoulli supports only)."""
    combos: List[Dict[str, float]] = [{}]
    for c in specs:
        combos = [dict(combo, **{c.name: v})
                  for combo in combos for v in (0.0, 1.0)]
    return combos


def _point_mass(specs: Sequence[CovariateSpec], combo: Mapping[str, float],
                context: Mapping[str, float]) -> float:
    prob = 1.0
    for c in specs:
        if c.model is not None:
            p1 = float(expit(c.model.eta(context)))
        else:
            p1 = float(c.p)
        prob *= p1 if combo[c.name] == 1.0 else 1.0 - p1
    return prob


def _analytic_truth(dgp: DgpConfig) -> float:
    all_specs = list(dgp.covariates) + list(dgp.w1_covariates)
    if not all(c.is_discrete for c in all_specs):
        raise AnalyticTruthError(
            "exact truth requires discrete (bernoulli) covariates; "
            "use the monte_carlo method")
    total = 0.0
    if dgp.design == "point":
        for combo in _support(dgp.covariates):
            prob = _point_mass(dgp.covariates, combo, combo)
            vals = dict(combo, a=0.0)
            total += prob * float(dgp.outcome.mean(vals))
        return total
    for combo0 in _support(dgp.covariates):
        p0 = _point_mass(dgp.covariates, combo0, combo0)
        context = dict(combo0, a0=0.0)
        inner = 0.0
        for combo1 in _support(dgp.w1_covariates):
            p1 = _point_mass(dgp.w1_covariates, combo1, context)
            vals = dict(context, **combo1, a1=0.0)
            inner += p1 * float(dgp.outcome.mean(vals))
        total += p0 * inner
    return total


def _monte_carlo_truth(dgp: DgpConfig, draws: int,
                       seed: Union[int, np.random.SeedSequence]) -> TruthResult:
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    done = 0
    batch = 200_000
    while done < draws:
        n = min(batch, draws - done)
        values: Dict[str, np.ndarray] = {}
        for c in dgp.covariates:
            values[c.name] = c.draw(rng, n)
        if dgp.design == "point":
            values["a"] = np.zeros(n)
        else:
            values["a0"] = np.zeros(n)
            for c in dgp.w1_covariates:
                values[c.name] = c.draw(rng, n, context=values)
            values["a1"] = np.zeros(n)
        y = _draw_outcome(dgp, rng, values, n)
        total += float(np.sum(y))
        total_sq += float(np.sum(y * y))
        done += n
    mean = total / draws
    var = max(total_sq / draws - mean * mean, 0.0)
    return TruthResult(value=mean, method="monte_carlo",
                       mc_se=float(np.sqrt(var / draws)), mc_draws=draws)


def true_value(dgp: DgpConfig, method: str = "analytic",
               mc_draws: int = 1_000_000,
               mc_seed: Union[int, np.random.SeedSequence] = 0) -> TruthResult:
    """True value of the estimand under the DGP.

    ``analytic`` sums exactly over the covariate support (bernoulli
    covariates only). ``monte_carlo`` averages ``mc_draws``
    counterfactual outcome draws with every treatment forced to 0 and
    reports the Monte Carlo standard error.
    """
    dgp.check()
    if method == "analytic":
        return TruthResult(value=_analytic_truth(dgp), method="analytic")
    if method == "monte_carlo":
        if mc_draws < 2:
            raise ValueError("mc_draws must be at least 2")
        return _monte_carlo_truth(dgp, int(mc_draws), mc_seed)
    raise ValueError(f"unknown truth method {method!r}")


# ---------------------------------------------------------------------------
# Experiment harness


@dataclass(frozen=True)
class EstimationPlan:
    """How each replicate is analyzed.

    ``outcome_covariates`` / ``propensity_covariates`` restrict the
    respective model to a subset of covariate columns — the concrete
    misspecification device (omit a confounder). A wrong link on
    ``outcome_learner`` is the other one. ``None`` means use every
    covariate.
    """

    outcome_learner: LearnerSpec = LearnerSpec("glm_main_terms")
    propensity_learner: LearnerSpec = LearnerSpec("glm_main_terms")
    truncation: Tuple[float, float] = DEFAULT_TRUNCATION
    n_folds: Optional[int] = None
    outcome_covariates: Optional[Tuple[str, ...]] = None
    propensity_covariates: Optional[Tuple[str, ...]] = None
    y_bounds: Optional[Tuple[float, float]] = None

    def __post_init__(self):
        _validate_truncation(self.truncation)

    def check_data(self, design: str, n_obs: int, names: Sequence[str]):
        """Raise ValueError unless the plan fits data of ``design`` with
        ``n_obs`` rows and covariates ``names``: the fold count lies in
        [2, ``n_obs``], and the covariate restrictions name covariates of
        the data (the longitudinal design supports none)."""
        if self.n_folds is not None:
            check_fold_count(self.n_folds, n_obs)
        restrictions = (("outcome", self.outcome_covariates),
                        ("propensity", self.propensity_covariates))
        for role, cols in restrictions:
            if cols is None:
                continue
            if design != "point":
                raise ValueError("covariate restrictions are not supported "
                                 "for the longitudinal design")
            unknown = [c for c in cols if c not in names]
            if unknown:
                raise ValueError(
                    f"unknown {role} covariates {unknown}; the data have "
                    f"{list(names)}")

    def to_dict(self) -> Dict[str, object]:
        return {
            "outcome_learner": self.outcome_learner.describe(),
            "propensity_learner": self.propensity_learner.describe(),
            "truncation": [self.truncation[0], self.truncation[1]],
            "folds": self.n_folds,
            "outcome_covariates":
                list(self.outcome_covariates)
                if self.outcome_covariates is not None else None,
            "propensity_covariates":
                list(self.propensity_covariates)
                if self.propensity_covariates is not None else None,
            "y_bounds": list(self.y_bounds)
            if self.y_bounds is not None else None,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, object]) -> "EstimationPlan":
        allowed = {"outcome_learner", "propensity_learner", "truncation",
                   "folds", "outcome_covariates", "propensity_covariates",
                   "y_bounds"}
        extra = set(d) - allowed
        if extra:
            raise ValueError(f"unknown plan keys {sorted(extra)}")

        def tup(key):
            v = d.get(key)
            return tuple(v) if v is not None else None

        return cls(
            outcome_learner=LearnerSpec.parse(
                d.get("outcome_learner", "glm_main_terms")),
            propensity_learner=LearnerSpec.parse(
                d.get("propensity_learner", "glm_main_terms")),
            truncation=tuple(d.get("truncation", DEFAULT_TRUNCATION)),
            n_folds=d.get("folds"),
            outcome_covariates=tup("outcome_covariates"),
            propensity_covariates=tup("propensity_covariates"),
            y_bounds=tup("y_bounds"),
        )


@dataclass
class ReplicateRecord:
    """One estimator's outcome on one replicate."""

    replicate: int
    estimator: str
    psi_hat: Optional[float] = None
    se: Optional[float] = None
    ci_lo: Optional[float] = None
    ci_hi: Optional[float] = None
    covered: Optional[bool] = None
    out_of_bounds: Optional[bool] = None
    error: Optional[str] = None

    def to_row(self) -> Dict[str, object]:
        return {
            "replicate": self.replicate,
            "estimator": self.estimator,
            "psi_hat": self.psi_hat,
            "se": self.se,
            "ci_lo": self.ci_lo,
            "ci_hi": self.ci_hi,
            "covered": self.covered,
            "out_of_bounds": self.out_of_bounds,
            "error": self.error or "",
        }


@dataclass
class EstimatorSummary:
    """Aggregated performance of one estimator across replicates."""

    estimator: str
    n_success: int
    n_failed: int
    mean_bias: Optional[float]
    empirical_se: Optional[float]
    mean_se: Optional[float]
    coverage: Optional[float]
    mean_ci_width: Optional[float]
    prop_out_of_bounds: Optional[float]

    def to_dict(self) -> Dict[str, object]:
        return {
            "estimator": self.estimator,
            "n_success": self.n_success,
            "n_failed": self.n_failed,
            "mean_bias": self.mean_bias,
            "empirical_se": self.empirical_se,
            "mean_se": self.mean_se,
            "coverage": self.coverage,
            "mean_ci_width": self.mean_ci_width,
            "prop_out_of_bounds": self.prop_out_of_bounds,
        }


@dataclass
class ExperimentReport:
    """Everything measured by one simulation experiment."""

    design: str
    n: int
    replications: int
    seed: int
    truth: TruthResult
    plan: EstimationPlan
    summaries: List[EstimatorSummary]
    replicates: List[ReplicateRecord]

    def summary_for(self, estimator: str) -> EstimatorSummary:
        for s in self.summaries:
            if s.estimator == estimator:
                return s
        raise KeyError(f"no summary for estimator {estimator!r}")

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "schema_version": 1,
            "design": self.design,
            "n": self.n,
            "replications": self.replications,
            "seed": self.seed,
            "truth": self.truth.to_dict(),
            "plan": self.plan.to_dict(),
            "estimators": [s.to_dict() for s in self.summaries],
        }

    def replicate_rows(self) -> List[Dict[str, object]]:
        return [r.to_row() for r in self.replicates]


def replicate_seed(master_seed: int, replicate: int) -> np.random.SeedSequence:
    """Independent, order-insensitive stream for one replicate."""
    return np.random.SeedSequence(master_seed, spawn_key=(replicate,))


def fit_plan_nuisance(data: Dataset, plan: EstimationPlan, fold_seed: int = 0):
    """Point-design nuisance estimates under the plan."""
    if plan.n_folds is not None:
        return crossfit(data, plan.outcome_learner, plan.propensity_learner,
                        plan.n_folds, fold_seed, plan.truncation,
                        outcome_covariates=plan.outcome_covariates,
                        propensity_covariates=plan.propensity_covariates)
    return fit_nuisance(data, plan.outcome_learner,
                        plan.propensity_learner, plan.truncation,
                        outcome_covariates=plan.outcome_covariates,
                        propensity_covariates=plan.propensity_covariates)


def fit_plan_nuisance_long(data: LongDataset, plan: EstimationPlan,
                           fold_seed: int = 0) -> SequentialNuisances:
    """Longitudinal nuisance estimates under the plan."""
    plan.check_data("longitudinal", data.n_obs, ())
    return long_est.fit_sequential_nuisances(
        data, g0_learner=plan.propensity_learner,
        g1_learner=plan.propensity_learner,
        mu_learner=plan.outcome_learner,
        truncation=plan.truncation,
        n_folds=plan.n_folds,
        seed=fold_seed)


def point_estimate(name: str, data: Dataset, nuis, plan: EstimationPlan
                   ) -> est.EstimateResult:
    """Run one point-design estimator by its name."""
    if name == "gcomp":
        return est.gcomp(data, nuis)
    if name == "one_step":
        return est.one_step(data, nuis)
    if name in POINT_ESTIMATORS:
        return est.tmle(data, nuis, name[len("tmle_"):],
                        y_bounds=plan.y_bounds)
    raise ValueError(f"unknown point estimator {name!r}")


def long_estimate(name: str, data: LongDataset, nuis: SequentialNuisances,
                  plan: EstimationPlan) -> est.EstimateResult:
    """Run one longitudinal estimator by its name."""
    if name == "one_step_long":
        return long_est.one_step_long(data, nuis,
                                      emu_learner=plan.outcome_learner)
    if name in LONG_ESTIMATORS:
        return long_est.tmle_long(
            data, emu_learner=plan.outcome_learner,
            truncation=plan.truncation, variant=name[len("tmle_long_"):],
            y_bounds=plan.y_bounds, nuisances=nuis)
    raise ValueError(f"unknown longitudinal estimator {name!r}")


# Failures of one replicate's draw, nuisance fit or estimator; each is
# recorded on the replicate instead of ending the experiment.
_REPLICATE_FAILURES = (GlmError, NuisanceError, est.DegenerateOutcomeError,
                       ValueError)


def _failure(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def run_experiment(dgp: DgpConfig, n: int, replications: int,
                   estimator_names: Sequence[str], plan: EstimationPlan,
                   seed: int, truth_method: str = "analytic",
                   mc_draws: int = 1_000_000) -> ExperimentReport:
    """Measure estimator performance over seeded replicates.

    Each replicate r draws its data from an independent stream derived
    from (seed, r), fits nuisances per the plan, and runs every
    requested estimator. Failures (separation, degenerate folds, ...)
    are recorded on the replicate and excluded from the aggregates; they
    are never silently dropped. A failed draw or nuisance fit fails every
    estimator of the replicate; an estimator's own failure fails only
    that estimator's record.
    """
    dgp.check()
    if replications < 2:
        raise ValueError("replications must be at least 2")
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    plan.check_data(dgp.design, n, dgp.w0_names)
    valid = POINT_ESTIMATORS if dgp.design == "point" else LONG_ESTIMATORS
    unknown = set(estimator_names) - set(valid)
    if unknown:
        raise ValueError(
            f"unknown estimators for the {dgp.design} design: "
            f"{sorted(unknown)}; valid names: {list(valid)}")
    truth = true_value(dgp, method=truth_method, mc_draws=mc_draws,
                       mc_seed=np.random.SeedSequence(seed, spawn_key=(2**31,)))
    bounds = plan.y_bounds if plan.y_bounds is not None \
        else dgp.implied_y_bounds()

    fit_nuisances, estimate = (
        (fit_plan_nuisance, point_estimate) if dgp.design == "point"
        else (fit_plan_nuisance_long, long_estimate))
    records: List[ReplicateRecord] = []
    for r in range(replications):
        ss = replicate_seed(seed, r)
        fold_seed = int(np.random.SeedSequence(
            seed, spawn_key=(r, 1)).generate_state(1)[0])
        try:
            # a draw can be too degenerate to estimate from (e.g. fewer
            # than 2 rows on the regime of interest); record, don't crash
            data = generate(dgp, n, ss)
            nuis = fit_nuisances(data, plan, fold_seed)
        except _REPLICATE_FAILURES as exc:
            for name in estimator_names:
                records.append(ReplicateRecord(replicate=r, estimator=name,
                                               error=_failure(exc)))
            continue
        for name in estimator_names:
            try:
                res = estimate(name, data, nuis, plan)
            except _REPLICATE_FAILURES as exc:
                records.append(ReplicateRecord(replicate=r, estimator=name,
                                               error=_failure(exc)))
                continue
            rec = ReplicateRecord(
                replicate=r, estimator=name,
                psi_hat=res.psi_hat, se=res.se,
                ci_lo=res.ci95[0], ci_hi=res.ci95[1],
                covered=bool(res.ci95[0] <= truth.value <= res.ci95[1]),
            )
            if bounds is not None:
                rec.out_of_bounds = bool(res.psi_hat < bounds[0]
                                         or res.psi_hat > bounds[1])
            records.append(rec)

    summaries = []
    for name in estimator_names:
        rows = [rec for rec in records if rec.estimator == name]
        ok = [rec for rec in rows if rec.error is None]
        n_ok = len(ok)
        if n_ok >= 2:
            psis = np.array([rec.psi_hat for rec in ok])
            ses = np.array([rec.se for rec in ok])
            widths = np.array([rec.ci_hi - rec.ci_lo for rec in ok])
            summaries.append(EstimatorSummary(
                estimator=name, n_success=n_ok, n_failed=len(rows) - n_ok,
                mean_bias=float(np.mean(psis) - truth.value),
                empirical_se=float(np.std(psis, ddof=1)),
                mean_se=float(np.mean(ses)),
                coverage=float(np.mean([rec.covered for rec in ok])),
                mean_ci_width=float(np.mean(widths)),
                prop_out_of_bounds=float(np.mean(
                    [rec.out_of_bounds for rec in ok]))
                if bounds is not None else None,
            ))
        else:
            summaries.append(EstimatorSummary(
                estimator=name, n_success=n_ok, n_failed=len(rows) - n_ok,
                mean_bias=None, empirical_se=None, mean_se=None,
                coverage=None, mean_ci_width=None, prop_out_of_bounds=None))

    return ExperimentReport(
        design=dgp.design, n=n, replications=replications, seed=seed,
        truth=truth, plan=plan, summaries=summaries, replicates=records)
