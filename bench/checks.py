"""Correctness checks on what eiftools CLI calls return and write.

Every check returns a list of problems; an empty list means the output
passed. The invariant checks hold at any seed; the reference comparison
applies only where ``reference.json`` holds values for the same workload,
seed and sizes.
"""

from __future__ import annotations

import csv
import io
import math
from typing import Dict, List, Optional, Sequence, Tuple

from tracer import Rebinder

LOGISTIC = ("tmle_weighted_logistic", "tmle_long_weighted_logistic")
SUMMARY_FIELDS = ("mean_bias", "empirical_se", "mean_se", "coverage",
                  "mean_ci_width", "prop_out_of_bounds", "n_success",
                  "n_failed")


class CertificateCapture:
    """Collects the diagnostics of every TMLE result while installed.

    ``simulate`` reports only summaries, so its certificates are read off
    the ``tmle`` and ``tmle_long`` results as the program returns them.
    """

    def __init__(self):
        self.diagnostics: List[dict] = []
        self._rebinder = Rebinder()

    def install(self) -> List[str]:
        """Wraps the TMLE entry points; returns the names that are missing."""
        for module, attr in (("eiftools.estimators", "tmle"),
                             ("eiftools.longitudinal", "tmle_long")):
            self._rebinder.wrap(module, attr, self._wrapper)
        return self._rebinder.absent

    def uninstall(self):
        self._rebinder.restore()

    def _wrapper(self, fn):
        def captured(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.diagnostics.append(dict(result.diagnostics,
                                         estimator=result.estimator,
                                         psi_hat=result.psi_hat))
            return result
        return captured


def certificate_problems(diagnostics: Sequence[dict], tol: float,
                         bounds: Tuple[float, float]) -> List[str]:
    """Targeting certificates and bound preservation of TMLE results."""
    problems = []
    lo, hi = bounds
    for d in diagnostics:
        name = d["estimator"]
        if "score_scale" in d:
            steps = [(d["score_residual"], d["score_scale"])]
        else:
            steps = [(d["step3_score_residual"], 1.0 + d["step3_weight_sum"]),
                     (d["step5_score_residual"], 1.0 + d["step5_weight_sum"])]
        for resid, scale in steps:
            if not abs(resid) <= tol * scale:
                problems.append(f"{name}: score residual {resid!r} exceeds "
                                f"{tol:g} * {scale!r}")
        if name in LOGISTIC:
            keys = ["psi_hat", "targeted_pred_min", "targeted_pred_max",
                    "mu_star_min", "mu_star_max"]
            for key in keys:
                if key in d and not lo <= d[key] <= hi:
                    problems.append(f"{name}: {key}={d[key]!r} outside the "
                                    f"outcome bounds [{lo}, {hi}]")
    return problems


def estimate_problems(out: dict, estimators: Sequence[str],
                      bounds: Tuple[float, float], tol: float) -> List[str]:
    """Checks on the JSON that ``eiftools estimate`` wrote."""
    names = [e["estimator"] for e in out.get("estimates", [])]
    if names != list(estimators):
        return [f"estimate reported {names}, expected {list(estimators)}"]
    problems = []
    for e in out["estimates"]:
        values = [e["psi_hat"], e["se"], *e["ci95"]]
        if not all(math.isfinite(v) for v in values):
            problems.append(f"{e['estimator']}: non-finite estimate {values}")
    tmles = [dict(e["diagnostics"], estimator=e["estimator"],
                  psi_hat=e["psi_hat"])
             for e in out["estimates"] if e["estimator"].startswith("tmle_")]
    return problems + certificate_problems(tmles, tol, bounds)


def simulate_problems(out: dict, rows: Sequence[dict],
                      estimators: Sequence[str], replications: int,
                      bounds: Tuple[float, float]) -> List[str]:
    """Checks on the report JSON and per-replicate CSV of ``simulate``."""
    names = [s["estimator"] for s in out.get("estimators", [])]
    if names != list(estimators):
        return [f"simulate reported {names}, expected {list(estimators)}"]
    if len(rows) != replications * len(estimators):
        return [f"{len(rows)} replicate rows, expected "
                f"{replications * len(estimators)}"]
    problems = []
    lo, hi = bounds
    for r in rows:
        if r["estimator"] in LOGISTIC and not r["error"]:
            psi = float(r["psi_hat"])
            if r["out_of_bounds"] != "false" or not lo <= psi <= hi:
                problems.append(f"replicate {r['replicate']} "
                                f"{r['estimator']}: psi_hat {psi!r} outside "
                                f"[{lo}, {hi}]")
    for s in out["estimators"]:
        if s["estimator"] in LOGISTIC and s["prop_out_of_bounds"] not in \
                (0.0, None):
            problems.append(f"{s['estimator']}: prop_out_of_bounds "
                            f"{s['prop_out_of_bounds']}")
    return problems


def read_rows(csv_text: str) -> List[dict]:
    return list(csv.DictReader(io.StringIO(csv_text)))


def reference_values(command: str, out: dict) -> Dict[str, float]:
    """The output values that are compared with the stored reference."""
    values: Dict[str, float] = {}
    if command == "estimate":
        for e in out["estimates"]:
            name = e["estimator"]
            values[f"{name}.psi_hat"] = e["psi_hat"]
            values[f"{name}.se"] = e["se"]
            values[f"{name}.ci_lo"] = e["ci95"][0]
            values[f"{name}.ci_hi"] = e["ci95"][1]
        return values
    values["truth"] = out["truth"]["value"]
    for s in out["estimators"]:
        for key in SUMMARY_FIELDS:
            if s[key] is not None:
                values[f"{s['estimator']}.{key}"] = s[key]
    return values


def reference_problems(values: Dict[str, float],
                       reference: Optional[Dict[str, float]],
                       tol: float) -> List[str]:
    """Differences from the reference beyond ``tol`` (relative above 1)."""
    if reference is None:
        return []
    problems = []
    for key in sorted(set(values) | set(reference)):
        got, want = values.get(key), reference.get(key)
        if got is None or want is None:
            problems.append(f"reference mismatch: {key} is "
                            f"{'missing' if got is None else 'unexpected'}")
        elif not abs(got - want) <= tol * max(1.0, abs(want)):
            problems.append(f"reference mismatch: {key} = {got!r}, "
                            f"reference {want!r} (tolerance {tol:g})")
    return problems
